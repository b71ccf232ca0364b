//! # cxlg-sim — deterministic discrete-event simulation engine
//!
//! This crate provides the timing substrate used by every hardware model in
//! the `cxl-gpu-graph` workspace: simulated time, in-order event lanes, and
//! a small set of queueing-theory building blocks (bandwidth-serialized
//! channels, rate-limited servers, credit pools) from which the PCIe link,
//! the CXL memory prototype and the flash drives are assembled.
//!
//! ## Design notes
//!
//! * **Time** is an integer number of **picoseconds** ([`SimTime`],
//!   [`SimDuration`]). Picosecond resolution keeps byte-level serialization
//!   delays on a 24 GB/s link (≈41.7 ps/byte) exact without floating-point
//!   drift, while a `u64` still spans ~213 days of simulated time.
//! * **Determinism**: the engine has no wall-clock or OS dependencies, and
//!   ties between events scheduled for the same instant are broken by
//!   insertion order. Every stochastic model draws from the seeded
//!   [`rng::Xoshiro256StarStar`] generator. Two runs with identical
//!   configurations produce bit-identical results, which the test-suite and
//!   the paper-figure harnesses rely on.
//! * **No inversion of control**: rather than a trait-object component
//!   framework, a [`Lane`] is a plain `(time, seq)`-ordered event list and
//!   the *driver* (in `cxlg-core`) owns the event loop, one lane per event
//!   kind, the shared sequence counter, and all component state. This
//!   keeps borrows simple and the hot loop monomorphic.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod channel;
pub mod credit;
pub mod event;
pub mod rng;
pub mod server;
pub mod stats;
pub mod time;

pub use channel::BandwidthChannel;
pub use credit::CreditPool;
pub use event::Lane;
pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use server::RateServer;
pub use stats::OnlineStats;
pub use time::{Bandwidth, SimDuration, SimTime};
