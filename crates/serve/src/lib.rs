//! # cxlg-serve — the campaign's content-addressed result cache
//!
//! `cxlg run --cached` runs the ordinary campaign loop with one probe
//! before and one publish after each experiment: derive the
//! experiment's key, serve a verified stored result if there is one,
//! and otherwise run the experiment as a plain campaign would and
//! publish what it wrote. This crate holds the pieces that know the
//! cache format:
//!
//! * [`job`] — the [`Job`] model and the deterministic [`JobKey`],
//!   derived from the job fields and the build identity of the code
//!   that runs it — everything a result byte depends on, so deriving a
//!   key never builds a graph;
//! * [`store`] — [`ResultStore`]: one directory per job key holding the
//!   result payloads and a manifest with integrity checksums, published
//!   atomically (write-then-rename), verified on every read,
//!   quarantined when damaged, recovered on open, and bounded by GC.
//!   The store is the cached run's whole on-disk state.
//!
//! The crate does not know what an experiment is; `cxlg-bench` runs
//! them and hands this crate names and bytes, so the dependency arrow
//! points one way (`bench → serve`).
//!
//! Determinism contract: a cached result is byte-identical to a fresh
//! run (checksummed payload bytes are replayed verbatim), and every
//! serialized artifact is byte-stable for a given job and publication
//! order.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod job;
pub mod store;

pub use job::{Job, JobKey};
pub use store::ResultStore;
