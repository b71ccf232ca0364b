//! # cxlg-serve — the campaign's content-addressed result cache
//!
//! `cxlg run --cached` runs the ordinary campaign loop with one extra
//! step per experiment: derive the experiment's key, serve a verified
//! stored result if there is one, and otherwise execute and publish.
//! This crate holds the pieces of that step that know the cache format:
//!
//! * [`job`] — the [`Job`] model and the deterministic [`JobKey`],
//!   derived from the job fields, the graph fingerprints of its
//!   datasets, and the build identity of the code that ran it;
//! * [`store`] — [`ResultStore`]: one directory per job key holding the
//!   result payloads and a manifest with integrity checksums, published
//!   atomically (write-then-rename), verified on every read,
//!   quarantined when damaged, recovered on open, and bounded by GC.
//!
//! The crate does not know what an experiment is; `cxlg-bench` runs
//! them and hands this crate names and bytes, so the dependency arrow
//! points one way (`bench → serve`).
//!
//! Determinism contract: a cached result is byte-identical to a fresh
//! run (checksummed payload bytes are replayed verbatim), and every
//! serialized artifact is byte-stable except the store manifest's
//! explicitly exempted wall-clock / RSS telemetry fields.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod job;
pub mod store;

pub use job::{Job, JobKey};
pub use store::ResultStore;
