//! # cxlg-gpu — GPU execution model
//!
//! The paper reduces the GPU to the properties that matter for
//! external-memory graph traversal (§3.3.1, §3.5.2): it keeps thousands of
//! warps' worth of requests in flight (3,072 warps on the RTX A5000, of
//! which ~2,048 are active during BFS), it accesses memory in 32 B sectors
//! merged into at most 128 B cache-line transactions (the EMOGI zero-copy
//! path), and — for storage backends — it can run a software cache in its
//! onboard memory (BaM) or drive submission queues placed in BAR-mapped
//! GPU memory (BaM / XLFDD). This crate implements exactly those pieces:
//!
//! * [`config::GpuConfig`] — warp counts and per-item processing cost;
//! * [`coalesce`] — the 32 B-sector coalescer that produces EMOGI's
//!   32/64/96/128 B request mix (average 89.6 B in §3.3.1);
//! * [`swcache`] — BaM's set-associative GPU-memory software cache, also
//!   the page-residency structure of UVM;
//! * [`bar`] — submission-queue cost model for GPU-initiated storage
//!   access (XLFDD has no completion queues, §4.1.1);
//! * [`pointer_chase`] — the Appendix-B latency microbenchmark;
//! * [`uvm`] — the paging parameters (4 kB pages, per-fault overhead) of
//!   the unified-virtual-memory baseline that EMOGI's zero-copy access
//!   supersedes (Related Work, §6).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bar;
pub mod coalesce;
pub mod config;
pub mod pointer_chase;
pub mod swcache;
pub mod uvm;

pub use bar::SubmissionQueueModel;
pub use coalesce::{coalesce_span, Transaction};
pub use config::GpuConfig;
pub use pointer_chase::PointerChase;
pub use swcache::{SoftwareCache, SoftwareCacheConfig};
pub use uvm::UvmConfig;
