//! Unified-virtual-memory (UVM) access model — the baseline EMOGI
//! supersedes.
//!
//! Related Work (§6): *"These methods are based on a unified virtual
//! memory (UVM) approach where portions of the host DRAM are copied to
//! the GPU memory via paging at a 4 kB granularity \[15\]. EMOGI instead
//! uses zero-copy access and has shown that this fine-grained direct
//! access significantly reduces the RAF compared with the UVM
//! approach."*
//!
//! The model is BaM's software cache ([`crate::swcache`]) at page
//! granularity: GPU-resident pages are its lines, evicted LRU within the
//! GPU memory budget, and a touched non-resident page is a **page
//! fault** — a 4 kB page migration over the link plus a fixed
//! fault-handling overhead (driver + TLB shootdown work on the order of
//! tens of microseconds for a fault batch; we charge a per-page cost).
//! Faults are also *synchronous* per warp, which is what makes UVM
//! thrash on random access. This module holds only the paging
//! parameters; `cxlg_core` plans through the cache and charges the
//! overhead at issue.

use cxlg_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// UVM paging parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UvmConfig {
    /// Migration granularity (4 kB pages, \[15\]).
    pub page_bytes: u64,
    /// Fault-handling overhead per faulted page, in ps (driver runtime,
    /// not including the data transfer itself). GPU page-fault handling
    /// costs ~20–45 µs per fault group; amortized per page we default to
    /// 15 µs.
    pub fault_overhead_ps: u64,
}

impl Default for UvmConfig {
    fn default() -> Self {
        UvmConfig {
            page_bytes: 4096,
            fault_overhead_ps: 15_000_000,
        }
    }
}

impl UvmConfig {
    /// The per-page fault overhead as a duration.
    pub fn fault_overhead(&self) -> SimDuration {
        SimDuration::from_ps(self.fault_overhead_ps)
    }
}
