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
//! The model: GPU-resident pages are tracked in a page table with LRU
//! eviction (GPU memory budget); a touched non-resident page triggers a
//! **page fault** — a fixed fault-handling overhead (driver + TLB
//! shootdown work on the order of tens of microseconds for a fault
//! batch; we charge a per-page cost) plus a 4 kB page migration over the
//! link. Faults are also *synchronous* per warp, which is what makes UVM
//! thrash on random access.

use crate::swcache::{AccessOutcome, SoftwareCache, SoftwareCacheConfig};
use cxlg_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// UVM paging parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UvmConfig {
    /// Migration granularity (4 kB pages, \[15\]).
    pub page_bytes: u64,
    /// GPU memory devoted to migrated pages.
    pub resident_bytes: u64,
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
            resident_bytes: 1 << 30,
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

/// Outcome of touching one page through the UVM layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UvmAccess {
    /// Page already resident in GPU memory.
    Resident,
    /// Page fault: migrate `page_bytes` and pay the fault overhead.
    Fault,
}

/// The UVM page table: residency tracking with LRU eviction, implemented
/// over the same set-associative structure as the software cache (the
/// driver's own page tables are fully associative, but at thousands of
/// pages the difference is negligible and the hashed sets keep it fast).
#[derive(Debug, Clone)]
pub struct UvmPageTable {
    cfg: UvmConfig,
    table: SoftwareCache,
    faults: u64,
}

impl UvmPageTable {
    /// Empty page table.
    pub fn new(cfg: UvmConfig) -> Self {
        UvmPageTable {
            table: SoftwareCache::new(SoftwareCacheConfig::new(
                cfg.resident_bytes,
                cfg.page_bytes,
            )),
            cfg,
            faults: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &UvmConfig {
        &self.cfg
    }

    /// Touch the page containing byte `addr`.
    pub fn touch(&mut self, addr: u64) -> UvmAccess {
        match self.table.access(addr / self.cfg.page_bytes) {
            AccessOutcome::Hit => UvmAccess::Resident,
            AccessOutcome::Miss { .. } => {
                self.faults += 1;
                UvmAccess::Fault
            }
        }
    }

    /// Page faults so far.
    pub fn faults(&self) -> u64 {
        self.faults
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(resident_pages: u64) -> UvmPageTable {
        UvmPageTable::new(UvmConfig {
            resident_bytes: resident_pages * 4096,
            ..UvmConfig::default()
        })
    }

    #[test]
    fn first_touch_faults_second_is_resident() {
        let mut pt = small(64);
        assert_eq!(pt.touch(5000), UvmAccess::Fault);
        assert_eq!(pt.touch(5001), UvmAccess::Resident);
        assert_eq!(pt.touch(4096), UvmAccess::Resident, "same page");
        assert_eq!(pt.touch(8192), UvmAccess::Fault, "next page");
        assert_eq!(pt.faults(), 2);
    }

    #[test]
    fn working_set_beyond_residency_thrashes() {
        let mut pt = small(32);
        // Touch 4x the resident capacity, twice.
        for _ in 0..2 {
            for page in 0..128u64 {
                pt.touch(page * 4096);
            }
        }
        // 256 touches, over 80% of them faults.
        assert!(
            pt.faults() > 204,
            "UVM should thrash on an oversized working set: {} faults",
            pt.faults()
        );
    }

    #[test]
    fn working_set_within_residency_settles() {
        let mut pt = small(256);
        for _ in 0..4 {
            for page in 0..64u64 {
                pt.touch(page * 4096);
            }
        }
        // 64 cold faults out of 256 touches.
        assert_eq!(pt.faults(), 64);
    }

    #[test]
    fn default_fault_overhead_is_tens_of_microseconds() {
        let cfg = UvmConfig::default();
        let us = cfg.fault_overhead().as_us_f64();
        assert!((5.0..50.0).contains(&us), "{us}");
        assert_eq!(cfg.page_bytes, 4096);
    }
}
