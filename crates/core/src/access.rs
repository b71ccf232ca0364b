//! The three external-memory access methods the paper studies (§3.3,
//! §4.1.1).
//!
//! An access method converts an *edge-sublist read* (a byte span of the
//! external edge list) into concrete device requests:
//!
//! * [`AccessMethod::ZeroCopy`] — **EMOGI** (§3.3.1): the GPU reads the
//!   span directly; the coalescer emits one 32–128 B transaction per
//!   touched cache line. Alignment `a` = 32 B comes from the GPU
//!   architecture. No state.
//! * [`AccessMethod::SoftwareCache`] — **BaM** (§3.3.2): data is read at
//!   cache-line granularity (`d = a`) through a GPU-memory software
//!   cache; only misses reach the device. UVM paging (§6) is this
//!   method at 4 kB lines: a miss is a page fault, whose driver overhead
//!   the engine charges at issue (`EngineConfig::issue_overhead`). The
//!   Figure 3 RAF replay ([`crate::raf`]) plans through it too, so this
//!   is the one loop that walks lines through a cache.
//! * [`AccessMethod::Direct`] — **XLFDD** (§4.1.1): no cache; the whole
//!   sublist is fetched in one request rounded to the drive's small
//!   alignment, split only at the 2 kB max transfer. This keeps the
//!   average transfer size `d` close to the average sublist size.

use cxlg_device::xlfdd::XlfddConfig;
use cxlg_graph::layout::{align_down, align_up, span_block_range, ByteSpan};
use cxlg_gpu::coalesce::coalesce_span;
use cxlg_gpu::swcache::{SoftwareCache, SoftwareCacheConfig};
use serde::{Deserialize, Serialize};

/// One read request as seen by the external device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DeviceRequest {
    /// Aligned byte address in the external edge list.
    pub addr: u64,
    /// Request size in bytes.
    pub bytes: u64,
}

/// A configured access method (stateful for the BaM cache).
#[derive(Debug, Clone)]
pub enum AccessMethod {
    /// EMOGI zero-copy: per-line sector-coalesced transactions.
    ZeroCopy {
        /// GPU cache-line size (128 B).
        line: u64,
        /// GPU sector size — the effective alignment `a` (32 B).
        sector: u64,
    },
    /// BaM (and UVM): software cache with line size = alignment `a`.
    SoftwareCache {
        /// The cache (line size defines the device request size).
        cache: SoftwareCache,
    },
    /// XLFDD-direct: whole-sublist requests at a small alignment.
    ///
    /// Consecutive sublists that share an aligned block are merged: the
    /// GPU kernel hands consecutive frontier vertices to the same warp,
    /// which fetches a shared block once. This matters only at large
    /// alignments (a 4 kB block holds many 256 B sublists) — exactly the
    /// regime where Figure 5's XLFDD curve would otherwise explode past
    /// the measured ~3.7x.
    Direct {
        /// Device address alignment (16 B for XLFDD).
        alignment: u64,
        /// Maximum single transfer (2 kB for XLFDD).
        max_transfer: u64,
        /// End of the last fetched aligned range in the current level
        /// (reset by [`AccessMethod::begin_level`]).
        fetched_to: u64,
    },
}

impl AccessMethod {
    /// EMOGI defaults (128 B lines, 32 B sectors).
    pub fn emogi() -> Self {
        AccessMethod::ZeroCopy {
            line: 128,
            sector: 32,
        }
    }

    /// BaM with the given cache capacity and line size (= alignment).
    pub fn bam(capacity_bytes: u64, line_bytes: u64) -> Self {
        AccessMethod::SoftwareCache {
            cache: SoftwareCache::new(SoftwareCacheConfig::new(capacity_bytes, line_bytes)),
        }
    }

    /// XLFDD-direct with the paper's interface limits: the given
    /// alignment, split at the drive's max transfer (2 kB).
    pub fn xlfdd_direct(alignment: u64) -> Self {
        AccessMethod::Direct {
            alignment,
            max_transfer: XlfddConfig::default().max_transfer,
            fetched_to: 0,
        }
    }

    /// Start a new traversal level: frontier offsets restart from low
    /// addresses, so the Direct method's block-merge window resets.
    pub fn begin_level(&mut self) {
        if let AccessMethod::Direct { fetched_to, .. } = self {
            *fetched_to = 0;
        }
    }

    /// The effective address alignment `a` of this method.
    pub fn alignment(&self) -> u64 {
        match self {
            AccessMethod::ZeroCopy { sector, .. } => *sector,
            AccessMethod::SoftwareCache { cache } => cache.config().line_bytes,
            AccessMethod::Direct { alignment, .. } => *alignment,
        }
    }

    /// Convert one sublist span into device requests, appending to `out`.
    /// Returns the number of cache hits (software cache: lines already
    /// resident; Direct: a span inside a block already fetched this
    /// level), which produce no request.
    pub fn requests_for_span(&mut self, span: ByteSpan, out: &mut Vec<DeviceRequest>) -> u64 {
        if span.is_empty() {
            return 0;
        }
        match self {
            AccessMethod::ZeroCopy { line, sector } => {
                coalesce_span(span, *line, *sector, |t| {
                    out.push(DeviceRequest {
                        addr: t.addr,
                        bytes: t.bytes,
                    });
                });
                0
            }
            AccessMethod::SoftwareCache { cache } => {
                let line_bytes = cache.config().line_bytes;
                let (first, last) = span_block_range(span, line_bytes);
                let mut hits = 0;
                for line in first..last {
                    if cache.access(line) {
                        hits += 1;
                    } else {
                        out.push(DeviceRequest {
                            addr: line * line_bytes,
                            bytes: line_bytes,
                        });
                    }
                }
                hits
            }
            AccessMethod::Direct {
                alignment,
                max_transfer,
                fetched_to,
            } => {
                let start = align_down(span.offset, *alignment).max(*fetched_to);
                let end = align_up(span.end(), *alignment);
                if start >= end {
                    // Entirely inside a block already fetched for a
                    // neighboring sublist this level.
                    return 1;
                }
                let mut cur = start;
                while cur < end {
                    let len = (*max_transfer).min(end - cur);
                    out.push(DeviceRequest {
                        addr: cur,
                        bytes: len,
                    });
                    cur += len;
                }
                *fetched_to = end;
                0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(offset: u64, len: u64) -> ByteSpan {
        ByteSpan { offset, len }
    }

    fn collect(m: &mut AccessMethod, s: ByteSpan) -> Vec<DeviceRequest> {
        let mut v = Vec::new();
        m.requests_for_span(s, &mut v);
        v
    }

    #[test]
    fn emogi_produces_sector_transactions() {
        let mut m = AccessMethod::emogi();
        let reqs = collect(&mut m, span(32, 256));
        assert_eq!(reqs.len(), 3);
        assert_eq!(reqs[0].bytes, 96);
        assert_eq!(reqs[1].bytes, 128);
        assert_eq!(reqs[2].bytes, 32);
        assert_eq!(m.alignment(), 32);
    }

    #[test]
    fn bam_fetches_whole_lines_once() {
        let mut m = AccessMethod::bam(1 << 20, 4096);
        // A 256 B sublist in page 2.
        let reqs = collect(&mut m, span(2 * 4096 + 100, 256));
        assert_eq!(
            reqs,
            vec![DeviceRequest {
                addr: 8192,
                bytes: 4096
            }]
        );
        // A neighboring sublist in the same page: pure hit, no request.
        let mut out = Vec::new();
        let hits = m.requests_for_span(span(2 * 4096 + 400, 256), &mut out);
        assert!(out.is_empty());
        assert_eq!(hits, 1);
        assert_eq!(m.alignment(), 4096);
    }

    #[test]
    fn bam_span_straddling_lines_fetches_both() {
        let mut m = AccessMethod::bam(1 << 20, 512);
        let reqs = collect(&mut m, span(500, 100)); // bytes 500..600: lines 0 and 1
        assert_eq!(
            reqs,
            vec![
                DeviceRequest {
                    addr: 0,
                    bytes: 512
                },
                DeviceRequest {
                    addr: 512,
                    bytes: 512
                },
            ]
        );
    }

    #[test]
    fn direct_fetches_one_aligned_request() {
        let mut m = AccessMethod::xlfdd_direct(16);
        // 440 B sublist at an odd offset.
        let reqs = collect(&mut m, span(1003, 440));
        assert_eq!(reqs.len(), 1);
        let r = reqs[0];
        assert_eq!(r.addr % 16, 0);
        assert!(r.addr <= 1003);
        assert!(r.addr + r.bytes >= 1003 + 440);
        // Rounded tightly: at most 15 bytes of slack each side.
        assert!(r.bytes <= 440 + 32);
    }

    #[test]
    fn direct_splits_at_max_transfer() {
        let mut m = AccessMethod::xlfdd_direct(16);
        // 5000 B sublist: 2048 + 2048 + remainder.
        let reqs = collect(&mut m, span(0, 5000));
        assert_eq!(reqs.len(), 3);
        assert_eq!(reqs[0].bytes, 2048);
        assert_eq!(reqs[1].bytes, 2048);
        assert_eq!(reqs[2].bytes, 5008 - 4096);
        let total: u64 = reqs.iter().map(|r| r.bytes).sum();
        assert_eq!(total, align_up(5000, 16));
    }

    #[test]
    fn direct_merges_consecutive_sublists_sharing_a_block() {
        // Two 256 B sublists inside the same 4 kB block: the second is
        // already fetched (merged), so it produces no new request.
        let mut m = AccessMethod::Direct {
            alignment: 4096,
            max_transfer: 4096,
            fetched_to: 0,
        };
        let r1 = collect(&mut m, span(100, 256));
        assert_eq!(
            r1,
            vec![DeviceRequest {
                addr: 0,
                bytes: 4096
            }]
        );
        let mut out = Vec::new();
        let merged = m.requests_for_span(span(400, 256), &mut out);
        assert!(out.is_empty(), "second sublist should merge");
        assert_eq!(merged, 1);
        // A sublist straddling into the next block fetches only the
        // unfetched tail.
        let r3 = collect(&mut m, span(4000, 256));
        assert_eq!(
            r3,
            vec![DeviceRequest {
                addr: 4096,
                bytes: 4096
            }]
        );
    }

    #[test]
    fn direct_merge_resets_per_level() {
        let mut m = AccessMethod::xlfdd_direct(4096);
        let _ = collect(&mut m, span(0, 256));
        let mut out = Vec::new();
        assert_eq!(m.requests_for_span(span(512, 256), &mut out), 1);
        assert!(out.is_empty());
        // New level: offsets restart; the same block is fetched again.
        m.begin_level();
        let again = collect(&mut m, span(512, 256));
        assert!(!again.is_empty(), "level reset should clear the window");
    }

    #[test]
    fn direct_merge_is_noop_at_small_alignment() {
        // At 16 B alignment, 256 B sublists almost never share blocks;
        // back-to-back adjacent sublists still fetch their own bytes.
        let mut m = AccessMethod::xlfdd_direct(16);
        let r1 = collect(&mut m, span(0, 256));
        let r2 = collect(&mut m, span(256, 256));
        assert_eq!(r1.iter().map(|r| r.bytes).sum::<u64>(), 256);
        assert_eq!(r2.iter().map(|r| r.bytes).sum::<u64>(), 256);
    }

    #[test]
    fn device_request_is_sixteen_bytes() {
        // A run's plan is dominated by requests: 16 B each (address and
        // size) since the UVM fault overhead moved to the engine config.
        assert_eq!(std::mem::size_of::<DeviceRequest>(), 16);
    }

    /// The UVM method as the system builds it, for an edge list small
    /// enough that the 256-page residency floor binds.
    fn uvm() -> AccessMethod {
        use cxlg_link::pcie::PcieGen;
        crate::system::SystemConfig::uvm_on_dram(PcieGen::Gen4).build_access(1 << 20)
    }

    /// Page faults (device requests) of touching each page once, in order.
    fn uvm_faults(m: &mut AccessMethod, pages: impl IntoIterator<Item = u64>) -> usize {
        let mut out = Vec::new();
        for p in pages {
            m.requests_for_span(span(p * 4096, 1), &mut out);
        }
        out.len()
    }

    #[test]
    fn uvm_first_touch_faults_then_page_is_resident() {
        let mut m = uvm();
        assert_eq!(
            collect(&mut m, span(5000, 1)),
            vec![DeviceRequest {
                addr: 4096,
                bytes: 4096
            }]
        );
        let mut out = Vec::new();
        assert_eq!(m.requests_for_span(span(5001, 1), &mut out), 1);
        assert_eq!(m.requests_for_span(span(4096, 1), &mut out), 1, "same page");
        assert!(out.is_empty());
        assert_eq!(collect(&mut m, span(8192, 1)).len(), 1, "next page faults");
    }

    #[test]
    fn uvm_faults_whole_pages_once() {
        let mut m = uvm();
        let reqs = collect(&mut m, span(4096 + 100, 5000));
        assert_eq!(
            reqs,
            vec![
                DeviceRequest {
                    addr: 4096,
                    bytes: 4096
                },
                DeviceRequest {
                    addr: 8192,
                    bytes: 4096
                },
            ]
        );
        let mut out = Vec::new();
        assert_eq!(m.requests_for_span(span(8192, 64), &mut out), 1);
        assert!(out.is_empty());
    }

    #[test]
    fn uvm_working_set_beyond_residency_thrashes() {
        // The 256-page budget, cycled at 4x its size twice: over 80% of
        // the touches fault.
        let mut m = uvm();
        let faults = uvm_faults(&mut m, (0..2).flat_map(|_| 0..1024u64));
        assert!(
            faults * 10 > 2048 * 8,
            "UVM should thrash on an oversized working set: {faults} faults of 2048"
        );
    }

    #[test]
    fn uvm_working_set_within_residency_settles() {
        // 64 cold faults out of 256 touches.
        let mut m = uvm();
        assert_eq!(uvm_faults(&mut m, (0..4).flat_map(|_| 0..64u64)), 64);
    }

    #[test]
    fn empty_span_produces_no_requests() {
        for m in [
            &mut AccessMethod::emogi(),
            &mut AccessMethod::bam(1 << 20, 4096),
            &mut AccessMethod::xlfdd_direct(16),
        ] {
            assert!(collect(m, span(123, 0)).is_empty());
        }
    }

    #[test]
    fn fetched_bytes_ordering_matches_observation_1() {
        // For the same 256 B sublist at an unaligned offset, fetched bytes
        // should rank: direct(16) <= emogi(32) <= bam(4096) — the essence
        // of Observation 1.
        let s = span(1000, 256);
        let sum = |reqs: &[DeviceRequest]| reqs.iter().map(|r| r.bytes).sum::<u64>();
        let direct = sum(&collect(&mut AccessMethod::xlfdd_direct(16), s));
        let emogi = sum(&collect(&mut AccessMethod::emogi(), s));
        let bam = sum(&collect(&mut AccessMethod::bam(1 << 20, 4096), s));
        assert!(direct <= emogi, "{direct} > {emogi}");
        assert!(emogi <= bam, "{emogi} > {bam}");
        assert!(direct >= 256);
    }
}
