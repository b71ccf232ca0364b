//! The 32 B-sector coalescer behind EMOGI's zero-copy access pattern.
//!
//! §3.3.1 of the paper: EMOGI issues zero-copy reads "at a multiple of
//! 32 B up to the GPU's hardware cache line size of 128 B", and cleverly
//! arranges the reads "so that the GPU merges them into a larger size when
//! an edge sublist spans multiple of 32 B alignments" \[14\]. The resulting
//! request-size distribution over 32/64/96/128 B determines the average
//! transfer size `d_EMOGI` (their conservative estimate: 20/20/20/40 % ⇒
//! 89.6 B), which in turn sets the latency budget through Equation 6.
//!
//! [`coalesce_span`] reproduces the hardware rule: a byte span is clipped
//! to 128 B-aligned lines, and within each line the covered 32 B sectors
//! form one transaction.

use cxlg_graph::layout::{align_down, ByteSpan};

/// One coalesced memory transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transaction {
    /// Sector-aligned start address.
    pub addr: u64,
    /// Transaction size (a multiple of the sector size, at most one line).
    pub bytes: u64,
}

/// Split `span` into per-line transactions of whole sectors.
///
/// Calls `f` once per transaction, in address order. `line` and `sector`
/// must be powers of two with `sector <= line`.
pub fn coalesce_span(span: ByteSpan, line: u64, sector: u64, mut f: impl FnMut(Transaction)) {
    debug_assert!(line.is_power_of_two() && sector.is_power_of_two());
    debug_assert!(sector <= line);
    if span.is_empty() {
        return;
    }
    let mut cur = align_down(span.offset, sector);
    let end = span.end();
    while cur < end {
        let line_end = align_down(cur, line) + line;
        let stop = line_end.min(end);
        // Whole sectors covering [cur, stop).
        let bytes = (stop - cur).div_ceil(sector) * sector;
        f(Transaction { addr: cur, bytes });
        cur += bytes;
        // `bytes` never overruns the line: stop <= line_end and cur was
        // sector-aligned, so cur + bytes <= line_end.
        debug_assert!(cur <= line_end);
    }
}

/// Collect transactions into a vector (testing / tracing convenience).
pub fn coalesce_span_vec(span: ByteSpan, line: u64, sector: u64) -> Vec<Transaction> {
    let mut v = Vec::new();
    coalesce_span(span, line, sector, |t| v.push(t));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(offset: u64, len: u64) -> ByteSpan {
        ByteSpan { offset, len }
    }

    #[test]
    fn empty_span_produces_nothing() {
        assert!(coalesce_span_vec(span(100, 0), 128, 32).is_empty());
    }

    #[test]
    fn aligned_line_is_one_transaction() {
        let ts = coalesce_span_vec(span(256, 128), 128, 32);
        assert_eq!(ts, vec![Transaction { addr: 256, bytes: 128 }]);
    }

    #[test]
    fn sublist_within_one_sector() {
        // 8 bytes at offset 4 -> one 32 B sector read (sector-aligned).
        let ts = coalesce_span_vec(span(4, 8), 128, 32);
        assert_eq!(ts, vec![Transaction { addr: 0, bytes: 32 }]);
    }

    #[test]
    fn span_crossing_line_boundary_splits() {
        // Bytes [96, 160): sectors 96..128 in line 0, 128..160 in line 1.
        let ts = coalesce_span_vec(span(96, 64), 128, 32);
        assert_eq!(
            ts,
            vec![
                Transaction { addr: 96, bytes: 32 },
                Transaction { addr: 128, bytes: 32 },
            ]
        );
    }

    #[test]
    fn mid_line_start_produces_96b_then_full_lines() {
        // A 256 B sublist starting 32 B into a line: 96 B + 128 B + 32 B.
        let ts = coalesce_span_vec(span(32, 256), 128, 32);
        assert_eq!(
            ts,
            vec![
                Transaction { addr: 32, bytes: 96 },
                Transaction { addr: 128, bytes: 128 },
                Transaction { addr: 256, bytes: 32 },
            ]
        );
        let total: u64 = ts.iter().map(|t| t.bytes).sum();
        assert_eq!(total, 256);
    }

    #[test]
    fn transactions_never_exceed_line_or_misalign() {
        for offset in [0u64, 8, 16, 24, 40, 100, 120, 250] {
            for len in [8u64, 16, 40, 100, 256, 1000] {
                for t in coalesce_span_vec(span(offset, len), 128, 32) {
                    assert_eq!(t.addr % 32, 0, "unaligned addr {}", t.addr);
                    assert!(t.bytes >= 32 && t.bytes <= 128);
                    assert_eq!(t.bytes % 32, 0);
                    // Stays within one line.
                    assert_eq!(t.addr / 128, (t.addr + t.bytes - 1) / 128);
                }
            }
        }
    }

    #[test]
    fn coverage_includes_whole_span() {
        let s = span(100, 500);
        let ts = coalesce_span_vec(s, 128, 32);
        let lo = ts.first().unwrap().addr;
        let hi = ts.last().map(|t| t.addr + t.bytes).unwrap();
        assert!(lo <= s.offset);
        assert!(hi >= s.end());
        // Transactions are contiguous and non-overlapping.
        for w in ts.windows(2) {
            assert_eq!(w[0].addr + w[0].bytes, w[1].addr);
        }
    }

    #[test]
    fn random_sublists_average_lands_near_paper_estimate() {
        // Random 256 B sublists at random 8 B-aligned offsets (urand's
        // average degree): the mean transaction size should be on the
        // order of the paper's 89.6 B estimate.
        let (mut count, mut bytes) = (0u64, 0u64);
        let mut state = 99u64;
        for _ in 0..10_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let offset = (state >> 20) % 100_000 * 8;
            coalesce_span(span(offset, 256), 128, 32, |t| {
                count += 1;
                bytes += t.bytes;
            });
        }
        let mean = bytes as f64 / count as f64;
        assert!(
            (80.0..128.0).contains(&mean),
            "mean transaction {mean} B out of plausible EMOGI range"
        );
    }
}
