//! Byte-level layout of the edge list on external memory, and the
//! alignment arithmetic behind the paper's read-amplification analysis.
//!
//! Per Table 1, every neighbor ID occupies 8 bytes on the external device,
//! so vertex `v`'s *edge sublist* occupies bytes
//! `[8 * offsets[v], 8 * offsets[v+1])` of the edge list. When the device
//! (or cache) enforces an address alignment `a`, fetching that span costs
//! `span_aligned_bytes` — the quantity whose ratio to the useful bytes is
//! the read-amplification factor (RAF, §3.1, Figure 2).

use crate::csr::Csr;
use crate::storage::CsrView;
use crate::VertexId;
use serde::{Deserialize, Serialize};

/// Bytes per neighbor ID on the external device (Table 1 footnote).
pub const BYTES_PER_ID: u64 = 8;

/// A byte range within the external edge list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ByteSpan {
    /// Starting byte offset.
    pub offset: u64,
    /// Length in bytes (may be zero for isolated vertices).
    pub len: u64,
}

impl ByteSpan {
    /// End offset (exclusive).
    #[inline]
    pub fn end(self) -> u64 {
        self.offset + self.len
    }

    /// Is this span empty?
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// Round `x` down to a multiple of `align` (power of two).
#[inline]
pub fn align_down(x: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    x & !(align - 1)
}

/// Round `x` up to a multiple of `align` (power of two).
#[inline]
pub fn align_up(x: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (x + align - 1) & !(align - 1)
}

/// Bytes actually fetched when reading `span` at alignment `align`
/// (Figure 2: "Read 3a to fetch Edge sublist 1"). Zero-length spans cost
/// nothing.
#[inline]
pub fn span_aligned_bytes(span: ByteSpan, align: u64) -> u64 {
    if span.is_empty() {
        return 0;
    }
    align_up(span.end(), align) - align_down(span.offset, align)
}

/// Index range of aligned blocks covering `span`: block `i` covers bytes
/// `[i * align, (i+1) * align)`.
#[inline]
pub fn span_block_range(span: ByteSpan, align: u64) -> (u64, u64) {
    if span.is_empty() {
        return (span.offset / align, span.offset / align);
    }
    (span.offset / align, (span.end() - 1) / align + 1)
}

/// Maps vertices to edge-sublist byte spans for a given CSR. Generic
/// over the storage backend (the byte math only needs offsets, which
/// every [`CsrView`] keeps resident); the default parameter keeps
/// existing `EdgeListLayout::new(&csr)` call sites unchanged.
#[derive(Debug, Clone)]
pub struct EdgeListLayout<'a, G: ?Sized = Csr> {
    csr: &'a G,
}

impl<'a, G: CsrView + ?Sized> EdgeListLayout<'a, G> {
    /// Layout view over `csr`.
    pub fn new(csr: &'a G) -> Self {
        EdgeListLayout { csr }
    }

    /// Byte span of `v`'s edge sublist.
    #[inline]
    pub fn sublist_span(&self, v: VertexId) -> ByteSpan {
        let (s, e) = self.csr.sublist_range(v);
        ByteSpan {
            offset: s * BYTES_PER_ID,
            len: (e - s) * BYTES_PER_ID,
        }
    }

    /// Total size of the edge list in bytes.
    #[inline]
    pub fn edge_list_bytes(&self) -> u64 {
        self.csr.num_edges() * BYTES_PER_ID
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_rounding() {
        assert_eq!(align_down(0, 128), 0);
        assert_eq!(align_down(127, 128), 0);
        assert_eq!(align_down(128, 128), 128);
        assert_eq!(align_up(0, 128), 0);
        assert_eq!(align_up(1, 128), 128);
        assert_eq!(align_up(128, 128), 128);
        assert_eq!(align_up(129, 128), 256);
    }

    #[test]
    fn figure2_three_alignment_blocks() {
        // A sublist spanning just over two alignment boundaries costs 3a.
        let a = 64;
        let span = ByteSpan {
            offset: 60,
            len: 100,
        }; // bytes [60, 160): blocks 0,1,2
        assert_eq!(span_aligned_bytes(span, a), 3 * a);
        assert_eq!(span_block_range(span, a), (0, 3));
    }

    #[test]
    fn aligned_span_costs_exactly_itself() {
        let span = ByteSpan {
            offset: 256,
            len: 128,
        };
        assert_eq!(span_aligned_bytes(span, 128), 128);
        assert_eq!(span_block_range(span, 128), (2, 3));
    }

    #[test]
    fn empty_span_costs_nothing() {
        let span = ByteSpan { offset: 77, len: 0 };
        assert_eq!(span_aligned_bytes(span, 512), 0);
        let (s, e) = span_block_range(span, 512);
        assert_eq!(s, e);
    }

    #[test]
    fn one_byte_span_costs_one_block() {
        let span = ByteSpan {
            offset: 4095,
            len: 1,
        };
        assert_eq!(span_aligned_bytes(span, 4096), 4096);
        assert_eq!(span_block_range(span, 4096), (0, 1));
    }

    #[test]
    fn raf_decreases_with_smaller_alignment() {
        // §3.1: "smaller alignments are better at reducing the RAF".
        let span = ByteSpan {
            offset: 1000,
            len: 256, // the paper's average sublist size for urand
        };
        let mut last = 0u64;
        for a in [8u64, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096] {
            let cost = span_aligned_bytes(span, a);
            assert!(cost >= span.len);
            assert!(cost >= last, "cost not monotone at a={a}");
            last = cost;
        }
        // 8 B alignment on an 8 B-granular layout is exact.
        assert_eq!(
            span_aligned_bytes(ByteSpan { offset: 1000, len: 256 }, 8),
            256
        );
    }

    #[test]
    fn layout_spans_use_8_bytes_per_id() {
        let csr = Csr::from_parts(vec![0, 4, 9, 10, 11], vec![3, 1, 2, 1, 3, 1, 2, 0, 2, 3, 0]);
        let layout = EdgeListLayout::new(&csr);
        // Vertex 1's sublist is edge-list indices 4..9 -> bytes 32..72.
        let span = layout.sublist_span(1);
        assert_eq!(span.offset, 32);
        assert_eq!(span.len, 40);
        assert_eq!(span.end(), 72);
        assert_eq!(layout.edge_list_bytes(), 88);
    }
}
