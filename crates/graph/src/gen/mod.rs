//! Synthetic graph generators reproducing the degree structure of the
//! paper's datasets (Table 1) at configurable scale.
//!
//! | Paper dataset | Generator | Degree structure |
//! |---|---|---|
//! | `urand27` | [`uniform`] | uniform endpoints, avg degree 32 |
//! | `kron27` | [`kronecker`] | Graph500 RMAT (A=.57,B=.19,C=.19), heavy tail, many isolated vertices |
//! | Friendster | [`social`] | Chung–Lu power law calibrated to avg degree 55 |
//!
//! All generators are deterministic per `(seed, scale)` and parallelized
//! with rayon: edges are produced in independent chunks whose RNG streams
//! are derived from the master seed and the chunk index. That per-chunk
//! determinism is what the two-pass streaming builder
//! ([`crate::builder::csr_from_arc_stream`]) exploits — chunks are
//! *regenerated* for the counting and scatter passes instead of being
//! materialized as arc vectors, which is why graph construction peaks at
//! ≈ 4 B per directed arc instead of ≈ 24.

pub mod kronecker;
pub mod social;
pub mod uniform;

use crate::VertexId;
use cxlg_sim::Xoshiro256StarStar;

/// A regenerable arc stream plus the metadata both CSR builders need:
/// the vertex count, the chunk descriptor list, and the family's dedup
/// policy. Each generator family packages its chunk closure (including
/// any per-build state such as the Kronecker permutation or the
/// Chung–Lu alias table) into one of these, so the in-memory scatter
/// builder ([`crate::builder::csr_from_arc_stream`]) and the file-backed
/// spill builder ([`crate::storage`]) consume byte-identical streams.
pub(crate) struct ArcStream {
    /// Number of vertices (`2^scale`).
    pub n: usize,
    /// `(chunk_index, generator_len)` descriptors (see [`chunk_sizes`]).
    pub chunks: Vec<(u64, usize)>,
    /// Whether duplicate arcs collapse (kron/social yes, urand no).
    pub dedup: bool,
    /// Emits chunk `chunk`'s arcs via the sink, identically on every call.
    pub stream: Box<ChunkEmitter>,
}

/// `(chunk_index, generator_len, sink)`: emits one chunk's arcs into
/// the sink (see [`ArcStream::stream`]).
pub(crate) type ChunkEmitter = dyn Fn(u64, usize, &mut dyn FnMut(VertexId, VertexId)) + Sync + Send;

/// Edges generated per parallel chunk. Large enough to amortize thread
/// dispatch, small enough to balance across cores.
pub(crate) const CHUNK_EDGES: usize = 1 << 16;

/// Derive a chunk-local RNG from the master seed. SplitMix-style mixing of
/// the chunk index keeps streams independent.
pub(crate) fn chunk_rng(seed: u64, chunk: u64) -> Xoshiro256StarStar {
    let mut z = seed ^ chunk.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    Xoshiro256StarStar::seed_from_u64(z ^ (z >> 31))
}

/// Split a total edge count into chunk sizes.
pub(crate) fn chunk_sizes(total: u64) -> Vec<(u64, usize)> {
    let mut out = Vec::with_capacity((total / CHUNK_EDGES as u64 + 1) as usize);
    let mut remaining = total;
    let mut idx = 0u64;
    while remaining > 0 {
        let take = remaining.min(CHUNK_EDGES as u64) as usize;
        out.push((idx, take));
        remaining -= take as u64;
        idx += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_sizes_cover_total() {
        for total in [0u64, 1, 1000, CHUNK_EDGES as u64, CHUNK_EDGES as u64 * 3 + 17] {
            let chunks = chunk_sizes(total);
            let sum: u64 = chunks.iter().map(|&(_, n)| n as u64).sum();
            assert_eq!(sum, total);
            // Chunk indices are consecutive from zero.
            for (i, &(idx, _)) in chunks.iter().enumerate() {
                assert_eq!(idx, i as u64);
            }
        }
    }

    #[test]
    fn chunk_rngs_are_independent_streams() {
        let mut a = chunk_rng(42, 0);
        let mut b = chunk_rng(42, 1);
        let mut a2 = chunk_rng(42, 0);
        assert_eq!(a.next_u64(), a2.next_u64(), "same chunk must repeat");
        let collisions = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(collisions < 2, "streams look correlated");
    }
}
