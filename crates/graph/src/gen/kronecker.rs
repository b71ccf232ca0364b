//! Kronecker (RMAT) generator — the paper's `kron27`, from the GAP
//! benchmark suite / Graph500 reference parameters.
//!
//! Each edge picks one quadrant of the adjacency matrix per scale bit with
//! probabilities (A, B, C, D) = (0.57, 0.19, 0.19, 0.05), producing a
//! heavy-tailed degree distribution in which roughly half the vertices end
//! up isolated — which is why Table 1 reports kron27's average degree (67)
//! over non-isolated vertices only. A random vertex permutation (as in the
//! Graph500 reference implementation) removes the artificial ID locality
//! of the recursive construction.

use crate::builder::csr_from_arc_stream;
use crate::csr::Csr;
use crate::gen::{chunk_rng, chunk_sizes, ArcStream};
use crate::VertexId;
use cxlg_sim::Xoshiro256StarStar;

/// Graph500 RMAT quadrant probabilities.
pub const A: f64 = 0.57;
/// Probability of the upper-right quadrant.
pub const B: f64 = 0.19;
/// Probability of the lower-left quadrant.
pub const C: f64 = 0.19;

/// The `(src, dst)` bits of the quadrant a uniform draw `r` in `[0, 1)`
/// selects: upper-left below `A`, upper-right below `A + B`, lower-left
/// below `A + B + C`, lower-right above.
///
/// Computed from the quadrant boundaries with plain comparisons rather
/// than an if-chain: every draw is random, so the CPU mispredicts a
/// chain's branches on a large share of the bits of every edge. The
/// comparisons are the chain's own, so the bits are identical for
/// every `r`.
#[inline]
fn quadrant_bits(r: f64) -> (u32, u32) {
    let src = r >= A + B;
    let dst = (A..A + B).contains(&r) | (r >= A + B + C);
    (src as u32, dst as u32)
}

/// Draw one RMAT edge for a graph with `scale` levels: one quadrant
/// ([`quadrant_bits`]) per level, most significant bit first.
#[inline]
fn rmat_edge(rng: &mut Xoshiro256StarStar, scale: u32) -> (VertexId, VertexId) {
    let mut src = 0u32;
    let mut dst = 0u32;
    for _ in 0..scale {
        let (s, d) = quadrant_bits(rng.next_f64());
        src = src << 1 | s;
        dst = dst << 1 | d;
    }
    (src, dst)
}

/// The regenerable arc stream behind [`generate`]; the relabeling
/// permutation is built once and captured by the chunk closure.
pub(crate) fn arc_stream(scale: u32, edge_factor: u32, seed: u64) -> ArcStream {
    assert!((1..32).contains(&scale), "scale out of range: {scale}");
    let n = 1usize << scale;
    let undirected = n as u64 * edge_factor as u64;

    // Random relabeling permutation, shared by all chunks.
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    Xoshiro256StarStar::seed_from_u64(seed ^ 0xA5A5_5A5A_DEAD_BEEF).shuffle(&mut perm);

    ArcStream {
        n,
        chunks: chunk_sizes(undirected),
        dedup: true,
        stream: Box::new(move |chunk, count, sink| {
            let mut rng = chunk_rng(seed, chunk);
            for _ in 0..count {
                let (s, d) = rmat_edge(&mut rng, scale);
                let (s, d) = (perm[s as usize], perm[d as usize]);
                sink(s, d);
                sink(d, s);
            }
        }),
    }
}

/// Generate a Kronecker graph with `2^scale` vertices and
/// `edge_factor * 2^scale` undirected edges (Graph500 default edge factor
/// is 16), symmetrized and deduplicated, with vertex IDs randomly
/// permuted.
pub fn generate(scale: u32, edge_factor: u32, seed: u64) -> Csr {
    let parts = arc_stream(scale, edge_factor, seed);
    csr_from_arc_stream(parts.n, &parts.chunks, parts.dedup, |chunk, count, sink| {
        (parts.stream)(chunk, count, sink)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quadrant pick as an if-chain, the oracle for [`quadrant_bits`].
    fn quadrant_bits_chain(r: f64) -> (u32, u32) {
        if r < A {
            (0, 0)
        } else if r < A + B {
            (0, 1)
        } else if r < A + B + C {
            (1, 0)
        } else {
            (1, 1)
        }
    }

    #[test]
    fn branch_free_quadrant_pick_equals_the_if_chain() {
        let mut edges = vec![0.0];
        for bound in [A, A + B, A + B + C] {
            // The boundary itself and the largest `f64` below it.
            edges.extend([bound, f64::from_bits(bound.to_bits() - 1)]);
        }
        for r in edges {
            assert_eq!(quadrant_bits(r), quadrant_bits_chain(r), "r = {r:e}");
        }
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x52_4d_41_54);
        for _ in 0..1_000_000 {
            let r = rng.next_f64();
            assert_eq!(quadrant_bits(r), quadrant_bits_chain(r), "r = {r:e}");
        }
    }

    #[test]
    fn produces_heavy_tail_and_isolated_vertices() {
        let g = generate(12, 16, 1);
        let n = g.num_vertices();
        // A sizeable fraction of vertices is isolated (paper: kron27's
        // average is computed excluding them).
        let isolated = g.num_isolated();
        assert!(
            isolated > n / 10,
            "expected many isolated vertices, got {isolated}/{n}"
        );
        // Heavy tail: max degree far above the mean.
        let mean = g.num_edges() as f64 / (n - isolated) as f64;
        let max = (0..n as VertexId).map(|v| g.degree(v)).max().unwrap();
        assert!(
            max as f64 > 10.0 * mean,
            "max {max} vs mean {mean:.1} — no heavy tail?"
        );
    }

    #[test]
    fn nonzero_average_degree_is_well_above_overall() {
        // Table 1: kron27 avg degree 67 (excluding isolated) vs 31 overall.
        let g = generate(14, 16, 2);
        let n = g.num_vertices();
        let overall = g.num_edges() as f64 / n as f64;
        let nonzero = g.num_edges() as f64 / (n - g.num_isolated()) as f64;
        // At scale 27 the paper's ratio is ~2.1x; the isolated fraction
        // shrinks at small scales, so require a conservative 1.2x here.
        assert!(nonzero > 1.2 * overall, "nonzero {nonzero:.1} overall {overall:.1}");
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        assert_eq!(generate(8, 8, 5), generate(8, 8, 5));
        assert_ne!(generate(8, 8, 5), generate(8, 8, 6));
    }

    #[test]
    fn symmetric_and_valid() {
        let g = generate(9, 8, 3);
        assert!(g.validate().is_ok());
        for v in 0..g.num_vertices() as VertexId {
            for &u in g.neighbors(v) {
                assert!(g.neighbors(u).contains(&v));
            }
        }
    }

    #[test]
    fn dedup_applied() {
        // RMAT at small scale produces many duplicate edges; after dedup
        // each (src, dst) pair appears at most once.
        let g = generate(7, 16, 9);
        for v in 0..g.num_vertices() as VertexId {
            let nb = g.neighbors(v);
            for w in nb.windows(2) {
                assert!(w[0] < w[1], "duplicate or unsorted neighbor at {v}");
            }
        }
    }

    #[test]
    fn permutation_destroys_low_id_bias() {
        // Without the permutation, RMAT concentrates edges on low IDs.
        // With it, the top-degree vertex should not be vertex 0 most of
        // the time (spot check on one seed).
        let g = generate(12, 16, 4);
        let hub = g.max_degree_vertex().unwrap();
        // The hub can land anywhere; just verify edges are not all in the
        // first 1/8 of the ID space.
        let n = g.num_vertices() as u64;
        let early: u64 = (0..(n / 8) as VertexId).map(|v| g.degree(v)).sum();
        assert!(
            early < g.num_edges() / 2,
            "edges still concentrated on low IDs (hub={hub})"
        );
    }
}
