//! Uniform random graph generator (the paper's `urand27`, from the GAP
//! benchmark suite \[2\]).
//!
//! `2^scale` vertices; undirected edges with independently uniform
//! endpoints, symmetrized into a directed CSR. `urand27` in Table 1 has
//! average degree 32 (edge factor 16), essentially no isolated vertices,
//! and a tightly concentrated (binomial) degree distribution — the
//! workload with the *least* locality, which is why the paper leads with
//! it in Figures 4 and 5.

use crate::builder::csr_from_arc_stream;
use crate::csr::Csr;
use crate::gen::{chunk_rng, chunk_sizes, ArcStream};
use crate::VertexId;

/// The regenerable arc stream behind [`generate`], shared with the spill
/// builder so both storage backends consume identical arcs.
pub(crate) fn arc_stream(scale: u32, avg_degree: u32, seed: u64) -> ArcStream {
    assert!((1..32).contains(&scale), "scale out of range: {scale}");
    assert!(avg_degree >= 1, "avg_degree must be positive");
    let n = 1usize << scale;
    let undirected = (n as u64 * avg_degree as u64) / 2;

    ArcStream {
        n,
        chunks: chunk_sizes(undirected),
        dedup: false,
        stream: Box::new(move |chunk, count, sink| {
            let mut rng = chunk_rng(seed, chunk);
            let n = n as u64;
            for _ in 0..count {
                let s = rng.next_below(n) as VertexId;
                let mut d = rng.next_below(n) as VertexId;
                while d == s {
                    d = rng.next_below(n) as VertexId;
                }
                sink(s, d);
                sink(d, s);
            }
        }),
    }
}

/// Generate a uniform random graph with `2^scale` vertices and an average
/// *directed* degree of `avg_degree` (so `n * avg_degree / 2` undirected
/// edges before symmetrization). Self-loops are redrawn.
///
/// Edges are never materialized: each chunk's RNG stream is regenerated
/// by both passes of the streaming scatter builder, so peak memory is
/// the final CSR plus the per-vertex offset/cursor arrays.
pub fn generate(scale: u32, avg_degree: u32, seed: u64) -> Csr {
    let parts = arc_stream(scale, avg_degree, seed);
    csr_from_arc_stream(parts.n, &parts.chunks, parts.dedup, |chunk, count, sink| {
        (parts.stream)(chunk, count, sink)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_count_matches_degree_target() {
        let g = generate(10, 32, 1);
        assert_eq!(g.num_vertices(), 1024);
        // Symmetrized: exactly n * avg_degree directed arcs.
        assert_eq!(g.num_edges(), 1024 * 32);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn no_self_loops() {
        let g = generate(8, 16, 7);
        for v in 0..g.num_vertices() as VertexId {
            assert!(!g.neighbors(v).contains(&v), "self loop at {v}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(8, 8, 99);
        let b = generate(8, 8, 99);
        assert_eq!(a, b);
        let c = generate(8, 8, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn degrees_concentrate_around_mean() {
        // Binomial-ish distribution: nearly all degrees within 3 sigma.
        let g = generate(12, 32, 3);
        let n = g.num_vertices();
        let mean = 32.0f64;
        let sigma = mean.sqrt();
        let outliers = (0..n as VertexId)
            .filter(|&v| (g.degree(v) as f64 - mean).abs() > 4.0 * sigma)
            .count();
        assert!(
            outliers < n / 100,
            "{outliers} of {n} degrees are >4 sigma from the mean"
        );
        // Essentially no isolated vertices at degree 32.
        assert!(g.num_isolated() < n / 1000);
    }

    #[test]
    fn symmetric_adjacency() {
        let g = generate(7, 8, 5);
        for v in 0..g.num_vertices() as VertexId {
            for &u in g.neighbors(v) {
                assert!(
                    g.neighbors(u).contains(&v),
                    "arc {v}->{u} has no reverse"
                );
            }
        }
    }
}
