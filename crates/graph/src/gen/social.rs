//! Power-law social graph generator — the stand-in for Friendster.
//!
//! We cannot ship the 31 GB SNAP Friendster dump, so the harness uses a
//! Chung–Lu random graph whose expected-degree sequence follows a bounded
//! power law calibrated to Friendster's average degree (55.1 in Table 1).
//! Endpoints are drawn from the weight distribution via an alias table
//! (O(1) per sample), generation is chunk-parallel, and the result is
//! symmetrized and deduplicated like the real dataset. This preserves the
//! properties the paper's experiments actually exercise: a few-hundred-byte
//! average sublist, a heavy-tailed sublist-size distribution, and
//! small-world BFS frontier growth.

use crate::builder::csr_from_arc_stream;
use crate::csr::Csr;
use crate::gen::{chunk_rng, chunk_sizes, ArcStream};
use cxlg_sim::Xoshiro256StarStar;

/// Walker alias table for O(1) sampling from a discrete distribution.
#[derive(Debug, Clone)]
struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl AliasTable {
    /// Build from non-negative weights (need not be normalized). Panics on
    /// an empty or all-zero input.
    fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "empty weight vector");
        let n = weights.len();
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights sum to zero");
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|w| w * scale).collect();
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s as usize] = l;
            prob[l as usize] = (prob[l as usize] + prob[s as usize]) - 1.0;
            if prob[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Numerical leftovers are certain draws.
        for i in small.into_iter().chain(large) {
            prob[i as usize] = 1.0;
        }
        AliasTable { prob, alias }
    }

    /// Draw one index.
    #[inline]
    fn sample(&self, rng: &mut Xoshiro256StarStar) -> u32 {
        let n = self.prob.len();
        let i = rng.next_below(n as u64) as usize;
        if rng.next_f64() < self.prob[i] {
            i as u32
        } else {
            self.alias[i]
        }
    }
}

/// Power-law exponent of the complementary degree CDF; 2.5 matches
/// measured social networks reasonably well.
const EXPONENT: f64 = 2.5;

/// Expected-degree sequence: bounded power law `w_i ∝ (i + i0)^(-mu)`,
/// rescaled to hit `avg_degree` and capped to keep the Chung–Lu edge
/// probabilities sane.
fn degree_weights(n: usize, avg_degree: u32) -> Vec<f64> {
    // P(deg > k) ~ k^-(EXPONENT - 1) corresponds to w_i ~ i^(-1/(EXPONENT-1)).
    let mu = 1.0 / (EXPONENT - 1.0);
    let i0 = 10.0; // flattens the head so the hub is not absurdly large
    let mut w: Vec<f64> = (0..n).map(|i| (i as f64 + i0).powf(-mu)).collect();
    let sum: f64 = w.iter().sum();
    let scale = avg_degree as f64 * n as f64 / sum;
    let cap = (avg_degree as f64 * (n as f64).sqrt()).max(avg_degree as f64 * 4.0);
    for x in &mut w {
        *x = (*x * scale).min(cap);
    }
    w
}

/// Generate a Friendster-like power-law graph with `2^scale` vertices and
/// an average directed degree close to `avg_degree` (slightly lower after
/// deduplication, as in real social graphs).
pub fn generate(scale: u32, avg_degree: u32, seed: u64) -> Csr {
    let parts = arc_stream(scale, avg_degree, seed);
    csr_from_arc_stream(parts.n, &parts.chunks, parts.dedup, |chunk, count, sink| {
        (parts.stream)(chunk, count, sink)
    })
}

/// The regenerable arc stream behind [`generate`]; the alias table is
/// built once and captured by the chunk closure.
pub(crate) fn arc_stream(scale: u32, avg_degree: u32, seed: u64) -> ArcStream {
    assert!((1..32).contains(&scale), "scale out of range: {scale}");
    let n = 1usize << scale;
    let weights = degree_weights(n, avg_degree);
    let table = AliasTable::new(&weights);
    let undirected = (n as u64 * avg_degree as u64) / 2;

    ArcStream {
        n,
        chunks: chunk_sizes(undirected),
        dedup: true,
        stream: Box::new(move |chunk, count, sink| {
            let mut rng = chunk_rng(seed, chunk);
            for _ in 0..count {
                let s = table.sample(&mut rng);
                let mut d = table.sample(&mut rng);
                let mut tries = 0;
                while d == s && tries < 16 {
                    d = table.sample(&mut rng);
                    tries += 1;
                }
                if d == s {
                    // Pathological weight concentration; drop the edge.
                    continue;
                }
                sink(s, d);
                sink(d, s);
            }
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VertexId;

    #[test]
    fn alias_table_matches_weights() {
        let weights = vec![1.0, 2.0, 4.0, 1.0];
        let t = AliasTable::new(&weights);
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let mut counts = [0u64; 4];
        let n = 200_000;
        for _ in 0..n {
            counts[t.sample(&mut rng) as usize] += 1;
        }
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let expected = w / total;
            let got = counts[i] as f64 / n as f64;
            assert!(
                (got - expected).abs() < 0.01,
                "category {i}: got {got:.3}, want {expected:.3}"
            );
        }
    }

    #[test]
    fn alias_table_single_category() {
        let t = AliasTable::new(&[3.0]);
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        assert_eq!(t.sample(&mut rng), 0);
    }

    #[test]
    #[should_panic(expected = "sum to zero")]
    fn alias_table_rejects_zero_weights() {
        AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    fn average_degree_near_target() {
        let g = generate(12, 55, 1);
        let n = g.num_vertices();
        let avg = g.num_edges() as f64 / n as f64;
        // Dedup removes some multi-edges; expect within 25% of target.
        assert!(
            avg > 55.0 * 0.75 && avg <= 55.0 * 1.05,
            "avg degree {avg:.1}"
        );
    }

    #[test]
    fn heavy_tailed_degrees() {
        let g = generate(12, 55, 3);
        let n = g.num_vertices();
        let mean = g.num_edges() as f64 / n as f64;
        let max = (0..n as VertexId).map(|v| g.degree(v)).max().unwrap();
        assert!(max as f64 > 8.0 * mean, "max {max} mean {mean:.1}");
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(generate(8, 16, 11), generate(8, 16, 11));
        assert_ne!(generate(8, 16, 11), generate(8, 16, 12));
    }

    #[test]
    fn symmetric_and_valid() {
        let g = generate(9, 20, 4);
        assert!(g.validate().is_ok());
        for v in 0..g.num_vertices() as VertexId {
            for &u in g.neighbors(v) {
                assert!(g.neighbors(u).contains(&v));
            }
        }
    }
}
