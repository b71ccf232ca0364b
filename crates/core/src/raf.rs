//! Read-amplification simulation — Figure 3 of the paper.
//!
//! §3.1: "we ran representative graph traversal algorithms … for varying
//! alignment sizes and calculated the RAF. This is CPU simulation
//! implementing a software cache to experiment with alignment sizes
//! without hardware constraints." We do exactly that: replay a
//! traversal's access trace through the BaM access method
//! ([`AccessMethod::bam`]), a set-associative software cache whose line
//! size is the alignment `a`, and report
//! `RAF = fetched bytes / useful bytes`.
//!
//! The cache capacity models the GPU memory available for caching; the
//! paper's graphs (28–35 GB edge lists) exceed the A5000's 24 GB, so the
//! default capacity here is a quarter of the edge list, preserving the
//! "cache smaller than graph" regime at any simulation scale.

use crate::access::AccessMethod;
use cxlg_graph::layout::EdgeListLayout;
use cxlg_graph::{CsrView, VertexId};
use serde::{Deserialize, Serialize};

/// One RAF measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RafPoint {
    /// Alignment size `a` in bytes.
    pub alignment: u64,
    /// Read amplification factor `D / E`.
    pub raf: f64,
    /// Useful bytes `E`.
    pub useful_bytes: u64,
    /// Fetched bytes `D`.
    pub fetched_bytes: u64,
    /// Cache hit rate over line accesses.
    pub hit_rate: f64,
}

/// RAF of replaying `trace` (per-level vertex frontiers) at alignment
/// `alignment` with a cache of `capacity_bytes`; 1.0 for a trace that
/// reads no bytes (see [`crate::metrics::raf`]). Each sublist is planned
/// with [`AccessMethod::requests_for_span`] exactly as a BaM run plans
/// it; only the totals are kept.
pub fn raf_for_trace<G: CsrView + ?Sized>(
    g: &G,
    trace: &[Vec<VertexId>],
    alignment: u64,
    capacity_bytes: u64,
) -> RafPoint {
    let layout = EdgeListLayout::new(g);
    let mut bam = AccessMethod::bam(capacity_bytes, alignment);
    // One span's misses at a time, so no level-sized plan is held.
    let mut requests = Vec::new();
    let (mut useful, mut fetched, mut hits, mut misses) = (0u64, 0u64, 0u64, 0u64);
    for level in trace {
        bam.begin_level();
        for &v in level {
            let span = layout.sublist_span(v);
            useful += span.len;
            hits += bam.requests_for_span(span, &mut requests);
            misses += requests.len() as u64;
            fetched += requests.iter().map(|r| r.bytes).sum::<u64>();
            requests.clear();
        }
    }
    let accesses = hits + misses;
    RafPoint {
        alignment,
        raf: crate::metrics::raf(fetched, useful),
        useful_bytes: useful,
        fetched_bytes: fetched,
        hit_rate: if accesses == 0 {
            0.0
        } else {
            hits as f64 / accesses as f64
        },
    }
}

/// Default cache capacity for a graph: a quarter of the edge list, with
/// a floor of one full 16-way set of lines so tiny test graphs still
/// cache something. The floor grows with the alignment and binds
/// whenever the graph has fewer than `8 * alignment` arcs (kron10 at
/// 4 kB gets 65,536 B instead of 42,056 B), so at small scales the
/// largest alignments of a Figure 3 sweep also get a larger cache.
pub fn default_capacity<G: CsrView + ?Sized>(g: &G, alignment: u64) -> u64 {
    (g.num_edges() * 8 / 4).max(alignment * 16)
}

/// RAF sweep over alignment sizes for one trace at each alignment's
/// [`default_capacity`], as plotted in Figure 3 (8 B – 4 kB on a log2
/// axis).
pub fn raf_sweep<G: CsrView + ?Sized>(
    g: &G,
    trace: &[Vec<VertexId>],
    alignments: &[u64],
) -> Vec<RafPoint> {
    alignments
        .iter()
        .map(|&a| raf_for_trace(g, trace, a, default_capacity(g, a)))
        .collect()
}

/// The alignment axis of Figure 3.
pub const FIG3_ALIGNMENTS: [u64; 10] = [8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::{bfs_trace, sssp_trace};
    use cxlg_graph::spec::GraphSpec;

    /// The reference replay: every sublist's lines straight through a
    /// software cache, counting hits and misses per line access.
    fn per_line_replay<G: CsrView + ?Sized>(
        g: &G,
        trace: &[Vec<VertexId>],
        alignment: u64,
        capacity_bytes: u64,
    ) -> RafPoint {
        use cxlg_gpu::swcache::{SoftwareCache, SoftwareCacheConfig};
        use cxlg_graph::layout::span_block_range;
        let layout = EdgeListLayout::new(g);
        let mut cache = SoftwareCache::new(SoftwareCacheConfig::new(capacity_bytes, alignment));
        let (mut useful, mut hits, mut misses) = (0u64, 0u64, 0u64);
        for &v in trace.iter().flatten() {
            let span = layout.sublist_span(v);
            useful += span.len;
            let (first, last) = span_block_range(span, alignment);
            for line in first..last {
                if cache.access(line) {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
        }
        let fetched = misses * alignment;
        let total = hits + misses;
        RafPoint {
            alignment,
            raf: crate::metrics::raf(fetched, useful),
            useful_bytes: useful,
            fetched_bytes: fetched,
            hit_rate: if total == 0 {
                0.0
            } else {
                hits as f64 / total as f64
            },
        }
    }

    fn assert_same_point(got: RafPoint, want: RafPoint, what: &str) {
        assert_eq!(got.alignment, want.alignment, "{what}");
        assert_eq!(got.useful_bytes, want.useful_bytes, "{what}");
        assert_eq!(got.fetched_bytes, want.fetched_bytes, "{what}");
        assert_eq!(got.raf.to_bits(), want.raf.to_bits(), "{what}: raf");
        assert_eq!(
            got.hit_rate.to_bits(),
            want.hit_rate.to_bits(),
            "{what}: hit rate"
        );
    }

    #[test]
    fn planner_replay_equals_per_line_replay() {
        for scale in 8..=12 {
            for spec in GraphSpec::paper_trio(scale) {
                let g = spec.seed(1).build();
                let src = g.max_degree_vertex().unwrap_or(0);
                for (workload, trace) in [
                    ("BFS", bfs_trace(&g, src)),
                    ("SSSP", sssp_trace(&g, src, 64)),
                ] {
                    for a in FIG3_ALIGNMENTS {
                        let cap = default_capacity(&g, a);
                        assert_same_point(
                            raf_for_trace(&g, &trace, a, cap),
                            per_line_replay(&g, &trace, a, cap),
                            &format!("{workload} {} at {a} B", spec.name()),
                        );
                    }
                    // A cache of one 16-way set of 512 B lines: evictions
                    // on every level.
                    assert_same_point(
                        raf_for_trace(&g, &trace, 512, 16 * 512),
                        per_line_replay(&g, &trace, 512, 16 * 512),
                        &format!("{workload} {} at a small capacity", spec.name()),
                    );
                }
            }
        }
    }

    #[test]
    fn raf_at_8b_alignment_is_nearly_one() {
        // 8 B alignment on an 8 B-granular edge list wastes nothing
        // except cross-sublist line sharing (which only *reduces* D).
        let g = GraphSpec::urand(10).seed(1).build();
        let trace = bfs_trace(&g, 0);
        let p = raf_for_trace(&g, &trace, 8, default_capacity(&g, 8));
        assert!(p.raf <= 1.0 + 1e-9, "RAF {} at 8 B", p.raf);
        assert!(p.raf > 0.9, "RAF {} suspiciously low", p.raf);
    }

    #[test]
    fn raf_grows_with_alignment() {
        // Figure 3: "the RAFs are increasing functions of the alignment
        // size".
        let g = GraphSpec::urand(11).seed(1).build();
        let trace = bfs_trace(&g, 0);
        let points = raf_sweep(&g, &trace, &FIG3_ALIGNMENTS);
        for w in points.windows(2) {
            assert!(
                w[1].raf >= w[0].raf * 0.98,
                "RAF not (weakly) increasing: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
        // And it reaches well above 1 at 4 kB ("up to 4 at 4 kB").
        let raf4k = points.last().unwrap().raf;
        assert!(raf4k > 1.5, "RAF at 4 kB only {raf4k}");
        assert!(raf4k < 20.0, "RAF at 4 kB implausibly high {raf4k}");
    }

    #[test]
    fn kron_raf_lower_than_urand_at_large_alignment() {
        // Heavier-tailed graphs have larger sublists, which amortize the
        // alignment padding: Figure 3 shows kron/Friendster below urand.
        let urand = GraphSpec::urand(11).seed(1).build();
        let kron = GraphSpec::kron(11).seed(1).build();
        let ur = raf_for_trace(
            &urand,
            &bfs_trace(&urand, 0),
            4096,
            default_capacity(&urand, 4096),
        );
        let hub = kron.max_degree_vertex().unwrap();
        let kr = raf_for_trace(
            &kron,
            &bfs_trace(&kron, hub),
            4096,
            default_capacity(&kron, 4096),
        );
        assert!(
            kr.raf < ur.raf * 1.2,
            "kron RAF {} should not exceed urand {} by much",
            kr.raf,
            ur.raf
        );
    }

    #[test]
    fn sssp_raf_reasonable() {
        let g = GraphSpec::urand(9).seed(2).build();
        let trace = sssp_trace(&g, 0, 64);
        let p = raf_for_trace(&g, &trace, 128, default_capacity(&g, 128));
        assert!(p.raf >= 0.5 && p.raf < 4.0, "SSSP RAF {}", p.raf);
        assert!(p.useful_bytes > 0);
    }

    #[test]
    fn bigger_cache_lowers_raf() {
        let g = GraphSpec::urand(10).seed(3).build();
        let trace = bfs_trace(&g, 0);
        let small = raf_for_trace(&g, &trace, 4096, 64 * 4096);
        let big = raf_for_trace(&g, &trace, 4096, g.num_edges() * 8 * 2);
        assert!(
            big.raf <= small.raf,
            "bigger cache must not amplify more: {} vs {}",
            big.raf,
            small.raf
        );
        assert!(big.hit_rate >= small.hit_rate);
    }

    #[test]
    fn isolated_source_has_no_amplification() {
        // Vertex 3 has no edges: its BFS reads nothing and fetches
        // nothing, which is RAF 1.0 in the replay and in every run, not
        // the NaN of 0 / 0.
        use crate::system::SystemConfig;
        use crate::traversal::Traversal;
        use cxlg_link::pcie::PcieGen;
        let g = cxlg_graph::builder::csr_from_edges(4, &[(0, 1), (1, 2)], true, false);
        let p = raf_for_trace(&g, &bfs_trace(&g, 3), 64, default_capacity(&g, 64));
        assert_eq!((p.useful_bytes, p.fetched_bytes, p.raf), (0, 0, 1.0));
        for sys in [
            SystemConfig::emogi_on_dram(PcieGen::Gen4),
            SystemConfig::uvm_on_dram(PcieGen::Gen4),
            SystemConfig::xlfdd(PcieGen::Gen4, 16),
            SystemConfig::bam_on_nvme(PcieGen::Gen4, 4),
        ] {
            let m = Traversal::bfs(3).run(&g, &sys).metrics;
            assert_eq!((m.useful_bytes, m.fetched_bytes), (0, 0), "{}", sys.label());
            assert_eq!(m.raf(), 1.0, "{}", sys.label());
        }
    }

    #[test]
    fn fig3_axis_is_log2() {
        for w in FIG3_ALIGNMENTS.windows(2) {
            assert_eq!(w[1], w[0] * 2);
        }
    }
}
