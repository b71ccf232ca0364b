//! Graph preprocessing by vertex relabeling — the Discussion section's
//! "tailored graph formats and preprocessing" direction.
//!
//! The paper notes the average transfer size `d` cannot be raised
//! arbitrarily because "increasing d beyond the average edge sublist size
//! will increase the RAF", and points to preprocessing as the way out.
//! Relabeling changes which sublists are adjacent in the edge list, and
//! with them the cross-sublist locality that the software cache and the
//! Direct block-merge exploit:
//!
//! * [`by_degree`] — hub clustering: high-degree vertices first, packing
//!   the hot sublists into few aligned blocks (GraphReduce/Graphie-style);
//! * [`by_bfs`] — traversal-order relabeling, aligning edge-list order
//!   with frontier order (the locality BFS actually sees);
//! * [`random`] — adversarial shuffling, the locality floor.

use crate::builder::collate_window;
use crate::csr::Csr;
use crate::storage::CsrView;
use crate::VertexId;
use cxlg_sim::Xoshiro256StarStar;
use std::convert::Infallible;

/// Apply a relabeling permutation: vertex `v` becomes `perm[v]`.
/// `perm` must be a permutation of `0..n`. The input may live in any
/// storage backend; the relabeled result is always in-memory.
///
/// Two passes, no arc list: new vertex `perm[v]` takes `v`'s degree, so
/// the offsets are a prefix sum; then the builders' window kernel
/// scatters the relabeled arcs, in parallel over vertex ranges, and sorts
/// each new sublist. Self-loops and repeated arcs are kept, so the
/// result equals the sort-based [`crate::builder::csr_from_packed_arcs`]
/// over the relabeled arcs without dedup.
fn relabel<G: CsrView + ?Sized>(g: &G, perm: &[VertexId]) -> Csr {
    let n = g.num_vertices();
    assert_eq!(perm.len(), n, "permutation length mismatch");
    debug_assert!(is_permutation(perm));
    let mut offsets = vec![0u64; n + 1];
    for v in 0..n as VertexId {
        offsets[perm[v as usize] as usize + 1] = g.degree(v);
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    // Old vertices per parallel part of the scatter's input.
    const PART: usize = 1 << 12;
    let Ok(targets): Result<_, Infallible> =
        collate_window(0, &mut offsets, false, n.div_ceil(PART), |p, sink| {
            for v in p * PART..((p + 1) * PART).min(n) {
                let nv = perm[v];
                g.for_neighbors(v as VertexId, &mut |u| sink(nv, perm[u as usize]));
            }
            Ok(())
        });
    Csr::from_parts(offsets, targets)
}

fn is_permutation(perm: &[VertexId]) -> bool {
    let mut seen = vec![false; perm.len()];
    for &p in perm {
        if (p as usize) >= perm.len() || seen[p as usize] {
            return false;
        }
        seen[p as usize] = true;
    }
    true
}

/// Relabel so the highest-degree vertices get the lowest IDs (their
/// sublists pack together at the front of the edge list).
pub fn by_degree<G: CsrView + ?Sized>(g: &G) -> Csr {
    relabel(g, &degree_perm(g))
}

fn degree_perm<G: CsrView + ?Sized>(g: &G) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    let mut perm = vec![0 as VertexId; n];
    for (new_id, &old) in order.iter().enumerate() {
        perm[old as usize] = new_id as VertexId;
    }
    perm
}

/// Relabel in BFS discovery order from `source`; unreached vertices keep
/// their relative order after the reached ones.
pub fn by_bfs<G: CsrView + ?Sized>(g: &G, source: VertexId) -> Csr {
    relabel(g, &bfs_perm(g, source))
}

fn bfs_perm<G: CsrView + ?Sized>(g: &G, source: VertexId) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut perm = vec![VertexId::MAX; n];
    let mut next_id: VertexId = 0;
    let mut frontier = vec![source];
    perm[source as usize] = 0;
    next_id += 1;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &v in &frontier {
            g.for_neighbors(v, &mut |u| {
                if perm[u as usize] == VertexId::MAX {
                    perm[u as usize] = next_id;
                    next_id += 1;
                    next.push(u);
                }
            });
        }
        next.sort_unstable();
        frontier = next;
    }
    for p in perm.iter_mut() {
        if *p == VertexId::MAX {
            *p = next_id;
            next_id += 1;
        }
    }
    perm
}

/// Random relabeling — destroys any locality (the adversarial baseline).
pub fn random<G: CsrView + ?Sized>(g: &G, seed: u64) -> Csr {
    relabel(g, &random_perm(g.num_vertices(), seed))
}

fn random_perm(n: usize, seed: u64) -> Vec<VertexId> {
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    Xoshiro256StarStar::seed_from_u64(seed).shuffle(&mut perm);
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{csr_from_edges, csr_from_packed_arcs, pack_arc};
    use crate::spec::GraphSpec;
    use crate::storage::{SpillConfig, SpillCsr};

    fn degree_multiset(g: &Csr) -> Vec<u64> {
        let mut d: Vec<u64> = (0..g.num_vertices() as VertexId)
            .map(|v| g.degree(v))
            .collect();
        d.sort_unstable();
        d
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = GraphSpec::kron(9).seed(1).build();
        let r = by_degree(&g);
        assert_eq!(g.num_vertices(), r.num_vertices());
        assert_eq!(g.num_edges(), r.num_edges());
        assert_eq!(degree_multiset(&g), degree_multiset(&r));
        assert!(r.validate().is_ok());
    }

    #[test]
    fn by_degree_sorts_degrees_descending() {
        let g = GraphSpec::kron(9).seed(2).build();
        let r = by_degree(&g);
        for v in 0..(r.num_vertices() as VertexId - 1) {
            assert!(
                r.degree(v) >= r.degree(v + 1),
                "degrees not descending at {v}"
            );
        }
    }

    #[test]
    fn by_bfs_discovery_ids_are_compact() {
        let g = GraphSpec::urand(8).seed(3).build();
        let r = by_bfs(&g, 0);
        assert_eq!(degree_multiset(&g), degree_multiset(&r));
        // Vertex 0 is the relabeled source; its old degree is preserved.
        assert_eq!(r.degree(0), g.degree(0));
    }

    #[test]
    fn random_relabel_preserves_multiset_and_differs() {
        let g = GraphSpec::urand(8).seed(4).build();
        let r = random(&g, 99);
        assert_eq!(degree_multiset(&g), degree_multiset(&r));
        assert_ne!(g, r, "random relabel should change the layout");
        // Deterministic per seed.
        assert_eq!(r, random(&g, 99));
    }

    #[test]
    fn relabel_preserves_adjacency_under_inverse() {
        // perm maps old->new; edge (u,v) exists iff (perm u, perm v) does.
        let g = GraphSpec::urand(7).seed(5).build();
        let n = g.num_vertices();
        let mut perm: Vec<VertexId> = (0..n as VertexId).rev().collect();
        perm.reverse();
        perm.rotate_left(3); // some permutation
        let r = relabel(&g, &perm);
        for v in 0..n as VertexId {
            for &u in g.neighbors(v) {
                assert!(
                    r.neighbors(perm[v as usize]).contains(&perm[u as usize]),
                    "edge ({v},{u}) lost"
                );
            }
        }
    }

    /// The sort-based oracle: pack every relabeled arc and build through
    /// `csr_from_packed_arcs` without dedup.
    fn relabel_oracle<G: CsrView + ?Sized>(g: &G, perm: &[VertexId]) -> Csr {
        let mut arcs = Vec::new();
        for v in 0..g.num_vertices() as VertexId {
            g.for_neighbors(v, &mut |u| {
                arcs.push(pack_arc(perm[v as usize], perm[u as usize]));
            });
        }
        csr_from_packed_arcs(g.num_vertices(), arcs, false)
    }

    /// `relabel` under random, degree and BFS permutations equals the
    /// oracle.
    fn assert_relabel_matches_oracle<G: CsrView + ?Sized>(g: &G, label: &str) {
        let src = g.max_degree_vertex().unwrap_or(0);
        for (name, perm) in [
            ("random", random_perm(g.num_vertices(), 7)),
            ("degree", degree_perm(g)),
            ("bfs", bfs_perm(g, src)),
        ] {
            assert!(is_permutation(&perm), "{name} on {label}");
            assert_eq!(
                relabel(g, &perm),
                relabel_oracle(g, &perm),
                "{name} relabel of {label}"
            );
        }
    }

    #[test]
    fn relabel_equals_the_sort_based_oracle() {
        for scale in 6..=10 {
            for spec in [
                GraphSpec::urand(scale),
                GraphSpec::kron(scale),
                GraphSpec::friendster_like(scale),
            ] {
                let spec = spec.seed(scale as u64);
                assert_relabel_matches_oracle(&spec.build(), &spec.name());
            }
        }
    }

    #[test]
    fn relabel_keeps_self_loops_and_repeated_arcs() {
        let edges = [
            (0, 0),
            (1, 3),
            (1, 3),
            (3, 1),
            (2, 2),
            (2, 2),
            (4, 0),
            (0, 4),
        ];
        let g = csr_from_edges(6, &edges, false, false);
        assert_eq!(g.num_edges(), edges.len() as u64);
        assert_relabel_matches_oracle(&g, "self-loops and repeats");
        let r = relabel(&g, &[5, 4, 3, 2, 1, 0]);
        assert_eq!(r.neighbors(3), &[3, 3]);
        assert_eq!(r.neighbors(4), &[2, 2]);
        assert_eq!(r.neighbors(0), &[] as &[VertexId]);
    }

    #[test]
    fn relabel_of_a_spilled_graph_equals_the_oracle() {
        let mut cfg = SpillConfig::new(
            std::env::temp_dir().join(format!("cxlg-relabel-oracle-{}", std::process::id())),
        );
        cfg.page_len = 16;
        cfg.cache_pages = 2;
        let spec = GraphSpec::kron(9).seed(3);
        let spill = SpillCsr::build(&spec, &cfg).expect("spill build");
        assert_relabel_matches_oracle(&spill, "spilled kron9");
        assert_eq!(by_degree(&spill), by_degree(&spec.build()));
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn relabel_rejects_bad_permutation_length() {
        let g = GraphSpec::urand(6).seed(1).build();
        relabel(&g, &[0, 1, 2]);
    }
}
