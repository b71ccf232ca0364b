//! Reference implementations and verifiers for the traversal results.
//!
//! The simulated runs compute real answers (distances, components,
//! ranks) on the host graph; these verifiers check them against
//! independent implementations, GAP-benchmark style, so a timing-model
//! bug can never silently corrupt algorithmic results.

use crate::traversal::sssp_trace;
use cxlg_graph::{CsrView, VertexId};
use std::collections::VecDeque;

/// BFS depths by a plain queue implementation; `u32::MAX` = unreached.
fn reference_bfs_depths<G: CsrView + ?Sized>(g: &G, source: VertexId) -> Vec<u32> {
    let n = g.num_vertices();
    let mut depth = vec![u32::MAX; n];
    depth[source as usize] = 0;
    let mut queue = VecDeque::from([source]);
    while let Some(v) = queue.pop_front() {
        g.for_neighbors(v, &mut |u| {
            if depth[u as usize] == u32::MAX {
                depth[u as usize] = depth[v as usize] + 1;
                queue.push_back(u);
            }
        });
    }
    depth
}

/// Dijkstra reference distances; `u64::MAX` = unreached.
pub fn reference_sssp_distances<G: CsrView + ?Sized>(
    g: &G,
    source: VertexId,
    max_weight: u32,
) -> Vec<u64> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    assert!(max_weight >= 1, "SSSP max_weight must be at least 1, got 0");
    let n = g.num_vertices();
    let mut dist = vec![u64::MAX; n];
    dist[source as usize] = 0;
    let mut heap = BinaryHeap::from([Reverse((0u64, source))]);
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        g.for_neighbors(v, &mut |u| {
            let nd = d + g.edge_weight(v, u, max_weight) as u64;
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                heap.push(Reverse((nd, u)));
            }
        });
    }
    dist
}

/// Verify that a level-synchronous BFS trace assigns every vertex the
/// reference depth (vertex in level `k` ⇔ reference depth `k`).
pub fn verify_bfs_trace<G: CsrView + ?Sized>(
    g: &G,
    source: VertexId,
    trace: &[Vec<VertexId>],
) -> Result<(), String> {
    let reference = reference_bfs_depths(g, source);
    let mut seen = vec![false; g.num_vertices()];
    for (k, level) in trace.iter().enumerate() {
        for &v in level {
            if reference[v as usize] != k as u32 {
                return Err(format!(
                    "vertex {v} in level {k} but reference depth is {}",
                    reference[v as usize]
                ));
            }
            if seen[v as usize] {
                return Err(format!("vertex {v} appears twice"));
            }
            seen[v as usize] = true;
        }
    }
    let traced = seen.iter().filter(|&&s| s).count();
    let reachable = reference.iter().filter(|&&d| d != u32::MAX).count();
    if traced != reachable {
        return Err(format!("trace covers {traced} vertices, reference {reachable}"));
    }
    Ok(())
}

/// Verify that the frontier-Bellman–Ford trace converges to Dijkstra's
/// distances (re-running the relaxations over the trace).
pub fn verify_sssp<G: CsrView + ?Sized>(
    g: &G,
    source: VertexId,
    max_weight: u32,
) -> Result<(), String> {
    assert!(max_weight >= 1, "SSSP max_weight must be at least 1, got 0");
    // Replay the production trace's relaxation logic...
    let trace = sssp_trace(g, source, max_weight);
    let mut dist = vec![u64::MAX; g.num_vertices()];
    dist[source as usize] = 0;
    for round in &trace {
        for &v in round {
            let dv = dist[v as usize];
            if dv == u64::MAX {
                return Err(format!("vertex {v} active with infinite distance"));
            }
            g.for_neighbors(v, &mut |u| {
                let nd = dv + g.edge_weight(v, u, max_weight) as u64;
                if nd < dist[u as usize] {
                    dist[u as usize] = nd;
                }
            });
        }
    }
    // ...and compare with Dijkstra.
    let reference = reference_sssp_distances(g, source, max_weight);
    for (v, (&got, &want)) in dist.iter().zip(&reference).enumerate() {
        if got != want {
            return Err(format!("vertex {v}: got {got}, reference {want}"));
        }
    }
    Ok(())
}

/// Count connected components by union-find (reference for the CC
/// stepper's [`Levels::reached`](crate::traversal::Levels::reached)).
pub fn reference_component_count<G: CsrView + ?Sized>(g: &G) -> u64 {
    let n = g.num_vertices();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    for v in 0..n as u32 {
        g.for_neighbors(v, &mut |u| {
            let (rv, ru) = (find(&mut parent, v), find(&mut parent, u));
            if rv != ru {
                parent[rv.max(ru) as usize] = rv.min(ru);
            }
        });
    }
    (0..n as u32).filter(|&v| find(&mut parent, v) == v).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::bfs_trace;
    use cxlg_graph::spec::GraphSpec;

    #[test]
    fn bfs_trace_matches_reference_on_all_families() {
        for spec in [
            GraphSpec::urand(10).seed(1),
            GraphSpec::kron(10).seed(2),
            GraphSpec::friendster_like(10).seed(3),
        ] {
            let g = spec.build();
            let src = g.max_degree_vertex().unwrap();
            verify_bfs_trace(&g, src, &bfs_trace(&g, src))
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
        }
    }

    #[test]
    fn sssp_converges_to_dijkstra() {
        for seed in 1..4 {
            let g = GraphSpec::urand(9).seed(seed).build();
            verify_sssp(&g, 0, 64).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "max_weight must be at least 1")]
    fn dijkstra_rejects_zero_max_weight() {
        reference_sssp_distances(&GraphSpec::urand(6).seed(1).build(), 0, 0);
    }

    #[test]
    #[should_panic(expected = "max_weight must be at least 1")]
    fn verify_sssp_rejects_zero_max_weight() {
        let _ = verify_sssp(&GraphSpec::urand(6).seed(1).build(), 0, 0);
    }

    #[test]
    fn cc_matches_union_find() {
        let g = GraphSpec::kron(10).seed(5).build();
        let mut levels = crate::traversal::Traversal::connected_components().levels(&g);
        levels.by_ref().for_each(drop);
        assert_eq!(levels.reached(), reference_component_count(&g));
    }

    #[test]
    fn verifier_catches_corrupt_traces() {
        let g = GraphSpec::urand(8).seed(1).build();
        let mut trace = bfs_trace(&g, 0);
        // Move a vertex one level later: must be rejected.
        if trace.len() >= 3 {
            let v = trace[1].pop().unwrap();
            trace[2].push(v);
            assert!(verify_bfs_trace(&g, 0, &trace).is_err());
        }
    }

    #[test]
    fn reference_bfs_depth_zero_is_source() {
        let g = GraphSpec::urand(8).seed(2).build();
        let d = reference_bfs_depths(&g, 5);
        assert_eq!(d[5], 0);
        assert!(d.iter().filter(|&&x| x != u32::MAX).count() > 1);
    }

    #[test]
    fn relabeled_graph_has_same_component_count() {
        let g = GraphSpec::kron(9).seed(9).build();
        let r = cxlg_graph::reorder::by_degree(&g);
        assert_eq!(reference_component_count(&g), reference_component_count(&r));
    }
}
