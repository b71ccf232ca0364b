//! Graph traversal workloads executed against the simulated system.
//!
//! BFS and SSSP are the paper's representative "fine-grained random
//! access" workloads (§2.1, §4): level-synchronous kernels in which each
//! frontier vertex's edge sublist is fetched on demand from external
//! memory. PageRank and connected components are implemented as
//! extensions (the Discussion section contrasts sequential-access
//! algorithms like PageRank with the random-access ones studied here).
//!
//! The algorithm logic is deliberately split from timing: a stepper
//! ([`Levels`]) yields the per-level frontiers (pure graph computation),
//! and the timed run feeds those frontiers' sublists through the access
//! method and the DES engine. The RAF simulation (`raf.rs`) replays the
//! same frontiers, so Figure 3 and the runtime figures see identical
//! access orders.
//!
//! # Execution paths
//!
//! A run has three stages: trace, request planning, and simulation. One
//! driver runs them, [`runner::sweep_systems`][sweep], for one traversal
//! over any number of systems on one graph; [`Traversal::run`] is that
//! driver with a single system.
//!
//! * **Trace once.** The stepper yields one frontier at a time. Added
//!   latency, device count or warp count change neither the frontiers
//!   nor, for systems with the same access method, the requests, so a
//!   sweep traces each level once for all its systems.
//! * **Plan once per access method.** Systems are grouped by
//!   [`AccessConfig`][ac], the only input to
//!   [`SystemConfig::build_access`] besides the graph. Each group plans
//!   each level once, in level order — the access methods are stateful
//!   across levels (the BaM cache, UVM fault tracking) — in windows of a
//!   fixed number of requests, whole vertices each.
//! * **Simulate per system.** Each window is fed to the engine of every
//!   system of its group and then dropped, so a run holds one window per
//!   group, never a level's whole plan. Every system keeps one
//!   **chained** engine that takes the levels in order, each batch
//!   starting on the clock where the previous one ended. On backends
//!   that quiesce at the level barrier (DRAM, CXL) that equals simulating
//!   each level as an independent round shard from `t = 0` (the `engine`
//!   module docs); flash-backed backends carry media state across
//!   batches, so only the chain is right for them.
//!
//! Levels run one after another. Within a level the groups run in
//! parallel, and each group feeds every window to its systems in
//! parallel. A system's engine sees the same items in the same order
//! however they are split into windows (the `engine` module docs, "Batch
//! input"), so every system's report is bit-identical at any pool size,
//! and equal to running the system alone.
//!
//! [sweep]: crate::runner::sweep_systems
//! [ac]: crate::system::AccessConfig
//!
//! The stepper runs one sequential kernel per algorithm (BFS, SSSP, CC).
//! Each walks the frontier in sorted order, loops over the borrowed
//! neighbor windows of [`CsrView::with_neighbors`], and pushes a vertex
//! onto the next frontier the first time it is visited, improved or
//! relabelled in the round (a per-round bitmap dedups), so each frontier
//! needs only a sort. SSSP and CC rounds are Gauss–Seidel: a relaxation
//! made early in a round feeds relaxations later in the same round, so
//! their expansion order is semantic anyway. BFS does not fan out
//! across the pool either: a parallel expansion must check neighbors
//! against a level-entry `visited` snapshot, so it gathers every
//! unvisited-neighbor *occurrence* and sorts + dedups the lot, while the
//! sequential loop pushes each new vertex once. On a 2-core host the
//! sequential loop measured 1.8–4.7× faster on scale-14 to -19 graphs,
//! with both threads given to the fan-out. The traces therefore involve
//! no threads at all.

use crate::metrics::RunReport;
use crate::system::SystemConfig;
use cxlg_graph::{CsrView, VertexId};
use serde::{Deserialize, Serialize};

/// Which algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Workload {
    /// Breadth-first search from a source vertex.
    Bfs {
        /// Source vertex.
        source: VertexId,
    },
    /// Single-source shortest path (frontier-based Bellman–Ford, as in
    /// EMOGI) with deterministic integer weights in `[1, max_weight]`.
    Sssp {
        /// Source vertex.
        source: VertexId,
        /// Largest edge weight.
        max_weight: u32,
    },
    /// PageRank-style full-edge-list sweeps (sequential access pattern).
    PageRank {
        /// Number of iterations.
        iterations: u32,
    },
    /// Connected components via label propagation.
    ConnectedComponents,
}

/// A configured traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Traversal {
    /// The workload to execute.
    pub workload: Workload,
}

impl Traversal {
    /// BFS from `source`.
    pub fn bfs(source: VertexId) -> Self {
        Traversal {
            workload: Workload::Bfs { source },
        }
    }

    /// SSSP from `source` with the paper-style weight range `[1, 64]`.
    pub fn sssp(source: VertexId) -> Self {
        Traversal {
            workload: Workload::Sssp {
                source,
                max_weight: 64,
            },
        }
    }

    /// PageRank with `iterations` full sweeps.
    pub fn pagerank(iterations: u32) -> Self {
        Traversal {
            workload: Workload::PageRank { iterations },
        }
    }

    /// Connected components.
    pub fn connected_components() -> Self {
        Traversal {
            workload: Workload::ConnectedComponents,
        }
    }

    /// Workload name for reports.
    pub fn name(&self) -> &'static str {
        match self.workload {
            Workload::Bfs { .. } => "bfs",
            Workload::Sssp { .. } => "sssp",
            Workload::PageRank { .. } => "pagerank",
            Workload::ConnectedComponents => "cc",
        }
    }

    /// The stepper over this traversal's frontiers on `g`.
    ///
    /// # Panics
    ///
    /// Panics if the source vertex is out of range, or if an SSSP
    /// `max_weight` is 0.
    pub fn levels<'g, G: CsrView + ?Sized>(&self, g: &'g G) -> Levels<'g, G> {
        let n = g.num_vertices();
        let source_frontier = |source: VertexId| {
            assert!((source as usize) < n, "source out of range");
            vec![source]
        };
        let non_isolated = || -> Vec<VertexId> {
            (0..n as VertexId).filter(|&v| g.degree(v) > 0).collect()
        };
        let (state, frontier) = match self.workload {
            Workload::Bfs { source } => {
                let frontier = source_frontier(source);
                let mut visited = vec![false; n];
                visited[source as usize] = true;
                (State::Bfs { visited }, Some(frontier))
            }
            Workload::Sssp { source, max_weight } => {
                assert!(max_weight >= 1, "SSSP max_weight must be at least 1, got 0");
                let frontier = source_frontier(source);
                let mut dist = vec![u64::MAX; n];
                dist[source as usize] = 0;
                let mark = vec![false; n];
                (State::Sssp { dist, mark, max_weight }, Some(frontier))
            }
            Workload::PageRank { iterations } => (
                State::PageRank {
                    rounds_left: iterations,
                },
                (iterations > 0).then(non_isolated),
            ),
            Workload::ConnectedComponents => {
                let frontier = non_isolated();
                let label = (0..n as VertexId).collect();
                let mark = vec![false; n];
                (State::Cc { label, mark }, (!frontier.is_empty()).then_some(frontier))
            }
        };
        Levels { g, state, frontier }
    }

    /// Generate the per-level vertex frontiers without timing anything:
    /// the stepper's levels, collected. Each level lists the vertices
    /// whose sublists are read, in the (sorted) order the GPU kernel
    /// would process them.
    pub fn trace<G: CsrView + ?Sized>(&self, g: &G) -> Vec<Vec<VertexId>> {
        self.levels(g).collect()
    }

    /// Run the workload on a simulated system, producing full metrics:
    /// [`runner::sweep_systems`](crate::runner::sweep_systems) with this
    /// one system (module docs). One engine takes the levels back to
    /// back, so the result is identical at every worker count.
    pub fn run<G: CsrView + ?Sized>(&self, g: &G, sys: &SystemConfig) -> RunReport {
        let mut reports = crate::runner::sweep_systems(g, *self, std::slice::from_ref(sys));
        reports.pop().expect("one report per system")
    }
}

/// One traversal's frontiers, one level at a time: the per-algorithm
/// stepper behind every trace and every run.
///
/// It owns the algorithm's state (`visited`, `dist`, `label` and the
/// per-round `mark`) and yields each frontier, sorted by vertex ID. A
/// frontier is expanded into the next one as it is yielded, so the
/// stepper holds at most one frontier besides the one it hands out.
/// Built by [`Traversal::levels`].
pub struct Levels<'g, G: ?Sized> {
    g: &'g G,
    state: State,
    /// The frontier the next call yields; `None` once converged.
    frontier: Option<Vec<VertexId>>,
}

/// Per-algorithm traversal state.
enum State {
    Bfs {
        visited: Vec<bool>,
    },
    Sssp {
        dist: Vec<u64>,
        mark: Vec<bool>,
        max_weight: u32,
    },
    PageRank {
        rounds_left: u32,
    },
    Cc {
        label: Vec<VertexId>,
        mark: Vec<bool>,
    },
}

impl<G: CsrView + ?Sized> Levels<'_, G> {
    /// Vertices reached (BFS, SSSP), components found (CC, isolated
    /// vertices included) or vertices processed (PageRank). Final once
    /// the last level has been yielded.
    pub fn reached(&self) -> u64 {
        let g = self.g;
        match &self.state {
            State::Bfs { visited } => visited.iter().filter(|&&v| v).count() as u64,
            State::Sssp { dist, .. } => dist.iter().filter(|&&d| d != u64::MAX).count() as u64,
            State::PageRank { .. } => g.num_vertices() as u64,
            State::Cc { label, .. } => {
                let mut roots: Vec<VertexId> = (0..g.num_vertices() as VertexId)
                    .filter(|&v| g.degree(v) > 0)
                    .map(|v| label[v as usize])
                    .collect();
                roots.sort_unstable();
                roots.dedup();
                // Isolated vertices each count as their own component.
                roots.len() as u64 + g.num_isolated() as u64
            }
        }
    }

    /// Expand `frontier` into the next level's frontier; `None` once the
    /// traversal has converged.
    ///
    /// SSSP and CC rounds are Gauss–Seidel (a distance or label lowered
    /// early in a round feeds relaxations later in it), and a vertex
    /// improved several times in one round enters the next frontier
    /// once: `mark` records membership and is cleared after each round.
    /// BFS dedups with `visited` itself.
    fn expand(&mut self, frontier: &[VertexId]) -> Option<Vec<VertexId>> {
        let g = self.g;
        let mut next = Vec::new();
        match &mut self.state {
            State::Bfs { visited } => {
                for &v in frontier {
                    g.with_neighbors(v, &mut |window| {
                        for &u in window {
                            if !visited[u as usize] {
                                visited[u as usize] = true;
                                next.push(u);
                            }
                        }
                    });
                }
            }
            State::Sssp {
                dist,
                mark,
                max_weight,
            } => {
                let max_weight = *max_weight;
                for &v in frontier {
                    let dv = dist[v as usize];
                    g.with_neighbors(v, &mut |window| {
                        for &u in window {
                            let nd = dv + g.edge_weight(v, u, max_weight) as u64;
                            if nd < dist[u as usize] {
                                dist[u as usize] = nd;
                                if !mark[u as usize] {
                                    mark[u as usize] = true;
                                    next.push(u);
                                }
                            }
                        }
                    });
                }
                next.iter().for_each(|&u| mark[u as usize] = false);
            }
            State::Cc { label, mark } => {
                for &v in frontier {
                    let lv = label[v as usize];
                    g.with_neighbors(v, &mut |window| {
                        for &u in window {
                            if lv < label[u as usize] {
                                label[u as usize] = lv;
                                if !mark[u as usize] {
                                    mark[u as usize] = true;
                                    next.push(u);
                                }
                            }
                        }
                    });
                }
                next.iter().for_each(|&u| mark[u as usize] = false);
            }
            // Every iteration reads every non-isolated vertex's sublist in
            // ID order: the sequential pattern the Discussion section
            // contrasts with BFS.
            State::PageRank { rounds_left } => {
                *rounds_left -= 1;
                return (*rounds_left > 0).then(|| frontier.to_vec());
            }
        }
        next.sort_unstable();
        (!next.is_empty()).then_some(next)
    }
}

impl<G: CsrView + ?Sized> Iterator for Levels<'_, G> {
    type Item = Vec<VertexId>;

    fn next(&mut self) -> Option<Vec<VertexId>> {
        let frontier = self.frontier.take()?;
        self.frontier = self.expand(&frontier);
        Some(frontier)
    }
}

/// Level-synchronous BFS frontier trace. Frontiers are sorted by vertex
/// ID, matching GPU kernels that compact the frontier from status arrays.
pub fn bfs_trace<G: CsrView + ?Sized>(g: &G, source: VertexId) -> Vec<Vec<VertexId>> {
    Traversal::bfs(source).trace(g)
}

/// Frontier-based Bellman–Ford rounds: each round reads the sublists of
/// vertices whose distance improved in the previous round.
pub fn sssp_trace<G: CsrView + ?Sized>(g: &G, source: VertexId, max_weight: u32) -> Vec<Vec<VertexId>> {
    let sssp = Traversal {
        workload: Workload::Sssp { source, max_weight },
    };
    sssp.trace(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxlg_graph::spec::GraphSpec;
    use cxlg_graph::{Csr, SpillConfig, SpillCsr};
    use cxlg_link::pcie::PcieGen;

    impl Traversal {
        /// The trace plus the stepper's [`Levels::reached`] count.
        fn trace_with_reached<G: CsrView + ?Sized>(&self, g: &G) -> (Vec<Vec<VertexId>>, u64) {
            let mut levels = self.levels(g);
            let trace = levels.by_ref().collect();
            (trace, levels.reached())
        }
    }

    fn sssp_with(source: VertexId, max_weight: u32) -> Traversal {
        Traversal {
            workload: Workload::Sssp { source, max_weight },
        }
    }

    fn path_graph(n: usize) -> Csr {
        // 0 - 1 - 2 - ... - (n-1), undirected.
        let edges: Vec<(VertexId, VertexId)> =
            (0..n - 1).map(|i| (i as VertexId, i as VertexId + 1)).collect();
        cxlg_graph::builder::csr_from_edges(n, &edges, true, false)
    }

    #[test]
    fn bfs_trace_on_path_has_one_vertex_per_level() {
        let g = path_graph(5);
        let t = bfs_trace(&g, 0);
        assert_eq!(t.len(), 5);
        for (d, level) in t.iter().enumerate() {
            assert_eq!(level, &vec![d as VertexId]);
        }
    }

    #[test]
    fn bfs_trace_counts_match_reachability() {
        let g = GraphSpec::urand(10).seed(3).build();
        let t = bfs_trace(&g, 0);
        let total: usize = t.iter().map(|l| l.len()).sum();
        // urand at degree 32 is connected with overwhelming probability.
        assert_eq!(total, g.num_vertices());
        // Frontiers are sorted and disjoint.
        let mut seen = std::collections::HashSet::new();
        for level in &t {
            assert!(level.windows(2).all(|w| w[0] < w[1]));
            for &v in level {
                assert!(seen.insert(v), "vertex {v} in two levels");
            }
        }
    }

    /// Reference BFS: mark-as-you-go with one callback per edge through
    /// `for_neighbors`, then a sort.
    fn naive_bfs<G: CsrView + ?Sized>(g: &G, source: VertexId) -> (Vec<Vec<VertexId>>, u64) {
        let mut visited = vec![false; g.num_vertices()];
        visited[source as usize] = true;
        let mut frontier = vec![source];
        let mut levels = Vec::new();
        while !frontier.is_empty() {
            levels.push(frontier.clone());
            let mut next = Vec::new();
            for &v in &frontier {
                g.for_neighbors(v, &mut |u| {
                    if !visited[u as usize] {
                        visited[u as usize] = true;
                        next.push(u);
                    }
                });
            }
            next.sort_unstable();
            frontier = next;
        }
        let reached = visited.iter().filter(|&&b| b).count() as u64;
        (levels, reached)
    }

    /// Gauss–Seidel Bellman–Ford that pushes every improvement, then
    /// sorts and dedups the round's list.
    fn naive_sssp<G: CsrView + ?Sized>(
        g: &G,
        source: VertexId,
        max_weight: u32,
    ) -> (Vec<Vec<VertexId>>, u64) {
        let mut dist = vec![u64::MAX; g.num_vertices()];
        dist[source as usize] = 0;
        let mut frontier = vec![source];
        let mut rounds = Vec::new();
        while !frontier.is_empty() {
            rounds.push(frontier.clone());
            let mut improved = Vec::new();
            for &v in &frontier {
                let dv = dist[v as usize];
                g.for_neighbors(v, &mut |u| {
                    let w = g.edge_weight(v, u, max_weight) as u64;
                    if dv + w < dist[u as usize] {
                        dist[u as usize] = dv + w;
                        improved.push(u);
                    }
                });
            }
            improved.sort_unstable();
            improved.dedup();
            frontier = improved;
        }
        let reached = dist.iter().filter(|&&d| d != u64::MAX).count() as u64;
        (rounds, reached)
    }

    /// Label propagation that pushes every relabel, then sorts and dedups
    /// the round's list.
    fn naive_cc<G: CsrView + ?Sized>(g: &G) -> (Vec<Vec<VertexId>>, u64) {
        let n = g.num_vertices();
        let mut label: Vec<VertexId> = (0..n as VertexId).collect();
        let mut frontier: Vec<VertexId> = (0..n as VertexId).filter(|&v| g.degree(v) > 0).collect();
        let mut rounds = Vec::new();
        while !frontier.is_empty() {
            rounds.push(frontier.clone());
            let mut changed = Vec::new();
            for &v in &frontier {
                let lv = label[v as usize];
                g.for_neighbors(v, &mut |u| {
                    if lv < label[u as usize] {
                        label[u as usize] = lv;
                        changed.push(u);
                    }
                });
            }
            changed.sort_unstable();
            changed.dedup();
            frontier = changed;
        }
        let mut roots: Vec<VertexId> = (0..n as VertexId)
            .filter(|&v| g.degree(v) > 0)
            .map(|v| label[v as usize])
            .collect();
        roots.sort_unstable();
        roots.dedup();
        (rounds, roots.len() as u64 + g.num_isolated() as u64)
    }

    /// Every frontier kernel, through the production dispatch, against its
    /// naive loop: traces and counts must be equal.
    fn assert_kernels_match_naive<G: CsrView + ?Sized>(g: &G, label: &str) {
        let src = g.max_degree_vertex().unwrap_or(0);
        assert_eq!(
            Traversal::bfs(src).trace_with_reached(g),
            naive_bfs(g, src),
            "BFS on {label}"
        );
        for max_weight in [64, 100] {
            assert_eq!(
                sssp_with(src, max_weight).trace_with_reached(g),
                naive_sssp(g, src, max_weight),
                "SSSP (max_weight {max_weight}) on {label}"
            );
        }
        assert_eq!(
            Traversal::connected_components().trace_with_reached(g),
            naive_cc(g),
            "CC on {label}"
        );
    }

    #[test]
    fn slice_kernels_equal_naive_references() {
        for scale in 8..=12 {
            for seed in 1..=3 {
                for spec in [
                    GraphSpec::urand(scale),
                    GraphSpec::kron(scale),
                    GraphSpec::friendster_like(scale),
                ] {
                    let spec = spec.seed(seed);
                    assert_kernels_match_naive(&spec.build(), &spec.name());
                }
            }
        }
    }

    #[test]
    fn slice_kernels_equal_naive_references_across_spill_windows() {
        // 16-target pages and a 2-page cache: most sublists arrive in
        // several `with_neighbors` windows, and pages are evicted and
        // re-read within one vertex's expansion.
        let mut cfg = SpillConfig::new(
            std::env::temp_dir().join(format!("cxlg-trace-oracle-{}", std::process::id())),
        );
        cfg.page_len = 16;
        cfg.cache_pages = 2;
        for scale in [8, 10, 12] {
            for spec in [
                GraphSpec::urand(scale),
                GraphSpec::kron(scale),
                GraphSpec::friendster_like(scale),
            ] {
                let spec = spec.seed(5);
                let spill = SpillCsr::build(&spec, &cfg).expect("spill build");
                assert_eq!(spill.fingerprint(), spec.build().fingerprint());
                assert_kernels_match_naive(&spill, &format!("spill {}", spec.name()));
            }
        }
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn sssp_frontier_lists_a_vertex_once_per_round() {
        // Vertex 4 is relaxed by 3 and then, lower, by 6 in round 1, and
        // again in round 2 through the detour 6 -> 1 -> 4.
        let w = |u, v| cxlg_graph::csr::edge_weight(u, v, 64) as u64;
        assert!(
            w(0, 3) + w(3, 4) > w(0, 6) + w(6, 4) && w(6, 1) + w(1, 4) < w(6, 4),
            "edge weights no longer build the double-improvement case"
        );
        let edges = [(0, 3), (0, 6), (3, 4), (6, 4), (6, 1), (1, 4)];
        let g = cxlg_graph::builder::csr_from_edges(7, &edges, false, false);
        let (rounds, reached) = sssp_with(0, 64).trace_with_reached(&g);
        assert_eq!(rounds, vec![vec![0], vec![3, 6], vec![1, 4], vec![4]]);
        assert_eq!(reached, 5);
        assert_eq!((rounds, reached), naive_sssp(&g, 0, 64));
    }

    #[test]
    #[should_panic(expected = "max_weight must be at least 1")]
    fn sssp_rejects_zero_max_weight() {
        sssp_with(0, 0).levels(&path_graph(3));
    }

    #[test]
    fn bfs_frontier_profile_is_hump_shaped() {
        // Table 2's pattern: tiny, growing, huge, then collapsing.
        let g = GraphSpec::urand(12).seed(1).build();
        let t = bfs_trace(&g, 0);
        let sizes: Vec<usize> = t.iter().map(|l| l.len()).collect();
        let peak = *sizes.iter().max().unwrap();
        let peak_idx = sizes.iter().position(|&s| s == peak).unwrap();
        assert!(peak > g.num_vertices() / 4, "peak {peak}");
        assert!(peak_idx > 0 && peak_idx < sizes.len() - 1);
        assert!(sizes[0] == 1);
    }

    #[test]
    fn sssp_visits_at_least_bfs_vertices_and_more_reads() {
        let g = GraphSpec::urand(9).seed(2).build();
        let bfs: usize = bfs_trace(&g, 0).iter().map(|l| l.len()).sum();
        let sssp: usize = sssp_trace(&g, 0, 64).iter().map(|l| l.len()).sum();
        assert!(
            sssp >= bfs,
            "SSSP re-reads should exceed BFS: {sssp} vs {bfs}"
        );
    }

    #[test]
    fn sssp_distances_are_shortest() {
        // On the path graph, every vertex is reachable along the only
        // path, and the trace pass itself now reports the count.
        let g = path_graph(6);
        let (rounds, reached) = sssp_with(0, 64).trace_with_reached(&g);
        assert_eq!(reached, 6);
        // The trace and the count come from the same pass.
        let visited: usize = rounds.iter().map(|r| r.len()).sum();
        assert!(visited >= 6);
    }

    #[test]
    fn cc_finds_components() {
        // Two disjoint paths => 2 components (plus no isolated vertices).
        let edges = vec![(0, 1), (1, 2), (3, 4)];
        let g = cxlg_graph::builder::csr_from_edges(5, &edges, true, false);
        let (_, components) = Traversal::connected_components().trace_with_reached(&g);
        assert_eq!(components, 2);
    }

    #[test]
    fn cc_counts_isolated_vertices() {
        let edges = vec![(0, 1)];
        let g = cxlg_graph::builder::csr_from_edges(4, &edges, true, false);
        let (_, components) = Traversal::connected_components().trace_with_reached(&g);
        assert_eq!(components, 3); // {0,1}, {2}, {3}
    }

    #[test]
    fn run_produces_consistent_report() {
        let g = GraphSpec::urand(9).seed(1).build();
        let sys = SystemConfig::emogi_on_dram(PcieGen::Gen4);
        let report = Traversal::bfs(0).run(&g, &sys);
        assert_eq!(report.workload, "bfs");
        assert_eq!(report.backend, "host-dram:emogi");
        assert_eq!(report.reached, g.num_vertices() as u64);
        assert!(report.metrics.runtime.as_us_f64() > 0.0);
        // Zero-copy reads cover every useful byte at least once.
        assert!(report.metrics.fetched_bytes >= report.metrics.useful_bytes);
        // E equals the whole edge list for a full BFS.
        assert_eq!(
            report.metrics.useful_bytes,
            g.num_edges() * 8
        );
        // RAF for 32 B alignment on 8 B entries is modest (§3.1).
        let raf = report.metrics.raf();
        assert!((1.0..2.0).contains(&raf), "RAF {raf}");
    }

    #[test]
    fn deterministic_runs() {
        let g = GraphSpec::kron(8).seed(4).build();
        let sys = SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(1.0);
        let a = Traversal::bfs(g.max_degree_vertex().unwrap()).run(&g, &sys);
        let b = Traversal::bfs(g.max_degree_vertex().unwrap()).run(&g, &sys);
        assert_eq!(a.metrics.runtime, b.metrics.runtime);
        assert_eq!(a.metrics.fetched_bytes, b.metrics.fetched_bytes);
    }

    /// `trav` on `sys` as round shards: each level planned whole and
    /// simulated from `t = 0` on a fresh engine, merged in level order.
    /// Returns the run's metrics and each level's fetched bytes and
    /// simulated time, serialized.
    fn sharded(g: &Csr, trav: Traversal, sys: &SystemConfig) -> String {
        use crate::engine::{merge_shard_metrics, simulate_shards};
        use cxlg_graph::layout::EdgeListLayout;
        let layout = EdgeListLayout::new(g);
        let mut access = sys.build_access(layout.edge_list_bytes());
        let (mut useful, mut hits) = (0, 0);
        let batches: Vec<Vec<_>> = trav
            .trace(g)
            .iter()
            .map(|frontier| {
                access.begin_level();
                let mut requests = Vec::new();
                for &v in frontier {
                    let span = layout.sublist_span(v);
                    useful += span.len;
                    hits += access.requests_for_span(span, &mut requests);
                }
                requests
            })
            .collect();
        let outcomes = simulate_shards(|| sys.build_engine(), &batches);
        let mut metrics = merge_shard_metrics(&outcomes);
        metrics.useful_bytes = useful;
        metrics.cache_hits = hits;
        let levels: Vec<_> = outcomes
            .iter()
            .map(|o| (o.result.fetched_bytes, o.result.end.saturating_since(cxlg_sim::SimTime::ZERO)))
            .collect();
        serde_json::to_string(&(metrics, levels)).unwrap()
    }

    /// What [`sharded`] returns, from `report`.
    fn chained(report: &RunReport) -> String {
        let levels: Vec<_> = report.levels.iter().map(|l| (l.fetched_bytes, l.runtime)).collect();
        serde_json::to_string(&(&report.metrics, levels)).unwrap()
    }

    #[test]
    fn sharded_run_matches_coupled_run_exactly_on_memoryless_backends() {
        // The heart of the decomposition argument: on every backend
        // whose device state quiesces at the level barrier (DRAM, CXL,
        // UVM — everything but the flash arrays), the per-level shards
        // merged in level order must reproduce the chained run of
        // `Traversal::run` bit-for-bit — including the float fields.
        let g = GraphSpec::kron(9).seed(11).build();
        let src = g.max_degree_vertex().unwrap();
        let systems = [
            SystemConfig::emogi_on_dram(PcieGen::Gen4),
            SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(1.0),
            SystemConfig::uvm_on_dram(PcieGen::Gen4),
        ];
        for sys in &systems {
            for trav in [Traversal::bfs(src), Traversal::sssp(src)] {
                assert_eq!(
                    sharded(&g, trav, sys),
                    chained(&trav.run(&g, sys)),
                    "sharded vs coupled diverged for {} on {}",
                    trav.name(),
                    sys.label()
                );
            }
        }
    }

    #[test]
    fn flash_backed_runs_take_the_coupled_path() {
        // Flash arrays carry real media state across batches (plane page
        // registers, busy timestamps, the jitter RNG), so `run` must keep
        // it from level to level: a fresh engine per level would give
        // the round-shard result instead.
        let g = GraphSpec::kron(9).seed(11).build();
        let src = g.max_degree_vertex().unwrap();
        for sys in [
            SystemConfig::xlfdd(PcieGen::Gen4, 16),
            SystemConfig::bam_on_nvme(PcieGen::Gen4, 4),
        ] {
            for trav in [Traversal::bfs(src), Traversal::sssp(src)] {
                assert_ne!(
                    sharded(&g, trav, &sys),
                    chained(&trav.run(&g, &sys)),
                    "{} on {} left the coupled path",
                    trav.name(),
                    sys.label()
                );
            }
        }
    }

    #[test]
    fn run_on_one_worker_is_the_oracle_at_every_pool_size() {
        let g = GraphSpec::urand(9).seed(6).build();
        let trav = Traversal::bfs(0);
        // Every backend takes the chain at any pool size, so every pool
        // must agree with a 1-thread pool byte-for-byte.
        for sys in [
            SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5),
            SystemConfig::uvm_on_dram(PcieGen::Gen4),
            SystemConfig::bam_on_nvme(PcieGen::Gen4, 4),
        ] {
            let oracle = rayon::with_num_threads(1, || trav.run(&g, &sys));
            let oracle = serde_json::to_string(&oracle).unwrap();
            for workers in [2, 8] {
                let got = rayon::with_num_threads(workers, || trav.run(&g, &sys));
                assert_eq!(
                    serde_json::to_string(&got).unwrap(),
                    oracle,
                    "{} at {workers} workers",
                    sys.label()
                );
            }
        }
    }

    #[test]
    fn trace_and_run_agree_on_levels() {
        let g = GraphSpec::urand(8).seed(9).build();
        let trav = Traversal::bfs(0);
        let trace = trav.trace(&g);
        let sys = SystemConfig::emogi_on_dram(PcieGen::Gen4);
        let report = trav.run(&g, &sys);
        assert_eq!(report.levels.len(), trace.len());
        for (ls, tr) in report.levels.iter().zip(&trace) {
            assert_eq!(ls.frontier, tr.len() as u64);
        }
    }
}
