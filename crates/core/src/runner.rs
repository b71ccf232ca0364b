//! The traversal driver and rayon-parallel parameter sweeps.
//!
//! [`sweep_systems`] runs one traversal over many systems on one graph:
//! it traces each level once, plans it once per access method, and
//! simulates it on every system (the `traversal` module docs,
//! "Execution paths"). [`Traversal::run`] is the same driver with one
//! system.
//!
//! Levels run one after another, and every system chains them on one
//! engine: each level's batch starts on the clock where the previous one
//! ended. Within a level, the groups of systems that share an access
//! method run in parallel. A group plans the level in windows of at
//! most `WINDOW` (16 Ki) requests and feeds each window to its members'
//! engines, in parallel across the members. A member's engine keeps at
//! most `2·active_warps` of them between feeds (the `engine` module
//! docs, "Batch input"). So a run holds one window per group, never a
//! level's whole plan.
//!
//! Every simulation point is deterministic, so the figure harnesses also
//! fan independent points out across cores with [`sweep`], with results
//! identical to a sequential run.

use crate::access::{AccessMethod, DeviceRequest};
use crate::engine::Engine;
use crate::metrics::{LevelStats, RunReport};
use crate::system::{AccessConfig, SystemConfig};
use crate::traversal::Traversal;
use cxlg_graph::layout::EdgeListLayout;
use cxlg_graph::{CsrView, VertexId};
use cxlg_sim::{SimDuration, SimTime};
use rayon::prelude::*;

/// Run one traversal over many system configurations, returning one
/// report per system in input order. Accepts any graph storage backend.
///
/// The graph is traced once, each level is planned once per distinct
/// [`AccessConfig`], and each planned window is simulated on the
/// group's systems across the rayon pool. Each report is bit-identical
/// to [`Traversal::run`] on its system alone, at any pool size.
pub fn sweep_systems<G: CsrView + ?Sized>(
    graph: &G,
    traversal: Traversal,
    systems: &[SystemConfig],
) -> Vec<RunReport> {
    // The stepper first: it checks the workload against the graph.
    let mut levels = traversal.levels(graph);
    if systems.is_empty() {
        return Vec::new();
    }
    let layout = EdgeListLayout::new(graph);
    let mut groups: Vec<Group> = Vec::new();
    for (index, sys) in systems.iter().enumerate() {
        let member = Member {
            index,
            engine: Box::new(sys.build_engine()),
            clock: SimTime::ZERO,
            levels: Vec::new(),
        };
        match groups.iter_mut().find(|g| g.config == sys.access) {
            Some(group) => group.members.push(member),
            None => groups.push(Group {
                config: sys.access,
                access: sys.build_access(layout.edge_list_bytes()),
                plans: Vec::new(),
                members: vec![member],
                window: Vec::new(),
            }),
        }
    }
    for frontier in levels.by_ref() {
        let open: Vec<&mut Group> = groups.iter_mut().collect();
        open.into_par_iter()
            .for_each(|group| group.run_level(&layout, &frontier));
    }
    let reached = levels.reached();
    let mut reports = Vec::new();
    for group in groups {
        for m in group.members {
            let index = m.index;
            reports.push((index, m.report(&group.plans, reached, traversal, &systems[index])));
        }
    }
    reports.sort_unstable_by_key(|(index, _)| *index);
    reports.into_iter().map(|(_, report)| report).collect()
}

/// The capacity a group's window grows to: 16 Ki requests, 256 KB. It
/// exceeds any GPU's `active_warps` (at most 3,072), so a feed decides
/// most of the events it brings.
const WINDOW: usize = 16 * 1024;

/// A window takes no further vertex once it holds this many requests,
/// so a vertex of up to `WINDOW / 8` requests still fits in it.
const WINDOW_FULL: usize = WINDOW - WINDOW / 8;

/// What planning one level yields besides its requests: the
/// trace-derived statistics the engine cannot know.
#[derive(Clone, Copy)]
struct LevelPlan {
    /// Frontier size.
    frontier: u64,
    /// Useful sublist bytes (the level's share of `E`, §3.1).
    useful: u64,
    /// Access-method cache hits.
    hits: u64,
}

/// The systems of a sweep that share one [`AccessConfig`], and so one
/// request plan.
struct Group {
    config: AccessConfig,
    /// The group's (stateful) access method; levels must be planned in
    /// level order.
    access: AccessMethod,
    /// Each level's statistics, in level order.
    plans: Vec<LevelPlan>,
    /// The systems, in input order.
    members: Vec<Member>,
    /// The requests planned last. It grows as a level needs, to at most
    /// [`WINDOW`] of capacity once fed, so small levels keep it small.
    window: Vec<DeviceRequest>,
}

impl Group {
    /// Plan the level of `frontier` window by window, whole vertices
    /// each, and simulate it on every member.
    fn run_level<G: CsrView + ?Sized>(
        &mut self,
        layout: &EdgeListLayout<'_, G>,
        frontier: &[VertexId],
    ) {
        self.access.begin_level();
        let mut plan = LevelPlan {
            frontier: frontier.len() as u64,
            useful: 0,
            hits: 0,
        };
        for m in &mut self.members {
            m.engine.begin(m.clock);
        }
        let mut rest = frontier;
        loop {
            while let Some((&v, tail)) = rest.split_first() {
                let span = layout.sublist_span(v);
                plan.useful += span.len;
                plan.hits += self.access.requests_for_span(span, &mut self.window);
                rest = tail;
                if self.window.len() >= WINDOW_FULL {
                    break;
                }
            }
            let (window, last) = (&self.window[..], rest.is_empty());
            let members: Vec<&mut Member> = self.members.iter_mut().collect();
            members.into_par_iter().for_each(|m| m.feed(window, last));
            self.window.clear();
            // A vertex too large for the window grew it.
            self.window.shrink_to(WINDOW);
            if last {
                break;
            }
        }
        self.plans.push(plan);
    }
}

/// One system of a group and its simulation so far.
struct Member {
    /// The system's position in the sweep.
    index: usize,
    /// The engine that takes the levels back to back. Boxed, each in an
    /// allocation of its own: members simulate side by side, and engines
    /// written by different threads must not share cache lines.
    engine: Box<Engine>,
    /// Where the next level's batch starts.
    clock: SimTime,
    /// Each finished level's fetched bytes and simulated time.
    levels: Vec<(u64, SimDuration)>,
}

impl Member {
    /// Feed the level's next `window`; if it is the `last`, finish the
    /// level and file it.
    fn feed(&mut self, window: &[DeviceRequest], last: bool) {
        if last {
            let result = self.engine.finish_batch(window);
            self.levels
                .push((result.fetched_bytes, result.end.saturating_since(self.clock)));
            self.clock = result.end;
        } else {
            self.engine.feed(window);
        }
    }

    /// The system's report, from its simulated levels and its group's
    /// `plans`.
    fn report(
        mut self,
        plans: &[LevelPlan],
        reached: u64,
        traversal: Traversal,
        sys: &SystemConfig,
    ) -> RunReport {
        let mut metrics = self.engine.finish();
        metrics.runtime = self.clock.saturating_since(SimTime::ZERO);
        metrics.useful_bytes = plans.iter().map(|p| p.useful).sum();
        metrics.cache_hits = plans.iter().map(|p| p.hits).sum();
        RunReport {
            metrics,
            levels: plans
                .iter()
                .zip(self.levels)
                .enumerate()
                .map(|(depth, (plan, (fetched_bytes, runtime)))| LevelStats {
                    depth: depth as u32,
                    frontier: plan.frontier,
                    useful_bytes: plan.useful,
                    fetched_bytes,
                    runtime,
                })
                .collect(),
            reached,
            workload: traversal.name().to_string(),
            backend: sys.label(),
        }
    }
}

/// Run many `(label, graph, traversal, system)` points in parallel.
/// The generic point type keeps harness code declarative.
pub fn sweep<P, R, F>(points: Vec<P>, f: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(P) -> R + Sync + Send,
{
    points.into_par_iter().map(f).collect()
}

/// [`sweep`] on a pool of exactly `threads` workers, regardless of the
/// ambient pool size. Campaign drivers route every sweep through this
/// with the context's configured worker count, so one knob governs both
/// the cross-point fan-out here and the groups and members of
/// [`sweep_systems`] called from the points. Results are identical at
/// any thread count; only wall-clock changes.
pub fn sweep_with_threads<P, R, F>(threads: usize, points: Vec<P>, f: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(P) -> R + Sync + Send,
{
    rayon::with_num_threads(threads.max(1), || sweep(points, f))
}

/// Run `f`, returning its result together with the elapsed wall-clock
/// time. The campaign driver wraps each experiment in this to report
/// per-experiment wall-clock in the run manifest; wall-clock is *host*
/// time (nondeterministic), so it must never feed back into simulated
/// results — only into operator-facing telemetry.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, std::time::Duration) {
    #[expect(
        clippy::disallowed_methods,
        reason = "D2: the one wall-clock read; it feeds manifest telemetry, never a result"
    )]
    let start = std::time::Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Interpolate a `(x, y)` series at `x`, clamping outside the sampled
/// range — the alignment step when a measured series and a paper series
/// sample different x grids. `log_x` interpolates linearly in `ln x`
/// (right for log-spaced axes like alignment sweeps); otherwise linear
/// in `x`. Points must be sorted by ascending `x`.
///
/// Returns `None` for an empty series or a non-finite/non-positive-in-
/// log-mode query; a single-point series clamps to that point's `y`.
pub fn interp_series(points: &[(f64, f64)], x: f64, log_x: bool) -> Option<f64> {
    if points.is_empty() || !x.is_finite() || (log_x && x <= 0.0) {
        return None;
    }
    if x <= points[0].0 {
        return Some(points[0].1);
    }
    if x >= points[points.len() - 1].0 {
        return Some(points[points.len() - 1].1);
    }
    for w in points.windows(2) {
        let ((x0, y0), (x1, y1)) = (w[0], w[1]);
        if x >= x0 && x <= x1 {
            let f = if log_x {
                (x.ln() - x0.ln()) / (x1.ln() - x0.ln())
            } else {
                (x - x0) / (x1 - x0)
            };
            return Some(y0 + f * (y1 - y0));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxlg_graph::spec::GraphSpec;
    use cxlg_link::pcie::PcieGen;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn parallel_sweep_matches_sequential() {
        let g = GraphSpec::urand(8).seed(1).build();
        let systems = vec![
            SystemConfig::emogi_on_dram(PcieGen::Gen4),
            SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5),
        ];
        let seq: Vec<_> = systems
            .iter()
            .map(|s| Traversal::bfs(0).run(&g, s))
            .collect();
        // The sequential reference must be reproduced bit-for-bit at
        // every pool size, not just the default one.
        for threads in [1, 2, 8] {
            let par =
                rayon::with_num_threads(threads, || sweep_systems(&g, Traversal::bfs(0), &systems));
            for (a, b) in par.iter().zip(&seq) {
                assert_eq!(a.metrics.runtime, b.metrics.runtime, "threads={threads}");
                assert_eq!(a.metrics.fetched_bytes, b.metrics.fetched_bytes);
            }
        }
    }

    #[test]
    fn sweep_reports_are_byte_identical_across_thread_counts() {
        // The figure JSON is serialized straight from RunReports, so
        // compare the full serialized form — not just a few fields.
        let g = GraphSpec::kron(9).seed(3).build();
        let systems: Vec<SystemConfig> = (0..5)
            .map(|i| {
                SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(i as f64 * 0.5)
            })
            .collect();
        let run = |threads: usize| {
            rayon::with_num_threads(threads, || {
                let reports = sweep_systems(&g, Traversal::bfs(0), &systems);
                serde_json::to_string(&reports).expect("serialize reports")
            })
        };
        let reference = run(1);
        for threads in [2, 8] {
            assert_eq!(
                run(threads),
                reference,
                "sweep JSON differs between 1 and {threads} threads"
            );
        }
    }

    /// A graph that counts its calls: `with_neighbors` is the trace's
    /// work, `sublist_range` the planner's (one per frontier vertex per
    /// plan, for BFS).
    struct Counting<'a> {
        g: &'a cxlg_graph::Csr,
        neighbor_calls: AtomicU64,
        range_calls: AtomicU64,
    }

    impl CsrView for Counting<'_> {
        fn num_vertices(&self) -> usize {
            self.g.num_vertices()
        }
        fn num_edges(&self) -> u64 {
            self.g.num_edges()
        }
        fn sublist_range(&self, v: VertexId) -> (u64, u64) {
            self.range_calls.fetch_add(1, Ordering::Relaxed);
            self.g.sublist_range(v)
        }
        fn with_neighbors(&self, v: VertexId, f: &mut dyn FnMut(&[VertexId])) {
            self.neighbor_calls.fetch_add(1, Ordering::Relaxed);
            self.g.with_neighbors(v, f)
        }
        fn fingerprint(&self) -> u64 {
            self.g.fingerprint()
        }
    }

    /// `(with_neighbors, sublist_range)` calls of `sweep_systems` over
    /// `systems` on `g`, on a `threads` pool.
    fn graph_calls(
        g: &cxlg_graph::Csr,
        trav: Traversal,
        systems: &[SystemConfig],
        threads: usize,
    ) -> (u64, u64) {
        let counting = Counting {
            g,
            neighbor_calls: AtomicU64::new(0),
            range_calls: AtomicU64::new(0),
        };
        rayon::with_num_threads(threads, || sweep_systems(&counting, trav, systems));
        (
            counting.neighbor_calls.into_inner(),
            counting.range_calls.into_inner(),
        )
    }

    #[test]
    fn a_sweep_traces_once_and_plans_once_per_access_method() {
        // Eight systems in four access-method groups: five zero-copy
        // (DRAM on two links, CXL at three latencies), XLFDD, BaM, UVM.
        let systems = [
            SystemConfig::emogi_on_dram(PcieGen::Gen4),
            SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5),
            SystemConfig::xlfdd(PcieGen::Gen4, 16),
            SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(1.0),
            SystemConfig::bam_on_nvme(PcieGen::Gen4, 4),
            SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(2.0),
            SystemConfig::uvm_on_dram(PcieGen::Gen4),
            SystemConfig::emogi_on_dram(PcieGen::Gen3),
        ];
        let g = GraphSpec::kron(9).seed(2).build();
        let src = g.max_degree_vertex().unwrap();
        for trav in [
            Traversal::bfs(src),
            Traversal::sssp(src),
            Traversal::connected_components(),
            Traversal::pagerank(2),
        ] {
            // PageRank's frontiers need degrees only, so it reads no
            // neighbors at all.
            let (one, _) = graph_calls(&g, trav, &systems[..1], 1);
            assert_eq!(one > 0, trav.name() != "pagerank", "{}", trav.name());
            for threads in [1, 2, 8] {
                let (swept, _) = graph_calls(&g, trav, &systems, threads);
                assert_eq!(swept, one, "{} traced more than once at {threads} threads", trav.name());
            }
        }
        // A BFS plan reads one sublist range per frontier vertex and
        // nothing else does, so four plans read four times as many.
        let bfs = Traversal::bfs(src);
        let (_, one) = graph_calls(&g, bfs, &systems[..1], 1);
        let (_, swept) = graph_calls(&g, bfs, &systems, 2);
        assert_eq!(swept, 4 * one);
    }

    #[test]
    fn a_level_wider_than_a_window_plans_as_one_level() {
        // XLFDD's direct planner fetches a block that neighboring
        // sublists share once per level, so a window boundary must not
        // restart it. PageRank reads every vertex in one level: one
        // whole-sublist request each, several windows' worth.
        let g = GraphSpec::urand(16).seed(1).build();
        let sys = SystemConfig::xlfdd(PcieGen::Gen4, 16);
        let layout = EdgeListLayout::new(&g);
        let mut access = sys.build_access(layout.edge_list_bytes());
        access.begin_level();
        let mut requests = Vec::new();
        for v in Traversal::pagerank(1).trace(&g).concat() {
            access.requests_for_span(layout.sublist_span(v), &mut requests);
        }
        assert!(requests.len() > 3 * WINDOW, "{} requests", requests.len());
        let fetched: u64 = requests.iter().map(|r| r.bytes).sum();
        let report = Traversal::pagerank(1).run(&g, &sys);
        assert_eq!(report.levels[0].fetched_bytes, fetched);
    }

    #[test]
    fn timed_returns_result_and_nonzero_elapsed() {
        let ((), d) = timed(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        assert!(d >= std::time::Duration::from_millis(2));
        let (v, _) = timed(|| 41 + 1);
        assert_eq!(v, 42);
    }

    #[test]
    fn sweep_preserves_order() {
        let out = sweep(vec![3u64, 1, 4, 1, 5], |x| x * 10);
        assert_eq!(out, vec![30, 10, 40, 10, 50]);
    }

    #[test]
    fn interp_series_handles_degenerate_series() {
        assert_eq!(interp_series(&[], 1.0, false), None);
        assert_eq!(interp_series(&[(8.0, 1.5)], 4096.0, true), Some(1.5));
        assert_eq!(interp_series(&[(8.0, 1.5)], 2.0, false), Some(1.5));
        assert_eq!(interp_series(&[(1.0, 2.0), (2.0, 3.0)], f64::NAN, false), None);
        assert_eq!(interp_series(&[(1.0, 2.0), (2.0, 3.0)], -1.0, true), None);
    }

    #[test]
    fn interp_series_clamps_and_interpolates_on_both_axes() {
        let pts = [(8.0, 1.0), (64.0, 2.0), (512.0, 4.0)];
        // Clamped outside the sampled range.
        assert_eq!(interp_series(&pts, 1.0, true), Some(1.0));
        assert_eq!(interp_series(&pts, 4096.0, true), Some(4.0));
        // Exact at knots.
        assert_eq!(interp_series(&pts, 64.0, true), Some(2.0));
        // Log-x: halfway between 8 and 64 in ln-space is sqrt(8*64) ≈ 22.6.
        let mid = interp_series(&pts, (8.0f64 * 64.0).sqrt(), true).unwrap();
        assert!((mid - 1.5).abs() < 1e-12, "{mid}");
        // Linear-x: halfway between 64 and 512 is 288.
        let mid = interp_series(&pts, 288.0, false).unwrap();
        assert!((mid - 3.0).abs() < 1e-12, "{mid}");
    }
}
