//! The traversal driver and rayon-parallel parameter sweeps.
//!
//! [`sweep_systems`] runs one traversal over many systems on one graph:
//! it traces each level once, plans it once per access method, and
//! simulates it on every system (the `traversal` module docs,
//! "Execution paths"). [`Traversal::run`] is the same driver with one
//! system. Every simulation point is deterministic, so the figure
//! harnesses also fan independent points out across cores with
//! [`sweep`], and the results are identical to a sequential run — the
//! guideline-recommended "convert the outer loop to `par_iter`" shape
//! for embarrassingly parallel work.

use crate::access::{AccessMethod, DeviceRequest};
use crate::engine::{merge_shard_metrics, Engine, ShardOutcome};
use crate::metrics::{LevelStats, RunReport};
use crate::system::{AccessConfig, SystemConfig};
use crate::traversal::{Levels, Traversal};
use cxlg_graph::layout::EdgeListLayout;
use cxlg_graph::{CsrView, VertexId};
use cxlg_sim::{SimDuration, SimTime};
use rayon::prelude::*;
use std::sync::{Arc, Condvar, Mutex};

/// Run one traversal over many system configurations, returning one
/// report per system in input order. Accepts any graph storage backend.
///
/// The graph is traced once, each level is planned once per distinct
/// [`AccessConfig`], and the (level, system) units are simulated across
/// the rayon pool. Each report is bit-identical to [`Traversal::run`] on
/// its system alone, at any pool size.
pub fn sweep_systems<G: CsrView + ?Sized>(
    graph: &G,
    traversal: Traversal,
    systems: &[SystemConfig],
) -> Vec<RunReport> {
    drive(graph, traversal, systems, false)
}

/// Worker loops per sweep, more than any pool has threads. Each loop
/// takes units until the traversal has converged, so every pool thread
/// stays busy and the surplus loops return at once; the pool size is
/// never read.
const WORKER_LOOPS: usize = 64;

/// The one traversal driver behind [`sweep_systems`], [`Traversal::run`]
/// and, with `coupled`, [`Traversal::run_coupled`], which chains every
/// system's levels on one engine whatever its backend.
pub(crate) fn drive<G: CsrView + ?Sized>(
    g: &G,
    traversal: Traversal,
    systems: &[SystemConfig],
    coupled: bool,
) -> Vec<RunReport> {
    // The stepper first: it checks the workload against the graph on
    // the calling thread.
    let levels = traversal.levels(g);
    if systems.is_empty() {
        return Vec::new();
    }
    let layout = EdgeListLayout::new(g);
    let mut groups: Vec<Group> = Vec::new();
    let group_of: Vec<usize> = systems
        .iter()
        .map(|sys| {
            groups.iter().position(|g| g.config == sys.access).unwrap_or_else(|| {
                groups.push(Group {
                    config: sys.access,
                    access: sys.build_access(layout.edge_list_bytes()),
                    plans: Vec::new(),
                });
                groups.len() - 1
            })
        })
        .collect();
    // A stable sort keeps each group's members in input order.
    let mut order: Vec<(usize, usize)> = group_of.iter().copied().zip(0..).collect();
    order.sort_by_key(|&(group, _)| group);
    let slots: Vec<Slot> = systems
        .iter()
        .map(|sys| {
            if coupled || !sys.backend.quiesces_between_batches() {
                let chain = Chain {
                    engine: sys.build_engine(),
                    clock: SimTime::ZERO,
                    levels: Vec::new(),
                };
                Slot::Chain(Mutex::new(Box::new(chain)), Condvar::new())
            } else {
                Slot::Shards(Mutex::new(Vec::new()))
            }
        })
        .collect();
    let source = Mutex::new(Source {
        levels,
        layout,
        groups,
        order,
        cursor: 0,
        frontier: Vec::new(),
        requests: None,
    });
    (0..WORKER_LOOPS).into_par_iter().for_each(|_| loop {
        let unit = source.lock().expect("a planner panicked").next_unit();
        let Some(unit) = unit else { break };
        slots[unit.system].simulate(&systems[unit.system], unit);
    });
    let source = source.into_inner().expect("a planner panicked");
    let reached = source.levels.reached();
    slots
        .into_iter()
        .zip(systems)
        .zip(group_of)
        .map(|((slot, sys), group)| {
            slot.report(&source.groups[group].plans, reached, traversal, sys)
        })
        .collect()
}

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
    /// Each planned level's statistics, in level order.
    plans: Vec<LevelPlan>,
}

impl Group {
    /// Append the device requests of one level's `frontier` to `out`.
    fn plan<G: CsrView + ?Sized>(
        &mut self,
        layout: &EdgeListLayout<'_, G>,
        frontier: &[VertexId],
        out: &mut Vec<DeviceRequest>,
    ) {
        self.access.begin_level();
        let (mut useful, mut hits) = (0u64, 0u64);
        for &v in frontier {
            let span = layout.sublist_span(v);
            useful += span.len;
            hits += self.access.requests_for_span(span, out);
        }
        self.plans.push(LevelPlan {
            frontier: frontier.len() as u64,
            useful,
            hits,
        });
    }
}

/// One (level, system) work unit: a planned level for one system.
struct Unit {
    level: usize,
    system: usize,
    /// The level's requests, shared by every system of the group.
    requests: Arc<Vec<DeviceRequest>>,
}

/// The sequential half of a sweep, behind one lock: it steps the trace
/// and plans, and hands out the units in level order.
struct Source<'g, G: ?Sized> {
    levels: Levels<'g, G>,
    layout: EdgeListLayout<'g, G>,
    groups: Vec<Group>,
    /// One level's units in hand-out order, as `(group, system)`. Each
    /// group's units are adjacent, so the group plans the level at its
    /// first unit and hands its requests over with its last.
    order: Vec<(usize, usize)>,
    /// Position in `order` of the next unit.
    cursor: usize,
    /// The current level's frontier, until its last group has planned it.
    frontier: Vec<VertexId>,
    /// The current group's requests.
    requests: Option<Arc<Vec<DeviceRequest>>>,
}

impl<G: CsrView + ?Sized> Source<'_, G> {
    /// The next unit in level order; `None` once the traversal has
    /// converged.
    fn next_unit(&mut self) -> Option<Unit> {
        if self.cursor == 0 {
            self.frontier = self.levels.next()?;
        }
        let (group, system) = self.order[self.cursor];
        if self.cursor == 0 || self.order[self.cursor - 1].0 != group {
            let mut requests = Vec::new();
            self.groups[group].plan(&self.layout, &self.frontier, &mut requests);
            self.requests = Some(Arc::new(requests));
            if self.order.last().is_some_and(|&(last, _)| last == group) {
                self.frontier = Vec::new();
            }
        }
        self.cursor += 1;
        let requests = match self.order.get(self.cursor) {
            Some(&(next, _)) if next == group => self.requests.clone(),
            _ => self.requests.take(),
        };
        if self.cursor == self.order.len() {
            self.cursor = 0;
        }
        Some(Unit {
            // Every group plans every level.
            level: self.groups[group].plans.len() - 1,
            system,
            requests: requests.expect("the group planned this level"),
        })
    }
}

/// One system's simulation in a sweep.
enum Slot {
    /// Round shards on fresh engines, filed under their level as they
    /// finish, in any order.
    Shards(Mutex<Vec<(usize, ShardOutcome)>>),
    /// One engine that takes the levels in level order; the condition
    /// variable announces each finished level. Boxed: an engine is far
    /// larger than a shard list.
    Chain(Mutex<Box<Chain>>, Condvar),
}

/// A chained system's engine and progress.
struct Chain {
    engine: Engine,
    /// Where the next level's batch starts.
    clock: SimTime,
    /// Each finished level's fetched bytes and simulated time.
    levels: Vec<(u64, SimDuration)>,
}

/// Wakes a chain's waiters when dropped, also on unwind, so a panicking
/// level poisons them instead of leaving them waiting.
struct WakeOnDrop<'a>(&'a Condvar);

impl Drop for WakeOnDrop<'_> {
    fn drop(&mut self) {
        self.0.notify_all();
    }
}

impl Slot {
    /// Simulate `unit` on `sys`.
    fn simulate(&self, sys: &SystemConfig, unit: Unit) {
        match self {
            Slot::Shards(filed) => {
                let outcome = sys.build_engine().run_shard(&unit.requests);
                filed.lock().expect("a shard panicked").push((unit.level, outcome));
            }
            Slot::Chain(chain, turn) => {
                let _wake = WakeOnDrop(turn);
                let guard = chain.lock().expect("a chained level panicked");
                let mut guard = turn
                    .wait_while(guard, |c| c.levels.len() < unit.level)
                    .expect("a chained level panicked");
                let Chain {
                    engine,
                    clock,
                    levels,
                } = &mut **guard;
                let batch = engine.run_batch(*clock, &unit.requests);
                levels.push((batch.fetched_bytes, batch.end.saturating_since(*clock)));
                *clock = batch.end;
            }
        }
    }

    /// The system's report, from its simulated levels and its group's
    /// `plans`.
    fn report(
        self,
        plans: &[LevelPlan],
        reached: u64,
        traversal: Traversal,
        sys: &SystemConfig,
    ) -> RunReport {
        let (mut metrics, simulated): (_, Vec<(u64, SimDuration)>) = match self {
            Slot::Shards(filed) => {
                let mut filed = filed.into_inner().expect("a shard panicked");
                filed.sort_unstable_by_key(|&(level, _)| level);
                let outcomes: Vec<ShardOutcome> = filed.into_iter().map(|(_, o)| o).collect();
                let simulated = outcomes
                    .iter()
                    .map(|o| (o.result.fetched_bytes, o.result.end.saturating_since(SimTime::ZERO)))
                    .collect();
                (merge_shard_metrics(&outcomes), simulated)
            }
            Slot::Chain(chain, _) => {
                let mut chain = chain.into_inner().expect("a chained level panicked");
                let mut metrics = chain.engine.finish();
                metrics.runtime = chain.clock.saturating_since(SimTime::ZERO);
                (metrics, chain.levels)
            }
        };
        metrics.useful_bytes = plans.iter().map(|p| p.useful).sum();
        metrics.cache_hits = plans.iter().map(|p| p.hits).sum();
        RunReport {
            metrics,
            levels: plans
                .iter()
                .zip(simulated)
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
/// the cross-point fan-out here and the (level, system) units of
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
