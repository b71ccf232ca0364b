//! The traced run: `Traversal::run` recomposed from the public call into
//! each layer, with host time taken around each call.
//!
//! * trace — `Traversal::trace`;
//! * plan — `SystemConfig::build_access` plus
//!   `AccessMethod::requests_for_span` over `EdgeListLayout::sublist_span`,
//!   level by level after `begin_level`;
//! * engine — `simulate_shards` + `merge_shard_metrics` when the backend
//!   quiesces between batches, otherwise one `Engine::run_batch` chain:
//!   the same dispatch as `Traversal::run`.
//!
//! [`Recomposed`] holds what the three layers computed; the benchmark
//! fails a job whose recomposition disagrees with `Traversal::run`, so
//! the per-layer numbers describe the program the end-to-end numbers
//! time.

use cxlg_core::access::DeviceRequest;
use cxlg_core::engine::{merge_shard_metrics, simulate_shards};
use cxlg_core::metrics::{RunMetrics, RunReport};
use cxlg_core::system::SystemConfig;
use cxlg_core::traversal::Traversal;
use cxlg_graph::{CsrView, EdgeListLayout};
use cxlg_sim::SimTime;
use std::time::Instant;

/// The simulated totals of one traversal that the recomposed pipeline
/// must share with `Traversal::run`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recomposed {
    /// Device requests simulated.
    pub requests: u64,
    /// Bytes fetched from the device.
    pub fetched_bytes: u64,
    /// Simulated runtime in picoseconds.
    pub runtime_ps: u64,
    /// Useful sublist bytes.
    pub useful_bytes: u64,
    /// Access-method hits.
    pub cache_hits: u64,
    /// Fetched bytes per level.
    pub level_fetched: Vec<u64>,
}

impl Recomposed {
    /// The same quantities, read off a `Traversal::run` report.
    pub fn of(report: &RunReport) -> Recomposed {
        Recomposed {
            requests: report.metrics.requests,
            fetched_bytes: report.metrics.fetched_bytes,
            runtime_ps: report.metrics.runtime.as_ps(),
            useful_bytes: report.metrics.useful_bytes,
            cache_hits: report.metrics.cache_hits,
            level_fetched: report.levels.iter().map(|l| l.fetched_bytes).collect(),
        }
    }
}

/// Host time and work counts per layer, summed over the traced
/// traversals of one pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    /// Host seconds in `Traversal::trace`.
    pub trace_s: f64,
    /// `Traversal::trace` calls.
    pub trace_calls: u64,
    /// Levels (frontiers) traced.
    pub trace_levels: u64,
    /// Frontier vertices over all levels.
    pub frontier_vertices: u64,
    /// Host seconds planning requests.
    pub plan_s: f64,
    /// Device requests planned.
    pub plan_requests: u64,
    /// Access-method hits while planning.
    pub plan_hits: u64,
    /// Useful sublist bytes planned.
    pub useful_bytes: u64,
    /// Bytes the planned requests fetch.
    pub planned_bytes: u64,
    /// Largest single traversal's planned request count.
    pub peak_plan_requests: u64,
    /// Host seconds in the engine.
    pub engine_s: f64,
    /// Requests the engine simulated.
    pub engine_requests: u64,
    /// Batches (levels) the engine simulated.
    pub batches: u64,
    /// Simulated runtime, picoseconds.
    pub sim_ps: u64,
    /// Σ runtime × mean outstanding / credits, in picoseconds.
    pub credit_ps: f64,
    /// Largest outstanding-request count seen.
    pub peak_outstanding: u64,
}

impl Layers {
    /// Host seconds spent in the three traversal layers.
    pub fn traversal_s(&self) -> f64 {
        self.trace_s + self.plan_s + self.engine_s
    }
}

/// Run `trav` on `g` and `sys` layer by layer, adding each layer's host
/// time and counts to `layers`.
pub fn run_traced<G: CsrView + ?Sized>(
    trav: &Traversal,
    g: &G,
    sys: &SystemConfig,
    layers: &mut Layers,
) -> Recomposed {
    let t = Instant::now();
    let levels = trav.trace(g);
    layers.trace_s += t.elapsed().as_secs_f64();
    layers.trace_calls += 1;
    layers.trace_levels += levels.len() as u64;
    layers.frontier_vertices += levels.iter().map(|l| l.len() as u64).sum::<u64>();

    let t = Instant::now();
    let layout = EdgeListLayout::new(g);
    let mut access = sys.build_access(layout.edge_list_bytes());
    let mut batches: Vec<Vec<DeviceRequest>> = Vec::with_capacity(levels.len());
    let (mut useful, mut hits) = (0u64, 0u64);
    for frontier in &levels {
        let mut reqs = Vec::new();
        access.begin_level();
        for &v in frontier {
            let span = layout.sublist_span(v);
            useful += span.len;
            hits += access.requests_for_span(span, &mut reqs);
        }
        batches.push(reqs);
    }
    layers.plan_s += t.elapsed().as_secs_f64();
    drop(levels);
    let planned: u64 = batches.iter().map(|b| b.len() as u64).sum();
    layers.plan_requests += planned;
    layers.plan_hits += hits;
    layers.useful_bytes += useful;
    layers.planned_bytes += batches.iter().flatten().map(|r| r.bytes).sum::<u64>();
    layers.peak_plan_requests = layers.peak_plan_requests.max(planned);

    let t = Instant::now();
    let (metrics, level_fetched) = simulate(&batches, sys);
    layers.engine_s += t.elapsed().as_secs_f64();
    let runtime_ps = metrics.runtime.as_ps();
    layers.engine_requests += metrics.requests;
    layers.batches += batches.len() as u64;
    layers.sim_ps += runtime_ps;
    layers.credit_ps += runtime_ps as f64 * metrics.mean_outstanding / sys.credits() as f64;
    layers.peak_outstanding = layers.peak_outstanding.max(metrics.peak_outstanding);

    Recomposed {
        requests: metrics.requests,
        fetched_bytes: metrics.fetched_bytes,
        runtime_ps,
        useful_bytes: useful,
        cache_hits: hits,
        level_fetched,
    }
}

/// The engine layer, dispatched as `Traversal::run` dispatches: round
/// shards on backends that quiesce at the level barrier, the coupled
/// one-engine chain on flash-backed ones. Returns the run metrics and
/// the fetched bytes of each level.
fn simulate(batches: &[Vec<DeviceRequest>], sys: &SystemConfig) -> (RunMetrics, Vec<u64>) {
    if sys.backend.quiesces_between_batches() {
        let outcomes = simulate_shards(|| sys.build_engine(), batches);
        let fetched = outcomes.iter().map(|o| o.result.fetched_bytes).collect();
        (merge_shard_metrics(&outcomes), fetched)
    } else {
        let mut engine = sys.build_engine();
        let mut t = SimTime::ZERO;
        let mut fetched = Vec::with_capacity(batches.len());
        for reqs in batches {
            let batch = engine.run_batch(t, reqs);
            t = batch.end;
            fetched.push(batch.fetched_bytes);
        }
        let mut metrics = engine.finish();
        metrics.runtime = t.saturating_since(SimTime::ZERO);
        (metrics, fetched)
    }
}
