//! Rayon-parallel parameter sweeps.
//!
//! Every simulation point is deterministic and single-threaded, so the
//! figure harnesses fan sweep points out across cores with rayon and the
//! results are identical to a sequential run — the guideline-recommended
//! "convert the outer loop to `par_iter`" shape for embarrassingly
//! parallel work.

use crate::metrics::RunReport;
use crate::system::SystemConfig;
use crate::traversal::Traversal;
use cxlg_graph::CsrView;
use rayon::prelude::*;

/// Run one traversal over many system configurations in parallel,
/// preserving input order. Accepts any graph storage backend.
pub fn sweep_systems<G: CsrView + ?Sized>(
    graph: &G,
    traversal: Traversal,
    systems: &[SystemConfig],
) -> Vec<RunReport> {
    systems
        .par_iter()
        .map(|sys| traversal.run(graph, sys))
        .collect()
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
/// the cross-point fan-out here and the within-run round shards in
/// `cxlg_core::engine::stream_shards`. Results are identical at any
/// thread count; only wall-clock changes.
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
    let start = std::time::Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// A labelled runtime measurement, the common shape of the paper's
/// normalized-runtime figures.
#[derive(Debug, Clone)]
pub struct LabelledRun {
    /// Point label (e.g. "+1.0us", "64 B").
    pub label: String,
    /// The run's report.
    pub report: RunReport,
}

/// Normalize a set of runtimes by a baseline runtime (the paper
/// normalizes XLFDD/BaM by EMOGI, and CXL by host DRAM).
///
/// # Panics
///
/// Panics if the baseline runtime is zero: a zero baseline would turn
/// every normalized point into `inf`/`NaN`, which serializes into figure
/// JSON without complaint and poisons the BENCH_* trajectories silently.
/// A zero simulated runtime always indicates a mis-configured run (empty
/// trace, degenerate graph), so fail loudly at the source.
pub fn normalized_runtimes(baseline: &RunReport, runs: &[LabelledRun]) -> Vec<(String, f64)> {
    let base = baseline.metrics.runtime.as_secs_f64();
    assert!(
        base > 0.0,
        "normalized_runtimes: baseline runtime must be positive, got {base} s \
         (baseline workload {:?} on {:?}); every normalized point would be inf/NaN",
        baseline.workload,
        baseline.backend,
    );
    runs.iter()
        .map(|r| {
            (
                r.label.clone(),
                r.report.metrics.runtime.as_secs_f64() / base,
            )
        })
        .collect()
}

// The geometric-mean summaries moved to `metrics` (they are statistics,
// not sweep machinery); re-exported here so existing
// `runner::geometric_mean` imports keep compiling.
pub use crate::metrics::{geometric_mean, try_geometric_mean};

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
    use cxlg_sim::SimDuration;

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
    fn geometric_mean_reexport_resolves() {
        // The functions moved to `metrics`; the `runner` path must keep
        // working for the figure binaries that import it from here.
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(try_geometric_mean(&[]), None);
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

    #[test]
    #[should_panic(expected = "baseline runtime must be positive")]
    fn normalization_rejects_zero_baseline() {
        let g = GraphSpec::urand(8).seed(1).build();
        let mut base = Traversal::bfs(0).run(&g, &SystemConfig::emogi_on_dram(PcieGen::Gen4));
        base.metrics.runtime = SimDuration::ZERO;
        let runs = vec![LabelledRun {
            label: "any".into(),
            report: base.clone(),
        }];
        normalized_runtimes(&base, &runs);
    }

    #[test]
    fn normalization_against_baseline() {
        let g = GraphSpec::urand(8).seed(1).build();
        let base = Traversal::bfs(0).run(&g, &SystemConfig::emogi_on_dram(PcieGen::Gen4));
        let mut slow = base.clone();
        slow.metrics.runtime = SimDuration::from_ps(base.metrics.runtime.as_ps() * 2);
        let runs = vec![LabelledRun {
            label: "slow".into(),
            report: slow,
        }];
        let norm = normalized_runtimes(&base, &runs);
        assert!((norm[0].1 - 2.0).abs() < 1e-9);
    }
}
