//! Per-run measurements: everything the paper's figures plot.
//!
//! The fundamental identity is Equation 1, `t = D / T`: a run's total
//! fetched bytes `D`, its useful bytes `E` (sum of edge-sublist sizes),
//! their ratio `RAF = D / E` (§3.1), the achieved throughput `T`, and the
//! mean transfer size `d = D / requests` (§3.2) are all first-class here.

use cxlg_sim::{OnlineStats, SimDuration};
use serde::{Deserialize, Serialize};

/// Aggregate measurements for one traversal (or microbenchmark) run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunMetrics {
    /// End-to-end simulated runtime (`t` in Equation 1).
    pub runtime: SimDuration,
    /// Useful bytes: the sum of edge-sublist sizes the algorithm needed
    /// (`E` in §3.1).
    pub useful_bytes: u64,
    /// Bytes actually fetched from the external memory (`D` in Eq. 1).
    pub fetched_bytes: u64,
    /// Device read requests issued.
    pub requests: u64,
    /// Cache hits (BaM access method only; zero otherwise).
    pub cache_hits: u64,
    /// Mean observed request latency (issue to last byte at the GPU).
    pub latency: OnlineStats,
    /// Time-averaged outstanding requests on the GPU link (`N` of
    /// Little's Law, Eq. 3).
    pub mean_outstanding: f64,
    /// Peak outstanding requests.
    pub peak_outstanding: u64,
}

impl RunMetrics {
    /// Read amplification factor `D / E` (§3.1). A run that needed and
    /// fetched nothing (a BFS from an isolated vertex) has no
    /// amplification: 1.0, not the `NaN` of `0 / 0`.
    pub fn raf(&self) -> f64 {
        raf(self.fetched_bytes, self.useful_bytes)
    }

    /// Mean data transfer size per request, `d = D / requests` (§3.2).
    pub fn mean_transfer_bytes(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.fetched_bytes as f64 / self.requests as f64
        }
    }

    /// Achieved throughput `T = D / t` in MB/s.
    pub fn throughput_mb_per_sec(&self) -> f64 {
        let secs = self.runtime.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.fetched_bytes as f64 / 1e6 / secs
        }
    }

}

/// Read amplification factor `fetched / useful` (§3.1), 1.0 when both
/// are zero: nothing needed and nothing fetched is no amplification.
pub fn raf(fetched_bytes: u64, useful_bytes: u64) -> f64 {
    if fetched_bytes == 0 && useful_bytes == 0 {
        1.0
    } else {
        fetched_bytes as f64 / useful_bytes as f64
    }
}

/// Per-traversal-level (per BFS depth / SSSP round) statistics — Table 2
/// of the paper reports the frontier column.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LevelStats {
    /// Depth / round index (source level is 0).
    pub depth: u32,
    /// Vertices in the frontier at this level.
    pub frontier: u64,
    /// Useful bytes read for this level.
    pub useful_bytes: u64,
    /// Fetched bytes for this level.
    pub fetched_bytes: u64,
    /// Simulated time spent in this level.
    pub runtime: SimDuration,
}

/// Full result of one traversal run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Aggregate metrics.
    pub metrics: RunMetrics,
    /// Per-level breakdown.
    pub levels: Vec<LevelStats>,
    /// Vertices reached (BFS/SSSP/CC) or processed (PageRank).
    pub reached: u64,
    /// Workload name for display.
    pub workload: String,
    /// Backend name for display.
    pub backend: String,
}

impl RunReport {
    /// Total traversal depth (levels with non-empty frontiers).
    pub fn depth(&self) -> u32 {
        self.levels.len() as u32
    }
}

/// Non-panicking geometric mean of ratios: `None` for an empty input or
/// any non-positive or non-finite (NaN, ±inf) ratio. The fidelity
/// engine aggregates measured/paper ratios with this — a degenerate
/// series in a result file must surface as an "n/a" summary cell, not
/// abort the whole validation run. This is the single implementation;
/// [`geometric_mean`] is a panicking shell around it.
pub fn try_geometric_mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| !is_positive_finite(x)) {
        return None;
    }
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    Some((log_sum / xs.len() as f64).exp())
}

fn is_positive_finite(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

/// Geometric mean of ratios — the paper summarizes Fig. 6 as geometric
/// means ("1.13 times longer on average, where the geometric mean is
/// taken over all the six pairs").
///
/// # Panics
///
/// Panics on an empty input and on any non-positive or non-finite ratio:
/// `ln()` of zero, a negative number or infinity is `-inf`/`NaN`/`inf`,
/// which would propagate into the summary statistic with no diagnostic.
/// Runtime ratios are positive by construction, so a violation is a bug
/// upstream. Computation is delegated to [`try_geometric_mean`]; this
/// wrapper only turns the `None` into a diagnostic.
pub fn geometric_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric mean of nothing");
    try_geometric_mean(xs).unwrap_or_else(|| {
        let (i, x) = xs
            .iter()
            .enumerate()
            .find(|&(_, &x)| !is_positive_finite(x))
            .expect("non-empty input without a mean must hold a bad ratio");
        panic!(
            "geometric_mean: ratio [{i}] = {x} is not positive and finite; \
             the geometric mean is only defined over positive finite ratios"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxlg_sim::SimDuration;

    fn metrics(runtime_us: f64, useful: u64, fetched: u64, reqs: u64) -> RunMetrics {
        RunMetrics {
            runtime: SimDuration::from_us(runtime_us),
            useful_bytes: useful,
            fetched_bytes: fetched,
            requests: reqs,
            ..RunMetrics::default()
        }
    }

    #[test]
    fn raf_is_d_over_e() {
        let m = metrics(1.0, 1000, 2500, 10);
        assert!((m.raf() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn mean_transfer_is_d_over_requests() {
        let m = metrics(1.0, 1000, 4096, 32);
        assert!((m.mean_transfer_bytes() - 128.0).abs() < 1e-12);
        let empty = metrics(1.0, 0, 0, 0);
        assert_eq!(empty.mean_transfer_bytes(), 0.0);
    }

    #[test]
    fn throughput_is_d_over_t() {
        // 24,000 bytes in 1 us = 24,000 MB/s.
        let m = metrics(1.0, 24_000, 24_000, 10);
        assert!((m.throughput_mb_per_sec() - 24_000.0).abs() < 1e-6);
    }

    #[test]
    fn report_depth() {
        let report = RunReport {
            metrics: RunMetrics::default(),
            levels: vec![
                LevelStats {
                    depth: 0,
                    frontier: 1,
                    useful_bytes: 0,
                    fetched_bytes: 0,
                    runtime: SimDuration::ZERO,
                },
                LevelStats {
                    depth: 1,
                    frontier: 31,
                    useful_bytes: 0,
                    fetched_bytes: 0,
                    runtime: SimDuration::ZERO,
                },
            ],
            reached: 32,
            workload: "bfs".into(),
            backend: "host-dram".into(),
        };
        assert_eq!(report.depth(), 2);
    }

    #[test]
    fn geometric_mean_of_paper_example() {
        // geomean(1, 4) = 2; invariant to permutation.
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn panicking_and_fallible_geomean_agree_bit_for_bit() {
        // The wrapper routes through `try_geometric_mean` — same input
        // must produce the identical float, not a re-derived one.
        let xs = [0.97, 1.13, 2.4, 0.51, 3.09];
        assert_eq!(
            geometric_mean(&xs).to_bits(),
            try_geometric_mean(&xs).unwrap().to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "geometric mean of nothing")]
    fn geometric_mean_rejects_empty_input() {
        geometric_mean(&[]);
    }

    #[test]
    #[should_panic(expected = "ratio [1] = 0 is not positive")]
    fn geometric_mean_rejects_zero_ratio_and_names_the_index() {
        geometric_mean(&[1.0, 0.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "is not positive")]
    fn geometric_mean_rejects_negative_ratio() {
        geometric_mean(&[1.0, -0.5]);
    }

    #[test]
    #[should_panic(expected = "is not positive")]
    fn geometric_mean_rejects_nan_ratio() {
        geometric_mean(&[1.0, f64::NAN]);
    }

    #[test]
    fn try_geometric_mean_degrades_instead_of_panicking() {
        assert_eq!(try_geometric_mean(&[]), None);
        assert_eq!(try_geometric_mean(&[1.0, 0.0]), None);
        assert_eq!(try_geometric_mean(&[1.0, -2.0]), None);
        assert_eq!(try_geometric_mean(&[1.0, f64::NAN]), None);
        assert_eq!(try_geometric_mean(&[1.0, f64::INFINITY]), None);
        let g = try_geometric_mean(&[1.0, 4.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
    }
}
