//! Figure 4: total data `D(d)`, throughput `T(d)` and runtime `t(d)` as
//! functions of the data transfer size `d` (= alignment, for BaM-style
//! cache-line access where `d = a`).
//!
//! The paper plots `D` from BFS/urand27 measurements smoothed over `d`,
//! `T` from the §3.2 example profile, and `t = D/T`. The shape conclusion
//! (§3.3.2): the best runtime sits at the *smallest* `d` that still
//! saturates the bandwidth, `s · d_opt = W`.

use crate::eqs::{throughput, ThroughputParams};
use serde::{Deserialize, Serialize};

/// Inputs for the Figure 4 curves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Params {
    /// Throughput model parameters (the §3.2 example in the paper).
    pub throughput: ThroughputParams,
    /// Useful bytes `E` of the workload, in MB (BFS/urand at the chosen
    /// scale).
    pub useful_mb: f64,
    /// RAF measurements `(alignment_bytes, raf)` used to interpolate
    /// `D(d) = E · RAF(d)`; must be sorted by alignment.
    pub raf_points: Vec<(f64, f64)>,
}

/// One point of the Figure 4 series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig4Point {
    /// Transfer size `d` in bytes.
    pub d_bytes: f64,
    /// Total data `D` in MB.
    pub total_mb: f64,
    /// Throughput `T` in MB/s.
    pub throughput_mb_per_sec: f64,
    /// Runtime `t = D / T` in seconds.
    pub runtime_sec: f64,
}

/// Piecewise-linear interpolation of RAF over the measured alignments
/// (log-linear in `d`, matching how Figure 4 "smoothly interpolates the
/// data points").
fn interp_raf(points: &[(f64, f64)], d: f64) -> f64 {
    assert!(!points.is_empty(), "no RAF points");
    if d <= points[0].0 {
        return points[0].1;
    }
    if d >= points[points.len() - 1].0 {
        return points[points.len() - 1].1;
    }
    for w in points.windows(2) {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        if d >= x0 && d <= x1 {
            let f = (d.ln() - x0.ln()) / (x1.ln() - x0.ln());
            return y0 + f * (y1 - y0);
        }
    }
    unreachable!("sorted points cover the range");
}

/// Generate the Figure 4 series for transfer sizes `d` from 32 B to
/// `max_d` in `steps` log-spaced points.
pub fn fig4_series(p: &Fig4Params, max_d: f64, steps: usize) -> Vec<Fig4Point> {
    assert!(steps >= 2);
    let min_d: f64 = 32.0;
    (0..steps)
        .map(|i| {
            let f = i as f64 / (steps - 1) as f64;
            let d = (min_d.ln() + f * (max_d.ln() - min_d.ln())).exp();
            let raf = interp_raf(&p.raf_points, d);
            let total_mb = p.useful_mb * raf;
            let t = throughput(&p.throughput, d);
            Fig4Point {
                d_bytes: d,
                total_mb,
                throughput_mb_per_sec: t,
                runtime_sec: total_mb / t,
            }
        })
        .collect()
}

/// The optimal transfer size `d_opt` satisfying `s · d_opt = W`
/// (§3.3.2) for the given parameters.
pub fn optimal_transfer_bytes(p: &ThroughputParams) -> f64 {
    let s = crate::eqs::slope(p); // IOPS
    p.bandwidth_mb_per_sec * 1e6 / s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Fig4Params {
        Fig4Params {
            throughput: ThroughputParams::section32_example(),
            useful_mb: 20_000.0, // ~ urand27's E in the paper's plot scale
            raf_points: vec![
                (32.0, 1.3),
                (128.0, 1.5),
                (512.0, 1.9),
                (1024.0, 2.2),
                (4096.0, 3.3),
            ],
        }
    }

    #[test]
    fn interp_is_exact_at_knots_and_monotone() {
        let p = params();
        for &(x, y) in &p.raf_points {
            assert!((interp_raf(&p.raf_points, x) - y).abs() < 1e-9);
        }
        let mut last = 0.0;
        for d in [32.0, 64.0, 100.0, 300.0, 512.0, 2000.0, 4096.0, 9999.0] {
            let r = interp_raf(&p.raf_points, d);
            assert!(r >= last);
            last = r;
        }
        // Clamped outside the measured range.
        assert_eq!(interp_raf(&p.raf_points, 1.0), 1.3);
        assert_eq!(interp_raf(&p.raf_points, 1e9), 3.3);
    }

    #[test]
    fn optimal_d_for_section32_example() {
        // s = 48 MIOPS, W = 24,000 MB/s => d_opt = 500 B.
        let d = optimal_transfer_bytes(&ThroughputParams::section32_example());
        assert!((d - 500.0).abs() < 1.0);
    }

    #[test]
    fn runtime_minimum_sits_at_smallest_saturating_d() {
        // Figure 4's headline: "the best (shortest) runtime is obtained
        // at the minimum transfer size that still fully utilizes the
        // bandwidth W".
        let p = params();
        let series = fig4_series(&p, 4096.0, 200);
        let best = series
            .iter()
            .min_by(|a, b| a.runtime_sec.total_cmp(&b.runtime_sec))
            .unwrap();
        let d_opt = optimal_transfer_bytes(&p.throughput);
        // The best point should sit within a step of d_opt.
        assert!(
            (best.d_bytes / d_opt).ln().abs() < 0.15,
            "best at {} B, expected near {} B",
            best.d_bytes,
            d_opt
        );
        // Runtime rises on both sides.
        let first = &series[0];
        let last = series.last().unwrap();
        assert!(first.runtime_sec > best.runtime_sec);
        assert!(last.runtime_sec > best.runtime_sec);
    }

    #[test]
    fn d_curve_grows_t_curve_saturates() {
        let p = params();
        let series = fig4_series(&p, 4096.0, 50);
        for w in series.windows(2) {
            assert!(w[1].total_mb >= w[0].total_mb, "D must grow with d");
            assert!(
                w[1].throughput_mb_per_sec >= w[0].throughput_mb_per_sec,
                "T must be non-decreasing"
            );
        }
        assert_eq!(
            series.last().unwrap().throughput_mb_per_sec,
            p.throughput.bandwidth_mb_per_sec
        );
    }
}
