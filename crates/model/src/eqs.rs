//! Equations 1–5 of the paper, in the paper's own units: bytes, MB/s
//! (decimal), microseconds, and IOPS.

use serde::{Deserialize, Serialize};

/// Inputs to the throughput model (Equation 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThroughputParams {
    /// External-memory random-read rate `S` in IOPS.
    pub iops: f64,
    /// Average latency `L` in microseconds (link + CXL + device).
    pub latency_us: f64,
    /// Maximum outstanding requests `Nmax` on the PCIe link (or queue
    /// depth for storage).
    pub nmax: f64,
    /// PCIe effective bandwidth `W` in MB/s.
    pub bandwidth_mb_per_sec: f64,
}

impl ThroughputParams {
    /// The worked example of §3.2: `S = 100` MIOPS, `L = 16` µs,
    /// Gen4 x16 (`Nmax = 768`, `W = 24,000` MB/s), giving Equation 4:
    /// `T = min(100 d, 48 d, 24 000)`.
    pub fn section32_example() -> Self {
        ThroughputParams {
            iops: 100e6,
            latency_us: 16.0,
            nmax: 768.0,
            bandwidth_mb_per_sec: 24_000.0,
        }
    }
}

/// Equation 2: `T = min(S·d, Nmax·d/L, W)` in MB/s, for a transfer size
/// `d` in bytes.
pub fn throughput(p: &ThroughputParams, d_bytes: f64) -> f64 {
    let s_term = p.iops * d_bytes / 1e6; // bytes/s -> MB/s
    let little_term = p.nmax * d_bytes / p.latency_us; // B/us == MB/s
    s_term.min(little_term).min(p.bandwidth_mb_per_sec)
}

/// Equation 5: the slope `s = min(S, Nmax / L)` of the throughput profile
/// before the bandwidth cap, in IOPS.
pub fn slope(p: &ThroughputParams) -> f64 {
    p.iops.min(p.nmax / p.latency_us * 1e6)
}

/// Equation 1: `t = D / T`, with `D` in MB and `T` in MB/s; returns
/// seconds.
pub fn runtime(total_mb: f64, throughput_mb_per_sec: f64) -> f64 {
    total_mb / throughput_mb_per_sec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equation_4_reproduced() {
        // §3.2: "Then, Equations 2 becomes T = min{100 d, 48 d, 24,000}".
        let p = ThroughputParams::section32_example();
        // Slope terms at d = 1 B.
        assert!((throughput(&p, 1.0) - 48.0).abs() < 1e-9);
        // The S term would be 100 d, the Little term 48 d: Little wins.
        assert!((slope(&p) - 48e6).abs() < 1.0);
        // Bandwidth cap at large d: 24,000 MB/s.
        assert!((throughput(&p, 4096.0) - 24_000.0).abs() < 1e-9);
        // Crossover: 48 d = 24,000 at d = 500 B.
        assert!((throughput(&p, 500.0) - 24_000.0).abs() < 1e-6);
        assert!(throughput(&p, 499.0) < 24_000.0);
    }

    #[test]
    fn emogi_sanity_check_from_section_331() {
        // §3.3.1: s · d_EMOGI = (768 / 1.2) × 89.6 = 57,344 MB/s > W.
        let p = ThroughputParams {
            iops: f64::INFINITY,
            latency_us: 1.2,
            nmax: 768.0,
            bandwidth_mb_per_sec: 24_000.0,
        };
        let s = p.nmax / p.latency_us; // per-us slope
        let t_unclamped = s * 89.6;
        assert!((t_unclamped - 57_344.0).abs() < 1.0);
        // Therefore the achieved throughput is the full W.
        assert!((throughput(&p, 89.6) - 24_000.0).abs() < 1e-9);
    }

    #[test]
    fn bam_optimal_transfer_from_section_332() {
        // §3.3.2: d_BaM = W / S = 24,000 / 6 MIOPS ≈ 4 kB.
        let w: f64 = 24_000.0;
        let s_miops: f64 = 6.0;
        let d_opt = w / s_miops * 1e6 / 1e6; // MB/s over MIOPS -> bytes
        assert!((d_opt - 4000.0).abs() < 1.0);
        // With 4 kB transfers BaM saturates the link.
        let p = ThroughputParams {
            iops: 6e6,
            latency_us: 25.0,
            nmax: 4096.0, // queue depth, not PCIe Nmax (§3.2)
            bandwidth_mb_per_sec: w,
        };
        assert!((throughput(&p, 4096.0) - 24_000.0).abs() < 1e-9);
        // With 512 B transfers it cannot: S term binds at 3,072 MB/s.
        assert!((throughput(&p, 512.0) - 3_072.0).abs() < 1e-9);
    }

    #[test]
    fn littles_law_matches_paper_gen3_number() {
        // §4.2.2: L = Nmax · d / W = 256 × 89.6 / 12,000 = 1.91 us.
        let l: f64 = 256.0 * 89.6 / 12_000.0;
        assert!((l - 1.911).abs() < 0.01);
        // Inverse check: at that latency Equation 2's Little's-law term
        // is exactly W.
        let p = ThroughputParams {
            iops: f64::INFINITY,
            latency_us: l,
            nmax: 256.0,
            bandwidth_mb_per_sec: f64::INFINITY,
        };
        assert!((throughput(&p, 89.6) - 12_000.0).abs() < 1e-6);
    }

    #[test]
    fn runtime_is_d_over_t() {
        assert!((runtime(48_000.0, 24_000.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn throughput_monotone_in_d_until_cap() {
        let p = ThroughputParams::section32_example();
        let mut last = 0.0;
        for d in (32..4096).step_by(32) {
            let t = throughput(&p, d as f64);
            assert!(t >= last);
            last = t;
        }
        assert_eq!(last, 24_000.0);
    }
}
