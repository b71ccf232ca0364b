//! Cross-validation of the analytical model (Equations 1–5) against the
//! discrete-event simulation: each of the three throughput regimes the
//! paper identifies must emerge from the simulator and agree with the
//! closed form.

use cxl_gpu_graph::core::access::DeviceRequest;
use cxl_gpu_graph::core::system::{BackendConfig, SystemConfig};
use cxl_gpu_graph::model::eqs::{throughput, ThroughputParams};
use cxl_gpu_graph::prelude::*;
use cxl_gpu_graph::sim::SimTime;

fn uniform_requests(n: usize, bytes: u64, stride: u64) -> Vec<DeviceRequest> {
    (0..n)
        .map(|i| DeviceRequest {
            addr: i as u64 * stride,
            bytes,
        })
        .collect()
}

fn simulated_throughput(sys: &SystemConfig, reqs: &[DeviceRequest]) -> (f64, f64) {
    let mut engine = sys.build_engine();
    let batch = engine.run_batch(SimTime::ZERO, reqs);
    let bytes: u64 = reqs.iter().map(|r| r.bytes).sum();
    let t = bytes as f64 / 1e6 / batch.end.as_secs_f64();
    (t, batch.latency.mean())
}

#[test]
fn bandwidth_regime_w_capped() {
    // Host DRAM on Gen4: infinite IOPS, short latency -> T = W.
    let sys = SystemConfig::emogi_on_dram(PcieGen::Gen4);
    let (t, _) = simulated_throughput(&sys, &uniform_requests(60_000, 128, 4096));
    assert!(
        (t - 24_000.0).abs() / 24_000.0 < 0.03,
        "expected W-capped ~24,000 MB/s, got {t}"
    );
}

#[test]
fn littles_law_regime_nmax_over_l() {
    // CXL with +4 us added latency on Gen4: Nmax * d / L binds.
    let sys = SystemConfig::emogi_on_cxl(PcieGen::Gen4, 5).with_added_latency_us(4.0);
    let (t_sim, l_measured) = simulated_throughput(&sys, &uniform_requests(60_000, 128, 4096));
    let model = throughput(
        &ThroughputParams {
            iops: f64::INFINITY,
            latency_us: l_measured,
            nmax: 768.0,
            bandwidth_mb_per_sec: 24_000.0,
        },
        128.0,
    );
    let err = (t_sim - model).abs() / model;
    assert!(
        err < 0.15,
        "Little regime: sim {t_sim} vs model {model} (L = {l_measured} us)"
    );
    // And it must be well below the bandwidth cap.
    assert!(t_sim < 0.8 * 24_000.0, "should not be W-capped: {t_sim}");
}

#[test]
fn iops_regime_s_times_d() {
    // BaM's 4 SSDs at 512 B transfers: S = 6 MIOPS binds well below W
    // (§3.3.2: "the IOPS is the limiting factor").
    let sys = SystemConfig::bam_on_nvme(PcieGen::Gen4, 4);
    let (t, _) = simulated_throughput(&sys, &uniform_requests(40_000, 512, 4096));
    let model_mb = 6e6 * 512.0 / 1e6; // S * d = 3,072 MB/s
    let err = (t - model_mb).abs() / model_mb;
    assert!(err < 0.12, "IOPS regime: sim {t} vs model {model_mb}");
}

#[test]
fn iops_regime_vanishes_at_4kb() {
    // At BaM's chosen d = 4 kB the same drives saturate the link —
    // exactly why BaM picks 4 kB (d_opt = W / S).
    let sys = SystemConfig::bam_on_nvme(PcieGen::Gen4, 4);
    let (t, _) = simulated_throughput(&sys, &uniform_requests(30_000, 4096, 4096));
    assert!(
        t > 0.85 * 24_000.0,
        "4 kB transfers should approach W, got {t}"
    );
}

#[test]
fn xlfdd_sublist_transfers_saturate_the_link() {
    // §4.1.1: 16 drives at 11 MIOPS with ~256 B transfers exceed the
    // 93.75 MIOPS requirement, so the link is the limit.
    let sys = SystemConfig::xlfdd(PcieGen::Gen4, 16);
    let (t, _) = simulated_throughput(&sys, &uniform_requests(100_000, 256, 4096));
    assert!(t > 0.85 * 24_000.0, "XLFDD should be W-capped, got {t}");
}

#[test]
fn xlfdd_iops_bound_with_tiny_transfers() {
    // With 16 B transfers the same array is IOPS-bound:
    // T = 16 * 11 MIOPS * 16 B = 2,816 MB/s.
    let sys = SystemConfig::xlfdd(PcieGen::Gen4, 16);
    let (t, _) = simulated_throughput(&sys, &uniform_requests(200_000, 16, 4096));
    let model = 16.0 * 11.0 * 16.0;
    let err = (t - model).abs() / model;
    assert!(err < 0.15, "sim {t} vs model {model}");
}

#[test]
fn equation1_runtime_identity_holds_per_run() {
    // t = D / T by construction of the metrics; verify on a real run.
    let g = GraphSpec::urand(12).seed(3).build();
    let r = Traversal::bfs(0).run(&g, &SystemConfig::emogi_on_dram(PcieGen::Gen4));
    let d_mb = r.metrics.fetched_bytes as f64 / 1e6;
    let t = r.metrics.throughput_mb_per_sec();
    let runtime = r.metrics.runtime.as_secs_f64();
    assert!((d_mb / t - runtime).abs() / runtime < 1e-9);
}

#[test]
fn gen3_latency_allowance_matches_eq6() {
    // Below the Eq. 6 allowance the runtime matches DRAM; above it the
    // ratio grows roughly like L / allowance.
    let g = GraphSpec::urand(13).seed(1).build();
    let bfs = Traversal::bfs(0);
    let dram = bfs.run(&g, &SystemConfig::emogi_on_dram(PcieGen::Gen3));
    let ratio = |add: f64| {
        let sys = SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(add);
        bfs.run(&g, &sys).metrics.runtime.as_secs_f64() / dram.metrics.runtime.as_secs_f64()
    };
    assert!(ratio(0.0) < 1.06, "+0 should match DRAM: {}", ratio(0.0));
    assert!(ratio(0.5) < 1.10, "+0.5 still within allowance: {}", ratio(0.5));
    let r3 = ratio(3.0);
    assert!(
        (1.6..2.6).contains(&r3),
        "+3 us should degrade ~2x (Fig. 11): {r3}"
    );
}

#[test]
fn cxl_backend_count_affects_only_headroom() {
    // §4.2.2 sizes 5 devices so collective tags (320) exceed Gen3's
    // Nmax (256). With only 1 device (64 GPU-visible slots), the device
    // becomes the bottleneck and runtime degrades.
    let g = GraphSpec::urand(13).seed(1).build();
    let bfs = Traversal::bfs(0);
    let five = bfs.run(&g, &SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5));
    let one = bfs.run(&g, &SystemConfig::emogi_on_cxl(PcieGen::Gen3, 1));
    let ratio =
        one.metrics.runtime.as_secs_f64() / five.metrics.runtime.as_secs_f64();
    assert!(ratio > 1.5, "single device should bottleneck: {ratio}");
}

#[test]
fn backend_config_names_align_with_reports() {
    let g = GraphSpec::urand(10).seed(1).build();
    for (sys, expect) in [
        (SystemConfig::emogi_on_dram(PcieGen::Gen4), "host-dram:emogi"),
        (SystemConfig::xlfdd(PcieGen::Gen4, 16), "xlfdd:direct"),
        (SystemConfig::bam_on_nvme(PcieGen::Gen4, 4), "nvme:bam"),
    ] {
        let r = Traversal::bfs(0).run(&g, &sys);
        assert_eq!(r.backend, expect);
        match (&sys.backend, expect) {
            (BackendConfig::HostDram { .. }, "host-dram:emogi") => {}
            (BackendConfig::Xlfdd { .. }, "xlfdd:direct") => {}
            (BackendConfig::Nvme { .. }, "nvme:bam") => {}
            _ => panic!("mismatched backend"),
        }
    }
}
