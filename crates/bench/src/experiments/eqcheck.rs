//! Equation 4 / Equation 6 checks: the analytical numbers quoted in §3.2,
//! §3.4 and §4.2.2, plus the model-vs-simulation cross-validation.

use crate::ctx::ExperimentCtx;
use cxlg_core::access::DeviceRequest;
use cxlg_core::system::SystemConfig;
use cxlg_link::pcie::{PcieGen, PcieLinkConfig};
use cxlg_model::eqs::{throughput, ThroughputParams};
use cxlg_model::requirements::{emogi_requirements, requirements, D_EMOGI_BYTES};
use cxlg_sim::SimTime;

/// Banner title.
pub const TITLE: &str = "Eq. 4 / Eq. 6";
/// One-line summary (registry + banner).
pub const DESC: &str = "Analytical model checks";

/// Graph specs consumed — none; this experiment builds no graphs
/// (cache-eviction planning; see
/// [`crate::experiment::Experiment::specs`]).
pub fn specs(_ctx: &ExperimentCtx) -> Vec<cxlg_graph::GraphSpec> {
    Vec::new()
}

/// Run the experiment (print-only; no JSON result).
pub fn run(ctx: &ExperimentCtx) {
    ctx.banner(TITLE, DESC);

    println!("Equation 4 — example profile T = min(100d, 48d, 24000):");
    let p = ThroughputParams::section32_example();
    for d in [64.0, 89.6, 256.0, 500.0, 1024.0, 4096.0] {
        println!("  d = {d:>7.1} B -> T = {:>9.1} MB/s", throughput(&p, d));
    }

    println!("\nEquation 6 — requirements to match host-DRAM EMOGI:");
    for gen in [PcieGen::Gen3, PcieGen::Gen4, PcieGen::Gen5] {
        let r = emogi_requirements(gen);
        println!(
            "  {:?} x16 (W = {:>6.0} MB/s, Nmax = {:>3}): S >= {:>6.1} MIOPS, L <= {:.2} us",
            gen, r.bandwidth_mb_per_sec, r.nmax, r.min_miops, r.max_latency_us
        );
    }
    let xl = requirements(&PcieLinkConfig::x16(PcieGen::Gen4), 256.0);
    println!(
        "  XLFDD sublist transfers (d = 256 B): S >= {:.2} MIOPS (16 drives give 176)",
        xl.min_miops
    );

    println!("\nModel vs simulation — saturated zero-copy reads of d̄ = 89.6 B:");
    let sys = SystemConfig::emogi_on_dram(PcieGen::Gen4);
    let mut engine = sys.build_engine();
    let reqs: Vec<DeviceRequest> = (0..40_000)
        .map(|i| DeviceRequest {
            addr: i * 4096,
            bytes: 90,
        })
        .collect();
    let batch = engine.run_batch(SimTime::ZERO, &reqs);
    let sim_t = (40_000u64 * 90) as f64 / 1e6 / batch.end.as_secs_f64();
    let model_t = throughput(
        &ThroughputParams {
            iops: f64::INFINITY,
            latency_us: batch.latency.mean(),
            nmax: 768.0,
            bandwidth_mb_per_sec: 24_000.0,
        },
        D_EMOGI_BYTES,
    );
    println!("  simulated T = {sim_t:>8.0} MB/s, model T = {model_t:>8.0} MB/s");
    println!(
        "  agreement: {:.1}% (paper argues both are W-capped)",
        100.0 * sim_t / model_t
    );
}
