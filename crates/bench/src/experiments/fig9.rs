//! Figure 9: GPU-observed latency of host DRAM and CXL memory, measured
//! by the Appendix-B pointer chase — near vs. far socket, and CXL at
//! +0 … +3 µs added latency.

use crate::ctx::ExperimentCtx;
use cxlg_core::microbench::{pointer_chase_latency, PointerChaseResult};
use cxlg_core::system::SystemConfig;
use cxlg_link::pcie::PcieGen;
use serde::Serialize;

/// Banner title.
pub const TITLE: &str = "Figure 9";
/// One-line summary (registry + banner).
pub const DESC: &str =
    "Measured latency of host DRAM and CXL memory as seen from the GPU";

#[derive(Serialize)]
struct Bar {
    label: String,
    near_socket: bool,
    latency_us: f64,
}

/// Graph specs consumed — none; this experiment builds no graphs
/// (cache-eviction planning; see
/// [`crate::experiment::Experiment::specs`]).
pub fn specs(_ctx: &ExperimentCtx) -> Vec<cxlg_graph::GraphSpec> {
    Vec::new()
}

/// Run the experiment.
pub fn run(ctx: &ExperimentCtx) {
    ctx.banner(TITLE, DESC);
    const HOPS: u64 = 400;
    const REGION: u64 = 1 << 26;

    let mut jobs: Vec<(String, bool, SystemConfig)> = vec![
        (
            "DRAM0".into(),
            false,
            SystemConfig::emogi_on_dram(PcieGen::Gen4).on_far_socket(),
        ),
        (
            "DRAM1".into(),
            true,
            SystemConfig::emogi_on_dram(PcieGen::Gen4),
        ),
    ];
    for (dev, near) in [("CXL0", false), ("CXL3", true)] {
        for add in [0.0, 1.0, 2.0, 3.0] {
            let mut sys =
                SystemConfig::emogi_on_cxl(PcieGen::Gen4, 1).with_added_latency_us(add);
            if !near {
                sys = sys.on_far_socket();
            }
            jobs.push((format!("{dev}(+{add:.0})"), near, sys));
        }
    }

    let bars: Vec<Bar> = ctx.sweep(jobs, |(label, near, sys)| {
        let r: PointerChaseResult = pointer_chase_latency(&sys, REGION, HOPS, 1);
        Bar {
            label,
            near_socket: near,
            latency_us: r.latency_us,
        }
    });

    println!("{:<12} {:>8} {:>14}", "Memory", "Socket", "Latency [us]");
    for b in &bars {
        println!(
            "{:<12} {:>8} {:>14.2}",
            b.label,
            if b.near_socket { "near" } else { "far" },
            b.latency_us
        );
    }
    println!();
    println!(
        "Paper: host DRAM ~1+ us from the GPU; CXL adds ~0.5 us; far-socket \
         devices marginally slower; added latency shifts bars accordingly."
    );
    ctx.dump_json("fig9", &bars);
}
