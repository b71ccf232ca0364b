//! Figure 10: throughput and outstanding-read count of one CXL memory
//! prototype under CPU-issued 64 B random reads, for varying additional
//! latency (§4.2.2).

use crate::ctx::ExperimentCtx;
use cxlg_core::microbench::{cxl_cpu_random_read, CxlReadResult};
use cxlg_device::cxl_mem::CxlMemConfig;

/// Banner title.
pub const TITLE: &str = "Figure 10";
/// One-line summary (registry + banner).
pub const DESC: &str =
    "CXL prototype bandwidth & outstanding reads vs additional latency";

/// Graph specs consumed — none; this experiment builds no graphs
/// (cache-eviction planning; see
/// [`crate::experiment::Experiment::specs`]).
pub fn specs(_ctx: &ExperimentCtx) -> Vec<cxlg_graph::GraphSpec> {
    Vec::new()
}

/// Run the experiment.
pub fn run(ctx: &ExperimentCtx) {
    ctx.banner(TITLE, DESC);
    let added: Vec<f64> = (0..=10).map(|i| i as f64).collect();
    let results: Vec<CxlReadResult> = ctx.sweep(added, |us| {
        cxl_cpu_random_read(
            CxlMemConfig::default().with_added_latency_us(us),
            1 << 30,
            60_000,
            512,
            7,
        )
    });

    println!(
        "{:>12} {:>16} {:>16} {:>14}",
        "Added [us]", "Thruput [MB/s]", "Latency [us]", "Outstanding"
    );
    for r in &results {
        println!(
            "{:>12.0} {:>16.0} {:>16.2} {:>14.1}",
            r.added_latency_us, r.throughput_mb_per_sec, r.latency_us, r.outstanding
        );
    }
    println!();
    println!(
        "Paper: capped at ~5,700 MB/s by the single DRAM channel, decaying \
         once the 128 device tags bind; outstanding saturates at 128."
    );
    ctx.dump_json("fig10", &results);
}
