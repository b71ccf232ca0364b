//! Latency-tolerance study (the Figure 11 experiment as an API example):
//! sweep the CXL latency bridge from +0 to +6 µs and find the knee where
//! graph processing stops matching host DRAM.
//!
//! ```text
//! cargo run --release --example latency_sweep
//! ```

use cxl_gpu_graph::core::runner::sweep_systems;
use cxl_gpu_graph::model::requirements::emogi_requirements;
use cxl_gpu_graph::prelude::*;

fn main() {
    let graph = GraphSpec::urand(15).seed(7).build();
    let bfs = Traversal::bfs(0);

    // Gen3 halves the bandwidth and Nmax (256), making the latency
    // allowance tight enough to demonstrate at small scale — the same
    // reason the paper downgraded its link (§4.2.2).
    let added: Vec<f64> = (0..=12).map(|i| i as f64 * 0.5).collect();
    let mut systems = vec![SystemConfig::emogi_on_dram(PcieGen::Gen3)];
    systems.extend(
        added.iter().map(|&us| SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(us)),
    );
    // Added latency changes neither the BFS frontiers nor EMOGI's
    // requests, so one sweep traces and plans once for the DRAM baseline
    // and every latency point, then simulates each system.
    let reports = sweep_systems(&graph, bfs, &systems);
    let base = reports[0].metrics.runtime.as_secs_f64();
    let results: Vec<(f64, f64)> = added
        .iter()
        .zip(&reports[1..])
        .map(|(&us, r)| (us, r.metrics.runtime.as_secs_f64() / base))
        .collect();

    let allowance = emogi_requirements(PcieGen::Gen3).max_latency_us;
    println!("Equation 6 latency allowance (Gen3, d=89.6 B): {allowance:.2} us\n");
    println!("{:>12} {:>14}", "added [us]", "t / t_DRAM");
    for (us, ratio) in &results {
        let marker = if *ratio < 1.05 { "  <= matches DRAM" } else { "" };
        println!("{us:>12.1} {ratio:>14.2}{marker}");
    }

    // Find the knee: the largest added latency still within 5% of DRAM.
    let knee = results
        .iter()
        .filter(|(_, r)| *r < 1.05)
        .map(|(us, _)| *us)
        .fold(0.0f64, f64::max);
    println!(
        "\nKnee at +{knee:.1} us added latency — the paper's Observation 2: \
         a few microseconds of external-memory latency are tolerable."
    );
}
