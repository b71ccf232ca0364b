//! New-workload experiment: CXL device-count scaling past the paper's
//! five-expander configuration.
//!
//! §4.2.2 sizes the prototype at five CXL devices so the pooled device
//! tags exceed the link's Nmax; the ROADMAP asks how far interleaving
//! scales beyond that. This experiment runs BFS/urand on CXL memory at
//! growing device counts on Gen3 and Gen4, normalized per-generation by
//! EMOGI on host DRAM, exposing where extra devices stop buying runtime
//! (the link, not the device pool, becomes the binding constraint).

use crate::ctx::ExperimentCtx;
use cxlg_core::system::SystemConfig;
use cxlg_core::traversal::Traversal;
use cxlg_link::pcie::PcieGen;
use serde::Serialize;

/// Banner title.
pub const TITLE: &str = "Device scaling (extension)";
/// One-line summary (registry + banner).
pub const DESC: &str =
    "BFS/urand on CXL memory vs device count (Gen3 & Gen4), normalized by host DRAM";

/// Device counts: through the paper's 5 and well past it.
const DEVICE_COUNTS: [u32; 8] = [1, 2, 3, 4, 5, 8, 12, 16];

#[derive(Serialize)]
struct Point {
    gen: String,
    devices: u32,
    normalized_runtime: f64,
    runtime_ms: f64,
}

/// Graph specs consumed — the urand dataset only (cache-eviction
/// planning; see [`crate::experiment::Experiment::specs`]).
pub fn specs(ctx: &ExperimentCtx) -> Vec<cxlg_graph::GraphSpec> {
    vec![ctx.paper_datasets()[0]]
}

/// Run the experiment.
pub fn run(ctx: &ExperimentCtx) {
    ctx.banner(TITLE, DESC);
    let spec = ctx.paper_datasets()[0];
    let g = ctx.graph(spec);
    let bfs = Traversal::bfs(0);

    // Per generation, one host-DRAM baseline and then each device
    // count: all EMOGI zero-copy, so one sweep traces and plans once
    // for all eighteen systems.
    let gens = [PcieGen::Gen3, PcieGen::Gen4];
    let systems: Vec<SystemConfig> = gens
        .into_iter()
        .flat_map(|gen| {
            let cxl = DEVICE_COUNTS.map(|d| SystemConfig::emogi_on_cxl(gen, d));
            std::iter::once(SystemConfig::emogi_on_dram(gen)).chain(cxl)
        })
        .collect();
    let reports = ctx.sweep_systems(&g, bfs, &systems);
    let points: Vec<Point> = gens
        .into_iter()
        .zip(reports.chunks(1 + DEVICE_COUNTS.len()))
        .flat_map(|(gen, runs)| {
            let base = runs[0].metrics.runtime.as_secs_f64();
            DEVICE_COUNTS.into_iter().zip(&runs[1..]).map(move |(devices, r)| Point {
                gen: format!("{gen:?}"),
                devices,
                normalized_runtime: r.metrics.runtime.as_secs_f64() / base,
                runtime_ms: r.metrics.runtime.as_secs_f64() * 1e3,
            })
        })
        .collect();

    for gen in ["Gen3", "Gen4"] {
        println!("\n{gen} x16 (paper config: 5 devices)");
        println!("{:>10} {:>14} {:>12}", "Devices", "t/t_DRAM", "t [ms]");
        for p in points.iter().filter(|p| p.gen == gen) {
            println!(
                "{:>10} {:>14.2} {:>12.3}",
                p.devices, p.normalized_runtime, p.runtime_ms
            );
        }
    }
    println!();
    println!(
        "Expectation: normalized runtime falls toward 1.0 as pooled tags \
         pass Nmax (paper: five devices suffice), then flattens — the link \
         is the binding constraint, so further devices are headroom, not speed."
    );
    ctx.dump_json("device_scaling", &points);
}
