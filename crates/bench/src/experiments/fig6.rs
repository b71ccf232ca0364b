//! Figure 6: BFS and SSSP runtimes on XLFDD (16 B alignment) and BaM
//! (4 kB) across the three datasets, normalized by EMOGI on host DRAM
//! (§4.1.2).

use crate::ctx::ExperimentCtx;
use crate::good_source;
use cxlg_core::metrics::geometric_mean;
use cxlg_core::system::SystemConfig;
use cxlg_core::traversal::Traversal;
use cxlg_link::pcie::PcieGen;
use serde::Serialize;

/// Banner title.
pub const TITLE: &str = "Figure 6";
/// One-line summary (registry + banner).
pub const DESC: &str =
    "XLFDD and BaM runtimes normalized by EMOGI (BFS & SSSP × 3 datasets)";

#[derive(Serialize)]
struct Cell {
    workload: &'static str,
    dataset: String,
    xlfdd_normalized: f64,
    bam_normalized: f64,
}

/// Graph specs consumed — all three paper datasets (cache-eviction
/// planning; see [`crate::experiment::Experiment::specs`]).
pub fn specs(ctx: &ExperimentCtx) -> Vec<cxlg_graph::GraphSpec> {
    ctx.paper_datasets().to_vec()
}

/// Run the experiment.
pub fn run(ctx: &ExperimentCtx) {
    ctx.banner(TITLE, DESC);
    let datasets = ctx.paper_datasets();
    let jobs: Vec<(usize, &'static str)> = (0..3)
        .flat_map(|i| [(i, "BFS"), (i, "SSSP")])
        .collect();
    // EMOGI on host DRAM (the baseline), XLFDD and BaM: one trace per
    // (dataset, workload) pair for all three.
    let systems = [
        SystemConfig::emogi_on_dram(PcieGen::Gen4),
        SystemConfig::xlfdd(PcieGen::Gen4, 16),
        SystemConfig::bam_on_nvme(PcieGen::Gen4, 4),
    ];

    let cells: Vec<Cell> = ctx.sweep(jobs, |(i, workload)| {
        let spec = datasets[i];
        let g = ctx.graph(spec);
        let src = good_source(&g);
        let trav = match workload {
            "BFS" => Traversal::bfs(src),
            _ => Traversal::sssp(src),
        };
        let reports = ctx.sweep_systems(&g, trav, &systems);
        let [emogi, xl, bam] = &reports[..] else {
            unreachable!("one report per system")
        };
        let base = emogi.metrics.runtime.as_secs_f64();
        Cell {
            workload,
            dataset: spec.name(),
            xlfdd_normalized: xl.metrics.runtime.as_secs_f64() / base,
            bam_normalized: bam.metrics.runtime.as_secs_f64() / base,
        }
    });

    println!(
        "{:<6} {:<16} {:>10} {:>10}",
        "Algo", "Dataset", "XLFDD", "BaM"
    );
    for c in &cells {
        println!(
            "{:<6} {:<16} {:>10.2} {:>10.2}",
            c.workload, c.dataset, c.xlfdd_normalized, c.bam_normalized
        );
    }
    let xl_geo = geometric_mean(&cells.iter().map(|c| c.xlfdd_normalized).collect::<Vec<_>>());
    let bam_geo = geometric_mean(&cells.iter().map(|c| c.bam_normalized).collect::<Vec<_>>());
    println!();
    println!(
        "Geometric means over the six pairs: XLFDD {xl_geo:.2}x, BaM {bam_geo:.2}x \
         (paper: 1.13x and 2.76x)"
    );
    ctx.dump_json("fig6", &cells);
}
