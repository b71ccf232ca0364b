//! Extension experiment: EMOGI zero-copy vs the UVM paging baseline it
//! replaced (Related Work, §6: UVM migrates 4 kB pages on fault; EMOGI's
//! fine-grained direct access "significantly reduces the RAF compared
//! with the UVM approach").

use crate::ctx::ExperimentCtx;
use crate::{good_source, run_summary};
use cxlg_core::system::SystemConfig;
use cxlg_core::traversal::Traversal;
use cxlg_link::pcie::PcieGen;
use serde::Serialize;

/// Banner title.
pub const TITLE: &str = "UVM comparison (extension)";
/// One-line summary (registry + banner).
pub const DESC: &str = "Zero-copy (EMOGI) vs unified-virtual-memory paging, BFS";

#[derive(Serialize)]
struct Row {
    dataset: String,
    emogi_ms: f64,
    uvm_ms: f64,
    uvm_over_emogi: f64,
    uvm_raf: f64,
    emogi_raf: f64,
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
    let systems = [
        SystemConfig::emogi_on_dram(PcieGen::Gen4),
        SystemConfig::uvm_on_dram(PcieGen::Gen4),
    ];
    let rows: Vec<Row> = ctx.sweep((0..3).collect(), |i| {
        let spec = datasets[i];
        let g = ctx.graph(spec);
        let src = good_source(&g);
        let reports = ctx.sweep_systems(&g, Traversal::bfs(src), &systems);
        let [emogi, uvm] = &reports[..] else {
            unreachable!("one report per system")
        };
        eprintln!("[{}] emogi {}", spec.name(), run_summary(emogi));
        eprintln!("[{}] uvm   {}", spec.name(), run_summary(uvm));
        Row {
            dataset: spec.name(),
            emogi_ms: emogi.metrics.runtime.as_secs_f64() * 1e3,
            uvm_ms: uvm.metrics.runtime.as_secs_f64() * 1e3,
            uvm_over_emogi: uvm.metrics.runtime.as_secs_f64()
                / emogi.metrics.runtime.as_secs_f64(),
            uvm_raf: uvm.metrics.raf(),
            emogi_raf: emogi.metrics.raf(),
        }
    });

    println!(
        "{:<16} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "Dataset", "EMOGI [ms]", "UVM [ms]", "UVM/EMOGI", "RAF emogi", "RAF uvm"
    );
    for r in &rows {
        println!(
            "{:<16} {:>12.3} {:>12.3} {:>10.2} {:>10.2} {:>10.2}",
            r.dataset, r.emogi_ms, r.uvm_ms, r.uvm_over_emogi, r.emogi_raf, r.uvm_raf
        );
    }
    println!(
        "\nEMOGI's motivation (Related Work): fine-grained zero-copy access \
         beats 4 kB page migration on random-access graph workloads."
    );
    ctx.dump_json("uvm_compare", &rows);
}
