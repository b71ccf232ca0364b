//! New-workload experiment: PageRank through the three access methods.
//!
//! The Discussion section contrasts the paper's fine-grained random
//! access workloads (BFS/SSSP) with sequential-sweep algorithms like
//! PageRank, which Graphene-style systems run well even at large block
//! sizes. This experiment quantifies that contrast on the simulator:
//! full-edge-list PageRank sweeps over the three paper datasets, run
//! through EMOGI zero-copy on host DRAM (baseline), XLFDD direct access
//! at 16 B, and the BaM software cache at 4 kB — the same three access
//! methods as Fig. 6, so the two tables can be read side by side.

use crate::ctx::ExperimentCtx;
use cxlg_core::metrics::geometric_mean;
use cxlg_core::system::SystemConfig;
use cxlg_core::traversal::Traversal;
use cxlg_link::pcie::PcieGen;
use serde::Serialize;

/// Banner title.
pub const TITLE: &str = "PageRank study (extension)";
/// One-line summary (registry + banner).
pub const DESC: &str =
    "PageRank via the three access methods, normalized by EMOGI (sequential-sweep contrast to Fig. 6)";

/// Full-edge-list sweeps per run. The access pattern repeats every
/// iteration, so a handful is enough to dominate per-level setup cost.
const ITERATIONS: u32 = 4;

#[derive(Serialize)]
struct Row {
    dataset: String,
    emogi_ms: f64,
    xlfdd_normalized: f64,
    bam_normalized: f64,
    xlfdd_raf: f64,
    bam_raf: f64,
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
    let pr = Traversal::pagerank(ITERATIONS);

    let systems = [
        SystemConfig::emogi_on_dram(PcieGen::Gen4),
        SystemConfig::xlfdd(PcieGen::Gen4, 16),
        SystemConfig::bam_on_nvme(PcieGen::Gen4, 4),
    ];

    let rows: Vec<Row> = ctx.sweep((0..3).collect(), |i| {
        let spec = datasets[i];
        let g = ctx.graph(spec);
        let reports = ctx.sweep_systems(&g, pr, &systems);
        let [emogi, xl, bam] = &reports[..] else {
            unreachable!("one report per system")
        };
        let base = emogi.metrics.runtime.as_secs_f64();
        Row {
            dataset: spec.name(),
            emogi_ms: base * 1e3,
            xlfdd_normalized: xl.metrics.runtime.as_secs_f64() / base,
            bam_normalized: bam.metrics.runtime.as_secs_f64() / base,
            xlfdd_raf: xl.metrics.raf(),
            bam_raf: bam.metrics.raf(),
        }
    });

    println!(
        "{:<16} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "Dataset", "EMOGI [ms]", "XLFDD", "BaM", "RAF xlfdd", "RAF bam"
    );
    for r in &rows {
        println!(
            "{:<16} {:>12.3} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            r.dataset, r.emogi_ms, r.xlfdd_normalized, r.bam_normalized, r.xlfdd_raf, r.bam_raf
        );
    }
    let xl_geo = geometric_mean(&rows.iter().map(|r| r.xlfdd_normalized).collect::<Vec<_>>());
    let bam_geo = geometric_mean(&rows.iter().map(|r| r.bam_normalized).collect::<Vec<_>>());
    println!();
    println!(
        "Geometric means over the three datasets: XLFDD {xl_geo:.2}x, BaM {bam_geo:.2}x \
         ({ITERATIONS} full sweeps; sequential access amortizes large lines, so BaM \
         closes much of its Fig. 6 gap here)"
    );
    ctx.dump_json("pagerank_study", &rows);
}
