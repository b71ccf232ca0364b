//! New-workload experiment: connected components through the three
//! access methods.
//!
//! Label-propagation CC starts from an all-vertex frontier (a
//! sequential-looking first round) and narrows to the random-access
//! stragglers of the largest component — a hybrid of the paper's two
//! access regimes. Run over the three paper datasets through EMOGI
//! zero-copy on host DRAM (baseline), XLFDD direct access at 16 B, and
//! the BaM software cache at 4 kB, like Fig. 6.

use crate::ctx::ExperimentCtx;
use cxlg_core::metrics::geometric_mean;
use cxlg_core::system::SystemConfig;
use cxlg_core::traversal::Traversal;
use cxlg_link::pcie::PcieGen;
use serde::Serialize;

/// Banner title.
pub const TITLE: &str = "Connected-components study (extension)";
/// One-line summary (registry + banner).
pub const DESC: &str =
    "Label-propagation CC via the three access methods, normalized by EMOGI";

#[derive(Serialize)]
struct Row {
    dataset: String,
    components: u64,
    rounds: u64,
    emogi_ms: f64,
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
    let cc = Traversal::connected_components();

    let systems = [
        SystemConfig::emogi_on_dram(PcieGen::Gen4),
        SystemConfig::xlfdd(PcieGen::Gen4, 16),
        SystemConfig::bam_on_nvme(PcieGen::Gen4, 4),
    ];

    let rows: Vec<Row> = ctx.sweep((0..3).collect(), |i| {
        let spec = datasets[i];
        let g = ctx.graph(spec);
        let reports = ctx.sweep_systems(&g, cc, &systems);
        let [emogi, xl, bam] = &reports[..] else {
            unreachable!("one report per system")
        };
        let base = emogi.metrics.runtime.as_secs_f64();
        Row {
            dataset: spec.name(),
            components: emogi.reached,
            rounds: emogi.levels.len() as u64,
            emogi_ms: base * 1e3,
            xlfdd_normalized: xl.metrics.runtime.as_secs_f64() / base,
            bam_normalized: bam.metrics.runtime.as_secs_f64() / base,
        }
    });

    println!(
        "{:<16} {:>12} {:>8} {:>12} {:>10} {:>10}",
        "Dataset", "Components", "Rounds", "EMOGI [ms]", "XLFDD", "BaM"
    );
    for r in &rows {
        println!(
            "{:<16} {:>12} {:>8} {:>12.3} {:>10.2} {:>10.2}",
            r.dataset, r.components, r.rounds, r.emogi_ms, r.xlfdd_normalized, r.bam_normalized
        );
    }
    let xl_geo = geometric_mean(&rows.iter().map(|r| r.xlfdd_normalized).collect::<Vec<_>>());
    let bam_geo = geometric_mean(&rows.iter().map(|r| r.bam_normalized).collect::<Vec<_>>());
    println!();
    println!(
        "Geometric means over the three datasets: XLFDD {xl_geo:.2}x, BaM {bam_geo:.2}x \
         (label propagation mixes one sequential first round with random \
         straggler rounds, landing between PageRank and BFS)"
    );
    ctx.dump_json("cc_study", &rows);
}
