//! Figure 4: total data `D`, throughput `T`, and runtime `t` as functions
//! of the data transfer size `d` (§3.2/§3.3.2), using the paper's example
//! profile `T = min(100 d, 48 d, 24,000)` and RAF measured on BFS/urand.

use crate::ctx::ExperimentCtx;
use cxlg_core::raf::{raf_sweep, FIG3_ALIGNMENTS};
use cxlg_core::traversal::bfs_trace;
use cxlg_model::eqs::ThroughputParams;
use cxlg_model::fig4::{fig4_series, optimal_transfer_bytes, Fig4Params};

/// Banner title.
pub const TITLE: &str = "Figure 4";
/// One-line summary (registry + banner).
pub const DESC: &str = "Runtime as a function of data transfer size (model)";

/// Graph specs consumed — the urand dataset only (cache-eviction
/// planning; see [`crate::experiment::Experiment::specs`]).
pub fn specs(ctx: &ExperimentCtx) -> Vec<cxlg_graph::GraphSpec> {
    vec![ctx.paper_datasets()[0]]
}

/// Run the experiment.
pub fn run(ctx: &ExperimentCtx) {
    ctx.banner(TITLE, DESC);
    // Measure RAF(d) on BFS/urand as the paper does for its D curve.
    let spec = ctx.paper_datasets()[0];
    let g = ctx.graph(spec);
    let trace = bfs_trace(&g, 0);
    let raf = raf_sweep(&g, &trace, &FIG3_ALIGNMENTS);
    let useful_mb = raf[0].useful_bytes as f64 / 1e6;

    let params = Fig4Params {
        throughput: ThroughputParams::section32_example(),
        useful_mb,
        raf_points: raf.iter().map(|p| (p.alignment as f64, p.raf)).collect(),
    };
    let series = fig4_series(&params, 4096.0, 25);

    println!(
        "{:>9} {:>12} {:>14} {:>12}",
        "d [B]", "D [MB]", "T [MB/s]", "t [ms]"
    );
    for p in &series {
        println!(
            "{:>9.0} {:>12.2} {:>14.0} {:>12.3}",
            p.d_bytes,
            p.total_mb,
            p.throughput_mb_per_sec,
            p.runtime_sec * 1e3
        );
    }
    let d_opt = optimal_transfer_bytes(&params.throughput);
    let best = series
        .iter()
        .min_by(|a, b| a.runtime_sec.total_cmp(&b.runtime_sec))
        .unwrap();
    println!();
    println!(
        "Optimal d (s·d = W): {:.0} B; measured minimum runtime at d = {:.0} B.",
        d_opt, best.d_bytes
    );
    println!(
        "Paper: best runtime at the minimum transfer size that still \
         saturates W (d_opt = 500 B for the example profile)."
    );
    ctx.dump_json("fig4", &series);
}
