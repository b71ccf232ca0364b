//! Figure 3: read-amplification factor vs. address alignment size for
//! BFS and SSSP over the three datasets (software-cache simulation,
//! §3.1).

use crate::ctx::ExperimentCtx;
use crate::good_source;
use cxlg_core::raf::{raf_sweep, RafPoint, FIG3_ALIGNMENTS};
use cxlg_core::traversal::{bfs_trace, sssp_trace};
use serde::Serialize;

/// Banner title.
pub const TITLE: &str = "Figure 3";
/// One-line summary (registry + banner).
pub const DESC: &str = "Read amplification for varying alignment size";

#[derive(Serialize)]
struct Series {
    workload: &'static str,
    dataset: String,
    points: Vec<RafPoint>,
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
    let series: Vec<Series> = ctx.sweep(jobs, |(i, workload)| {
        let spec = datasets[i];
        let g = ctx.graph(spec);
        let src = good_source(&g);
        let trace = match workload {
            "BFS" => bfs_trace(&g, src),
            _ => sssp_trace(&g, src, 64),
        };
        let points = raf_sweep(&g, &trace, &FIG3_ALIGNMENTS);
        Series {
            workload,
            dataset: spec.name(),
            points,
        }
    });

    print!("{:<22}", "Alignment [B]");
    for a in FIG3_ALIGNMENTS {
        print!("{a:>7}");
    }
    println!();
    for s in &series {
        print!("{:<22}", format!("{} {}", s.workload, s.dataset));
        for p in &s.points {
            print!("{:>7.2}", p.raf);
        }
        println!();
    }
    println!();
    println!(
        "Paper: RAFs are increasing functions of alignment, up to ~4 at 4 kB; \
         32 B is close to optimal (diminishing returns below)."
    );
    ctx.dump_json("fig3", &series);
}
