//! Figure 11: BFS and SSSP runtimes on CXL memory with varying added
//! latency, normalized per-dataset by the host-DRAM runtime — the paper's
//! headline result (Observation 2): identical performance while the CXL
//! latency stays under ~2 µs on Gen3.

use crate::ctx::ExperimentCtx;
use crate::good_source;
use cxlg_core::system::SystemConfig;
use cxlg_core::traversal::Traversal;
use cxlg_link::pcie::PcieGen;
use serde::Serialize;

/// Banner title.
pub const TITLE: &str = "Figure 11";
/// One-line summary (registry + banner).
pub const DESC: &str =
    "BFS/SSSP on CXL memory vs latency, normalized by host DRAM (Gen3 x16, 5 devices)";

#[derive(Serialize)]
struct Point {
    workload: &'static str,
    dataset: String,
    added_latency_us: f64,
    normalized_runtime: f64,
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
    let added = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0];

    // The host-DRAM baseline and the seven latency points all run EMOGI
    // zero-copy, so one sweep per (dataset, workload) pair traces and
    // plans once for all eight, and the baseline is its first report.
    let mut systems = vec![SystemConfig::emogi_on_dram(PcieGen::Gen3)];
    systems.extend(
        added.map(|a| SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(a)),
    );
    let pairs: Vec<(usize, &'static str)> = (0..3)
        .flat_map(|i| [(i, "BFS"), (i, "SSSP")])
        .collect();
    let points: Vec<Point> = ctx
        .sweep(pairs, |(i, workload)| {
            let spec = datasets[i];
            let g = ctx.graph(spec);
            let src = good_source(&g);
            let trav = match workload {
                "BFS" => Traversal::bfs(src),
                _ => Traversal::sssp(src),
            };
            let reports = ctx.sweep_systems(&g, trav, &systems);
            let base = reports[0].metrics.runtime.as_secs_f64();
            added
                .iter()
                .zip(&reports[1..])
                .map(|(&add, cxl)| Point {
                    workload,
                    dataset: spec.name(),
                    added_latency_us: add,
                    normalized_runtime: cxl.metrics.runtime.as_secs_f64() / base,
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();

    for workload in ["BFS", "SSSP"] {
        println!("\n{workload}");
        print!("{:<16}", "added [us]:");
        for a in added {
            print!("{a:>8.1}");
        }
        println!();
        for spec in &datasets {
            print!("{:<16}", spec.name());
            for a in added {
                let p = points
                    .iter()
                    .find(|p| {
                        p.workload == workload
                            && p.dataset == spec.name()
                            && p.added_latency_us == a
                    })
                    .unwrap();
                print!("{:>8.2}", p.normalized_runtime);
            }
            println!();
        }
    }
    println!();
    println!(
        "Paper: normalized runtime ~1.0 while CXL latency stays under \
         ~1.91 us (the Gen3 allowance), rising beyond it."
    );
    ctx.dump_json("fig11", &points);
}
