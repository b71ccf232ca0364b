//! Figure 5: BFS/urand runtimes on XLFDD for varying address alignment,
//! normalized by EMOGI on host DRAM, with BaM (4 kB) for reference
//! (§4.1.2 — the demonstration of Observation 1).

use crate::ctx::ExperimentCtx;
use crate::run_summary;
use cxlg_core::system::SystemConfig;
use cxlg_core::traversal::Traversal;
use cxlg_link::pcie::PcieGen;
use serde::Serialize;

/// Banner title.
pub const TITLE: &str = "Figure 5";
/// One-line summary (registry + banner).
pub const DESC: &str = "BFS/urand on XLFDD vs alignment, normalized by EMOGI";

#[derive(Serialize)]
struct Point {
    alignment: u64,
    normalized_runtime: f64,
    runtime_ms: f64,
    raf: f64,
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
    let trav = Traversal::bfs(0);

    // EMOGI (the baseline), XLFDD at each alignment, then BaM: one
    // trace for all nine.
    let alignments = [16, 32, 64, 128, 256, 512, 4096];
    let mut systems = vec![SystemConfig::emogi_on_dram(PcieGen::Gen4)];
    systems.extend(alignments.map(|a| SystemConfig::xlfdd(PcieGen::Gen4, 16).with_alignment(a)));
    systems.push(SystemConfig::bam_on_nvme(PcieGen::Gen4, 4));
    let reports = ctx.sweep_systems(&g, trav, &systems);
    let (emogi, bam) = (&reports[0], &reports[systems.len() - 1]);

    println!("EMOGI (host DRAM) baseline: {}", run_summary(emogi));
    let base = emogi.metrics.runtime.as_secs_f64();
    let points: Vec<Point> = alignments
        .iter()
        .zip(&reports[1..])
        .map(|(&a, r)| Point {
            alignment: a,
            normalized_runtime: r.metrics.runtime.as_secs_f64() / base,
            runtime_ms: r.metrics.runtime.as_secs_f64() * 1e3,
            raf: r.metrics.raf(),
        })
        .collect();
    let bam_norm = bam.metrics.runtime.as_secs_f64() / base;

    println!();
    println!("{:>12} {:>12} {:>12} {:>8}", "Align [B]", "XLFDD t/t_EMOGI", "t [ms]", "RAF");
    for p in &points {
        println!(
            "{:>12} {:>12.2} {:>12.3} {:>8.2}",
            p.alignment, p.normalized_runtime, p.runtime_ms, p.raf
        );
    }
    println!(
        "{:>12} {:>12.2} {:>12.3} {:>8.2}   <- BaM reference (4 kB)",
        "BaM-4096",
        bam_norm,
        bam.metrics.runtime.as_secs_f64() * 1e3,
        bam.metrics.raf()
    );
    println!();
    println!(
        "Paper: smaller alignments run faster; at 16–32 B XLFDD approaches \
         host-DRAM speed while BaM at 4 kB is ~3x slower."
    );
    #[derive(Serialize)]
    struct Out {
        points: Vec<Point>,
        bam_normalized: f64,
    }
    ctx.dump_json(
        "fig5",
        &Out {
            points,
            bam_normalized: bam_norm,
        },
    );
}
