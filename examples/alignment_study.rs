//! Alignment study (Observation 1 as an API example): measure read
//! amplification and end-to-end runtime across access alignments, on all
//! three dataset families.
//!
//! ```text
//! cargo run --release --example alignment_study
//! ```

use cxl_gpu_graph::core::raf::{raf_sweep, FIG3_ALIGNMENTS};
use cxl_gpu_graph::core::traversal::bfs_trace;
use cxl_gpu_graph::prelude::*;

fn main() {
    println!("Read amplification (BFS, software-cache simulation):\n");
    print!("{:<16}", "alignment [B]");
    for a in FIG3_ALIGNMENTS {
        print!("{a:>7}");
    }
    println!();

    for spec in [
        GraphSpec::urand(14).seed(1),
        GraphSpec::kron(14).seed(1),
        GraphSpec::friendster_like(14).seed(1),
    ] {
        let g = spec.build();
        let src = g.max_degree_vertex().unwrap_or(0);
        let trace = bfs_trace(&g, src);
        let points = raf_sweep(&g, &trace, &FIG3_ALIGNMENTS);
        print!("{:<16}", spec.name());
        for p in &points {
            print!("{:>7.2}", p.raf);
        }
        println!();
    }

    // End-to-end effect: run XLFDD-direct BFS at three alignments.
    println!("\nEnd-to-end runtime on XLFDD (urand14, normalized to 16 B):\n");
    let g = GraphSpec::urand(14).seed(1).build();
    let bfs = Traversal::bfs(0);
    let base = bfs
        .run(&g, &SystemConfig::xlfdd(PcieGen::Gen4, 16))
        .metrics
        .runtime
        .as_secs_f64();
    println!("{:>12} {:>12} {:>8}", "align [B]", "t / t_16B", "RAF");
    for a in [16u64, 128, 512, 4096] {
        let sys = SystemConfig::xlfdd(PcieGen::Gen4, 16).with_alignment(a);
        let r = bfs.run(&g, &sys);
        println!(
            "{a:>12} {:>12.2} {:>8.2}",
            r.metrics.runtime.as_secs_f64() / base,
            r.metrics.raf()
        );
    }
    println!(
        "\nObservation 1: a smaller address alignment size is better — \
         fetched bytes (and with them runtime) grow with alignment."
    );
}
