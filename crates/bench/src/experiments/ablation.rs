//! Ablation tables for the design choices DESIGN.md calls out: warp
//! count (§3.5.2), bridge ordering (Appendix A), BaM cache capacity, and
//! CXL device count (§4.2.2). Printed as simulated-runtime tables.

use crate::ctx::ExperimentCtx;
use cxlg_core::system::{AccessConfig, BackendConfig, SystemConfig};
use cxlg_core::traversal::Traversal;
use cxlg_graph::CsrView;
use cxlg_link::pcie::PcieGen;
use serde::Serialize;

/// Banner title.
pub const TITLE: &str = "Ablations";
/// One-line summary (registry + banner).
pub const DESC: &str = "Design-choice sensitivity studies";

#[derive(Serialize)]
struct Entry {
    study: &'static str,
    point: String,
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
    let g = ctx.graph(ctx.paper_datasets()[0]);
    let bfs = Traversal::bfs(0);
    let mut entries: Vec<Entry> = Vec::new();

    // Every study runs the same BFS, so one sweep over all their systems
    // traces once; the zero-copy systems (warps, bridge, devices) also
    // share one plan, and each BaM capacity plans its own.
    let warp_points: [u32; 8] = [64, 128, 256, 512, 768, 1024, 2048, 3072];
    let bridges = [("in-order", false), ("out-of-order", true)];
    let edge_bytes = g.num_edges() * 8;
    let cache_denoms = [32u64, 16, 8, 4, 2, 1];
    let device_counts = [1u32, 2, 3, 4, 5, 8];
    let mut systems: Vec<SystemConfig> = warp_points
        .iter()
        .map(|&w| SystemConfig::emogi_on_dram(PcieGen::Gen4).with_active_warps(w))
        .collect();
    systems.extend(bridges.map(|(_, ooo)| {
        let mut sys = SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(2.0);
        if ooo {
            if let BackendConfig::CxlMem { dev, .. } = &mut sys.backend {
                *dev = dev.out_of_order();
            }
        }
        sys
    }));
    systems.extend(cache_denoms.map(|denom| {
        let mut sys = SystemConfig::bam_on_nvme(PcieGen::Gen4, 4);
        if let AccessConfig::SoftwareCache { capacity_bytes, .. } = &mut sys.access {
            *capacity_bytes = Some((edge_bytes / denom).max(4096 * 64));
        }
        sys
    }));
    systems.extend(device_counts.map(|devices| SystemConfig::emogi_on_cxl(PcieGen::Gen3, devices)));
    let reports = ctx.sweep_systems(&g, bfs, &systems);
    let mut reports = reports.iter();
    let mut next_ms = || {
        let r = reports.next().expect("one report per system");
        (r.metrics.runtime.as_secs_f64() * 1e3, r.metrics.raf())
    };

    // 1. Warp count (§3.5.2: concurrency >= Nmax suffices).
    println!("\nWarp count (EMOGI/DRAM, Gen4; Nmax = 768):");
    for w in warp_points {
        let (ms, _) = next_ms();
        println!("  {w:>5} warps: {ms:>8.3} ms");
        entries.push(Entry {
            study: "warps",
            point: w.to_string(),
            runtime_ms: ms,
        });
    }

    // 2. Bridge ordering (Appendix A).
    println!("\nLatency-bridge ordering (CXL +2 us, Gen3):");
    for (label, _) in bridges {
        let (ms, _) = next_ms();
        println!("  {label:<14} {ms:>8.3} ms");
        entries.push(Entry {
            study: "bridge",
            point: label.to_string(),
            runtime_ms: ms,
        });
    }

    // 3. BaM cache capacity (fraction of the edge list).
    println!("\nBaM software-cache capacity (NVMe, 4 kB lines):");
    for denom in cache_denoms {
        let (ms, raf) = next_ms();
        println!("  edge/{denom:<3} cache: {ms:>8.3} ms (RAF {raf:.2})");
        entries.push(Entry {
            study: "bam-cache",
            point: format!("edge/{denom}"),
            runtime_ms: ms,
        });
    }

    // 4. CXL device count (§4.2.2: five devices so tags exceed Nmax).
    println!("\nCXL device count (Gen3, +0 latency):");
    for devices in device_counts {
        let (ms, _) = next_ms();
        println!("  {devices:>2} device(s): {ms:>8.3} ms");
        entries.push(Entry {
            study: "cxl-devices",
            point: devices.to_string(),
            runtime_ms: ms,
        });
    }

    ctx.dump_json("ablation", &entries);
}
