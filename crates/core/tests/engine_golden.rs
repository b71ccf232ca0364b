//! Cross-commit golden test for the discrete-event engine.
//!
//! Every other engine test compares two paths of the *same* build
//! (sharded vs coupled, parallel vs oracle), so a change to the engine's
//! event loop that shifts a single picosecond would pass them all. This
//! test pins one FNV-1a hash over the serialized [`RunReport`] of a
//! fixed grid — both graph families × every system preset the paper's
//! figures use × all four workloads — so any change to a simulated
//! statistic (runtimes, latency Welford bits, mean/peak outstanding,
//! per-level breakdowns) is caught against the committed constant.
//!
//! A change that is *meant* to alter simulated results must update
//! `GOLDEN` and say why; a pure speed-up must leave it untouched.

use cxlg_core::metrics::RunReport;
use cxlg_core::system::{BackendConfig, SystemConfig};
use cxlg_core::traversal::Traversal;
use cxlg_graph::spec::GraphSpec;
use cxlg_link::pcie::PcieGen;

/// FNV-1a 64 over the JSON of every run in [`grid`] order.
const GOLDEN: u64 = 0x9cff_9a07_1baa_15ee;

const SCALE: u32 = 10;

/// The 15 system presets: DRAM Gen3/Gen4, UVM, XLFDD×16, BaM/NVMe×4,
/// the 64-warp ablation, far-socket CXL, the ablation's out-of-order
/// latency bridge at +1.5 µs, a single tag-starved Gen4 expander (768
/// credits against 128 device tags) at +3 µs, and CXL Gen3×5 across the
/// Fig. 11 added-latency sweep.
fn systems() -> Vec<SystemConfig> {
    let mut out_of_order = SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(1.5);
    if let BackendConfig::CxlMem { dev, .. } = &mut out_of_order.backend {
        *dev = dev.out_of_order();
    }
    let mut out = vec![
        SystemConfig::emogi_on_dram(PcieGen::Gen3),
        SystemConfig::emogi_on_dram(PcieGen::Gen4),
        SystemConfig::uvm_on_dram(PcieGen::Gen4),
        SystemConfig::xlfdd(PcieGen::Gen4, 16),
        SystemConfig::bam_on_nvme(PcieGen::Gen4, 4),
        SystemConfig::emogi_on_dram(PcieGen::Gen4).with_active_warps(64),
        SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5).on_far_socket(),
        out_of_order,
        SystemConfig::emogi_on_cxl(PcieGen::Gen4, 1).with_added_latency_us(3.0),
    ];
    for us in [0.0, 0.5, 1.0, 1.5, 2.0, 3.0] {
        out.push(SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(us));
    }
    out
}

fn grid() -> Vec<RunReport> {
    let mut reports = Vec::new();
    for spec in [GraphSpec::urand(SCALE), GraphSpec::kron(SCALE)] {
        let g = spec.build();
        let src = g.max_degree_vertex().unwrap();
        let workloads = [
            Traversal::bfs(src),
            Traversal::sssp(src),
            Traversal::pagerank(1),
            Traversal::connected_components(),
        ];
        for sys in systems() {
            for w in &workloads {
                reports.push(w.run(&g, &sys));
            }
        }
    }
    reports
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn engine_results_match_the_committed_golden_hash() {
    let reports = grid();
    assert_eq!(reports.len(), 2 * 15 * 4);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for r in &reports {
        fnv1a(&mut hash, serde_json::to_string(r).unwrap().as_bytes());
    }
    assert_eq!(
        hash, GOLDEN,
        "engine results changed: got {hash:#018x}, golden {GOLDEN:#018x}"
    );
}
