//! Differential harness for the round-shard parallel engine.
//!
//! Three equivalences pin the decomposition (see the `engine` module
//! docs for why they hold):
//!
//! 1. **Parallel vs oracle** — [`Traversal::run`] must match itself on a
//!    1-thread pool byte-for-byte at every worker count, on *every*
//!    backend. On one worker the traversal driver plans and simulates
//!    the round shards one level after another; on more, workers take
//!    levels from the one shared planner in level order, which the
//!    stateful UVM planner in the system sweep depends on. Flash-backed
//!    backends take the coupled chain at any pool size.
//! 2. **Sharded vs coupled** — on backends whose device state quiesces
//!    at the level barrier (DRAM, CXL, UVM), `run` must also match the
//!    legacy one-engine [`Traversal::run_coupled`] physics oracle
//!    bit-for-bit.
//! 3. **Fan-out vs one system** — `runner::sweep_systems` traces once
//!    and plans once per access method for a whole system list; each of
//!    its reports must equal the system run alone, at every worker
//!    count, on in-memory and spilled graphs.
//! 4. **Tamper detection** — corrupting one shard's `OnlineStats`
//!    before the merge must change the merged latency fingerprint, so a
//!    buggy (e.g. reordered or lossy) merge cannot silently pass the
//!    differential suite.

use cxlg_core::access::DeviceRequest;
use cxlg_core::engine;
use cxlg_core::runner::sweep_systems;
use cxlg_core::system::{BackendConfig, SystemConfig};
use cxlg_core::traversal::Traversal;
use cxlg_graph::spec::GraphSpec;
use cxlg_graph::{CsrView, SpillConfig, SpillCsr};
use cxlg_link::pcie::PcieGen;
use cxlg_sim::OnlineStats;
use proptest::prelude::*;

/// Worker counts the parallel path is exercised at: undersubscribed,
/// matched, and oversubscribed for any CI machine.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// The graph family axis of the property sweep.
fn family(pick: u8, scale: u32, seed: u64) -> GraphSpec {
    match pick % 3 {
        0 => GraphSpec::urand(scale).seed(seed),
        1 => GraphSpec::kron(scale).seed(seed),
        _ => GraphSpec::friendster_like(scale).seed(seed),
    }
}

/// The system axis: every access method and backend class, including
/// the stochastic flash-backed ones.
fn any_system(pick: u8) -> SystemConfig {
    match pick % 5 {
        0 => SystemConfig::emogi_on_dram(PcieGen::Gen4),
        1 => SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(1.0),
        2 => SystemConfig::uvm_on_dram(PcieGen::Gen4),
        3 => SystemConfig::bam_on_nvme(PcieGen::Gen4, 4),
        _ => SystemConfig::xlfdd(PcieGen::Gen4, 16),
    }
}

/// Systems whose backend carries no cross-batch device state — the ones
/// the coupled physics oracle must match exactly.
fn quiescent_system(pick: u8) -> SystemConfig {
    match pick % 3 {
        0 => SystemConfig::emogi_on_dram(PcieGen::Gen4),
        1 => SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(0.5),
        _ => SystemConfig::uvm_on_dram(PcieGen::Gen4),
    }
}

fn workload(pick: u8, g: &cxlg_graph::Csr) -> Traversal {
    let src = g.max_degree_vertex().unwrap();
    match pick % 3 {
        0 => Traversal::bfs(src),
        1 => Traversal::sssp(src),
        _ => Traversal::connected_components(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn parallel_run_equals_sequential_oracle_at_any_worker_count(
        fam in 0u8..3,
        scale in 7u32..10,
        seed in 0u64..1_000_000,
        sys_pick in 0u8..5,
        work_pick in 0u8..3,
    ) {
        let g = family(fam, scale, seed).build();
        let trav = workload(work_pick, &g);
        let sys = any_system(sys_pick);
        let oracle = rayon::with_num_threads(1, || trav.run(&g, &sys));
        let oracle_bytes = serde_json::to_string(&oracle).unwrap();
        for workers in WORKER_COUNTS {
            let got = rayon::with_num_threads(workers, || trav.run(&g, &sys));
            assert_eq!(
                serde_json::to_string(&got).unwrap(),
                oracle_bytes,
                "{} on {} diverged from the oracle at {workers} workers",
                trav.name(),
                sys.label(),
            );
        }
    }

    #[test]
    fn sharded_run_equals_coupled_oracle_on_quiescent_backends(
        fam in 0u8..3,
        scale in 7u32..10,
        seed in 0u64..1_000_000,
        sys_pick in 0u8..3,
        work_pick in 0u8..2,
    ) {
        let g = family(fam, scale, seed).build();
        let trav = workload(work_pick, &g);
        let sys = quiescent_system(sys_pick);
        let coupled = trav.run_coupled(&g, &sys);
        let sharded = trav.run(&g, &sys);
        assert_eq!(
            serde_json::to_string(&sharded).unwrap(),
            serde_json::to_string(&coupled).unwrap(),
            "{} on {}: shard merge is not bit-exact against the coupled engine",
            trav.name(),
            sys.label(),
        );
    }
}

/// A mixed system list. DRAM, CXL at +1 µs and CXL behind the
/// out-of-order bridge share EMOGI's zero-copy plan, interleaved with
/// the rest; XLFDD, BaM and UVM each plan their own (BaM and UVM
/// statefully), and the flash-backed XLFDD and BaM chain their levels.
fn mixed_systems() -> Vec<SystemConfig> {
    let mut ooo = SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(2.0);
    if let BackendConfig::CxlMem { dev, .. } = &mut ooo.backend {
        *dev = dev.out_of_order();
    }
    vec![
        SystemConfig::emogi_on_dram(PcieGen::Gen4),
        SystemConfig::xlfdd(PcieGen::Gen4, 16),
        SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(1.0),
        SystemConfig::bam_on_nvme(PcieGen::Gen4, 4),
        ooo,
        SystemConfig::uvm_on_dram(PcieGen::Gen4),
    ]
}

/// Every report of a `sweep_systems` call over [`mixed_systems`] must
/// equal `oracle`, at every worker count, and so must `run` per system.
fn assert_fan_out_matches<G: CsrView + ?Sized>(g: &G, trav: Traversal, oracle: &[String], label: &str) {
    let systems = mixed_systems();
    for workers in WORKER_COUNTS {
        let swept = rayon::with_num_threads(workers, || sweep_systems(g, trav, &systems));
        assert_eq!(swept.len(), systems.len());
        for ((report, sys), want) in swept.iter().zip(&systems).zip(oracle) {
            assert_eq!(
                &serde_json::to_string(report).unwrap(),
                want,
                "{} on {} in a {label} sweep at {workers} workers",
                trav.name(),
                sys.label()
            );
            let alone = rayon::with_num_threads(workers, || trav.run(g, sys));
            assert_eq!(&serde_json::to_string(&alone).unwrap(), want);
        }
    }
}

#[test]
fn sweep_systems_equals_each_system_run_alone() {
    // The oracle is each system alone on one worker: the coupled chain,
    // which `run` equals on every backend (bit-exact on the quiescent
    // ones, the same chain on the flash-backed ones).
    let spec = GraphSpec::kron(9).seed(7);
    let mem = spec.build();
    let mut cfg = SpillConfig::new(
        std::env::temp_dir().join(format!("cxlg-fan-out-{}", std::process::id())),
    );
    cfg.page_len = 64;
    cfg.cache_pages = 4;
    let spill = SpillCsr::build(&spec, &cfg).expect("spill build");
    let src = mem.max_degree_vertex().unwrap();
    for trav in [
        Traversal::bfs(src),
        Traversal::sssp(src),
        Traversal::connected_components(),
        Traversal::pagerank(2),
    ] {
        let oracle: Vec<String> = mixed_systems()
            .iter()
            .map(|sys| {
                let report = rayon::with_num_threads(1, || trav.run_coupled(&mem, sys));
                serde_json::to_string(&report).unwrap()
            })
            .collect();
        assert_fan_out_matches(&mem, trav, &oracle, "mem");
        assert_fan_out_matches(&spill, trav, &oracle, "spill");
    }
    drop(spill);
    let _ = std::fs::remove_dir_all(&cfg.dir);
}

#[test]
fn sweep_of_no_systems_is_empty() {
    let g = GraphSpec::urand(6).seed(1).build();
    assert!(sweep_systems(&g, Traversal::bfs(0), &[]).is_empty());
}

/// Synthetic per-level batches with uneven sizes (including an empty
/// level) — the shapes the traversal planner actually emits.
fn synthetic_batches() -> Vec<Vec<DeviceRequest>> {
    let req = |addr: u64, bytes: u64| DeviceRequest { addr, bytes };
    vec![
        vec![req(0, 128)],
        (0..2000).map(|i| req(i * 64, 64)).collect(),
        Vec::new(),
        (0..300).map(|i| req(i * 4096, 4096)).collect(),
    ]
}

#[test]
fn tampered_shard_merge_is_caught_by_the_latency_fingerprint() {
    let sys = SystemConfig::emogi_on_dram(PcieGen::Gen4);
    let batches = synthetic_batches();
    let outcomes = engine::simulate_shards(|| sys.build_engine(), &batches);
    let honest = engine::merge_shard_metrics(&outcomes);

    // Value-level tamper: replace one shard's latency stats with a fake
    // distribution of the *same sample count*. Every integer field of
    // the merged metrics still agrees — only the fingerprint of the
    // merged Welford state exposes the corruption.
    let mut tampered = outcomes.clone();
    let n = tampered[1].result.latency.count();
    let mut fake = OnlineStats::new();
    for _ in 0..n {
        fake.push(1.0);
    }
    tampered[1].result.latency = fake;
    let merged = engine::merge_shard_metrics(&tampered);
    assert_eq!(merged.requests, honest.requests);
    assert_eq!(merged.runtime, honest.runtime);
    assert_ne!(
        merged.latency.fingerprint(),
        honest.latency.fingerprint(),
        "same-count tamper slipped past the merged fingerprint"
    );

    // Lossy-merge tamper: drop one shard's samples entirely. The
    // requests/latency-count cross-check catches that class without
    // even looking at the float state.
    let mut dropped = outcomes.clone();
    dropped[0].result.latency = OnlineStats::new();
    let lossy = engine::merge_shard_metrics(&dropped);
    assert_eq!(honest.latency.count(), honest.requests);
    assert_ne!(
        lossy.latency.count(),
        lossy.requests,
        "dropped shard left the sample count consistent"
    );
}

#[test]
fn shard_merge_order_is_load_bearing() {
    // merge_ordered is a *fixed-order* fold: permuting shards changes
    // the float state (Welford merges do not commute bit-wise), which is
    // exactly why the merge must consume outcomes in level order. If
    // this ever starts passing, the fingerprint has lost its teeth.
    let sys = SystemConfig::emogi_on_cxl(PcieGen::Gen3, 2).with_added_latency_us(0.7);
    let outcomes = engine::simulate_shards(|| sys.build_engine(), &synthetic_batches());
    let forward = engine::merge_shard_metrics(&outcomes);
    let mut reversed = outcomes;
    reversed.reverse();
    let backward = engine::merge_shard_metrics(&reversed);
    // Integer fields are order-independent...
    assert_eq!(forward.requests, backward.requests);
    assert_eq!(forward.fetched_bytes, backward.fetched_bytes);
    // ...and the samples are identical as a multiset, so the means agree
    // to rounding; only the fold order differs.
    assert!((forward.latency.mean() - backward.latency.mean()).abs() < 1e-6);
}
