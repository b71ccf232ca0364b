//! Differential harness for the traversal driver and the round shards.
//!
//! Four equivalences pin the decomposition (see the `engine` module
//! docs for why they hold):
//!
//! 1. **Parallel vs oracle** — [`Traversal::run`] must match itself on a
//!    1-thread pool byte-for-byte at every worker count, on *every*
//!    backend. The traversal driver plans each level in windows, in
//!    level order, and feeds each window to the systems of its plan in
//!    parallel; every system chains its levels on one engine.
//! 2. **Sharded vs coupled** — on backends whose device state quiesces
//!    at the level barrier (DRAM, CXL, UVM), the whole-level round
//!    shards of [`engine::simulate_shards`], merged in level order, must
//!    match `run`'s chain bit-for-bit.
//! 3. **Fan-out vs one system** — `runner::sweep_systems` traces once
//!    and plans once per access method for a whole system list; each of
//!    its reports must equal the system run alone, at every worker
//!    count, on in-memory and spilled graphs, and for a group of systems
//!    that share every window of levels wider than one window.
//! 4. **Tamper detection** — corrupting one shard's `OnlineStats`
//!    before the merge must change the merged latency fingerprint, so a
//!    buggy (e.g. reordered or lossy) merge cannot silently pass the
//!    differential suite.

use cxlg_core::access::DeviceRequest;
use cxlg_core::engine;
use cxlg_core::runner::sweep_systems;
use cxlg_core::system::{BackendConfig, SystemConfig};
use cxlg_core::traversal::Traversal;
use cxlg_graph::layout::EdgeListLayout;
use cxlg_graph::spec::GraphSpec;
use cxlg_graph::{CsrView, SpillConfig, SpillCsr};
use cxlg_link::pcie::PcieGen;
use cxlg_sim::{OnlineStats, SimTime};
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
/// the round shards must match exactly.
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

/// `trav` on `sys` as round shards: each level planned whole and
/// simulated from `t = 0` on a fresh engine, merged in level order. The
/// run's metrics and each level's fetched bytes and simulated time,
/// serialized as [`chained`] serializes a report.
fn sharded(g: &cxlg_graph::Csr, trav: Traversal, sys: &SystemConfig) -> String {
    let layout = EdgeListLayout::new(g);
    let mut access = sys.build_access(layout.edge_list_bytes());
    let (mut useful, mut hits) = (0, 0);
    let batches: Vec<Vec<DeviceRequest>> = trav
        .trace(g)
        .iter()
        .map(|frontier| {
            access.begin_level();
            let mut requests = Vec::new();
            for &v in frontier {
                let span = layout.sublist_span(v);
                useful += span.len;
                hits += access.requests_for_span(span, &mut requests);
            }
            requests
        })
        .collect();
    let outcomes = engine::simulate_shards(|| sys.build_engine(), &batches);
    let mut metrics = engine::merge_shard_metrics(&outcomes);
    metrics.useful_bytes = useful;
    metrics.cache_hits = hits;
    let levels: Vec<_> = outcomes
        .iter()
        .map(|o| (o.result.fetched_bytes, o.result.end.saturating_since(SimTime::ZERO)))
        .collect();
    serde_json::to_string(&(metrics, levels)).unwrap()
}

/// A report's metrics and each level's fetched bytes and simulated time.
fn chained(report: &cxlg_core::metrics::RunReport) -> String {
    let levels: Vec<_> = report.levels.iter().map(|l| (l.fetched_bytes, l.runtime)).collect();
    serde_json::to_string(&(&report.metrics, levels)).unwrap()
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
        assert_eq!(
            sharded(&g, trav, &sys),
            chained(&trav.run(&g, &sys)),
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
    // The oracle is each system alone on one worker.
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
                let report = rayon::with_num_threads(1, || trav.run(&mem, sys));
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
fn a_multi_member_group_equals_each_system_run_alone() {
    // The Fig. 11 grid: host DRAM and CXL at seven added latencies, all
    // EMOGI zero-copy, so the eight systems are one group that is fed
    // every window of every level.
    let mut systems = vec![SystemConfig::emogi_on_dram(PcieGen::Gen3)];
    systems.extend(
        [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
            .map(|a| SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(a)),
    );
    let g = GraphSpec::urand(14).seed(3).build();
    let src = g.max_degree_vertex().unwrap();
    for trav in [Traversal::bfs(src), Traversal::sssp(src)] {
        let alone: Vec<String> = systems
            .iter()
            .map(|sys| {
                let report = rayon::with_num_threads(1, || trav.run(&g, sys));
                serde_json::to_string(&report).unwrap()
            })
            .collect();
        for pool in [1, 2, 4] {
            let swept = rayon::with_num_threads(pool, || sweep_systems(&g, trav, &systems));
            for ((report, sys), want) in swept.iter().zip(&systems).zip(&alone) {
                assert_eq!(
                    &serde_json::to_string(report).unwrap(),
                    want,
                    "{} on {} in the grid at pool {pool}",
                    trav.name(),
                    sys.label()
                );
            }
        }
        // EMOGI reads at most 128 B per request, so a level that fetched
        // more than 16 Ki × 128 B was fed in several windows.
        let widest = rayon::with_num_threads(1, || trav.run(&g, &systems[0]))
            .levels
            .iter()
            .map(|l| l.fetched_bytes)
            .max()
            .unwrap();
        assert!(widest > 16 * 1024 * 128, "{}: widest level {widest} B", trav.name());
    }
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
