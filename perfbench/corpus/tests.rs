//! The benchmark's own checks, on tiny graphs.

use cxlg_core::system::SystemConfig;
use cxlg_graph::GraphSpec;
use cxlg_link::pcie::PcieGen;
use perfbench::pipeline::{run_traced, Layers, Recomposed};
use perfbench::{job_list, per_layer_metrics, repeat_share, Algo, Workload, END_TO_END};

/// The five `SystemConfig` presets: two quiescent memory backends on
/// the sharded path, UVM, and the two flash backends on the coupled
/// chain.
fn presets() -> [SystemConfig; 5] {
    [
        SystemConfig::emogi_on_dram(PcieGen::Gen4),
        SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(1.5),
        SystemConfig::uvm_on_dram(PcieGen::Gen4),
        SystemConfig::xlfdd(PcieGen::Gen4, 16),
        SystemConfig::bam_on_nvme(PcieGen::Gen4, 4),
    ]
}

#[test]
fn recomposed_pipeline_equals_traversal_run_on_every_preset() {
    let g = GraphSpec::kron(9).seed(3).build();
    let src = g.max_degree_vertex().unwrap();
    let presets = presets();
    assert!(presets.iter().any(|s| s.backend.quiesces_between_batches()));
    assert!(presets
        .iter()
        .any(|s| !s.backend.quiesces_between_batches()));
    for sys in &presets {
        for algo in [Algo::Bfs, Algo::Sssp, Algo::PageRank(2), Algo::Cc] {
            let trav = algo.traversal(src);
            let mut layers = Layers::default();
            let got = run_traced(&trav, &g, sys, &mut layers);
            let want = Recomposed::of(&trav.run(&g, sys));
            assert_eq!(got, want, "{algo:?} on {}", sys.label());
            assert_eq!(layers.trace_calls, 1);
            assert_eq!(layers.plan_requests, want.requests);
            assert_eq!(layers.engine_requests, want.requests);
            assert_eq!(layers.planned_bytes, want.fetched_bytes);
            assert_eq!(layers.batches as usize, want.level_fetched.len());
            assert_eq!(layers.sim_ps, want.runtime_ps);
        }
    }
}

#[test]
fn recomposed_pipeline_reads_spill_graphs_like_memory_graphs() {
    let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
    let spec = GraphSpec::urand(9).seed(5);
    let spill = spec.build_with(
        cxlg_graph::StorageMode::Spill,
        &cxlg_graph::SpillConfig::new(&dir),
    );
    let mem = spec.build();
    assert_eq!(spill.fingerprint(), mem.fingerprint());
    let sys = SystemConfig::uvm_on_dram(PcieGen::Gen4);
    let trav = Algo::Bfs.traversal(0);
    let a = run_traced(&trav, &spill, &sys, &mut Layers::default());
    let b = run_traced(&trav, &mem, &sys, &mut Layers::default());
    assert_eq!(a, b);
    drop(spill);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn job_lists_and_repeat_shares_are_pure_functions_of_the_seed() {
    for w in Workload::ALL {
        for seed in [0, 1, 7, 0x5EED, u64::MAX] {
            let a = job_list(w, seed, 8);
            let b = job_list(w, seed, 8);
            assert_eq!(a, b, "{} seed {seed}", w.name());
            assert!(a.specs.iter().all(|s| s.seed == seed && s.scale == 8));
            assert_eq!(repeat_share(&a.jobs), repeat_share(&b.jobs));
            // Only the graphs depend on the seed, not the traversals.
            assert_eq!(a.jobs, job_list(w, seed ^ 1, 8).jobs);
        }
    }
    let share = |w| repeat_share(&job_list(w, 1, 8).jobs);
    assert_eq!(share(Workload::LatencySweep), 7.0 / 8.0);
    assert_eq!(share(Workload::FlashSocial), 0.5);
    assert_eq!(share(Workload::SpillSequential), 0.0);
    assert_eq!(share(Workload::Campaign), 7.0 / 8.0);
    assert_eq!(job_list(Workload::LatencySweep, 1, 8).jobs.len(), 32);
}

#[test]
fn workload_names_round_trip() {
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    assert_eq!(Workload::parse("hit"), None);
}

/// `BENCHMARK.json` at the repository root must declare exactly the
/// metrics the binary prints, with the same units.
#[test]
fn benchmark_json_declares_the_printed_metrics() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let v: serde::Value = serde_json::from_str(&text).expect("parse BENCHMARK.json");
    let field = |m: &serde::Value, key: &str| match m {
        serde::Value::Map(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()),
        _ => None,
    };
    let declared = |key: &str| -> Vec<(String, String)> {
        let Some(serde::Value::Array(list)) = field(&v, key) else {
            panic!("BENCHMARK.json lacks {key}")
        };
        list.iter()
            .map(|m| match (field(m, "name"), field(m, "unit")) {
                (Some(serde::Value::Str(n)), Some(serde::Value::Str(u))) => (n, u),
                _ => panic!("{key} entry lacks name or unit"),
            })
            .collect()
    };
    let owned = |xs: Vec<(String, &str)>| -> Vec<(String, String)> {
        xs.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    };
    assert_eq!(
        declared("end_to_end"),
        owned(
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        )
    );
    assert_eq!(declared("per_layer"), owned(per_layer_metrics()));
    let Some(serde::Value::Array(workloads)) = field(&v, "workloads") else {
        panic!("BENCHMARK.json lacks workloads")
    };
    let names: Vec<_> = workloads.iter().filter_map(|w| field(w, "name")).collect();
    let expected: Vec<_> = Workload::ALL
        .iter()
        .map(|w| serde::Value::Str(w.name().to_string()))
        .collect();
    assert_eq!(names, expected);
}
