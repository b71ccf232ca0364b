//! End-to-end determinism and serialization: identical configurations
//! must produce bit-identical results across runs and across rayon
//! parallelism, and every public config/report type must round-trip
//! through serde.

use cxl_gpu_graph::core::runner::{sweep, sweep_systems, sweep_with_threads};
use cxl_gpu_graph::core::system::SystemConfig as Sys;
use cxl_gpu_graph::prelude::*;
use proptest::prelude::*;

#[test]
fn full_stack_repeatability() {
    let spec = GraphSpec::kron(11).seed(99);
    let g1 = spec.build();
    let g2 = spec.build();
    assert_eq!(g1, g2, "graph generation must be deterministic");

    let sys = Sys::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(1.5);
    let src = g1.max_degree_vertex().unwrap();
    for trav in [
        Traversal::bfs(src),
        Traversal::sssp(src),
        Traversal::pagerank(2),
    ] {
        let a = trav.run(&g1, &sys);
        let b = trav.run(&g2, &sys);
        assert_eq!(a.metrics.runtime, b.metrics.runtime, "{}", trav.name());
        assert_eq!(a.metrics.fetched_bytes, b.metrics.fetched_bytes);
        assert_eq!(a.metrics.requests, b.metrics.requests);
        assert_eq!(a.reached, b.reached);
        assert_eq!(a.levels.len(), b.levels.len());
    }
}

#[test]
fn parallel_sweep_equals_sequential_run() {
    let g = GraphSpec::urand(11).seed(5).build();
    let systems: Vec<Sys> = (0..6)
        .map(|i| Sys::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(i as f64 * 0.5))
        .collect();
    let par = sweep_systems(&g, Traversal::bfs(0), &systems);
    for (i, sys) in systems.iter().enumerate() {
        let seq = Traversal::bfs(0).run(&g, sys);
        assert_eq!(par[i].metrics.runtime, seq.metrics.runtime, "point {i}");
    }
}

#[test]
fn full_stack_is_byte_identical_across_thread_counts() {
    // Generator -> CSR -> sweep, serialized exactly as the figure
    // binaries serialize it, compared across pool sizes. This is the
    // in-process version of ci.sh's cross-thread-count JSON diff.
    let run = |threads: usize| {
        rayon::with_num_threads(threads, || {
            let g = GraphSpec::kron(10).seed(42).build();
            let systems: Vec<Sys> = (0..5)
                .map(|i| Sys::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(i as f64 * 0.4))
                .collect();
            let reports = sweep_systems(&g, Traversal::bfs(g.max_degree_vertex().unwrap()), &systems);
            serde_json::to_string(&reports).expect("serialize sweep reports")
        })
    };
    let reference = run(1);
    for threads in [2, 8] {
        assert_eq!(
            run(threads),
            reference,
            "sweep JSON differs between 1 and {threads} threads"
        );
    }
}

#[test]
fn nested_parallel_sweeps_are_stable() {
    // Sweep of sweeps — the shape fig11 uses. Run twice, compare.
    let run_all = || {
        sweep(vec![0.0f64, 1.0, 2.0], |add| {
            let g = GraphSpec::urand(10).seed(1).build();
            let sys = Sys::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(add);
            Traversal::bfs(0).run(&g, &sys).metrics.runtime.as_ps()
        })
    };
    assert_eq!(run_all(), run_all());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The engine's round-shard simulation under the same property sweep
    /// the graph pipeline gets: any family × scale × seed, every worker
    /// count must yield identical `RunMetrics` *and* identical trace
    /// bytes. The trace kernels are sequential, so the trace half pins
    /// that no thread-dependent path creeps back in.
    #[test]
    fn parallel_engine_and_traversal_are_thread_count_invariant(
        fam in 0u8..3,
        scale in 7u32..11,
        seed in 0u64..1_000_000,
        sys_pick in 0u8..4,
    ) {
        let spec = match fam {
            0 => GraphSpec::urand(scale),
            1 => GraphSpec::kron(scale),
            _ => GraphSpec::friendster_like(scale),
        }
        .seed(seed);
        let sys = match sys_pick {
            0 => Sys::emogi_on_dram(PcieGen::Gen4),
            1 => Sys::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(1.0),
            2 => Sys::bam_on_nvme(PcieGen::Gen4, 4),
            _ => Sys::xlfdd(PcieGen::Gen4, 16),
        };
        let observe = |threads: usize| {
            rayon::with_num_threads(threads, || {
                let g = spec.build();
                let src = g.max_degree_vertex().unwrap();
                let trace = cxl_gpu_graph::core::traversal::bfs_trace(&g, src);
                let reports: Vec<_> = [Traversal::bfs(src), Traversal::sssp(src)]
                    .iter()
                    .map(|t| t.run(&g, &sys))
                    .collect();
                (
                    serde_json::to_string(&trace).unwrap(),
                    serde_json::to_string(&reports).unwrap(),
                )
            })
        };
        let reference = observe(1);
        for threads in [2, 8] {
            let got = observe(threads);
            assert_eq!(got.0, reference.0, "trace bytes differ at {threads} threads");
            assert_eq!(got.1, reference.1, "run reports differ at {threads} threads");
        }
    }
}

#[test]
fn sweep_with_threads_pins_the_pool_and_preserves_results() {
    // The campaign knob: the same sweep through an explicit pool size
    // must match the ambient-pool run bit-for-bit, whatever the size.
    let g = GraphSpec::kron(10).seed(3).build();
    let src = g.max_degree_vertex().unwrap();
    let points: Vec<f64> = vec![0.0, 0.8, 1.6, 2.4];
    let run = |threads: usize| {
        sweep_with_threads(threads, points.clone(), |add| {
            let sys = Sys::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(add);
            Traversal::bfs(src).run(&g, &sys).metrics.runtime.as_ps()
        })
    };
    let ambient = sweep(points.clone(), |add| {
        let sys = Sys::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(add);
        Traversal::bfs(src).run(&g, &sys).metrics.runtime.as_ps()
    });
    for threads in [1, 2, 8] {
        assert_eq!(run(threads), ambient, "sweep_with_threads({threads})");
    }
}

#[test]
fn configs_serde_round_trip() {
    let sys = Sys::xlfdd(PcieGen::Gen4, 16).with_alignment(64);
    let json = serde_json::to_string(&sys).unwrap();
    let back: Sys = serde_json::from_str(&json).unwrap();
    assert_eq!(sys, back);

    let spec = GraphSpec::friendster_like(20).seed(7);
    let json = serde_json::to_string(&spec).unwrap();
    assert_eq!(spec, serde_json::from_str::<GraphSpec>(&json).unwrap());
}

#[test]
fn reports_serialize_for_the_results_dump() {
    let g = GraphSpec::urand(9).seed(1).build();
    let r = Traversal::bfs(0).run(&g, &Sys::emogi_on_dram(PcieGen::Gen4));
    let json = serde_json::to_string(&r).unwrap();
    assert!(json.contains("\"runtime\""));
    assert!(json.contains("\"levels\""));
    let back: cxl_gpu_graph::core::metrics::RunReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.reached, r.reached);
    assert_eq!(back.metrics.fetched_bytes, r.metrics.fetched_bytes);
}

#[test]
fn different_seeds_change_results_but_not_shape() {
    let sys = Sys::emogi_on_dram(PcieGen::Gen4);
    let a = Traversal::bfs(0).run(&GraphSpec::urand(11).seed(1).build(), &sys);
    let b = Traversal::bfs(0).run(&GraphSpec::urand(11).seed(2).build(), &sys);
    assert_ne!(a.metrics.runtime, b.metrics.runtime);
    // Same scale and degree: totals agree within level-structure noise
    // (small graphs can differ by a BFS level).
    let ra = a.metrics.runtime.as_secs_f64();
    let rb = b.metrics.runtime.as_secs_f64();
    assert!((ra / rb - 1.0).abs() < 0.25, "{ra} vs {rb}");
}

#[test]
fn spill_storage_is_byte_identical_to_mem_across_the_stack() {
    // The out-of-core graph backend is an execution strategy, not a
    // result input: the exact serialized reports the figure binaries
    // dump must come out byte-for-byte the same whether the CSR lives
    // in memory or is demand-paged from a spill file — at any thread
    // count. This is the in-process version of ci.sh's spill-campaign
    // byte-diff gate.
    use cxl_gpu_graph::graph::{SpillConfig, StorageMode};
    let spec = GraphSpec::kron(10).seed(42);
    let dir = std::env::temp_dir().join(format!("cxlg-spill-diff-{}", std::process::id()));
    let cfg = SpillConfig::new(&dir);
    let mem = spec.build_with(StorageMode::Mem, &cfg);
    let spill = spec.build_with(StorageMode::Spill, &cfg);
    assert_eq!(mem.fingerprint(), spill.fingerprint(), "backends must hold the same graph");

    let systems: Vec<Sys> = (0..4)
        .map(|i| Sys::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(i as f64 * 0.4))
        .collect();
    let src = mem.max_degree_vertex().unwrap();
    let reference: Vec<String> = [Traversal::bfs(src), Traversal::sssp(src), Traversal::pagerank(2)]
        .into_iter()
        .map(|t| serde_json::to_string(&sweep_systems(&mem, t, &systems)).unwrap())
        .collect();
    for threads in [1usize, 2, 8] {
        let got: Vec<String> = rayon::with_num_threads(threads, || {
            [Traversal::bfs(src), Traversal::sssp(src), Traversal::pagerank(2)]
                .into_iter()
                .map(|t| serde_json::to_string(&sweep_systems(&spill, t, &systems)).unwrap())
                .collect()
        });
        assert_eq!(got, reference, "spill reports diverge at {threads} thread(s)");
    }
    drop(spill);
    let _ = std::fs::remove_dir(&dir);
}
