//! Criterion bench for the PR 6 hot loop: the round-shard parallel
//! simulation path (`engine::simulate_shards` + `merge_shard_metrics`)
//! against the legacy coupled single-engine chain, across worker
//! counts. The sharded path must win wall-clock on multi-core while
//! producing results the differential suite pins byte-identical.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cxlg_core::access::DeviceRequest;
use cxlg_core::engine;
use cxlg_core::system::SystemConfig;
use cxlg_core::traversal::Traversal;
use cxlg_graph::spec::GraphSpec;
use cxlg_link::pcie::PcieGen;
use cxlg_sim::SimTime;

/// A traversal-shaped batch list: frontier ramps up then collapses, the
/// same skew real BFS levels have (one huge middle level dominates).
fn level_batches() -> Vec<Vec<DeviceRequest>> {
    [50usize, 2_000, 30_000, 8_000, 400, 10]
        .iter()
        .map(|&n| {
            (0..n)
                .map(|i| DeviceRequest {
                    addr: i as u64 * 128,
                    bytes: 128,
                })
                .collect()
        })
        .collect()
}

fn bench_shards_vs_coupled(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_shards");
    g.sample_size(10);
    let batches = level_batches();
    let total: u64 = batches.iter().map(|b| b.len() as u64).sum();
    g.throughput(Throughput::Elements(total));
    let sys = SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5);

    g.bench_function("coupled", |b| {
        b.iter(|| {
            let mut eng = sys.build_engine();
            let mut t = SimTime::ZERO;
            for reqs in &batches {
                t = eng.run_batch(t, reqs).end;
            }
            eng.finish().runtime
        })
    });
    for workers in [1usize, 2, 8] {
        g.bench_with_input(
            BenchmarkId::new("sharded", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    rayon::with_num_threads(workers, || {
                        let outcomes =
                            engine::simulate_shards(|| sys.build_engine(), &batches);
                        engine::merge_shard_metrics(&outcomes).runtime
                    })
                })
            },
        );
    }
    g.finish();
}

fn bench_full_traversal(c: &mut Criterion) {
    let mut g = c.benchmark_group("traversal_run");
    g.sample_size(10);
    let graph = GraphSpec::friendster_like(14).seed(0x5EED).build();
    let src = graph.max_degree_vertex().unwrap();
    let sys = SystemConfig::xlfdd(PcieGen::Gen4, 16);
    // One worker is the sequential oracle: the shard policy plans and
    // simulates the levels one after another.
    for workers in [1usize, 2, 8] {
        g.bench_with_input(
            BenchmarkId::new("sssp", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    rayon::with_num_threads(workers, || {
                        Traversal::sssp(src).run(&graph, &sys).metrics.runtime
                    })
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_shards_vs_coupled, bench_full_traversal);
criterion_main!(benches);
