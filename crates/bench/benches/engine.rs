//! Criterion benches of the discrete-event execution core: events per
//! second under each backend, and batch-size scaling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cxlg_core::access::DeviceRequest;
use cxlg_core::system::SystemConfig;
use cxlg_link::pcie::PcieGen;
use cxlg_sim::SimTime;

fn uniform_requests(n: usize, bytes: u64) -> Vec<DeviceRequest> {
    (0..n)
        .map(|i| DeviceRequest {
            addr: i as u64 * 4096,
            bytes,
        })
        .collect()
}

fn bench_backends(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_batch");
    g.sample_size(10);
    let n = 20_000;
    g.throughput(Throughput::Elements(n as u64));
    for (label, sys) in [
        ("dram", SystemConfig::emogi_on_dram(PcieGen::Gen4)),
        ("cxl5", SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5)),
        ("xlfdd16", SystemConfig::xlfdd(PcieGen::Gen4, 16)),
        ("nvme4", SystemConfig::bam_on_nvme(PcieGen::Gen4, 4)),
    ] {
        let reqs = uniform_requests(n, 128);
        g.bench_function(BenchmarkId::new("backend", label), |b| {
            b.iter(|| {
                let mut engine = sys.build_engine();
                engine.run_batch(SimTime::ZERO, &reqs).end
            })
        });
    }
    g.finish();
}

fn bench_batch_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_scaling");
    g.sample_size(10);
    let sys = SystemConfig::emogi_on_dram(PcieGen::Gen4);
    for n in [1_000usize, 10_000, 100_000] {
        let reqs = uniform_requests(n, 96);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &reqs, |b, reqs| {
            b.iter(|| {
                let mut engine = sys.build_engine();
                engine.run_batch(SimTime::ZERO, reqs).end
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_backends, bench_batch_scaling);
criterion_main!(benches);
