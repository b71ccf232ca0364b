//! The paper's headline findings as executable assertions. Each test
//! corresponds to a figure or observation; EXPERIMENTS.md records the
//! measured numbers. Scales are small so the suite stays fast; the
//! bench binaries rerun the same experiments at larger scale.

use cxl_gpu_graph::core::microbench::{cxl_cpu_random_read, pointer_chase_latency};
use cxl_gpu_graph::core::raf::{default_capacity, raf_for_trace};
use cxl_gpu_graph::core::metrics::geometric_mean;
use cxl_gpu_graph::core::traversal::bfs_trace;
use cxl_gpu_graph::device::cxl_mem::CxlMemConfig;
use cxl_gpu_graph::prelude::*;

// Scale floor: the XLFDD flash-die model needs enough 4 kB pages per
// drive (edge list >= ~16 MB over 16 drives) for die-level load to
// balance the way it does at the paper's 30 GB scale; below that, die
// contention is a small-scale artifact rather than a property of the
// system.
const SCALE: u32 = 15;

fn urand() -> Csr {
    GraphSpec::urand(SCALE).seed(0x5EED).build()
}

#[test]
fn observation1_smaller_alignment_is_better() {
    // Fig. 5: XLFDD runtime increases monotonically with alignment, and
    // 16 B lands close to EMOGI on host DRAM.
    let g = urand();
    let bfs = Traversal::bfs(0);
    let emogi = bfs.run(&g, &SystemConfig::emogi_on_dram(PcieGen::Gen4));
    let base = emogi.metrics.runtime.as_secs_f64();
    let mut last = 0.0;
    for a in [16u64, 64, 256, 4096] {
        let r = bfs.run(&g, &SystemConfig::xlfdd(PcieGen::Gen4, 16).with_alignment(a));
        let norm = r.metrics.runtime.as_secs_f64() / base;
        assert!(
            norm >= last * 0.98,
            "alignment {a}: normalized {norm} < previous {last}"
        );
        last = norm;
        if a == 16 {
            assert!(
                (0.8..1.4).contains(&norm),
                "16 B XLFDD should approach host DRAM (paper ~1.1x), got {norm}"
            );
        }
        if a == 4096 {
            assert!(norm > 1.7, "4 kB should be much slower: {norm}");
        }
    }
}

#[test]
fn fig6_ranking_xlfdd_beats_bam() {
    // Fig. 6: XLFDD (16 B) is much closer to EMOGI than BaM on every
    // dataset/algorithm pair; paper geomeans 1.13x vs 2.76x.
    let datasets = [
        GraphSpec::urand(SCALE).seed(1),
        GraphSpec::kron(SCALE).seed(1),
        GraphSpec::friendster_like(SCALE).seed(1),
    ];
    let mut xl_ratios = Vec::new();
    let mut bam_ratios = Vec::new();
    for spec in datasets {
        let g = spec.build();
        let src = g.max_degree_vertex().unwrap();
        for trav in [Traversal::bfs(src), Traversal::sssp(src)] {
            let base = trav
                .run(&g, &SystemConfig::emogi_on_dram(PcieGen::Gen4))
                .metrics
                .runtime
                .as_secs_f64();
            let xl = trav.run(&g, &SystemConfig::xlfdd(PcieGen::Gen4, 16));
            let bam = trav.run(&g, &SystemConfig::bam_on_nvme(PcieGen::Gen4, 4));
            xl_ratios.push(xl.metrics.runtime.as_secs_f64() / base);
            bam_ratios.push(bam.metrics.runtime.as_secs_f64() / base);
        }
    }
    let xl_geo = geometric_mean(&xl_ratios);
    let bam_geo = geometric_mean(&bam_ratios);
    assert!(
        xl_geo < bam_geo,
        "XLFDD ({xl_geo:.2}) must beat BaM ({bam_geo:.2})"
    );
    assert!(
        (0.8..1.8).contains(&xl_geo),
        "XLFDD geomean {xl_geo:.2} (paper 1.13)"
    );
    assert!(
        (1.6..4.5).contains(&bam_geo),
        "BaM geomean {bam_geo:.2} (paper 2.76)"
    );
}

#[test]
fn observation2_latency_knee_near_allowance() {
    // Fig. 11: flat while under the Eq. 6 allowance, degraded at +3 us.
    let g = urand();
    let bfs = Traversal::bfs(0);
    let dram = bfs.run(&g, &SystemConfig::emogi_on_dram(PcieGen::Gen3));
    let ratio = |add: f64| {
        let sys = SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(add);
        bfs.run(&g, &sys).metrics.runtime.as_secs_f64() / dram.metrics.runtime.as_secs_f64()
    };
    assert!(ratio(0.0) < 1.05);
    assert!(ratio(0.5) < 1.10);
    assert!(ratio(3.0) > 1.6);
}

#[test]
fn fig9_latency_ladder() {
    // DRAM ~1.1 us < CXL(+0) ~1.6 us < CXL(+2) ~3.5 us, far socket
    // marginally above near.
    let region = 1 << 24;
    let dram = pointer_chase_latency(
        &SystemConfig::emogi_on_dram(PcieGen::Gen4),
        region,
        300,
        1,
    )
    .latency_us;
    let dram_far = pointer_chase_latency(
        &SystemConfig::emogi_on_dram(PcieGen::Gen4).on_far_socket(),
        region,
        300,
        1,
    )
    .latency_us;
    let cxl0 = pointer_chase_latency(
        &SystemConfig::emogi_on_cxl(PcieGen::Gen4, 1),
        region,
        300,
        1,
    )
    .latency_us;
    let cxl2 = pointer_chase_latency(
        &SystemConfig::emogi_on_cxl(PcieGen::Gen4, 1).with_added_latency_us(2.0),
        region,
        300,
        1,
    )
    .latency_us;
    assert!((1.0..1.35).contains(&dram), "DRAM {dram}");
    assert!(dram_far > dram && dram_far - dram < 0.25, "far {dram_far}");
    assert!((0.35..0.75).contains(&(cxl0 - dram)), "CXL adds {}", cxl0 - dram);
    assert!(cxl2 > cxl0 + 1.5, "bridge shift {} -> {}", cxl0, cxl2);
}

#[test]
fn fig10_throughput_cap_and_decay() {
    let t = |add: f64| {
        cxl_cpu_random_read(
            CxlMemConfig::default().with_added_latency_us(add),
            1 << 28,
            30_000,
            512,
            3,
        )
    };
    let base = t(0.0);
    let mid = t(2.0);
    let slow = t(8.0);
    assert!((base.throughput_mb_per_sec - 5_700.0).abs() / 5_700.0 < 0.05);
    assert!(mid.throughput_mb_per_sec < base.throughput_mb_per_sec);
    assert!(slow.throughput_mb_per_sec < 1_200.0, "{}", slow.throughput_mb_per_sec);
    // Outstanding pinned at the 128-tag limit throughout saturation.
    assert!((slow.outstanding - 128.0).abs() < 12.0);
}

#[test]
fn fig3_raf_shape_replicated() {
    // RAF near 1 at 8 B, meaningfully above 1 at 4 kB, monotone.
    let g = urand();
    let trace = bfs_trace(&g, 0);
    let r8 = raf_for_trace(&g, &trace, 8, default_capacity(&g, 8));
    let r512 = raf_for_trace(&g, &trace, 512, default_capacity(&g, 512));
    let r4k = raf_for_trace(&g, &trace, 4096, default_capacity(&g, 4096));
    assert!(r8.raf <= 1.01, "{}", r8.raf);
    assert!(r512.raf > r8.raf);
    assert!(r4k.raf > r512.raf);
    assert!(r4k.raf > 1.5 && r4k.raf < 20.0, "{}", r4k.raf);
}

#[test]
fn table2_frontier_profile() {
    // §3.5.1: most BFS depths carry frontiers far larger than Nmax.
    let g = urand();
    let trace = bfs_trace(&g, 0);
    let big_levels = trace.iter().filter(|l| l.len() > 768).count();
    assert!(
        big_levels >= 2,
        "expected multiple levels above Nmax, got {big_levels}"
    );
    let peak = trace.iter().map(|l| l.len()).max().unwrap();
    assert!(peak > g.num_vertices() / 4);
}

#[test]
fn extensions_run_end_to_end() {
    // PageRank and CC (Discussion-section extensions) run on every
    // backend without panicking and with sane metrics.
    let g = GraphSpec::kron(10).seed(2).build();
    for sys in [
        SystemConfig::emogi_on_dram(PcieGen::Gen4),
        SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5),
        SystemConfig::xlfdd(PcieGen::Gen4, 16),
    ] {
        let pr = Traversal::pagerank(2).run(&g, &sys);
        assert_eq!(pr.levels.len(), 2);
        assert!(pr.metrics.raf() >= 0.9);
        let cc = Traversal::connected_components().run(&g, &sys);
        assert!(cc.reached >= 1, "at least one component");
    }
}

#[test]
fn pagerank_is_less_alignment_sensitive_than_bfs() {
    // Sequential sweeps amortize large cache lines across adjacent
    // sublists — the reason Graphene-style systems tolerate big blocks
    // for PageRank (Related Work) while random-access BFS does not.
    // Measured through the caching (BaM) access method at 4 kB lines.
    let g = urand();
    let sys = SystemConfig::bam_on_nvme(PcieGen::Gen4, 4); // 4 kB lines
    let bfs_raf = Traversal::bfs(0).run(&g, &sys).metrics.raf();
    let pr_raf = Traversal::pagerank(1).run(&g, &sys).metrics.raf();
    assert!(
        pr_raf < bfs_raf,
        "sequential PageRank RAF {pr_raf:.2} should undercut BFS {bfs_raf:.2}"
    );
    assert!(pr_raf < 1.6, "sequential sweep should be near RAF 1: {pr_raf:.2}");
}
