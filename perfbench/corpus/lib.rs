//! Layer-by-layer benchmark of the CXL GPU graph simulator.
//!
//! Four workloads drive the program through its public entry points only
//! (`GraphSpec::build_with`, `Traversal::run` on `SystemConfig` presets,
//! and `cxlg_bench::cli::run_experiments`). A separate traced run wraps
//! the public call into each layer ([`pipeline`]) to split host time into
//! graph, storage, trace, plan and engine layers. See `README.md` beside
//! this package for the workload × layer table.
//!
//! Simulated quantities are named `sim_*` (or carry a `sim_` unit such as
//! `engine.sim_us`); every other time is host time.

pub mod pipeline;

use cxlg_core::metrics::RunReport;
use cxlg_core::system::SystemConfig;
use cxlg_core::traversal::Traversal;
use cxlg_graph::{GraphSpec, VertexId};
use cxlg_link::pcie::PcieGen;

/// Worker threads the benchmark lets the program use, whatever the host
/// offers. One, not the two cores a small host has: with two workers the
/// peak RSS of one run varies by up to a fifth from the next (freed shard
/// memory stays in per-thread allocator arenas, and which shards overlap
/// depends on scheduling), while with one it repeats within about 2%.
/// The sharded engine path still runs, on a one-thread pool.
pub const THREADS: usize = 1;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 11 grid on `urand` and `kron`: DRAM baseline plus CXL at
    /// seven added latencies, BFS and SSSP (sharded engine path).
    LatencySweep,
    /// A Friendster-like graph on XLFDD and BaM/NVMe (coupled engine
    /// path, flash media, software-cache planning).
    FlashSocial,
    /// `urand` built into a `SpillCsr`: PageRank, CC and UVM BFS read it
    /// through the demand-paged storage layer.
    SpillSequential,
    /// Every registered experiment through `run_experiments`, then the
    /// fidelity engine over its output.
    Campaign,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::LatencySweep,
        Workload::FlashSocial,
        Workload::SpillSequential,
        Workload::Campaign,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LatencySweep => "latency-sweep",
            Workload::FlashSocial => "flash-social",
            Workload::SpillSequential => "spill-sequential",
            Workload::Campaign => "campaign",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// log2 vertex count of the workload's graphs, sized so one
    /// set-up plus one timed pass takes under two seconds on a 2-core
    /// host and a 20 s run holds nine or more of them.
    pub fn scale(self) -> u32 {
        match self {
            Workload::LatencySweep => 14,
            Workload::FlashSocial => 16,
            Workload::SpillSequential => 17,
            Workload::Campaign => 12,
        }
    }
}

/// The algorithm of one job. The source vertex is the graph's
/// max-degree vertex, known only once the graph is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Algo {
    /// Breadth-first search.
    Bfs,
    /// Single-source shortest path (weights in `[1, 64]`).
    Sssp,
    /// PageRank with the given number of sweeps.
    PageRank(u32),
    /// Connected components.
    Cc,
}

impl Algo {
    /// The traversal from `source` (ignored by PageRank and CC).
    pub fn traversal(self, source: VertexId) -> Traversal {
        match self {
            Algo::Bfs => Traversal::bfs(source),
            Algo::Sssp => Traversal::sssp(source),
            Algo::PageRank(iterations) => Traversal::pagerank(iterations),
            Algo::Cc => Traversal::connected_components(),
        }
    }
}

/// One traversal of a workload: which graph, which algorithm, which
/// simulated system.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Index into [`JobList::specs`].
    pub graph: usize,
    /// Algorithm.
    pub algo: Algo,
    /// Simulated machine.
    pub sys: SystemConfig,
}

/// The graphs and traversals of one workload — a pure function of the
/// workload, seed and scale.
#[derive(Debug, Clone, PartialEq)]
pub struct JobList {
    /// Graphs built in set-up, in build order.
    pub specs: Vec<GraphSpec>,
    /// Whether the graphs are built into the spill backend.
    pub spill: bool,
    /// Traversals of one pass, in run order.
    pub jobs: Vec<Job>,
}

/// The Fig. 11 grid over `graphs` graphs: for each graph, BFS then SSSP,
/// each on `emogi_on_dram(Gen3)` and then on `emogi_on_cxl(Gen3, 5)` at
/// 0, 0.5, …, 3.0 µs of added latency.
pub fn fig11_jobs(graphs: usize) -> Vec<Job> {
    let mut jobs = Vec::new();
    for graph in 0..graphs {
        for algo in [Algo::Bfs, Algo::Sssp] {
            jobs.push(Job {
                graph,
                algo,
                sys: SystemConfig::emogi_on_dram(PcieGen::Gen3),
            });
            for step in 0..7 {
                jobs.push(Job {
                    graph,
                    algo,
                    sys: SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5)
                        .with_added_latency_us(step as f64 * 0.5),
                });
            }
        }
    }
    jobs
}

/// The job list of `workload` at `seed` and `scale`. For the campaign
/// this is the traced replay of fig11's grid over the paper trio; the
/// campaign itself runs through `run_experiments`.
pub fn job_list(workload: Workload, seed: u64, scale: u32) -> JobList {
    match workload {
        Workload::LatencySweep => JobList {
            specs: vec![
                GraphSpec::urand(scale).seed(seed),
                GraphSpec::kron(scale).seed(seed),
            ],
            spill: false,
            jobs: fig11_jobs(2),
        },
        Workload::FlashSocial => {
            let mut jobs = Vec::new();
            for sys in [
                SystemConfig::xlfdd(PcieGen::Gen4, 16),
                SystemConfig::bam_on_nvme(PcieGen::Gen4, 4),
            ] {
                for algo in [Algo::Sssp, Algo::Bfs] {
                    jobs.push(Job {
                        graph: 0,
                        algo,
                        sys,
                    });
                }
            }
            JobList {
                specs: vec![GraphSpec::friendster_like(scale).seed(seed)],
                spill: false,
                jobs,
            }
        }
        Workload::SpillSequential => JobList {
            specs: vec![GraphSpec::urand(scale).seed(seed)],
            spill: true,
            jobs: vec![
                Job {
                    graph: 0,
                    algo: Algo::PageRank(2),
                    sys: SystemConfig::emogi_on_dram(PcieGen::Gen4),
                },
                Job {
                    graph: 0,
                    algo: Algo::Cc,
                    sys: SystemConfig::emogi_on_cxl(PcieGen::Gen4, 5),
                },
                Job {
                    graph: 0,
                    algo: Algo::Bfs,
                    sys: SystemConfig::uvm_on_dram(PcieGen::Gen4),
                },
            ],
        },
        Workload::Campaign => JobList {
            specs: GraphSpec::paper_trio(scale)
                .into_iter()
                .map(|s| s.seed(seed))
                .collect(),
            spill: false,
            jobs: fig11_jobs(3),
        },
    }
}

/// Fraction of jobs whose (graph, algorithm) pair an earlier job of the
/// same pass already traced — the share a trace memo could skip.
pub fn repeat_share(jobs: &[Job]) -> f64 {
    if jobs.is_empty() {
        return 0.0;
    }
    let mut seen = std::collections::BTreeSet::new();
    let repeats = jobs
        .iter()
        .filter(|j| !seen.insert((j.graph, j.algo)))
        .count();
    repeats as f64 / jobs.len() as f64
}

/// 64-bit FNV-1a, the hash behind `sim_digest`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Hash `bytes` into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hash one little-endian `u64`.
    pub fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Hash every simulated quantity of one traversal that `sim_digest`
/// covers: requests, fetched bytes, simulated runtime in ps, reached
/// count and per-level fetched bytes.
pub fn digest_report(h: &mut Fnv1a, r: &RunReport) {
    h.write_u64(r.metrics.requests);
    h.write_u64(r.metrics.fetched_bytes);
    h.write_u64(r.metrics.runtime.as_ps());
    h.write_u64(r.reached);
    h.write_u64(r.levels.len() as u64);
    for level in &r.levels {
        h.write_u64(level.fetched_bytes);
    }
}

/// Median of `xs` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// End-to-end metrics, printed with `--trace 0`: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics of the traversal layers, printed with `--trace 1`
/// ahead of the campaign layer's: (name, unit).
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("graph.build_s", "s"),
    ("graph.arcs", "count"),
    ("graph.arcs_per_s", "1/s"),
    ("graph.peak_bytes_per_arc", "B/arc"),
    ("storage.resident_bytes", "B"),
    ("storage.on_disk_bytes", "B"),
    ("storage.sweep_s", "s"),
    ("storage.sweep_arcs_per_s", "1/s"),
    ("trace.s", "s"),
    ("trace.calls", "count"),
    ("trace.repeat_share", "ratio"),
    ("trace.levels", "count"),
    ("trace.frontier_vertices", "count"),
    ("trace.vertices_per_s", "1/s"),
    ("plan.s", "s"),
    ("plan.requests", "count"),
    ("plan.requests_per_s", "1/s"),
    ("plan.cache_hits", "count"),
    ("plan.hit_ratio", "ratio"),
    ("plan.raf", "ratio"),
    ("plan.peak_resident_bytes", "B"),
    ("engine.s", "s"),
    ("engine.requests", "count"),
    ("engine.requests_per_s", "1/s"),
    ("engine.batches", "count"),
    ("engine.sim_us", "sim_us"),
    ("engine.credit_utilization", "ratio"),
    ("engine.peak_outstanding", "count"),
    ("traced.layer_share", "ratio"),
];

/// Every per-layer metric, in output order: the traversal layers, one
/// `campaign.<experiment>_s` per registered experiment, then the
/// campaign's build count and fidelity verdicts.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_METRICS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for name in cxlg_bench::registry::names() {
        out.push((format!("campaign.{name}_s"), "s"));
    }
    out.push(("campaign.graph_builds".to_string(), "count"));
    for verdict in ["pass", "flag", "skip"] {
        out.push((format!("fidelity.{verdict}"), "count"));
    }
    out
}
