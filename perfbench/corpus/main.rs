//! `perfbench` — run one workload, check its outputs, print its metrics.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! A run repeats (set-up, timed pass) until `--seconds` of host time have
//! gone into them, at least three times, and reports medians. With
//! `--trace 0` it prints the end-to-end metrics. With `--trace 1` each
//! repetition also sweeps the storage layer and runs the traced pipeline,
//! and the run prints the per-layer metrics. The last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`; the line before it carries `sim_digest`.

use cxlg_bench::cli::run_experiments;
use cxlg_bench::ctx::ExperimentCtx;
use cxlg_bench::experiment::Experiment;
use cxlg_bench::fidelity::engine::{evaluate, Campaign, Verdict};
use cxlg_bench::registry;
use cxlg_core::access::DeviceRequest;
use cxlg_core::mem::{peak_rss_kb, rss_span};
use cxlg_core::metrics::RunReport;
use cxlg_core::validate::{
    reference_component_count, reference_sssp_distances, verify_bfs_trace, verify_sssp,
};
use cxlg_graph::{CsrStorage, CsrView, GraphSpec, SpillConfig, StorageMode, VertexId};
use perfbench::pipeline::{run_traced, Layers, Recomposed};
use perfbench::{
    digest_report, job_list, median, per_layer_metrics, repeat_share, Algo, Fnv1a, JobList,
    Workload, END_TO_END, THREADS,
};
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Fewest repetitions a run makes, however long each takes.
const MIN_REPS: usize = 3;

const USAGE: &str =
    "usage: perfbench --workload <latency-sweep|flash-social|spill-sequential|campaign> \
     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::LatencySweep,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|e| format!("--seed `{value}`: {e}"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds `{value}` is not a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace `{value}` must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    args.workload = workload.ok_or("missing --workload")?;
    Ok(args)
}

/// What a run measured and checked.
#[derive(Default)]
struct Run {
    /// Operations run: traversals, or experiments for the campaign.
    attempted: u64,
    /// Operations that panicked, disagreed with a reference, with the
    /// first pass, or with the recomposed pipeline.
    failed: u64,
    /// Why the run is not correct, one line each.
    problems: Vec<String>,
    /// Host seconds of each set-up.
    setup_s: Vec<f64>,
    /// Host seconds of each untraced timed pass.
    run_s: Vec<f64>,
    /// `sim_digest` of the first pass.
    digest: u64,
    /// Process peak RSS at the end of the timed repetitions.
    peak_rss_kb: u64,
    /// Per-layer metrics (traced runs only).
    layers: BTreeMap<String, f64>,
}

impl Run {
    fn problem(&mut self, msg: String) {
        eprintln!("perfbench: {msg}");
        self.problems.push(msg);
    }
}

/// Per-layer samples of a traced run: one entry per repetition.
#[derive(Default)]
struct Traced {
    layers: Vec<Layers>,
    sweep_s: Vec<f64>,
    /// (trace + plan + engine) over the untraced pass time.
    shares: Vec<f64>,
    arcs: u64,
    resident_bytes: u64,
    on_disk_bytes: u64,
    /// Growth of the process peak RSS over the first set-up's builds.
    build_peak_bytes: u64,
}

impl Traced {
    /// Record the first set-up's graph-layer facts.
    fn first_setup(&mut self, graphs: &[&CsrStorage], peak_kb: u64) {
        self.arcs = graphs.iter().map(|g| g.num_edges()).sum();
        self.resident_bytes = graphs.iter().map(|g| g.resident_bytes()).sum();
        self.on_disk_bytes = graphs.iter().map(|g| g.on_disk_bytes()).sum();
        self.build_peak_bytes = peak_kb * 1024;
    }

    /// Sweep every arc of `graphs` through `CsrView::for_neighbors`.
    fn sweep(&mut self, graphs: &[&CsrStorage], run: &mut Run) {
        let t = Instant::now();
        let (mut arcs, mut acc) = (0u64, 0u64);
        for g in graphs {
            for v in 0..g.num_vertices() as VertexId {
                g.for_neighbors(v, &mut |u| {
                    arcs += 1;
                    acc = acc.wrapping_add(u as u64);
                });
            }
        }
        std::hint::black_box(acc);
        self.sweep_s.push(t.elapsed().as_secs_f64());
        if arcs != self.arcs {
            run.problem(format!(
                "storage sweep visited {arcs} arcs, graphs hold {}",
                self.arcs
            ));
        }
    }

    /// Run every job through the recomposed pipeline and check it
    /// against the untraced pass's reports.
    fn replay(
        &mut self,
        list: &JobList,
        graphs: &[&CsrStorage],
        sources: &[VertexId],
        reports: &[Option<RunReport>],
        pass_s: f64,
        run: &mut Run,
    ) {
        let mut layers = Layers::default();
        for (j, job) in list.jobs.iter().enumerate() {
            run.attempted += 1;
            let g = graphs[job.graph];
            let trav = job.algo.traversal(sources[job.graph]);
            let got = catch_unwind(AssertUnwindSafe(|| {
                run_traced(&trav, g, &job.sys, &mut layers)
            }))
            .ok();
            let want = reports[j].as_ref().map(Recomposed::of);
            if got.is_none() || got != want {
                run.failed += 1;
                run.problem(format!(
                    "job {j} ({:?} on {}): recomposed pipeline disagrees with Traversal::run",
                    job.algo,
                    job.sys.label()
                ));
            }
        }
        self.shares.push(layers.traversal_s() / pass_s);
        self.layers.push(layers);
    }

    /// The graph, storage, trace, plan and engine metrics.
    fn metrics(&self, list: &JobList, build_s: f64, out: &mut BTreeMap<String, f64>) {
        let mut put = |name: &str, v: f64| {
            out.insert(name.to_string(), v);
        };
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let arcs = self.arcs as f64;
        put("graph.build_s", build_s);
        put("graph.arcs", arcs);
        put("graph.arcs_per_s", ratio(arcs, build_s));
        put(
            "graph.peak_bytes_per_arc",
            ratio(self.build_peak_bytes as f64, arcs),
        );
        put("storage.resident_bytes", self.resident_bytes as f64);
        put("storage.on_disk_bytes", self.on_disk_bytes as f64);
        let sweep_s = median(&self.sweep_s);
        put("storage.sweep_s", sweep_s);
        put("storage.sweep_arcs_per_s", ratio(arcs, sweep_s));

        let Some(first) = self.layers.first() else {
            return;
        };
        let med = |f: fn(&Layers) -> f64| median(&self.layers.iter().map(f).collect::<Vec<_>>());
        let trace_s = med(|l| l.trace_s);
        put("trace.s", trace_s);
        put("trace.calls", first.trace_calls as f64);
        put("trace.repeat_share", repeat_share(&list.jobs));
        put("trace.levels", first.trace_levels as f64);
        put("trace.frontier_vertices", first.frontier_vertices as f64);
        put(
            "trace.vertices_per_s",
            ratio(first.frontier_vertices as f64, trace_s),
        );
        let plan_s = med(|l| l.plan_s);
        put("plan.s", plan_s);
        put("plan.requests", first.plan_requests as f64);
        put(
            "plan.requests_per_s",
            ratio(first.plan_requests as f64, plan_s),
        );
        put("plan.cache_hits", first.plan_hits as f64);
        put(
            "plan.hit_ratio",
            ratio(
                first.plan_hits as f64,
                (first.plan_hits + first.plan_requests) as f64,
            ),
        );
        put(
            "plan.raf",
            ratio(first.planned_bytes as f64, first.useful_bytes as f64),
        );
        put(
            "plan.peak_resident_bytes",
            (first.peak_plan_requests * std::mem::size_of::<DeviceRequest>() as u64) as f64,
        );
        let engine_s = med(|l| l.engine_s);
        put("engine.s", engine_s);
        put("engine.requests", first.engine_requests as f64);
        put(
            "engine.requests_per_s",
            ratio(first.engine_requests as f64, engine_s),
        );
        put("engine.batches", first.batches as f64);
        put("engine.sim_us", first.sim_ps as f64 / 1e6);
        put(
            "engine.credit_utilization",
            ratio(first.credit_ps, first.sim_ps as f64),
        );
        put("engine.peak_outstanding", first.peak_outstanding as f64);
        put("traced.layer_share", median(&self.shares));
    }
}

/// Run every job of `list` once with `Traversal::run`; `None` marks a
/// panic.
fn timed_pass(
    list: &JobList,
    graphs: &[&CsrStorage],
    sources: &[VertexId],
) -> (Vec<Option<RunReport>>, f64) {
    let t = Instant::now();
    let reports = list
        .jobs
        .iter()
        .map(|job| {
            let trav = job.algo.traversal(sources[job.graph]);
            catch_unwind(AssertUnwindSafe(|| trav.run(graphs[job.graph], &job.sys))).ok()
        })
        .collect();
    (reports, t.elapsed().as_secs_f64())
}

/// Verify `algo` on `g` against `cxlg_core::validate` and return the
/// reference's reached count (vertices reached, components, or vertices
/// processed for PageRank).
fn reference_reached(algo: Algo, g: &CsrStorage, source: VertexId) -> Result<u64, String> {
    match algo {
        Algo::Bfs => {
            let trace = algo.traversal(source).trace(g);
            verify_bfs_trace(g, source, &trace)?;
            Ok(trace.iter().map(|l| l.len() as u64).sum())
        }
        Algo::Sssp => {
            verify_sssp(g, source, 64)?;
            let dist = reference_sssp_distances(g, source, 64);
            Ok(dist.iter().filter(|&&d| d != u64::MAX).count() as u64)
        }
        Algo::Cc => Ok(reference_component_count(g)),
        Algo::PageRank(_) => Ok(g.num_vertices() as u64),
    }
}

/// Check each job's report against the references, once per (graph,
/// algorithm) pair. Returns each job's failure, if any.
fn check_references(
    list: &JobList,
    graphs: &[&CsrStorage],
    sources: &[VertexId],
    reports: &[Option<RunReport>],
) -> Vec<Option<String>> {
    let mut reference: BTreeMap<(usize, Algo), Result<u64, String>> = BTreeMap::new();
    list.jobs
        .iter()
        .zip(reports)
        .map(|(job, report)| {
            let report = report.as_ref()?;
            let want = reference.entry((job.graph, job.algo)).or_insert_with(|| {
                let (g, s) = (graphs[job.graph], sources[job.graph]);
                catch_unwind(AssertUnwindSafe(|| reference_reached(job.algo, g, s)))
                    .unwrap_or_else(|_| Err("reference check panicked".to_string()))
            });
            match want {
                Err(e) => Some(e.clone()),
                Ok(n) if *n != report.reached => {
                    Some(format!("reached {}, reference {n}", report.reached))
                }
                Ok(_) => None,
            }
        })
        .collect()
}

fn report_digest(report: &RunReport) -> u64 {
    let mut h = Fnv1a::default();
    digest_report(&mut h, report);
    h.finish()
}

fn dir_is_empty(dir: &Path) -> bool {
    std::fs::read_dir(dir).map_or(true, |mut d| d.next().is_none())
}

/// Drop one repetition's graphs; a spill file that outlives them fails
/// that repetition's jobs.
fn drop_graphs(graphs: Vec<CsrStorage>, list: &JobList, spill_dir: &Path, run: &mut Run) {
    drop(graphs);
    if list.spill && !dir_is_empty(spill_dir) {
        run.failed += list.jobs.len() as u64;
        run.problem("a spill file was left behind after its graph dropped".to_string());
    }
}

/// latency-sweep, flash-social and spill-sequential.
fn run_traversals(workload: Workload, args: &Args, tmp: &Path) -> Run {
    let list = job_list(workload, args.seed, workload.scale());
    let mode = if list.spill {
        StorageMode::Spill
    } else {
        StorageMode::Mem
    };
    let spill_dir = tmp.join("spill");
    let spill = SpillConfig::new(&spill_dir);
    let mut run = Run::default();
    let mut traced = Traced::default();
    // Per pass, per job: the report digest, `None` for a panic.
    let mut passes: Vec<Vec<Option<u64>>> = Vec::new();
    // The latest repetition's graphs and reports, checked after the loop.
    let mut last: Option<(Vec<CsrStorage>, Vec<Option<RunReport>>)> = None;
    let started = Instant::now();
    while passes.len() < MIN_REPS || started.elapsed().as_secs_f64() < args.seconds {
        if let Some((graphs, _)) = last.take() {
            drop_graphs(graphs, &list, &spill_dir, &mut run);
        }
        let t = Instant::now();
        let built: Vec<_> = list
            .specs
            .iter()
            .map(|spec| rss_span(|| spec.build_with(mode, &spill)))
            .collect();
        run.setup_s.push(t.elapsed().as_secs_f64());
        let peak_kb = built.iter().map(|(_, span)| span.delta_kb()).sum();
        let graphs: Vec<CsrStorage> = built.into_iter().map(|(g, _)| g).collect();
        let views: Vec<&CsrStorage> = graphs.iter().collect();
        let sources: Vec<VertexId> = views
            .iter()
            .map(|g| g.max_degree_vertex().unwrap_or(0))
            .collect();

        let (reports, pass_s) = timed_pass(&list, &views, &sources);
        run.run_s.push(pass_s);
        run.attempted += list.jobs.len() as u64;
        passes.push(
            reports
                .iter()
                .map(|r| r.as_ref().map(report_digest))
                .collect(),
        );

        if args.trace {
            if traced.layers.is_empty() {
                traced.first_setup(&views, peak_kb);
            }
            traced.sweep(&views, &mut run);
            traced.replay(&list, &views, &sources, &reports, pass_s, &mut run);
        }
        last = Some((graphs, reports));
    }
    // Sampled before the checks below build anything of their own.
    run.peak_rss_kb = peak_rss_kb();

    // Reference checks, outside the timed loop. A spill graph is checked
    // through an in-memory build of the same spec, which must carry the
    // same fingerprint.
    let (graphs, reports) = last.take().expect("at least one repetition");
    let mut mem = Vec::new();
    if list.spill {
        for (spec, g) in list.specs.iter().zip(&graphs) {
            mem.push(CsrStorage::Mem(spec.build()));
            if mem.last().map(|m| m.fingerprint()) != Some(g.fingerprint()) {
                run.failed += list.jobs.len() as u64;
                run.problem(format!(
                    "{}: spill fingerprint differs from the in-memory build",
                    spec.name()
                ));
            }
        }
    }
    let views: Vec<&CsrStorage> = if list.spill {
        mem.iter().collect()
    } else {
        graphs.iter().collect()
    };
    let sources: Vec<VertexId> = views
        .iter()
        .map(|g| g.max_degree_vertex().unwrap_or(0))
        .collect();
    let reference_failures = check_references(&list, &views, &sources, &reports);
    for (j, failure) in reference_failures.iter().enumerate() {
        if let Some(why) = failure {
            run.problem(format!("job {j} ({:?}): {why}", list.jobs[j].algo));
        }
    }
    drop(views);
    drop_graphs(graphs, &list, &spill_dir, &mut run);

    let first = &passes[0];
    for pass in &passes {
        for (j, digest) in pass.iter().enumerate() {
            if digest.is_none() || *digest != first[j] || reference_failures[j].is_some() {
                run.failed += 1;
            }
        }
    }
    if passes.iter().any(|p| p != first) {
        run.problem("simulated results differ between passes".to_string());
    }
    let mut h = Fnv1a::default();
    for digest in first {
        h.write_u64(digest.unwrap_or(0));
    }
    run.digest = h.finish();
    if args.trace {
        traced.metrics(&list, median(&run.setup_s), &mut run.layers);
    }
    run
}

/// FNV-1a over the campaign's result files (name, then bytes), in name
/// order.
fn results_digest(dir: &Path) -> Result<u64, String> {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    names.sort();
    let mut h = Fnv1a::default();
    for path in names {
        let bytes = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        h.write(path.file_name().unwrap_or_default().as_encoded_bytes());
        h.write_u64(bytes.len() as u64);
        h.write(&bytes);
    }
    Ok(h.finish())
}

/// `(name, wall seconds)` per experiment, from the campaign manifest.
fn experiment_walls(manifest: &Path) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(manifest).map_err(|e| format!("read manifest: {e}"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("parse manifest: {e}"))?;
    let field = |m: &Value, key: &str| match m {
        Value::Map(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()),
        _ => None,
    };
    let Some(Value::Array(exps)) = field(&v, "experiments") else {
        return Err("manifest lacks experiments".to_string());
    };
    exps.iter()
        .map(|e| match (field(e, "name"), field(e, "wall_ms")) {
            (Some(Value::Str(name)), Some(Value::F64(ms))) => Ok((name, ms / 1e3)),
            _ => Err("manifest entry lacks name or wall_ms".to_string()),
        })
        .collect()
}

/// Every registered experiment through `run_experiments`, then the
/// fidelity engine over the output. The traced run also times each
/// experiment (from the manifest) and replays fig11's grid through the
/// recomposed pipeline for the trace, plan and engine layers.
fn run_campaign(args: &Args, tmp: &Path) -> Run {
    let scale = Workload::Campaign.scale();
    let exps: Vec<&dyn Experiment> = registry::all().collect();
    let replay = job_list(Workload::Campaign, args.seed, scale);
    let results = tmp.join("results");
    let manifest = tmp.join("manifest.json");
    let mut run = Run::default();
    let mut traced = Traced::default();
    let mut digests = Vec::new();
    let mut walls: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut builds = 0u64;
    let mut verdicts = [0usize; 3];
    let started = Instant::now();
    while digests.len() < MIN_REPS || started.elapsed().as_secs_f64() < args.seconds {
        let _ = std::fs::remove_dir_all(&results);
        let ctx = ExperimentCtx::new(scale, args.seed, THREADS, results.clone());
        let specs: BTreeSet<GraphSpec> = exps.iter().flat_map(|e| e.specs(&ctx)).collect();
        let t = Instant::now();
        let mut built: BTreeMap<GraphSpec, (Arc<CsrStorage>, u64)> = specs
            .iter()
            .map(|&spec| {
                let (g, span) = rss_span(|| ctx.graph(spec));
                (spec, (g, span.delta_kb()))
            })
            .collect();
        run.setup_s.push(t.elapsed().as_secs_f64());
        if !args.trace {
            // Holding the graphs would defeat the campaign's eviction.
            built.clear();
        }

        let t = Instant::now();
        let outcome = run_experiments(&ctx, &exps, args.trace.then_some(manifest.as_path()));
        run.run_s.push(t.elapsed().as_secs_f64());
        run.attempted += exps.len() as u64;
        let mut failed: BTreeSet<String> = outcome.failed.into_iter().collect();
        match Campaign::load(&results) {
            Ok(campaign) => {
                let report = evaluate(&campaign);
                for f in &report.findings {
                    if f.verdict == Verdict::Flag {
                        failed.insert(f.figure.to_string());
                    }
                }
                verdicts = [Verdict::Pass, Verdict::Flag, Verdict::Skip].map(|v| report.count(v));
            }
            Err(e) => {
                run.problem(format!("fidelity: {e}"));
                failed.extend(exps.iter().map(|e| e.name().to_string()));
            }
        }
        for name in &failed {
            run.problem(format!("{name} failed (panic or fidelity FLAG)"));
        }
        run.failed += failed.len() as u64;
        builds = ctx.graph_build_counts().iter().map(|(_, n)| n).sum();
        match results_digest(&results) {
            Ok(d) => digests.push(d),
            Err(e) => {
                run.problem(e);
                digests.push(0);
            }
        }

        if args.trace {
            match experiment_walls(&manifest) {
                Ok(ws) => ws
                    .into_iter()
                    .for_each(|(name, s)| walls.entry(name).or_default().push(s)),
                Err(e) => run.problem(e),
            }
            let graphs: Vec<&CsrStorage> = built.values().map(|(g, _)| g.as_ref()).collect();
            if traced.layers.is_empty() {
                traced.first_setup(&graphs, built.values().map(|(_, kb)| kb).sum());
            }
            traced.sweep(&graphs, &mut run);
            let replay_graphs: Vec<&CsrStorage> =
                replay.specs.iter().map(|s| built[s].0.as_ref()).collect();
            let sources: Vec<VertexId> = replay_graphs
                .iter()
                .map(|g| g.max_degree_vertex().unwrap_or(0))
                .collect();
            let (reports, pass_s) = timed_pass(&replay, &replay_graphs, &sources);
            run.attempted += replay.jobs.len() as u64;
            run.failed += reports.iter().filter(|r| r.is_none()).count() as u64;
            traced.replay(
                &replay,
                &replay_graphs,
                &sources,
                &reports,
                pass_s,
                &mut run,
            );
        }
    }

    run.peak_rss_kb = peak_rss_kb();
    if digests.iter().any(|d| *d != digests[0]) {
        run.failed += exps.len() as u64;
        run.problem("campaign results differ between passes".to_string());
    }
    run.digest = digests[0];
    if args.trace {
        traced.metrics(&replay, median(&run.setup_s), &mut run.layers);
        for (name, samples) in &walls {
            run.layers
                .insert(format!("campaign.{name}_s"), median(samples));
        }
        run.layers
            .insert("campaign.graph_builds".to_string(), builds as f64);
        for (name, n) in ["pass", "flag", "skip"].iter().zip(verdicts) {
            run.layers.insert(format!("fidelity.{name}"), n as f64);
        }
    }
    run
}

/// The benchmark's scratch directory inside the working directory,
/// removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    const ROOT: &'static str = ".perfbench-tmp";

    fn create(workload: Workload) -> std::io::Result<Scratch> {
        let dir = Path::new(Self::ROOT).join(format!("{}-{}", workload.name(), std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Fails while another run still uses it; the last one removes it.
        let _ = std::fs::remove_dir(Self::ROOT);
    }
}

/// A metric value as JSON: every digit `f64` prints.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // One process with THREADS workers, nested parallel calls included
    // (the vendored rayon reads this on every call).
    std::env::set_var("RAYON_NUM_THREADS", THREADS.to_string());
    let scratch = match Scratch::create(args.workload) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot create {}: {e}", Scratch::ROOT);
            std::process::exit(1);
        }
    };
    let run = match args.workload {
        Workload::Campaign => run_campaign(&args, &scratch.0),
        w => run_traversals(w, &args, &scratch.0),
    };
    drop(scratch);
    let peak_rss_mb = run.peak_rss_kb as f64 / 1024.0;

    let metrics: Vec<(String, &str, f64)> = if args.trace {
        per_layer_metrics()
            .into_iter()
            .map(|(name, unit)| {
                let v = run.layers.get(&name).copied().unwrap_or(0.0);
                (name, unit, v)
            })
            .collect()
    } else {
        let values = [median(&run.setup_s), median(&run.run_s), peak_rss_mb];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), unit, v))
            .collect()
    };
    eprintln!("perfbench: setup_s samples {:?}", run.setup_s);
    eprintln!("perfbench: run_s samples {:?}", run.run_s);
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench workload={} seed={} trace={} reps={} host_cores={cores} threads={THREADS} sim_digest={:#018x}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        run.run_s.len(),
        run.digest,
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.problems.is_empty() && run.failed == 0,
        run.attempted,
        run.failed,
        body.join(", ")
    );
}
