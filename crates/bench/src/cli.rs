//! The `cxlg` campaign driver.
//!
//! One binary fronts the whole evaluation: `cxlg list` enumerates the
//! registry, `cxlg run <names...>` / `cxlg run --all` executes
//! experiments in-process against a single shared [`ExperimentCtx`] (so
//! the graph cache builds each dataset exactly once per invocation), and
//! `--json-manifest` records the run configuration, per-experiment
//! wall-clock, every result path, and the cache's per-spec build counts.
//!
//! `cxlg run --cached` runs the same loop ([`run_campaign`]) with a
//! [`CampaignCache`]: each experiment first looks its result up in a
//! content-addressed store, runs only on a miss, and publishes what it
//! wrote. `cxlg validate` (the paper-fidelity gate) lives in
//! [`crate::fidelity`].

use crate::ctx::ExperimentCtx;
use crate::experiment::{Experiment, ExperimentReport};
use crate::registry;
use cxlg_core::mem::peak_rss_kb;
use cxlg_core::runner::timed;
use cxlg_graph::{CsrView, GraphSpec};
use cxlg_serve::job::{canonical, Job, JobKey};
use cxlg_serve::store::{manifest_for, ResultStore, StoredResult};
use serde::Value;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

const USAGE: &str = "\
cxlg — one driver for the paper's experiment campaign

USAGE:
    cxlg list                                   enumerate registered experiments
    cxlg run [--json-manifest[=PATH]] <names..> run selected experiments
    cxlg run --all [--json-manifest[=PATH]]     run the full campaign
    cxlg run --cached [--cas-root=DIR] <names..|--all>
                                                run through the content-
                                                addressed result store:
                                                repeat runs with a warm store
                                                are byte-identical cache hits
    cxlg cas gc --cas-root=DIR [--max-bytes=N] [--max-entries=N]
                                                reap stale staging dirs,
                                                quarantine corrupt entries,
                                                and evict oldest publications
                                                until the bounds fit
    cxlg graph-mem <urand|kron|social> <scale> [--storage=mem|spill]
                                                build one dataset, report
                                                wall-clock / peak RSS /
                                                resident and on-disk
                                                bytes-per-arc / fingerprint
    cxlg validate [--campaign-dir=DIR] [--write-report[=PATH]]
                                                check a captured campaign
                                                against the paper's series
                                                (exit 1 on any FLAG)

OPTIONS:
    --json-manifest[=PATH]   write a run manifest (scale/seed/threads,
                             per-experiment wall-clock, peak RSS, result
                             paths, per-spec graph build and eviction
                             counts; with --cached also the store root,
                             hit/miss and store recovery counts and
                             per-experiment job keys); default PATH is
                             <results_dir>/manifest.json
    --max-bytes-per-arc=N    (graph-mem) exit nonzero when peak RSS
                             exceeds N bytes per directed arc — the CI
                             build-memory budget
    --graph-storage=MODE     (run) graph storage backend: `mem` keeps
                             every CSR fully resident (default), `spill`
                             demand-pages targets from a file under
                             <results_dir>/graph-spill. Results are
                             backend-invariant
    --storage=MODE           (graph-mem) build the probe dataset into
                             the given backend (`mem` | `spill`)
    --cached                 (run) serve each experiment from the
                             content-addressed store when it holds a
                             verified result, else execute and publish;
                             repeat runs are cache hits
    --cas-root=DIR           (run --cached, cas gc) content-addressed
                             store root; default <results_dir>/cas
    --campaign-dir=DIR       (validate) campaign to check; default is
                             the results dir
    --write-report[=PATH]    (validate) render FIDELITY.md — measured vs
                             paper per figure with residuals and
                             PASS/FLAG/SKIP verdicts; default PATH is
                             <campaign-dir>/FIDELITY.md

ENVIRONMENT:
    CXLG_SCALE        log2 vertex count (default 16)
    CXLG_SEED         generator seed (default 0x5EED)
    CXLG_RESULTS_DIR  result directory (default target/paper-results)
    RAYON_NUM_THREADS worker threads for parallel sweeps
";

/// Parsed `cxlg run` arguments.
#[derive(Debug, PartialEq, Eq)]
struct RunArgs {
    /// Run every registered experiment in registry order.
    pub all: bool,
    /// Explicitly selected experiment names (empty with `all`).
    pub names: Vec<String>,
    /// `Some(None)` = manifest at the default path; `Some(Some(p))` = at `p`.
    pub manifest: Option<Option<String>>,
    /// Run through the content-addressed result store.
    pub cached: bool,
    /// CAS root for `--cached` (default `<results_dir>/cas`).
    pub cas_root: Option<String>,
    /// Graph storage backend (`--graph-storage=`, default mem).
    pub graph_storage: cxlg_graph::StorageMode,
}

/// Parse the arguments following `cxlg run`.
fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        all: false,
        names: Vec::new(),
        manifest: None,
        cached: false,
        cas_root: None,
        graph_storage: cxlg_graph::StorageMode::Mem,
    };
    for a in args {
        if a == "--all" {
            out.all = true;
        } else if a == "--cached" {
            out.cached = true;
        } else if let Some(dir) = a.strip_prefix("--cas-root=") {
            if dir.is_empty() {
                return Err("--cas-root= requires a directory".to_string());
            }
            out.cas_root = Some(dir.to_string());
        } else if let Some(mode) = a.strip_prefix("--graph-storage=") {
            out.graph_storage = cxlg_graph::StorageMode::parse(mode)
                .ok_or_else(|| format!("--graph-storage: unknown mode `{mode}` (mem | spill)"))?;
        } else if a == "--json-manifest" {
            out.manifest = Some(None);
        } else if let Some(path) = a.strip_prefix("--json-manifest=") {
            if path.is_empty() {
                return Err("--json-manifest= requires a path".to_string());
            }
            out.manifest = Some(Some(path.to_string()));
        } else if a.starts_with('-') {
            return Err(format!("unknown option `{a}`"));
        } else {
            out.names.push(a.clone());
        }
    }
    if out.all && !out.names.is_empty() {
        return Err("--all cannot be combined with explicit names".to_string());
    }
    if !out.all && out.names.is_empty() {
        return Err("nothing to run: pass experiment names or --all".to_string());
    }
    if !out.cached && out.cas_root.is_some() {
        return Err("--cas-root only applies with --cached".to_string());
    }
    Ok(out)
}

/// Resolve names against the registry, failing on the first unknown one.
fn resolve(names: &[String]) -> Result<Vec<&'static dyn Experiment>, String> {
    names
        .iter()
        .map(|n| {
            registry::find(n).ok_or_else(|| {
                format!(
                    "unknown experiment `{n}` (known: {})",
                    registry::names().join(", ")
                )
            })
        })
        .collect()
}

/// What a campaign run produced: the per-experiment reports plus the
/// names of any experiments that failed.
pub struct CampaignOutcome {
    /// One report per executed experiment, in run order. Failed
    /// experiments report whatever files they dumped before panicking.
    pub reports: Vec<ExperimentReport>,
    /// Names of experiments whose run panicked (or, on a cached run,
    /// whose result could not be served or published).
    pub failed: Vec<String>,
    /// On a cached run, how the store answered each report, in run
    /// order; empty on a plain run.
    pub cached: Vec<CacheRecord>,
}

/// How the result cache answered one experiment of a cached run.
#[derive(Debug, Clone)]
pub struct CacheRecord {
    /// The experiment's content key (its store directory name).
    pub key: String,
    /// Whether the result came from the store.
    pub cache_hit: bool,
    /// Why the experiment failed, if it did.
    pub error: Option<String>,
}

/// Run `exps` in order against one shared context, optionally writing a
/// manifest. A panicking experiment is caught and recorded — the rest
/// of the campaign (and the manifest) still completes. This is the
/// library core of `cxlg run`, used directly by integration tests and
/// the benchmark; it derives no keys and touches no store.
pub fn run_experiments(
    ctx: &ExperimentCtx,
    exps: &[&dyn Experiment],
    manifest_path: Option<&Path>,
) -> CampaignOutcome {
    run_campaign(ctx, exps, manifest_path, None)
}

/// The campaign loop behind `cxlg run`: [`run_experiments`] when
/// `cache` is `None`, `cxlg run --cached` otherwise. With a cache, each
/// experiment's [`JobKey`] is probed first: a verified hit is written
/// into the results directory byte for byte and nothing runs (an entry
/// that fails verification is quarantined by the probe and counts as a
/// miss). A miss runs exactly as a plain campaign does and then
/// publishes the files it reported; a panic or a failed publication
/// fails that experiment alone. The eviction plan and the manifest are
/// otherwise the same, so a cached campaign's result files are
/// byte-identical to a plain one's.
pub fn run_campaign(
    ctx: &ExperimentCtx,
    exps: &[&dyn Experiment],
    manifest_path: Option<&Path>,
    cache: Option<&CampaignCache>,
) -> CampaignOutcome {
    // Eviction plan: count, across this run list, how many experiments
    // declared each spec, so a graph can leave the cache right after
    // its last consumer (peak RSS is the campaign's binding
    // constraint). Spec-ordered, so plan output order is structural
    // rather than hash-order luck (lint rule D1).
    let mut consumers: BTreeMap<GraphSpec, usize> = BTreeMap::new();
    for exp in exps {
        for spec in exp.specs(ctx) {
            *consumers.entry(spec).or_insert(0) += 1;
        }
    }
    ctx.plan_graph_consumers(consumers);
    let mut reports = Vec::with_capacity(exps.len());
    let mut walls_ms = Vec::with_capacity(exps.len());
    // Per-report flags, not a name set: `run fig3 fig3` may succeed once
    // and fail once, and the manifest must tell the two entries apart.
    let mut failed_flags = Vec::with_capacity(exps.len());
    let mut failed = Vec::new();
    let mut cached = Vec::new();
    for exp in exps {
        println!("\n################ {} ################\n", exp.name());
        let keyed = cache.map(|c| (c, c.job_key(ctx, *exp)));
        let mut cache_hit = false;
        let (outcome, wall) = timed(|| {
            if let Some(hit) = keyed.as_ref().and_then(|(c, (_, key))| c.store.probe(key)) {
                cache_hit = true;
                return materialize(ctx, *exp, &hit);
            }
            let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exp.run(ctx)))
                .map_err(|_| "experiment panicked".to_string())?;
            if let Some((c, (job, key))) = &keyed {
                c.publish(job, key, &report)?;
            }
            Ok(report)
        });
        walls_ms.push(wall.as_secs_f64() * 1e3);
        if let Some((_, (_, key))) = keyed {
            cached.push(CacheRecord {
                key: key.as_str().to_string(),
                cache_hit,
                error: outcome.as_ref().err().cloned(),
            });
        }
        match outcome {
            Ok(report) => {
                reports.push(report);
                failed_flags.push(false);
            }
            Err(e) => {
                // A panic's message is already on stderr (default hook);
                // salvage whatever was dumped before the failure.
                eprintln!("[{}: {e}]", exp.name());
                eprintln!("[{} FAILED]", exp.name());
                failed.push(exp.name().to_string());
                failed_flags.push(true);
                reports.push(ExperimentReport {
                    name: exp.name().to_string(),
                    result_files: ctx.take_written(),
                    peak_rss_kb: peak_rss_kb(),
                });
            }
        }
        // This experiment's declared graphs are done with (even on
        // failure or a cache hit — it consumes no more); evict any whose
        // last consumer this was.
        for spec in exp.specs(ctx) {
            if ctx.release(spec) {
                eprintln!("[evicted {} from the graph cache]", spec.name());
            }
        }
    }
    let mut summary = format!(
        "{} of {} experiment(s) regenerated",
        reports.len() - failed.len(),
        exps.len()
    );
    if cache.is_some() {
        let hits = cache_hits(&cached);
        summary += &format!(" ({hits} cache hit(s), {} fresh)", cached.len() - hits);
    }
    println!("\n{summary}. JSON in {}.", ctx.results_dir.display());
    if !failed.is_empty() {
        eprintln!("\nFAILED: {failed:?}");
    }
    if let Some(path) = manifest_path {
        let cached_run = cache.map(|c| (c, cached.as_slice()));
        write_manifest(ctx, &reports, &walls_ms, &failed_flags, cached_run, path);
    }
    CampaignOutcome {
        reports,
        failed,
        cached,
    }
}

/// How many experiments of a cached run the store served.
fn cache_hits(records: &[CacheRecord]) -> usize {
    records.iter().filter(|r| r.cache_hit).count()
}

/// Identity of the code this binary was built from: an FNV-64 over every
/// workspace source, emitted by the `cxlg-bench` build script. Cached
/// runs bind it into every job key, so a store written by other code
/// misses instead of serving stale bytes.
pub const BUILD_ID: &str = env!("CXLG_BUILD_ID");

/// The result cache of a `cxlg run --cached` campaign: the
/// content-addressed store and the build identity its keys bind.
/// [`run_campaign`] probes it before and publishes to it after each
/// experiment.
pub struct CampaignCache {
    store: ResultStore,
    build_id: String,
}

impl CampaignCache {
    /// Open (creating if needed) the cache rooted at `cas_root` for code
    /// of identity `build_id` — [`BUILD_ID`] in production.
    pub fn open(cas_root: &Path, build_id: &str) -> std::io::Result<Self> {
        Ok(CampaignCache {
            store: ResultStore::new(cas_root)?,
            build_id: build_id.to_string(),
        })
    }

    /// `exp`'s job in `ctx` and its key: a function of the experiment
    /// name, `(scale, seed, threads)` and the build identity alone —
    /// every experiment's datasets follow from `(scale, seed)` and the
    /// generator code — so no graph is built or read.
    fn job_key(&self, ctx: &ExperimentCtx, exp: &dyn Experiment) -> (Job, JobKey) {
        let job = Job {
            experiment: exp.name().to_string(),
            scale: ctx.scale,
            seed: ctx.seed,
            threads: ctx.threads,
        };
        let key = JobKey::derive(&job, &self.build_id);
        (job, key)
    }

    /// Publish the files `report` lists under `key`.
    fn publish(&self, job: &Job, key: &JobKey, report: &ExperimentReport) -> Result<(), String> {
        let manifest = manifest_for(key, canonical(job, &self.build_id), job.clone());
        self.store
            .publish(manifest, &read_result_files(report)?)
            .map(drop)
            .map_err(|e| format!("result publication failed: {e}"))
    }
}

/// `(file name, bytes)` of every result file a run reported — the
/// payloads of its store entry.
fn read_result_files(report: &ExperimentReport) -> Result<Vec<(String, Vec<u8>)>, String> {
    report
        .result_files
        .iter()
        .map(|path| {
            let p = Path::new(path);
            let name = p
                .file_name()
                .and_then(|n| n.to_str())
                .ok_or_else(|| format!("unnameable result file `{path}`"))?;
            let bytes = std::fs::read(p).map_err(|e| format!("read result `{path}`: {e}"))?;
            Ok((name.to_string(), bytes))
        })
        .collect()
}

/// Write a verified store hit's payloads into the results directory,
/// verbatim, as `exp`'s report.
fn materialize(
    ctx: &ExperimentCtx,
    exp: &dyn Experiment,
    hit: &StoredResult,
) -> Result<ExperimentReport, String> {
    let mut result_files = Vec::with_capacity(hit.files.len());
    for (name, bytes) in &hit.files {
        let path = ctx.results_dir.join(name);
        std::fs::write(&path, bytes).map_err(|e| format!("materialize `{name}`: {e}"))?;
        eprintln!("[cache-hit {}]", path.display());
        result_files.push(path.display().to_string());
    }
    Ok(ExperimentReport {
        name: exp.name().to_string(),
        result_files,
        peak_rss_kb: peak_rss_kb(),
    })
}

/// Serialize the run manifest: configuration, per-experiment wall-clock
/// and result paths, and the graph cache's per-spec build counts (the
/// proof that the campaign built each dataset exactly once). A cached
/// run adds the store root, its hit/miss counts, the store's recovery
/// counters and entry count, and per experiment the job key, whether it
/// was a hit, and any error.
fn write_manifest(
    ctx: &ExperimentCtx,
    reports: &[ExperimentReport],
    walls_ms: &[f64],
    failed_flags: &[bool],
    cached: Option<(&CampaignCache, &[CacheRecord])>,
    path: &Path,
) {
    let experiments = reports
        .iter()
        .zip(walls_ms)
        .zip(failed_flags)
        .enumerate()
        .map(|(i, ((r, wall), failed))| {
            let record = cached.map(|(_, records)| &records[i]);
            let mut fields = vec![("name".to_string(), Value::Str(r.name.clone()))];
            if let Some(rec) = record {
                fields.push(("key".to_string(), Value::Str(rec.key.clone())));
                fields.push(("cache_hit".to_string(), Value::Bool(rec.cache_hit)));
            }
            fields.extend([
                ("wall_ms".to_string(), Value::F64(*wall)),
                ("failed".to_string(), Value::Bool(*failed)),
                // Process high-water RSS when the experiment finished
                // (monotone over the campaign; 0 = no platform source).
                ("peak_rss_kb".to_string(), Value::U64(r.peak_rss_kb)),
                (
                    "result_files".to_string(),
                    Value::Array(r.result_files.iter().map(|f| Value::Str(f.clone())).collect()),
                ),
            ]);
            if let Some(err) = record.and_then(|rec| rec.error.as_ref()) {
                fields.push(("error".to_string(), Value::Str(err.clone())));
            }
            Value::Map(fields)
        })
        .collect();
    let builds = ctx
        .graph_build_counts()
        .into_iter()
        .map(|(spec, n)| {
            Value::Map(vec![
                ("spec".to_string(), Value::Str(spec)),
                ("builds".to_string(), Value::U64(n)),
            ])
        })
        .collect();
    let evictions = ctx
        .graph_eviction_counts()
        .into_iter()
        .map(|(spec, n)| {
            Value::Map(vec![
                ("spec".to_string(), Value::Str(spec)),
                ("evictions".to_string(), Value::U64(n)),
            ])
        })
        .collect();
    let (graph_resident, graph_on_disk) = ctx.graph_storage_bytes();
    let mut manifest = vec![
        ("scale".to_string(), Value::U64(ctx.scale as u64)),
        ("seed".to_string(), Value::U64(ctx.seed)),
        ("threads".to_string(), Value::U64(ctx.threads as u64)),
        (
            "graph_storage".to_string(),
            Value::Str(ctx.graph_storage_mode().label().to_string()),
        ),
        // Telemetry over whatever graphs the eviction plan still holds
        // at manifest time (often none — evidence, not an invariant).
        ("graph_resident_bytes".to_string(), Value::U64(graph_resident)),
        ("graph_on_disk_bytes".to_string(), Value::U64(graph_on_disk)),
        (
            "results_dir".to_string(),
            Value::Str(ctx.results_dir.display().to_string()),
        ),
    ];
    if let Some((cache, records)) = cached {
        let (hits, store) = (cache_hits(records), cache.store.counters());
        let counts = [
            ("cache_hits", hits as u64),
            ("cache_misses", (records.len() - hits) as u64),
            ("staging_reaped", store.staging_reaped),
            ("quarantined", store.quarantined),
            ("evicted", store.evicted),
            ("store_entries", cache.store.len() as u64),
        ];
        manifest.push((
            "cas_root".to_string(),
            Value::Str(cache.store.root().display().to_string()),
        ));
        manifest.extend(counts.map(|(field, n)| (field.to_string(), Value::U64(n))));
    }
    manifest.extend([
        ("peak_rss_kb".to_string(), Value::U64(peak_rss_kb())),
        ("experiments".to_string(), Value::Array(experiments)),
        ("graph_builds".to_string(), Value::Array(builds)),
        ("graph_evictions".to_string(), Value::Array(evictions)),
    ]);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).expect("create manifest dir");
    }
    let mut f = std::fs::File::create(path).expect("create manifest file");
    let s = serde_json::to_string_pretty(&Value::Map(manifest)).expect("serialize manifest");
    f.write_all(s.as_bytes()).expect("write manifest file");
    eprintln!("[manifest {}]", path.display());
}

/// Execute a parsed `cxlg run`, returning the process exit code.
fn run_cli(args: RunArgs) -> i32 {
    let exps: Vec<&dyn Experiment> = if args.all {
        registry::all().collect()
    } else {
        match resolve(&args.names) {
            Ok(e) => e,
            Err(msg) => {
                eprintln!("cxlg run: {msg}");
                return 2;
            }
        }
    };
    let ctx = ExperimentCtx::from_env_with_storage(args.graph_storage);
    let manifest_path = args
        .manifest
        .map(|p| p.map_or_else(|| ctx.results_dir.join("manifest.json"), PathBuf::from));
    let mut cache = None;
    if args.cached {
        let cas_root = args
            .cas_root
            .map_or_else(|| ctx.results_dir.join("cas"), PathBuf::from);
        match CampaignCache::open(&cas_root, BUILD_ID) {
            Ok(c) => cache = Some(c),
            Err(e) => {
                eprintln!("cxlg run --cached: open result store {}: {e}", cas_root.display());
                return 2;
            }
        }
    }
    let outcome = run_campaign(&ctx, &exps, manifest_path.as_deref(), cache.as_ref());
    if outcome.failed.is_empty() {
        0
    } else {
        1
    }
}

/// Parsed `cxlg graph-mem` arguments.
#[derive(Debug, PartialEq)]
struct GraphMemArgs {
    /// Dataset family (`urand`, `kron`, `social`).
    pub family: String,
    /// log2 vertex count.
    pub scale: u32,
    /// Fail when peak RSS exceeds this many bytes per directed arc.
    pub max_bytes_per_arc: Option<f64>,
    /// Storage backend to build the probe dataset into.
    pub storage: cxlg_graph::StorageMode,
}

/// Parse the arguments following `cxlg graph-mem`.
fn parse_graph_mem_args(args: &[String]) -> Result<GraphMemArgs, String> {
    let mut family = None;
    let mut scale = None;
    let mut max_bytes_per_arc = None;
    let mut storage = cxlg_graph::StorageMode::Mem;
    for a in args {
        if let Some(v) = a.strip_prefix("--storage=") {
            storage = cxlg_graph::StorageMode::parse(v)
                .ok_or_else(|| format!("--storage: unknown mode `{v}` (mem | spill)"))?;
        } else if let Some(v) = a.strip_prefix("--max-bytes-per-arc=") {
            let n: f64 = v
                .parse()
                .map_err(|_| format!("--max-bytes-per-arc: bad number `{v}`"))?;
            if !n.is_finite() || n <= 0.0 {
                return Err("--max-bytes-per-arc must be positive and finite".to_string());
            }
            max_bytes_per_arc = Some(n);
        } else if a.starts_with('-') {
            return Err(format!("unknown option `{a}`"));
        } else if family.is_none() {
            family = Some(a.clone());
        } else if scale.is_none() {
            scale = Some(
                a.parse::<u32>()
                    .map_err(|_| format!("bad scale `{a}`"))?,
            );
        } else {
            return Err(format!("unexpected argument `{a}`"));
        }
    }
    let family = family.ok_or("graph-mem: missing dataset family")?;
    let scale = scale.ok_or("graph-mem: missing scale")?;
    if !matches!(family.as_str(), "urand" | "kron" | "social") {
        return Err(format!(
            "unknown family `{family}` (known: urand, kron, social)"
        ));
    }
    // Match the generators' contract (`1 <= scale < 32`) here so a bad
    // scale is a usage error, not a generator panic mid-build.
    if !(1..32).contains(&scale) {
        return Err(format!("scale {scale} out of range (1..=31)"));
    }
    Ok(GraphMemArgs {
        family,
        scale,
        max_bytes_per_arc,
        storage,
    })
}

/// Build one dataset in this process and report build wall-clock, the
/// process peak RSS, the bytes-per-arc ratio, and the CSR fingerprint —
/// the probe behind the CI build-memory budget and the EXPERIMENTS.md
/// before/after table. Returns the process exit code.
///
/// Peak RSS is a process-wide high-water mark, so the probe is honest
/// only when the build is the process's dominant allocation — which is
/// why it is a subcommand (fresh process) rather than an experiment.
fn graph_mem(args: GraphMemArgs) -> i32 {
    let seed = crate::bench_seed();
    let spec = match args.family.as_str() {
        "urand" => cxlg_graph::GraphSpec::urand(args.scale),
        "kron" => cxlg_graph::GraphSpec::kron(args.scale),
        _ => cxlg_graph::GraphSpec::friendster_like(args.scale),
    }
    .seed(seed);
    #[expect(
        clippy::disallowed_methods,
        reason = "D6: a scratch directory for the probe's spill file, deleted before exit"
    )]
    let spill_dir = std::env::temp_dir().join(format!(
        "cxlg-graph-mem-spill-{}",
        std::process::id()
    ));
    let spill_cfg = cxlg_graph::SpillConfig::new(&spill_dir);
    let baseline_kb = cxlg_core::mem::peak_rss_kb();
    let (g, wall) = timed(|| spec.build_with(args.storage, &spill_cfg));
    let peak_kb = cxlg_core::mem::peak_rss_kb();
    let arcs = g.num_edges();
    let per_arc = |bytes: f64| if arcs == 0 { 0.0 } else { bytes / arcs as f64 };
    let bytes_per_arc = per_arc((peak_kb * 1024) as f64);
    println!(
        "graph-mem {}: vertices={} arcs={} wall_ms={:.0} peak_rss_kb={} \
         baseline_rss_kb={} bytes_per_arc={:.2} storage={} \
         resident_bytes_per_arc={:.2} on_disk_bytes_per_arc={:.2} \
         fingerprint={:#018x}",
        spec.name(),
        g.num_vertices(),
        arcs,
        wall.as_secs_f64() * 1e3,
        peak_kb,
        baseline_kb,
        bytes_per_arc,
        g.storage_mode().label(),
        per_arc(g.resident_bytes() as f64),
        per_arc(g.on_disk_bytes() as f64),
        g.fingerprint(),
    );
    // A built spill file is deleted when `g` drops; sweep the (now
    // empty) per-process spill directory with it.
    drop(g);
    let _ = std::fs::remove_dir(&spill_dir);
    if let Some(budget) = args.max_bytes_per_arc {
        if peak_kb == 0 {
            eprintln!("graph-mem: no peak-RSS source on this platform; budget not enforced");
        } else if bytes_per_arc > budget {
            eprintln!(
                "graph-mem: peak RSS {bytes_per_arc:.2} B/arc exceeds the {budget:.2} B/arc budget"
            );
            return 1;
        }
    }
    0
}

/// Parsed `cxlg cas gc` arguments.
#[derive(Debug, PartialEq, Eq)]
struct CasGcArgs {
    /// Store root to collect.
    pub cas_root: PathBuf,
    /// Evict (LRU by publication sequence) until at or below this many
    /// bytes.
    pub max_bytes: Option<u64>,
    /// Evict until at or below this many entries.
    pub max_entries: Option<usize>,
}

/// Parse the arguments following `cxlg cas` (currently only the `gc`
/// verb).
fn parse_cas_args(args: &[String]) -> Result<CasGcArgs, String> {
    let Some(("gc", rest)) = args.split_first().map(|(v, r)| (v.as_str(), r)) else {
        return Err("cas: expected the `gc` verb".to_string());
    };
    let mut out = CasGcArgs {
        cas_root: PathBuf::new(),
        max_bytes: None,
        max_entries: None,
    };
    let mut cas_root = None;
    for a in rest {
        if let Some(dir) = a.strip_prefix("--cas-root=") {
            if dir.is_empty() {
                return Err("--cas-root= requires a directory".to_string());
            }
            cas_root = Some(PathBuf::from(dir));
        } else if let Some(n) = a.strip_prefix("--max-bytes=") {
            out.max_bytes = Some(
                n.parse::<u64>()
                    .map_err(|_| format!("--max-bytes: bad size `{n}`"))?,
            );
        } else if let Some(n) = a.strip_prefix("--max-entries=") {
            out.max_entries = Some(
                n.parse::<usize>()
                    .map_err(|_| format!("--max-entries: bad count `{n}`"))?,
            );
        } else {
            return Err(format!("unknown argument `{a}`"));
        }
    }
    out.cas_root = cas_root.ok_or("cas gc: --cas-root=DIR is required")?;
    Ok(out)
}

/// Execute `cxlg cas gc`: open the store (which already reaps stale
/// staging litter and quarantines corrupt manifests as part of open)
/// and evict entries oldest-publication-first until the given bounds
/// fit. With no bounds this is a recovery-only pass. Returns the exit
/// code.
fn run_cas_gc(args: CasGcArgs) -> i32 {
    let store = match cxlg_serve::store::ResultStore::new(&args.cas_root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cxlg cas gc: open {}: {e}", args.cas_root.display());
            return 2;
        }
    };
    let recovered = store.counters();
    let report = store.gc(args.max_bytes, args.max_entries);
    for key in &report.evicted {
        println!("evicted {key}");
    }
    println!(
        "cas gc {}: entries {} -> {}, bytes {} -> {} (reaped {} staging dir(s), \
         quarantined {} entr(ies))",
        args.cas_root.display(),
        report.entries_before,
        report.entries_before - report.evicted.len(),
        report.bytes_before,
        report.bytes_after,
        recovered.staging_reaped,
        recovered.quarantined,
    );
    0
}

/// Entry point of the `cxlg` binary.
pub fn cxlg_main() {
    #[expect(clippy::disallowed_methods, reason = "D6: the command line selects the run")]
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("list") => {
            for e in registry::all() {
                println!("{:<16} {}", e.name(), e.description());
            }
            println!();
            println!("{} experiments. Run with `cxlg run <names...>` or `cxlg run --all`.",
                registry::ALL.len());
            0
        }
        Some("run") => match parse_run_args(&args[1..]) {
            Ok(ra) => run_cli(ra),
            Err(msg) => {
                eprintln!("cxlg run: {msg}\n\n{USAGE}");
                2
            }
        },
        Some("graph-mem") => match parse_graph_mem_args(&args[1..]) {
            Ok(ga) => graph_mem(ga),
            Err(msg) => {
                eprintln!("cxlg graph-mem: {msg}\n\n{USAGE}");
                2
            }
        },
        Some("cas") => match parse_cas_args(&args[1..]) {
            Ok(ca) => run_cas_gc(ca),
            Err(msg) => {
                eprintln!("cxlg cas: {msg}\n\n{USAGE}");
                2
            }
        },
        Some("validate") => match crate::fidelity::parse_validate_args(&args[1..]) {
            Ok(va) => crate::fidelity::run_validate(va),
            Err(msg) => {
                eprintln!("cxlg validate: {msg}\n\n{USAGE}");
                2
            }
        },
        Some("help") | Some("--help") | Some("-h") => {
            print!("{USAGE}");
            0
        }
        Some(other) => {
            eprintln!("cxlg: unknown command `{other}`\n\n{USAGE}");
            2
        }
        None => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_names_and_manifest_forms() {
        let ra = parse_run_args(&s(&["fig3", "fig6"])).unwrap();
        assert_eq!(ra.names, vec!["fig3", "fig6"]);
        assert!(!ra.all);
        assert_eq!(ra.manifest, None);

        let ra = parse_run_args(&s(&["--all", "--json-manifest"])).unwrap();
        assert!(ra.all);
        assert_eq!(ra.manifest, Some(None));

        let ra = parse_run_args(&s(&["--json-manifest=/tmp/m.json", "fig3"])).unwrap();
        assert_eq!(ra.manifest, Some(Some("/tmp/m.json".to_string())));
    }

    #[test]
    fn parse_graph_storage_forms() {
        let ra = parse_run_args(&s(&["fig3"])).unwrap();
        assert_eq!(ra.graph_storage, cxlg_graph::StorageMode::Mem, "mem is the default");
        let ra = parse_run_args(&s(&["--graph-storage=spill", "fig3"])).unwrap();
        assert_eq!(ra.graph_storage, cxlg_graph::StorageMode::Spill);
        let ra = parse_run_args(&s(&["--graph-storage=mem", "--cached", "fig3"])).unwrap();
        assert_eq!(ra.graph_storage, cxlg_graph::StorageMode::Mem);
        assert!(ra.cached, "storage composes with --cached");
        assert!(parse_run_args(&s(&["--graph-storage=frob", "fig3"])).is_err());
        assert!(parse_run_args(&s(&["--graph-storage=", "fig3"])).is_err());
    }

    #[test]
    fn parse_rejects_bad_combinations() {
        assert!(parse_run_args(&s(&[])).is_err());
        assert!(parse_run_args(&s(&["--all", "fig3"])).is_err());
        assert!(parse_run_args(&s(&["--json-manifest="])).is_err());
        assert!(parse_run_args(&s(&["--frobnicate"])).is_err());
    }

    #[test]
    fn parse_graph_mem_forms() {
        let ga = parse_graph_mem_args(&s(&["urand", "18"])).unwrap();
        assert_eq!(
            ga,
            GraphMemArgs {
                family: "urand".to_string(),
                scale: 18,
                max_bytes_per_arc: None,
                storage: cxlg_graph::StorageMode::Mem,
            }
        );
        let ga = parse_graph_mem_args(&s(&["kron", "16", "--max-bytes-per-arc=10"])).unwrap();
        assert_eq!(ga.max_bytes_per_arc, Some(10.0));
        let ga = parse_graph_mem_args(&s(&["urand", "18", "--storage=spill"])).unwrap();
        assert_eq!(ga.storage, cxlg_graph::StorageMode::Spill);
        let ga = parse_graph_mem_args(&s(&["urand", "18", "--storage=mem"])).unwrap();
        assert_eq!(ga.storage, cxlg_graph::StorageMode::Mem);
    }

    #[test]
    fn parse_graph_mem_rejects_bad_input() {
        assert!(parse_graph_mem_args(&s(&[])).is_err());
        assert!(parse_graph_mem_args(&s(&["urand"])).is_err());
        assert!(parse_graph_mem_args(&s(&["frob", "18"])).is_err());
        assert!(parse_graph_mem_args(&s(&["urand", "big"])).is_err());
        assert!(parse_graph_mem_args(&s(&["urand", "0"])).is_err());
        assert!(parse_graph_mem_args(&s(&["urand", "32"])).is_err());
        assert!(parse_graph_mem_args(&s(&["urand", "18", "19"])).is_err());
        assert!(parse_graph_mem_args(&s(&["urand", "18", "--max-bytes-per-arc=0"])).is_err());
        assert!(parse_graph_mem_args(&s(&["urand", "18", "--max-bytes-per-arc=inf"])).is_err());
        assert!(parse_graph_mem_args(&s(&["urand", "18", "--max-bytes-per-arc=nan"])).is_err());
        assert!(parse_graph_mem_args(&s(&["urand", "18", "--frob"])).is_err());
        assert!(parse_graph_mem_args(&s(&["urand", "18", "--storage=frob"])).is_err());
        assert!(parse_graph_mem_args(&s(&["urand", "18", "--storage="])).is_err());
    }

    #[test]
    fn parse_run_cached_forms() {
        let ra = parse_run_args(&s(&["--cached", "--all"])).unwrap();
        assert!(ra.cached && ra.all);
        assert_eq!(ra.cas_root, None);
        let ra = parse_run_args(&s(&["--cached", "--cas-root=/tmp/cas", "fig3"])).unwrap();
        assert_eq!(ra.cas_root, Some("/tmp/cas".to_string()));
        assert!(parse_run_args(&s(&["--cas-root=/tmp/cas", "fig3"])).is_err());
        assert!(parse_run_args(&s(&["--cached", "--cas-root=", "fig3"])).is_err());
    }

    #[test]
    fn parse_run_chaos_forms() {
        // The store is bounded by `cxlg cas gc`, not by the run, and a
        // cached miss is one attempt: no budget, fault schedule or seed.
        for opt in [
            "--cas-max-bytes=4096",
            "--max-attempts=2",
            "--fault-plan=panic@1",
            "--fault-seed=7",
        ] {
            let Err(e) = parse_run_args(&s(&["--cached", opt, "fig3"])) else {
                panic!("{opt} must be rejected")
            };
            assert!(e.starts_with("unknown option"), "{opt}: {e}");
        }
    }

    #[test]
    fn parse_cas_gc_forms() {
        let ca = parse_cas_args(&s(&["gc", "--cas-root=/tmp/cas"])).unwrap();
        assert_eq!(
            ca,
            CasGcArgs {
                cas_root: PathBuf::from("/tmp/cas"),
                max_bytes: None,
                max_entries: None
            }
        );
        let ca = parse_cas_args(&s(&[
            "gc",
            "--cas-root=/tmp/cas",
            "--max-bytes=1048576",
            "--max-entries=16",
        ]))
        .unwrap();
        assert_eq!(ca.max_bytes, Some(1_048_576));
        assert_eq!(ca.max_entries, Some(16));
        assert!(parse_cas_args(&s(&[])).is_err(), "the verb is required");
        assert!(parse_cas_args(&s(&["frob"])).is_err());
        assert!(parse_cas_args(&s(&["gc"])).is_err(), "the root is required");
        assert!(parse_cas_args(&s(&["gc", "--cas-root="])).is_err());
        assert!(parse_cas_args(&s(&["gc", "--cas-root=/tmp/c", "--max-bytes=x"])).is_err());
        assert!(parse_cas_args(&s(&["gc", "--cas-root=/tmp/c", "--frob"])).is_err());
    }

    #[test]
    fn resolve_reports_unknown_names() {
        assert!(resolve(&s(&["fig3", "fig6"])).is_ok());
        let Err(err) = resolve(&s(&["fig3", "fig7"])) else {
            panic!("fig7 must not resolve")
        };
        assert!(err.contains("fig7"), "{err}");
        assert!(err.contains("known:"), "{err}");
    }
}
