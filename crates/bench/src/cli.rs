//! The `cxlg` campaign driver.
//!
//! One binary fronts the whole evaluation: `cxlg list` enumerates the
//! registry, `cxlg run <names...>` / `cxlg run --all` executes
//! experiments in-process against a single shared [`ExperimentCtx`] (so
//! the graph cache builds each dataset exactly once per invocation), and
//! `--json-manifest` records the run configuration, per-experiment
//! wall-clock, every result path, and the cache's per-spec build counts.
//! [`run_experiments`] is the one campaign loop behind `cxlg run`.
//! `cxlg validate` (the paper-fidelity gate) lives in
//! [`crate::fidelity`].

use crate::ctx::ExperimentCtx;
use crate::experiment::{Experiment, ExperimentReport};
use crate::registry;
use cxlg_core::mem::peak_rss_kb;
use cxlg_core::runner::timed;
use cxlg_graph::{CsrView, GraphSpec};
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
                             counts); default PATH is
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
    /// Graph storage backend (`--graph-storage=`, default mem).
    pub graph_storage: cxlg_graph::StorageMode,
}

/// Parse the arguments following `cxlg run`.
fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        all: false,
        names: Vec::new(),
        manifest: None,
        graph_storage: cxlg_graph::StorageMode::Mem,
    };
    for a in args {
        if a == "--all" {
            out.all = true;
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
    /// Names of experiments whose run panicked.
    pub failed: Vec<String>,
}

/// The campaign loop behind `cxlg run`: run `exps` in order against one
/// shared context, optionally writing a manifest. A panicking experiment
/// is caught and recorded — the rest of the campaign (and the manifest)
/// still completes. Integration tests and the benchmark call it
/// directly.
pub fn run_experiments(
    ctx: &ExperimentCtx,
    exps: &[&dyn Experiment],
    manifest_path: Option<&Path>,
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
    for exp in exps {
        println!("\n################ {} ################\n", exp.name());
        let (outcome, wall) = timed(|| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exp.run(ctx)))
        });
        walls_ms.push(wall.as_secs_f64() * 1e3);
        match outcome {
            Ok(report) => {
                reports.push(report);
                failed_flags.push(false);
            }
            Err(_) => {
                // A panic's message is already on stderr (default hook);
                // salvage whatever was dumped before the failure.
                eprintln!("[{}: experiment panicked]", exp.name());
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
        // failure — it consumes no more); evict any whose last consumer
        // this was.
        for spec in exp.specs(ctx) {
            if ctx.release(spec) {
                eprintln!("[evicted {} from the graph cache]", spec.name());
            }
        }
    }
    println!(
        "\n{} of {} experiment(s) regenerated. JSON in {}.",
        reports.len() - failed.len(),
        exps.len(),
        ctx.results_dir.display()
    );
    if !failed.is_empty() {
        eprintln!("\nFAILED: {failed:?}");
    }
    if let Some(path) = manifest_path {
        write_manifest(ctx, &reports, &walls_ms, &failed_flags, path);
    }
    CampaignOutcome { reports, failed }
}

/// Serialize the run manifest: configuration, per-experiment wall-clock
/// and result paths, and the graph cache's per-spec build counts (the
/// proof that the campaign built each dataset exactly once).
fn write_manifest(
    ctx: &ExperimentCtx,
    reports: &[ExperimentReport],
    walls_ms: &[f64],
    failed_flags: &[bool],
    path: &Path,
) {
    let experiments = reports
        .iter()
        .zip(walls_ms)
        .zip(failed_flags)
        .map(|((r, wall), failed)| {
            Value::Map(vec![
                ("name".to_string(), Value::Str(r.name.clone())),
                ("wall_ms".to_string(), Value::F64(*wall)),
                ("failed".to_string(), Value::Bool(*failed)),
                // Process high-water RSS when the experiment finished
                // (monotone over the campaign; 0 = no platform source).
                ("peak_rss_kb".to_string(), Value::U64(r.peak_rss_kb)),
                (
                    "result_files".to_string(),
                    Value::Array(r.result_files.iter().map(|f| Value::Str(f.clone())).collect()),
                ),
            ])
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
    let manifest = vec![
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
        ("peak_rss_kb".to_string(), Value::U64(peak_rss_kb())),
        ("experiments".to_string(), Value::Array(experiments)),
        ("graph_builds".to_string(), Value::Array(builds)),
        ("graph_evictions".to_string(), Value::Array(evictions)),
    ];
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
    let outcome = run_experiments(&ctx, &exps, manifest_path.as_deref());
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
        let ra = parse_run_args(&s(&["--graph-storage=mem", "fig3"])).unwrap();
        assert_eq!(ra.graph_storage, cxlg_graph::StorageMode::Mem);
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
    fn parse_run_rejects_retired_options() {
        // `cxlg run` has no result cache: no store, store root, budget,
        // retry count, fault schedule or fault seed.
        for opt in [
            "--cached",
            "--cas-root=/tmp/cas",
            "--cas-max-bytes=4096",
            "--max-attempts=2",
            "--fault-plan=panic@1",
            "--fault-seed=7",
        ] {
            let Err(e) = parse_run_args(&s(&[opt, "fig3"])) else {
                panic!("{opt} must be rejected")
            };
            assert!(e.starts_with("unknown option"), "{opt}: {e}");
        }
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
