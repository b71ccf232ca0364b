//! The cached-campaign properties `cxlg run --cached` promises: a
//! second run over a warm store is all cache hits with byte-identical
//! result files and zero graph builds — whatever the graph storage
//! backend, which is not part of a key — job keys are stable across
//! runs, a tampered CAS entry is re-executed and repaired rather than
//! served, and a failing experiment — one that panics or whose result
//! cannot be read back — fails alone without publishing, and runs again
//! on the next pass.

use cxlg_bench::cli::{run_campaign, CampaignCache, CampaignOutcome, BUILD_ID};
use cxlg_bench::cache::GraphCache;
use cxlg_bench::ctx::ExperimentCtx;
use cxlg_bench::experiment::{Experiment, FnExperiment};
use cxlg_bench::registry;
use cxlg_graph::{SpillConfig, StorageMode};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What one cached campaign left behind.
struct Run {
    outcome: CampaignOutcome,
    graph_builds: Vec<(String, u64)>,
}

impl Run {
    /// `(cache hits, cache misses)` of the run.
    fn hits_misses(&self) -> (usize, usize) {
        let hits = self.outcome.cached.iter().filter(|r| r.cache_hit).count();
        (hits, self.outcome.cached.len() - hits)
    }
}

/// A cache over the store at `cas`.
fn open(cas: &Path) -> CampaignCache {
    CampaignCache::open(cas, BUILD_ID).unwrap()
}

/// `cxlg run --cached` over `list` at scale 8 into `results`.
fn run(
    seed: u64,
    threads: usize,
    results: &Path,
    list: &[&dyn Experiment],
    manifest: Option<&Path>,
    cache: CampaignCache,
) -> Run {
    let ctx = ExperimentCtx::new(8, seed, threads, results.to_path_buf());
    run_in(ctx, list, manifest, cache)
}

/// `cxlg run --cached` over `list` in `ctx`.
fn run_in(
    ctx: ExperimentCtx,
    list: &[&dyn Experiment],
    manifest: Option<&Path>,
    cache: CampaignCache,
) -> Run {
    let outcome = rayon::with_num_threads(ctx.threads, || {
        run_campaign(&ctx, list, manifest, Some(&cache))
    });
    Run {
        outcome,
        graph_builds: ctx.graph_build_counts(),
    }
}

fn exps(names: &[&str]) -> Vec<&'static dyn Experiment> {
    names
        .iter()
        .map(|n| registry::find(n).unwrap_or_else(|| panic!("unknown experiment {n}")))
        .collect()
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn base(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn read_text(path: &Path) -> String {
    String::from_utf8(read(path)).unwrap()
}

#[test]
fn second_cached_run_is_all_hits_and_byte_identical() {
    let base = base("cached-campaign");
    let cas = base.join("cas");
    let list = exps(&["fig3", "fig4", "eqcheck"]);

    let pass1 = base.join("pass1");
    let o1 = run(
        0x5EED,
        2,
        &pass1,
        &list,
        Some(&pass1.join("manifest.json")),
        open(&cas),
    );
    assert!(
        o1.outcome.failed.is_empty(),
        "failed: {:?}",
        o1.outcome.failed
    );
    assert!(
        o1.outcome.cached.iter().all(|r| !r.cache_hit),
        "a cold store has no hits"
    );
    assert_eq!(o1.hits_misses(), (0, 3));
    assert!(!o1.graph_builds.is_empty(), "cold run must build graphs");
    // eqcheck is the print-only experiment: cached as done, no files.
    let eq = o1
        .outcome
        .reports
        .iter()
        .find(|r| r.name == "eqcheck")
        .unwrap();
    assert!(eq.result_files.is_empty());
    assert!(pass1.join("fig3.json").is_file());
    assert!(pass1.join("manifest.json").is_file());

    let pass2 = base.join("pass2");
    let o2 = run(
        0x5EED,
        2,
        &pass2,
        &list,
        Some(&pass2.join("manifest.json")),
        open(&cas),
    );
    assert!(
        o2.outcome.failed.is_empty(),
        "failed: {:?}",
        o2.outcome.failed
    );
    assert!(
        o2.outcome.cached.iter().all(|r| r.cache_hit),
        "warm store must serve every job: {:?}",
        o2.outcome
            .reports
            .iter()
            .zip(&o2.outcome.cached)
            .map(|(r, c)| (r.name.clone(), c.cache_hit))
            .collect::<Vec<_>>()
    );
    assert_eq!(o2.hits_misses(), (3, 0));
    assert!(
        o2.graph_builds.is_empty(),
        "a fully warm run must not build any graph, got {:?}",
        o2.graph_builds
    );

    // Same jobs, same keys — content addressing is stable across runs.
    for ((ra, a), (rb, b)) in o1
        .outcome
        .reports
        .iter()
        .zip(&o1.outcome.cached)
        .zip(o2.outcome.reports.iter().zip(&o2.outcome.cached))
    {
        assert_eq!(ra.name, rb.name);
        assert_eq!(a.key, b.key, "{} key drifted across runs", ra.name);
    }

    // The cached result files are byte-identical to the fresh ones.
    for name in ["fig3.json", "fig4.json"] {
        assert_eq!(
            read(&pass1.join(name)),
            read(&pass2.join(name)),
            "{name} differs between fresh and cached runs"
        );
    }

    // A spill-storage pass over the same store is all hits too: storage
    // is an execution strategy, not a key input, and a hit reads no
    // graph in any backend.
    let spill = base.join("pass-spill");
    let cache = Arc::new(GraphCache::with_storage(
        StorageMode::Spill,
        SpillConfig::new(spill.join("graph-spill")),
    ));
    let ctx = ExperimentCtx::with_cache(8, 0x5EED, 2, spill.clone(), cache);
    let os = run_in(ctx, &list, Some(&spill.join("manifest.json")), open(&cas));
    assert!(os.outcome.failed.is_empty(), "failed: {:?}", os.outcome.failed);
    assert_eq!(os.hits_misses(), (3, 0), "storage mode must not move a key");
    assert!(
        os.graph_builds.is_empty(),
        "a warm spill pass must not build any graph, got {:?}",
        os.graph_builds
    );
    for (a, b) in o1.outcome.cached.iter().zip(&os.outcome.cached) {
        assert_eq!(a.key, b.key);
    }
    for name in ["fig3.json", "fig4.json"] {
        assert_eq!(
            read(&pass1.join(name)),
            read(&spill.join(name)),
            "{name} differs between the mem pass and the spill pass"
        );
    }
    let text = read_text(&spill.join("manifest.json"));
    assert!(text.contains("\"graph_storage\": \"spill\""), "{text}");

    // A different job (other seed) gets a different key.
    let pass3 = base.join("pass3");
    let o3 = run(0x0BAD, 2, &pass3, &exps(&["fig3"]), None, open(&cas));
    assert_ne!(o3.outcome.cached[0].key, o1.outcome.cached[2].key);
    assert!(
        !o3.outcome.cached[0].cache_hit,
        "a new seed is a distinct job"
    );
}

#[test]
fn tampered_cas_entries_are_reexecuted_and_repaired() {
    let base = base("cached-tamper");
    let cas = base.join("cas");
    let list = exps(&["fig3"]);

    let pass1 = base.join("pass1");
    let o1 = run(0x5EED, 1, &pass1, &list, None, open(&cas));
    assert!(o1.outcome.failed.is_empty());
    let key = o1.outcome.cached[0].key.clone();
    let fresh = read(&pass1.join("fig3.json"));

    // Corrupt the stored payload in place (same length, flipped byte).
    let payload = cas.join(&key).join("fig3.json");
    let mut bytes = read(&payload);
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&payload, &bytes).unwrap();

    let pass2 = base.join("pass2");
    let manifest = pass2.join("manifest.json");
    let o2 = run(0x5EED, 1, &pass2, &list, Some(&manifest), open(&cas));
    assert!(o2.outcome.failed.is_empty());
    assert!(
        !o2.outcome.cached[0].cache_hit,
        "integrity failure must force re-execution, not a serve"
    );
    assert_eq!(
        o2.outcome.cached[0].key, key,
        "the key is input-derived, unchanged"
    );
    // The re-executed result matches the original bytes, and the store
    // entry is repaired.
    assert_eq!(read(&pass2.join("fig3.json")), fresh);
    assert_eq!(read(&payload), fresh);
    // The manifest records the quarantined entry.
    let manifest = read_text(&manifest);
    assert!(manifest.contains("\"quarantined\": 1,"), "{manifest}");
}

#[test]
fn a_panicking_experiment_fails_alone_and_publishes_nothing() {
    fn boom(_: &ExperimentCtx) {
        panic!("deliberate test panic");
    }
    fn no_specs(_: &ExperimentCtx) -> Vec<cxlg_graph::GraphSpec> {
        Vec::new()
    }
    static BOOM: FnExperiment = FnExperiment {
        name: "boom",
        description: "panics on purpose",
        specs: no_specs,
        run: boom,
    };
    let base = base("cached-panic");
    let cas = base.join("cas");
    let fig4 = registry::find("fig4").unwrap();
    let list: [&dyn Experiment; 2] = [&BOOM, fig4];

    let pass1 = base.join("pass1");
    let manifest = pass1.join("manifest.json");
    let o1 = run(0x5EED, 1, &pass1, &list, Some(&manifest), open(&cas));
    assert_eq!(
        o1.outcome.failed,
        vec!["boom".to_string()],
        "fig4 still runs"
    );
    let (panicked, published) = (&o1.outcome.cached[0], &o1.outcome.cached[1]);
    assert_eq!(panicked.error.as_deref(), Some("experiment panicked"));
    assert_eq!(published.error, None);
    assert!(
        !cas.join(&panicked.key).exists(),
        "a failed run must publish nothing"
    );
    assert!(cas.join(&published.key).is_dir(), "fig4 must publish");
    // The manifest names the failure and its cause.
    let text = read_text(&manifest);
    assert!(text.contains("\"failed\": true"), "{text}");
    assert!(
        text.contains("\"error\": \"experiment panicked\""),
        "{text}"
    );

    // A second pass serves fig4 and re-executes the panicker, which has
    // no entry to serve.
    let pass2 = base.join("pass2");
    let o2 = run(0x5EED, 1, &pass2, &list, None, open(&cas));
    assert_eq!(o2.outcome.failed, vec!["boom".to_string()]);
    assert!(!o2.outcome.cached[0].cache_hit);
    assert!(o2.outcome.cached[1].cache_hit, "fig4 must be a hit");
    assert_eq!(
        read(&pass1.join("fig4.json")),
        read(&pass2.join("fig4.json"))
    );
}

#[test]
fn injected_panic_is_contained_and_retried_within_budget() {
    // A cached miss gets one attempt per pass. A panic injected into the
    // first pass is contained there; the next pass is the retry, and its
    // success is published and served from then on.
    use std::sync::atomic::{AtomicBool, Ordering};
    static PANICKED: AtomicBool = AtomicBool::new(false);
    fn flaky(ctx: &ExperimentCtx) {
        if !PANICKED.swap(true, Ordering::SeqCst) {
            panic!("deliberate first-run panic");
        }
        ctx.dump_json("flaky", &42u64);
    }
    fn no_specs(_: &ExperimentCtx) -> Vec<cxlg_graph::GraphSpec> {
        Vec::new()
    }
    static FLAKY: FnExperiment = FnExperiment {
        name: "flaky",
        description: "panics on its first run only",
        specs: no_specs,
        run: flaky,
    };
    let base = base("cached-flaky");
    let cas = base.join("cas");
    let list: [&dyn Experiment; 1] = [&FLAKY];

    let pass1 = base.join("pass1");
    let o1 = run(0x5EED, 1, &pass1, &list, None, open(&cas));
    assert_eq!(o1.outcome.failed, vec!["flaky".to_string()]);
    let key = o1.outcome.cached[0].key.clone();
    assert_eq!(
        o1.outcome.cached[0].error.as_deref(),
        Some("experiment panicked")
    );
    assert!(
        !cas.join(&key).exists(),
        "a panicked run must publish nothing"
    );

    let pass2 = base.join("pass2");
    let o2 = run(0x5EED, 1, &pass2, &list, None, open(&cas));
    assert!(o2.outcome.failed.is_empty(), "the retry succeeds");
    assert_eq!(o2.outcome.cached[0].key, key, "the retry is the same job");
    assert!(!o2.outcome.cached[0].cache_hit);
    assert!(cas.join(&key).is_dir(), "the retry publishes");

    let pass3 = base.join("pass3");
    let o3 = run(0x5EED, 1, &pass3, &list, None, open(&cas));
    assert!(o3.outcome.failed.is_empty());
    assert!(
        o3.outcome.cached[0].cache_hit,
        "the published retry is served"
    );
    assert_eq!(
        read(&pass2.join("flaky.json")),
        read(&pass3.join("flaky.json"))
    );
}

#[test]
fn exhausted_retry_budget_fails_with_the_last_error() {
    // The one attempt of a cached miss ends at its last failing stage:
    // a run that returns but whose result file is gone before
    // publication fails with the read error, not a panic, and publishes
    // nothing, on every pass.
    fn vanishing(ctx: &ExperimentCtx) {
        ctx.dump_json("vanishing", &7u64);
        std::fs::remove_file(ctx.results_dir.join("vanishing.json")).unwrap();
    }
    fn no_specs(_: &ExperimentCtx) -> Vec<cxlg_graph::GraphSpec> {
        Vec::new()
    }
    static VANISHING: FnExperiment = FnExperiment {
        name: "vanishing",
        description: "deletes its own result file",
        specs: no_specs,
        run: vanishing,
    };
    let base = base("cached-vanishing");
    let cas = base.join("cas");
    let list: [&dyn Experiment; 1] = [&VANISHING];

    for pass in ["pass1", "pass2"] {
        let dir = base.join(pass);
        let manifest = dir.join("manifest.json");
        let o = run(0x5EED, 1, &dir, &list, Some(&manifest), open(&cas));
        assert_eq!(o.outcome.failed, vec!["vanishing".to_string()], "{pass}");
        let record = &o.outcome.cached[0];
        assert!(!record.cache_hit, "{pass}: nothing to serve");
        let error = record.error.as_deref().unwrap_or_default();
        assert!(error.starts_with("read result `"), "{pass}: {error}");
        assert!(error.contains("vanishing.json"), "{pass}: {error}");
        assert!(!cas.join(&record.key).exists(), "{pass}: nothing published");
        let text = read_text(&manifest);
        assert!(text.contains("\"failed\": true"), "{text}");
        assert!(text.contains("\"error\": \"read result `"), "{text}");
    }
}
