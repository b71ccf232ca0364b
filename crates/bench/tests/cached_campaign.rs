//! The cached-campaign properties `cxlg run --cached` promises: a
//! second run over a warm store is all cache hits with byte-identical
//! result files and zero graph builds, job keys are stable across
//! runs, a tampered CAS entry is re-executed and repaired rather than
//! served, and under a pinned fault plan the campaign contains panics,
//! retries within its attempt budget, heals poisoned entries, and
//! replays to the same counters.

use cxlg_bench::cli::{run_campaign, CampaignCache, CampaignOutcome, BUILD_ID};
use cxlg_bench::ctx::ExperimentCtx;
use cxlg_bench::experiment::Experiment;
use cxlg_bench::registry;
use cxlg_serve::fault::{FaultInjector, FaultPlan};
use cxlg_serve::stats::Stats;
use std::path::{Path, PathBuf};

/// What one cached campaign left behind.
struct Run {
    outcome: CampaignOutcome,
    stats: Stats,
    graph_builds: Vec<(String, u64)>,
}

/// A cache over the store at `cas`; `plan` is `(fault plan, seed)`.
fn open(cas: &Path, plan: Option<(&str, u64)>, max_attempts: u64) -> CampaignCache {
    let faults = plan.map(|(spec, seed)| FaultInjector::new(seed, FaultPlan::parse(spec).unwrap()));
    CampaignCache::open(cas, BUILD_ID, faults, max_attempts).unwrap()
}

/// `cxlg run --cached` over `list` at scale 8 into `results`.
fn run(
    seed: u64,
    threads: usize,
    results: &Path,
    list: &[&dyn Experiment],
    manifest: Option<&Path>,
    mut cache: CampaignCache,
) -> Run {
    let ctx = ExperimentCtx::new(8, seed, threads, results.to_path_buf());
    let outcome = rayon::with_num_threads(threads, || {
        run_campaign(&ctx, list, manifest, Some(&mut cache))
    });
    Run {
        outcome,
        stats: cache.stats(),
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

/// The fields of a `service-stats.json` snapshot.
fn stats_fields(results: &Path) -> (String, Vec<(String, serde::Value)>) {
    let text = String::from_utf8(read(&results.join("service-stats.json"))).unwrap();
    let Ok(serde::Value::Map(map)) = serde_json::from_str::<serde::Value>(&text) else {
        panic!("service-stats.json must be a JSON map:\n{text}")
    };
    (text, map)
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
        open(&cas, None, 1),
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
    assert_eq!((o1.stats.cache_hits, o1.stats.cache_misses), (0, 3));
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
        open(&cas, None, 1),
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
    assert_eq!((o2.stats.cache_hits, o2.stats.cache_misses), (3, 0));
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

    // A different job (other seed) gets a different key.
    let pass3 = base.join("pass3");
    let o3 = run(
        0x0BAD,
        2,
        &pass3,
        &exps(&["fig3"]),
        None,
        open(&cas, None, 1),
    );
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
    let o1 = run(0x5EED, 1, &pass1, &list, None, open(&cas, None, 1));
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
    let o2 = run(0x5EED, 1, &pass2, &list, None, open(&cas, None, 1));
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
}

#[test]
fn a_chaos_campaign_self_heals_to_fault_free_bytes() {
    let base = base("cached-chaos");
    let list = exps(&["fig3", "fig4"]);

    // The fault-free reference run.
    let clean_dir = base.join("clean");
    let o0 = run(
        0x5EED,
        1,
        &clean_dir,
        &list,
        None,
        open(&base.join("cas-clean"), None, 1),
    );
    assert!(
        o0.outcome.failed.is_empty(),
        "failed: {:?}",
        o0.outcome.failed
    );

    // Deterministic event trace (experiments in order, attempts in
    // order):
    //   fig3: exec#1 ok → publish#1 TORN  → retry
    //         exec#2 ok → publish#2 CORRUPT → published but poisoned;
    //         the verifying probe quarantines it and the heal loop
    //         re-executes
    //         exec#3 ok → publish#3 ok → healed
    //   fig4: exec#4 PANIC → retry → exec#5 ok → publish#4 ok
    let chaos_dir = base.join("chaos");
    let o1 = run(
        0x5EED,
        1,
        &chaos_dir,
        &list,
        None,
        open(
            &base.join("cas-chaos"),
            Some(("torn@1,corrupt@2,panic@4", 42)),
            4,
        ),
    );
    assert!(
        o1.outcome.failed.is_empty(),
        "the chaos campaign must self-heal, not fail: {:?}",
        o1.outcome.failed
    );

    // Every result file converges to the fault-free bytes.
    for name in ["fig3.json", "fig4.json"] {
        assert_eq!(
            read(&chaos_dir.join(name)),
            read(&clean_dir.join(name)),
            "{name} differs from the fault-free run"
        );
    }

    // The stats snapshot records the recovery work the plan forced.
    let (text, map) = stats_fields(&chaos_dir);
    let field = |k: &str| {
        map.iter()
            .find(|(n, _)| n == k)
            .unwrap_or_else(|| panic!("stats must carry `{k}`:\n{text}"))
            .1
            .clone()
    };
    assert_eq!(
        field("retries"),
        serde::Value::U64(2),
        "torn + panic each retry"
    );
    assert_eq!(field("faults_injected"), serde::Value::U64(3));
    assert_eq!(field("failed"), serde::Value::U64(0));
    let serde::Value::Map(store) = field("store") else {
        panic!("store stats must be a map")
    };
    assert!(
        store
            .iter()
            .any(|(k, v)| k == "quarantined" && *v == serde::Value::U64(1)),
        "the poisoned entry must be quarantined: {text}"
    );
}

#[test]
fn injected_panic_is_contained_and_retried_within_budget() {
    let base = base("cached-panic");
    let list = exps(&["fig3"]);
    let clean_dir = base.join("clean");
    run(
        0x5EED,
        1,
        &clean_dir,
        &list,
        None,
        open(&base.join("cas-clean"), None, 1),
    );

    let dir = base.join("panic");
    let o = run(
        0x5EED,
        1,
        &dir,
        &list,
        None,
        open(&base.join("cas"), Some(("panic@1", 1)), 2),
    );
    assert!(o.outcome.failed.is_empty(), "retry must absorb the panic");
    assert!(!o.outcome.cached[0].cache_hit);
    assert_eq!(o.outcome.cached[0].error, None);
    assert_eq!(o.stats.retries, 1);
    assert_eq!(o.stats.failed, 0);
    assert_eq!(o.stats.faults_injected, 1);
    // The retry reuses the graphs already built, and its result is
    // byte-identical to a fault-free run.
    assert!(
        o.graph_builds.iter().all(|(_, n)| *n == 1),
        "{:?}",
        o.graph_builds
    );
    assert_eq!(
        read(&dir.join("fig3.json")),
        read(&clean_dir.join("fig3.json"))
    );
}

#[test]
fn exhausted_retry_budget_fails_with_the_last_error() {
    let base = base("cached-budget");
    let dir = base.join("results");
    let manifest = dir.join("manifest.json");
    let o = run(
        0x5EED,
        1,
        &dir,
        &exps(&["fig3", "fig4"]),
        Some(&manifest),
        open(&base.join("cas"), Some(("error@1,error@2", 1)), 2),
    );
    assert_eq!(
        o.outcome.failed,
        vec!["fig3".to_string()],
        "fig4 still runs"
    );
    assert_eq!(
        o.outcome.cached[0].error.as_deref(),
        Some("injected fault: execute error")
    );
    assert_eq!(o.outcome.cached[1].error, None);
    assert_eq!((o.stats.retries, o.stats.failed), (1, 1));
    let (text, map) = stats_fields(&dir);
    assert!(
        map.iter()
            .any(|(k, v)| k == "failed" && *v == serde::Value::U64(1)),
        "{text}"
    );
    // The manifest names the failure and its cause.
    let manifest = String::from_utf8(read(&manifest)).unwrap();
    assert!(
        manifest.contains("\"error\": \"injected fault: execute error\""),
        "{manifest}"
    );
    assert!(manifest.contains("\"failed\": true"), "{manifest}");
}

#[test]
fn a_pinned_fault_plan_replays_byte_for_byte() {
    // Under the plan, in experiment and attempt order:
    //   fig3: exec#1 ok, publish#1 ok
    //   fig4: exec#2 PANIC → retry → exec#3 ok, publish#2 TORN → retry
    //         → exec#4 ERROR → retry → exec#5 (delayed) ok, publish#3
    //         CORRUPT → poisoned → heal: exec#6 ok, publish#4 ok
    //   eqcheck: exec#7 ok, publish#5 ok
    let base = base("cached-replay");
    let list = exps(&["fig3", "fig4", "eqcheck"]);
    let replay = |tag: &str| {
        let dir = base.join(tag);
        let o = run(
            0x5EED,
            1,
            &dir,
            &list,
            None,
            open(
                &base.join(format!("cas-{tag}")),
                Some(("panic@2,error@4,delay@5:10,torn@2,corrupt@3", 2023)),
                4,
            ),
        );
        assert!(o.outcome.failed.is_empty(), "{:?}", o.outcome.failed);
        assert_eq!(
            o.stats.retries, 3,
            "panic + torn + error each cost one retry"
        );
        assert_eq!(o.stats.faults_injected, 5, "the whole plan must fire");
        assert_eq!(
            o.stats.store.quarantined, 1,
            "the corruption must quarantine"
        );
        assert_eq!(o.stats.failed, 0, "every experiment must heal");
        dir
    };
    let a = replay("a");
    let b = replay("b");
    assert_eq!(
        read(&a.join("service-stats.json")),
        read(&b.join("service-stats.json")),
        "same (seed, plan) must replay to an identical stats snapshot"
    );
    for name in ["fig3.json", "fig4.json"] {
        assert_eq!(read(&a.join(name)), read(&b.join(name)), "{name}");
    }
}
