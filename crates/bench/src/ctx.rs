//! [`ExperimentCtx`] — the environment an [`Experiment`] runs in.
//!
//! The context owns everything the old figure binaries each re-derived
//! from scratch: the simulation scale and seed, the thread count, the
//! results directory, and a process-wide [`GraphCache`] so a campaign
//! builds each dataset exactly once. Experiments receive `&ExperimentCtx`
//! and must route every graph build and result dump through it.
//!
//! [`Experiment`]: crate::experiment::Experiment

use crate::cache::GraphCache;
use cxlg_core::metrics::RunReport;
use cxlg_core::system::SystemConfig;
use cxlg_core::traversal::Traversal;
use cxlg_graph::spec::GraphSpec;
use cxlg_graph::{CsrStorage, CsrView, SpillConfig, StorageMode};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Shared run environment: scale, seed, thread count, output directory,
/// and the graph cache.
pub struct ExperimentCtx {
    /// log2 of the vertex count (paper: 27).
    pub scale: u32,
    /// Generator seed shared by every dataset.
    pub seed: u64,
    /// Worker threads parallel sweeps run on.
    pub threads: usize,
    /// Directory result JSON is written to.
    pub results_dir: PathBuf,
    cache: Arc<GraphCache>,
    /// Remaining declared consumers per spec (the eviction plan); empty
    /// when no campaign plan was installed, in which case `release` is
    /// a no-op and graphs live for the whole context. A `BTreeMap` so
    /// any future iteration is spec-ordered, not hash-ordered (D1).
    remaining_consumers: Mutex<BTreeMap<GraphSpec, usize>>,
    written: Mutex<Vec<String>>,
}

impl ExperimentCtx {
    /// Context from the environment — `CXLG_SCALE` (default 16),
    /// `CXLG_SEED` (default `0x5EED`), `CXLG_RESULTS_DIR` (default
    /// `target/paper-results`) and the rayon pool size — with an explicit
    /// storage backend: `cxlg run` passes its `--graph-storage=` choice
    /// (mem when absent). In spill mode the graph spill files live
    /// under `<results_dir>/graph-spill/` (not `.json`, so the result
    /// byte-diff gates never see them) and are deleted as graphs are
    /// evicted or the process exits.
    pub fn from_env_with_storage(mode: StorageMode) -> Self {
        let results_dir = crate::results_dir();
        let cache = Arc::new(GraphCache::with_storage(
            mode,
            SpillConfig::new(results_dir.join("graph-spill")),
        ));
        #[expect(
            clippy::disallowed_methods,
            reason = "D6: pool size is read once into ctx.threads and recorded in every result header; results are thread-count invariant by the ci.sh byte-diff gate"
        )]
        let threads = rayon::current_num_threads();
        Self::with_cache(
            crate::bench_scale(),
            crate::bench_seed(),
            threads,
            results_dir,
            cache,
        )
    }

    /// Context with explicit parameters (tests, embedding).
    pub fn new(scale: u32, seed: u64, threads: usize, results_dir: PathBuf) -> Self {
        Self::with_cache(scale, seed, threads, results_dir, Arc::new(GraphCache::new()))
    }

    /// Context over an existing graph cache (a configured storage
    /// backend, or one cache shared by several contexts).
    pub fn with_cache(
        scale: u32,
        seed: u64,
        threads: usize,
        results_dir: PathBuf,
        cache: Arc<GraphCache>,
    ) -> Self {
        std::fs::create_dir_all(&results_dir).expect("create results dir");
        ExperimentCtx {
            scale,
            seed,
            threads,
            results_dir,
            cache,
            remaining_consumers: Mutex::new(BTreeMap::new()),
            written: Mutex::new(Vec::new()),
        }
    }

    /// Run a sweep on this context's configured worker count — the one
    /// knob that sizes both the cross-point fan-out and the per-window
    /// feeds of [`sweep_systems`](Self::sweep_systems).
    /// Experiments must route sweeps through here (or through
    /// `sweep_systems`) rather than calling `cxlg_core::runner`'s sweeps
    /// directly, so `ctx.threads` is authoritative and the manifest's
    /// recorded thread count matches what actually ran.
    pub fn sweep<P, R, F>(&self, points: Vec<P>, f: F) -> Vec<R>
    where
        P: Send,
        R: Send,
        F: Fn(P) -> R + Sync + Send,
    {
        cxlg_core::runner::sweep_with_threads(self.threads, points, f)
    }

    /// Run one traversal over many systems on one graph
    /// ([`cxlg_core::runner::sweep_systems`]: traced once, planned once
    /// per access method) on this context's configured worker count.
    /// One report per system, in input order.
    pub fn sweep_systems<G: CsrView + ?Sized>(
        &self,
        graph: &G,
        traversal: Traversal,
        systems: &[SystemConfig],
    ) -> Vec<RunReport> {
        rayon::with_num_threads(self.threads.max(1), || {
            cxlg_core::runner::sweep_systems(graph, traversal, systems)
        })
    }

    /// The three paper datasets at this context's scale and seed, in
    /// Table 1 order.
    pub fn paper_datasets(&self) -> [GraphSpec; 3] {
        [
            GraphSpec::urand(self.scale).seed(self.seed),
            GraphSpec::kron(self.scale).seed(self.seed),
            GraphSpec::friendster_like(self.scale).seed(self.seed),
        ]
    }

    /// The graph for `spec`, via the shared cache (built at most once
    /// per spec per context), in whatever storage backend the cache was
    /// configured with.
    pub fn graph(&self, spec: GraphSpec) -> Arc<CsrStorage> {
        self.cache.get(spec)
    }

    /// The storage backend this context's graphs are built into.
    pub fn graph_storage_mode(&self) -> StorageMode {
        self.cache.storage_mode()
    }

    /// `(resident, on-disk)` byte totals over the currently built graphs
    /// (manifest telemetry).
    pub fn graph_storage_bytes(&self) -> (u64, u64) {
        self.cache.storage_bytes()
    }

    /// Per-spec build counts so far (manifest evidence).
    pub fn graph_build_counts(&self) -> Vec<(String, u64)> {
        self.cache.build_counts()
    }

    /// Install the campaign's eviction plan: how many experiments in
    /// the run list declared each spec (via
    /// [`Experiment::specs`](crate::experiment::Experiment::specs)).
    /// The driver computes this before the first experiment runs;
    /// replacing an existing plan resets all remaining counts.
    pub fn plan_graph_consumers(&self, consumers: BTreeMap<GraphSpec, usize>) {
        *self.remaining_consumers.lock().unwrap() = consumers;
    }

    /// Record that one declared consumer of `spec` has finished. When
    /// the last one does, the graph is dropped from the shared cache —
    /// its memory is freed as soon as the final `Arc` clone goes away —
    /// and `true` is returned. Without an installed plan this is a
    /// no-op (tests and embedders keep whole-context caching).
    pub fn release(&self, spec: GraphSpec) -> bool {
        let mut remaining = self.remaining_consumers.lock().unwrap();
        match remaining.get_mut(&spec) {
            Some(count) if *count > 1 => {
                *count -= 1;
                false
            }
            Some(_) => {
                remaining.remove(&spec);
                // Hold the plan lock across the eviction so a
                // concurrent release of the same spec cannot double
                // count.
                self.cache.release(&spec)
            }
            None => false,
        }
    }

    /// Per-spec eviction counts so far (manifest evidence, alongside
    /// the build counts).
    pub fn graph_eviction_counts(&self) -> Vec<(String, u64)> {
        self.cache.eviction_counts()
    }

    /// Print the standard experiment header.
    pub fn banner(&self, experiment: &str, description: &str) {
        println!("==============================================================");
        println!("{experiment} — {description}");
        println!(
            "scale 2^{} vertices, seed {:#x} (paper: scale 2^27)",
            self.scale, self.seed
        );
        println!("==============================================================");
    }

    /// Dump a result as JSON under the results directory.
    ///
    /// The file is `{ "header": {experiment, scale, seed, threads},
    /// "series": <value> }` — the header records the run configuration,
    /// the `series` member keeps the exact shape the legacy binaries
    /// wrote at the top level, so ci.sh can byte-diff everything but the
    /// `"threads"` line across pool sizes.
    pub fn dump_json<T: Serialize>(&self, name: &str, value: &T) {
        let wrapped = Value::Map(vec![
            (
                "header".to_string(),
                Value::Map(vec![
                    ("experiment".to_string(), Value::Str(name.to_string())),
                    ("scale".to_string(), Value::U64(self.scale as u64)),
                    ("seed".to_string(), Value::U64(self.seed)),
                    ("threads".to_string(), Value::U64(self.threads as u64)),
                ]),
            ),
            ("series".to_string(), value.to_value()),
        ]);
        let path = self.results_dir.join(format!("{name}.json"));
        let mut f = std::fs::File::create(&path).expect("create result file");
        let s = serde_json::to_string_pretty(&wrapped).expect("serialize result");
        f.write_all(s.as_bytes()).expect("write result file");
        eprintln!("[saved {}]", path.display());
        self.written
            .lock()
            .unwrap()
            .push(path.display().to_string());
    }

    /// Drain the paths dumped since the last call — the driver collects
    /// them into the finishing experiment's report.
    pub fn take_written(&self) -> Vec<String> {
        std::mem::take(&mut self.written.lock().unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_ctx(tag: &str) -> ExperimentCtx {
        let dir = std::env::temp_dir().join(format!("cxlg-ctx-test-{tag}-{}", std::process::id()));
        ExperimentCtx::new(8, 1, 2, dir)
    }

    #[test]
    fn datasets_cover_the_paper_trio_at_ctx_scale() {
        let ctx = tmp_ctx("trio");
        let ds = ctx.paper_datasets();
        assert_eq!(ds[0].name(), "urand8");
        assert_eq!(ds[1].name(), "kron8");
        assert_eq!(ds[2].name(), "friendster8");
        assert!(ds.iter().all(|d| d.seed == 1));
    }

    #[test]
    fn graphs_are_cached_per_spec() {
        let ctx = tmp_ctx("cache");
        let spec = ctx.paper_datasets()[0];
        let a = ctx.graph(spec);
        let b = ctx.graph(spec);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(
            ctx.graph_build_counts(),
            vec![("urand8(deg32)@0x1".to_string(), 1)]
        );
    }

    #[test]
    fn release_evicts_only_after_the_last_declared_consumer() {
        let ctx = tmp_ctx("evict");
        let spec = ctx.paper_datasets()[0];
        ctx.plan_graph_consumers(BTreeMap::from([(spec, 2)]));
        let _g = ctx.graph(spec);
        assert!(!ctx.release(spec), "first of two consumers must not evict");
        assert!(ctx.graph_eviction_counts().is_empty());
        assert!(ctx.release(spec), "last consumer must evict");
        assert_eq!(
            ctx.graph_eviction_counts(),
            vec![("urand8(deg32)@0x1".to_string(), 1)]
        );
        // Releasing past the plan stays inert.
        assert!(!ctx.release(spec));
    }

    #[test]
    fn release_without_a_plan_is_a_no_op() {
        let ctx = tmp_ctx("noplan");
        let spec = ctx.paper_datasets()[0];
        let a = ctx.graph(spec);
        assert!(!ctx.release(spec));
        let b = ctx.graph(spec);
        assert!(Arc::ptr_eq(&a, &b), "graph must survive unplanned release");
    }

    #[test]
    fn dump_json_wraps_series_under_a_header() {
        let ctx = tmp_ctx("dump");
        ctx.dump_json("unit", &vec![1u64, 2, 3]);
        let written = ctx.take_written();
        assert_eq!(written.len(), 1);
        let text = std::fs::read_to_string(&written[0]).unwrap();
        let v: Value = serde_json::from_str(&text).unwrap();
        let Value::Map(top) = &v else { panic!("top level must be a map") };
        assert_eq!(top[0].0, "header");
        assert_eq!(top[1].0, "series");
        let Value::Map(header) = &top[0].1 else { panic!("header must be a map") };
        assert_eq!(
            header
                .iter()
                .map(|(k, _)| k.as_str())
                .collect::<Vec<_>>(),
            vec!["experiment", "scale", "seed", "threads"]
        );
        assert_eq!(header[1].1, Value::U64(8));
        assert_eq!(header[3].1, Value::U64(2));
        assert_eq!(top[1].1, Value::Array(vec![
            Value::U64(1),
            Value::U64(2),
            Value::U64(3),
        ]));
        // Drained: a second take sees nothing.
        assert!(ctx.take_written().is_empty());
    }
}
