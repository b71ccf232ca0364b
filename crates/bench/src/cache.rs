//! Process-wide graph cache keyed by [`GraphSpec`].
//!
//! The experiment campaign (Figs. 3–6, 9–11, Tables 1–2 plus the
//! extension studies) reuses the same three paper datasets over and
//! over; before the cache existed, `all_figures` re-generated and
//! re-CSR'd each of them once per figure binary. The cache guarantees
//! **one build per distinct spec per process** — concurrent requests
//! for the same spec block on a [`OnceLock`] while the first caller
//! builds, and requests for different specs build in parallel (the
//! vendored rayon spawns a fresh scoped pool per parallel call, so
//! blocking a worker thread cannot deadlock the pool).
//!
//! Build counts are recorded per spec so the `cxlg` manifest can prove
//! the "each dataset built exactly once" property of a full run.

use cxlg_graph::spec::{GraphKind, GraphSpec};
use cxlg_graph::{CsrStorage, SpillConfig, StorageMode};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Manifest label uniquely identifying one built spec: dataset name plus
/// the degree parameter and seed, because `GraphSpec::name()` alone
/// collapses specs that differ only in those fields — and a collapsed
/// label would make the "exactly one build per spec" evidence lie.
fn spec_label(spec: &GraphSpec) -> String {
    let param = match spec.kind {
        GraphKind::Uniform { avg_degree } => format!("deg{avg_degree}"),
        GraphKind::Kronecker { edge_factor } => format!("ef{edge_factor}"),
        GraphKind::Social { avg_degree } => format!("deg{avg_degree}"),
    };
    format!("{}({param})@{:#x}", spec.name(), spec.seed)
}

/// Shared, thread-safe cache of built graphs.
///
/// Every map in here is a `BTreeMap`: nothing currently iterates
/// `entries`, but cache state must never be one refactor away from
/// hash-order output (lint rule D1) — the build/eviction counts *are*
/// iterated into the manifest and sort by label structurally.
///
/// The cache owns the storage decision: every build goes to the
/// backend fixed at construction ([`GraphCache::with_storage`]), so a
/// campaign is either all-mem or all-spill and a cache hit can never
/// return a different backend than the miss that populated it.
pub struct GraphCache {
    entries: Mutex<BTreeMap<GraphSpec, Arc<OnceLock<Arc<CsrStorage>>>>>,
    builds: Mutex<BTreeMap<String, u64>>,
    evictions: Mutex<BTreeMap<String, u64>>,
    mode: StorageMode,
    spill: SpillConfig,
}

impl Default for GraphCache {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphCache {
    /// An empty cache building fully resident graphs (the historical
    /// behavior).
    #[expect(
        clippy::disallowed_methods,
        reason = "D6: fallback spill directory only; a mem-mode cache never touches it, and spill callers pass their own via with_storage"
    )]
    pub fn new() -> Self {
        Self::with_storage(
            StorageMode::Mem,
            SpillConfig::new(std::env::temp_dir().join("cxlg-graph-spill")),
        )
    }

    /// An empty cache building into the given storage backend. `spill`
    /// is only consulted in [`StorageMode::Spill`].
    pub fn with_storage(mode: StorageMode, spill: SpillConfig) -> Self {
        GraphCache {
            entries: Mutex::new(BTreeMap::new()),
            builds: Mutex::new(BTreeMap::new()),
            evictions: Mutex::new(BTreeMap::new()),
            mode,
            spill,
        }
    }

    /// The storage backend this cache builds into.
    pub fn storage_mode(&self) -> StorageMode {
        self.mode
    }

    /// The graph for `spec`, building it on first use. The build happens
    /// at most once per spec; later callers (including concurrent ones)
    /// receive a clone of the same `Arc`.
    pub fn get(&self, spec: GraphSpec) -> Arc<CsrStorage> {
        let cell = {
            let mut entries = self.entries.lock().unwrap();
            entries.entry(spec).or_default().clone()
        };
        cell.get_or_init(|| {
            *self
                .builds
                .lock()
                .unwrap()
                .entry(spec_label(&spec))
                .or_insert(0) += 1;
            Arc::new(spec.build_with(self.mode, &self.spill))
        })
        .clone()
    }

    /// `(resident, on-disk)` byte totals across the currently built
    /// graphs — manifest telemetry for the storage backend.
    pub fn storage_bytes(&self) -> (u64, u64) {
        let entries = self.entries.lock().unwrap();
        let mut resident = 0u64;
        let mut on_disk = 0u64;
        for cell in entries.values() {
            if let Some(g) = cell.get() {
                resident += g.resident_bytes();
                on_disk += g.on_disk_bytes();
            }
        }
        (resident, on_disk)
    }

    /// Per-spec build counts, sorted by dataset name — the manifest's
    /// evidence that a full campaign builds each dataset exactly once.
    pub fn build_counts(&self) -> Vec<(String, u64)> {
        self.builds
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Drop the cached graph for `spec`, freeing its memory once every
    /// outstanding `Arc` clone is gone. Returns whether a *built* graph
    /// was actually evicted (a later `get` will rebuild — and the
    /// manifest's build count will expose it if the eviction was
    /// premature). Called by the campaign driver after the last
    /// registered consumer of a spec has run.
    pub fn release(&self, spec: &GraphSpec) -> bool {
        let removed = self.entries.lock().unwrap().remove(spec);
        let evicted = removed.is_some_and(|cell| cell.get().is_some());
        if evicted {
            *self
                .evictions
                .lock()
                .unwrap()
                .entry(spec_label(spec))
                .or_insert(0) += 1;
        }
        evicted
    }

    /// Per-spec eviction counts, sorted by dataset name — recorded in
    /// the manifest alongside the build counts.
    pub fn eviction_counts(&self) -> Vec<(String, u64)> {
        self.evictions
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxlg_graph::CsrView;
    use rayon::prelude::*;

    #[test]
    fn one_build_per_spec() {
        let cache = GraphCache::new();
        let spec = GraphSpec::urand(8).seed(1);
        let a = cache.get(spec);
        let b = cache.get(spec);
        assert!(Arc::ptr_eq(&a, &b), "second get must hit the cache");
        assert_eq!(
            cache.build_counts(),
            vec![("urand8(deg32)@0x1".to_string(), 1)]
        );
    }

    #[test]
    fn distinct_specs_build_separately() {
        let cache = GraphCache::new();
        cache.get(GraphSpec::urand(8).seed(1));
        cache.get(GraphSpec::kron(8).seed(1));
        cache.get(GraphSpec::urand(8).seed(1));
        assert_eq!(
            cache.build_counts(),
            vec![
                ("kron8(ef16)@0x1".to_string(), 1),
                ("urand8(deg32)@0x1".to_string(), 1)
            ]
        );
    }

    #[test]
    fn specs_sharing_a_name_count_separately() {
        // Same name() but different seed or degree parameter: two
        // legitimate builds, never one conflated count — the manifest
        // must not report a spurious rebuild.
        let cache = GraphCache::new();
        cache.get(GraphSpec::urand(8).seed(1));
        cache.get(GraphSpec::urand(8).seed(2));
        cache.get(GraphSpec::uniform(8, 64).seed(1));
        assert_eq!(
            cache.build_counts(),
            vec![
                ("urand8(deg32)@0x1".to_string(), 1),
                ("urand8(deg32)@0x2".to_string(), 1),
                ("urand8(deg64)@0x1".to_string(), 1)
            ]
        );
    }

    #[test]
    fn cached_graph_is_identical_to_a_direct_build() {
        // Determinism with the cache on/off: the cached CSR is the same
        // graph `spec.build()` produces without a cache.
        let spec = GraphSpec::friendster_like(8).seed(7);
        let cache = GraphCache::new();
        assert_eq!(
            *cache.get(spec).as_mem().expect("mem cache holds mem graphs"),
            spec.build()
        );
    }

    #[test]
    fn spill_cache_builds_spill_graphs_with_identical_fingerprints() {
        let spec = GraphSpec::urand(8).seed(7);
        let dir = std::env::temp_dir().join(format!("cxlg-cache-spill-{}", std::process::id()));
        let cache = GraphCache::with_storage(StorageMode::Spill, SpillConfig::new(dir));
        let g = cache.get(spec);
        assert_eq!(g.storage_mode(), StorageMode::Spill);
        assert!(g.as_mem().is_none());
        assert_eq!(g.fingerprint(), spec.build().fingerprint());
        let (resident, on_disk) = cache.storage_bytes();
        assert!(on_disk > 0, "spill graphs must report on-disk bytes");
        assert!(resident > 0);
        // Build accounting is storage-agnostic.
        assert_eq!(
            cache.build_counts(),
            vec![("urand8(deg32)@0x7".to_string(), 1)]
        );
    }

    #[test]
    fn release_evicts_and_a_later_get_rebuilds() {
        let cache = GraphCache::new();
        let spec = GraphSpec::urand(8).seed(1);
        let a = cache.get(spec);
        assert!(cache.release(&spec), "built graph must report eviction");
        assert_eq!(
            cache.eviction_counts(),
            vec![("urand8(deg32)@0x1".to_string(), 1)]
        );
        // The evicted Arc stays valid for existing holders.
        assert_eq!(a.num_vertices(), 256);
        // A post-eviction get rebuilds — and the build count says so.
        let b = cache.get(spec);
        assert!(!Arc::ptr_eq(&a, &b), "rebuild must be a fresh Arc");
        assert_eq!(
            cache.build_counts(),
            vec![("urand8(deg32)@0x1".to_string(), 2)]
        );
    }

    #[test]
    fn release_of_an_unbuilt_spec_is_not_an_eviction() {
        let cache = GraphCache::new();
        assert!(!cache.release(&GraphSpec::urand(8).seed(1)));
        assert!(cache.eviction_counts().is_empty());
    }

    #[test]
    fn concurrent_gets_build_once() {
        // Eight parallel requests for the same spec race into the cache;
        // OnceLock must collapse them into a single build.
        let cache = GraphCache::new();
        let spec = GraphSpec::kron(9).seed(3);
        let graphs: Vec<Arc<CsrStorage>> = (0..8u32)
            .collect::<Vec<_>>()
            .par_iter()
            .map(|_| cache.get(spec))
            .collect();
        for g in &graphs {
            assert!(Arc::ptr_eq(g, &graphs[0]));
        }
        assert_eq!(
            cache.build_counts(),
            vec![("kron9(ef16)@0x3".to_string(), 1)]
        );
    }
}
