//! Storage backends for CSR graphs — in-memory arrays or a file-backed
//! spill with demand paging — behind the [`CsrView`] accessor trait.
//!
//! The paper's headline workloads are graphs whose edge lists exceed
//! host DRAM (scale 27 ≈ 30 GB), so holding `targets` resident caps the
//! reachable scale long before the simulator does. [`SpillCsr`] keeps
//! only the offsets array (8 B/vertex) and a small page cache resident;
//! the targets live in a spill file written segment-by-segment by the
//! window kernel of [`crate::builder::csr_from_arc_stream`], so peak
//! build RSS is bounded by one segment (≈ `segment_arcs` arcs) instead
//! of the whole edge list.
//!
//! ## Spill file layout
//!
//! ```text
//! offset  size        field
//! 0       m*4         targets, u32 LE each
//! ```
//!
//! The file is the targets array and nothing else: the offsets stay
//! resident, so the file needs no header. A spill file is private to
//! the process that built it and deleted when its [`SpillCsr`] drops
//! or its build fails; nothing reopens one. The build's finalizer re-reads the targets it
//! wrote, rejecting any target `>= n` (an [`std::io::Error`], never UB),
//! and computes the fingerprint from those bytes with the byte-for-byte
//! same FNV-1a state machine as [`Csr::fingerprint`], which is what
//! makes cross-backend fingerprint equality a meaningful differential
//! gate.

use crate::builder::{collate_window, count_offsets, pack_arc, unpack_arc};
use crate::csr::{edge_weight, Csr, Fnv1a};
use crate::gen::ArcStream;
use crate::spec::GraphSpec;
use crate::VertexId;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Read-side accessor every graph consumer is written against: the
/// traversal planners, trace generators, validators, and statistics all
/// take `G: CsrView` instead of `&Csr`, so the in-memory and spill
/// backends are interchangeable at every layer.
///
/// `with_neighbors` is the streaming replacement for
/// [`Csr::neighbors`]'s whole-array borrow: the callback receives one or
/// more consecutive windows that concatenate to exactly vertex `v`'s
/// sublist (the in-memory backend yields a single zero-copy window; the
/// spill backend yields one window per cached page the sublist spans).
pub trait CsrView: Sync {
    /// Number of vertices.
    fn num_vertices(&self) -> usize;
    /// Number of directed edges (arcs).
    fn num_edges(&self) -> u64;
    /// Edge-list index range of `v`'s sublist.
    fn sublist_range(&self, v: VertexId) -> (u64, u64);
    /// Stream `v`'s neighbor sublist as consecutive windows.
    fn with_neighbors(&self, v: VertexId, f: &mut dyn FnMut(&[VertexId]));
    /// FNV-1a identity over offsets then targets (see [`Csr::fingerprint`]).
    fn fingerprint(&self) -> u64;

    /// Out-degree of `v`.
    fn degree(&self, v: VertexId) -> u64 {
        let (s, e) = self.sublist_range(v);
        e - s
    }

    /// Visit each neighbor of `v` in sublist order.
    fn for_neighbors(&self, v: VertexId, f: &mut dyn FnMut(VertexId)) {
        self.with_neighbors(v, &mut |w| {
            for &u in w {
                f(u);
            }
        });
    }

    /// Materialize `v`'s sublist (convenience for call sites that need a
    /// contiguous slice regardless of backend).
    fn neighbors_vec(&self, v: VertexId) -> Vec<VertexId> {
        let mut out = Vec::with_capacity(self.degree(v) as usize);
        self.with_neighbors(v, &mut |w| out.extend_from_slice(w));
        out
    }

    /// Number of vertices with degree zero.
    fn num_isolated(&self) -> usize {
        (0..self.num_vertices())
            .filter(|&v| self.degree(v as VertexId) == 0)
            .count()
    }

    /// The vertex with the largest out-degree (first such on ties);
    /// `None` for an edgeless graph.
    fn max_degree_vertex(&self) -> Option<VertexId> {
        (0..self.num_vertices() as VertexId)
            .max_by_key(|&v| (self.degree(v), std::cmp::Reverse(v)))
            .filter(|&v| self.degree(v) > 0)
    }

    /// Deterministic SSSP edge weight (pure function of the endpoints,
    /// identical across backends — see [`crate::csr::edge_weight`]).
    fn edge_weight(&self, u: VertexId, v: VertexId, max_weight: u32) -> u32 {
        edge_weight(u, v, max_weight)
    }
}

impl CsrView for Csr {
    fn num_vertices(&self) -> usize {
        Csr::num_vertices(self)
    }

    fn num_edges(&self) -> u64 {
        Csr::num_edges(self)
    }

    fn sublist_range(&self, v: VertexId) -> (u64, u64) {
        Csr::sublist_range(self, v)
    }

    fn with_neighbors(&self, v: VertexId, f: &mut dyn FnMut(&[VertexId])) {
        f(self.neighbors(v));
    }

    fn fingerprint(&self) -> u64 {
        Csr::fingerprint(self)
    }

    fn degree(&self, v: VertexId) -> u64 {
        Csr::degree(self, v)
    }

    fn num_isolated(&self) -> usize {
        Csr::num_isolated(self)
    }

    fn max_degree_vertex(&self) -> Option<VertexId> {
        Csr::max_degree_vertex(self)
    }
}

macro_rules! forward_csr_view {
    () => {
        fn num_vertices(&self) -> usize {
            (**self).num_vertices()
        }
        fn num_edges(&self) -> u64 {
            (**self).num_edges()
        }
        fn sublist_range(&self, v: VertexId) -> (u64, u64) {
            (**self).sublist_range(v)
        }
        fn with_neighbors(&self, v: VertexId, f: &mut dyn FnMut(&[VertexId])) {
            (**self).with_neighbors(v, f)
        }
        fn fingerprint(&self) -> u64 {
            (**self).fingerprint()
        }
        fn degree(&self, v: VertexId) -> u64 {
            (**self).degree(v)
        }
        fn for_neighbors(&self, v: VertexId, f: &mut dyn FnMut(VertexId)) {
            (**self).for_neighbors(v, f)
        }
        fn neighbors_vec(&self, v: VertexId) -> Vec<VertexId> {
            (**self).neighbors_vec(v)
        }
        fn num_isolated(&self) -> usize {
            (**self).num_isolated()
        }
        fn max_degree_vertex(&self) -> Option<VertexId> {
            (**self).max_degree_vertex()
        }
    };
}

impl<T: CsrView + ?Sized> CsrView for &T {
    forward_csr_view!();
}

impl<T: CsrView + Send + ?Sized> CsrView for Arc<T> {
    forward_csr_view!();
}

/// Which storage backend a graph build should target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum StorageMode {
    /// Offsets and targets fully resident (the historical behavior).
    #[default]
    Mem,
    /// Offsets resident, targets demand-paged from a spill file.
    Spill,
}

impl StorageMode {
    /// Parse a CLI/env value (`mem` | `spill`).
    pub fn parse(s: &str) -> Option<StorageMode> {
        match s {
            "mem" => Some(StorageMode::Mem),
            "spill" => Some(StorageMode::Spill),
            _ => None,
        }
    }

    /// Stable lower-case label (`mem` | `spill`).
    pub fn label(self) -> &'static str {
        match self {
            StorageMode::Mem => "mem",
            StorageMode::Spill => "spill",
        }
    }
}

/// Configuration of the file-backed spill backend.
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Directory the spill (and transient bucket) files live in; created
    /// on demand.
    pub dir: PathBuf,
    /// Targets per demand-paged cache page (bytes per page = 4×this).
    pub page_len: usize,
    /// Maximum resident pages; the cache evicts least-recently-used
    /// beyond this.
    pub cache_pages: usize,
    /// Build-time segment size in counted arcs. The spill builder's
    /// working set is one segment — 4 B per counted arc (the kernel's
    /// targets) plus 8 B per segment vertex (cursors) — on top of 8 B per
    /// graph vertex (the offsets, counted and then finalized in place). As
    /// process peak RSS at scale 18 on 2 threads that is ≈ 1.3–1.8 B
    /// per stored arc for urand, 1.6 for kron and 1.3 for social. A single
    /// vertex whose degree exceeds this gets a segment of its own.
    pub segment_arcs: u64,
}

impl SpillConfig {
    /// Defaults: 64 Ki targets per page (256 KB), 8 cached pages (2 MB),
    /// 1 Mi-arc build segments (≈ 4 MB working set) — sized
    /// so a scale-18 spill build fits the CI gate's 2.5 B/arc peak-RSS
    /// budget.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SpillConfig {
            dir: dir.into(),
            page_len: 1 << 16,
            cache_pages: 8,
            segment_arcs: 1 << 20,
        }
    }
}

/// Process-unique suffix for spill filenames, so concurrent builds of
/// the same spec (e.g. parallel tests in one process) never collide.
static SPILL_FILE_SEQ: AtomicU64 = AtomicU64::new(0);

/// One LRU-tracked page of decoded targets.
#[derive(Debug)]
struct CacheEntry {
    tick: u64,
    data: Arc<Vec<VertexId>>,
}

/// A CSR whose targets array lives in a spill file, demand-paged through
/// a bounded LRU cache. Offsets stay resident (8 B/vertex); the resident
/// footprint is therefore `8(n+1) + 4·page_len·cache_pages` bytes
/// regardless of edge count.
#[derive(Debug)]
pub struct SpillCsr {
    /// Resident offsets, length `n + 1`.
    offsets: Vec<u64>,
    file: Mutex<File>,
    path: PathBuf,
    num_targets: u64,
    fingerprint: u64,
    page_len: usize,
    cache_pages: usize,
    cache: Mutex<BTreeMap<u64, CacheEntry>>,
    tick: AtomicU64,
}

impl SpillCsr {
    /// Build `spec`'s graph directly into a spill file under
    /// `cfg.dir`, never materializing the full targets array. The file
    /// is deleted when the returned value drops.
    ///
    /// This is the out-of-core sibling of
    /// [`crate::builder::csr_from_arc_stream`], with the same stream
    /// contract (identical arcs on every invocation, panics on drift) and
    /// the same collation kernel, but bounded peak memory:
    ///
    /// 1. **Count** — the in-memory builder's pass 1.
    /// 2. **Partition** — carve vertices into contiguous segments of at
    ///    most `segment_arcs` counted arcs, then stream all chunks again,
    ///    appending each packed arc to its segment's bucket file. Bucket
    ///    write order is thread-dependent; the per-sublist sort erases it.
    /// 3. **Collate** — per segment in vertex order: run the in-memory
    ///    builder's window kernel over the segment's vertices (scatter
    ///    with the count audit, sort, dedup, in-place compaction), each
    ///    of its parts streaming one 512 KiB block of the bucket back
    ///    with 64 KiB positioned reads; append the window's targets to
    ///    the spill file through a 64 KiB buffer; rewrite the segment's
    ///    counted offsets into final ones in place; close the bucket,
    ///    which frees its disk space.
    ///
    /// The fingerprint is then computed by hashing the final offsets and
    /// re-reading the written targets region (with a range check on every
    /// target), so a freshly built spill is checked end to end. A failed
    /// read or write in any pass comes back as the `io::Error`, and a
    /// build that fails or panics leaves no file behind.
    pub fn build(spec: &GraphSpec, cfg: &SpillConfig) -> io::Result<SpillCsr> {
        let name = format!("{}-s{:x}", spec.name(), spec.seed);
        Self::build_stream(&spec.arc_stream(), &name, cfg)
    }

    /// [`SpillCsr::build`] over any arc stream; `name` starts the spill
    /// file's name.
    fn build_stream(parts: &ArcStream, name: &str, cfg: &SpillConfig) -> io::Result<SpillCsr> {
        let (n, chunks, dedup) = (parts.n, &parts.chunks, parts.dedup);
        let stream = parts.stream.as_ref();
        fs::create_dir_all(&cfg.dir)?;
        let pending = Unfinished(cfg.dir.join(format!(
            "{name}-p{}-{}.spill",
            std::process::id(),
            SPILL_FILE_SEQ.fetch_add(1, Ordering::Relaxed),
        )));
        let path = pending.0.as_path();

        // ---- Pass 1: per-vertex out-degree counts.
        let counted = count_offsets(n, chunks, stream);

        let seg_bounds = segment_bounds(&counted, cfg.segment_arcs);
        let num_segs = seg_bounds.len() - 1;
        let seg_of = |src: VertexId| seg_bounds.partition_point(|&b| b <= src as usize) - 1;

        // ---- Pass 2: partition the regenerated arcs into per-segment
        // bucket files (packed u64 LE). Per-task local buffers keep bucket
        // writes large and the writer locks uncontended; each task takes
        // `BUCKET_TASK_CHUNKS` chunks and reuses its buffers across them,
        // since allocating and growing them afresh per chunk cost pass 2
        // about a fifth of its time at urand 18. Each bucket is
        // unlinked as soon as it is created: its open handle is the only
        // way to it, so no return, error or panic leaves one behind, and
        // its disk space goes when pass 3 drops the handle.
        let writers: Vec<Mutex<BufWriter<File>>> = (0..num_segs)
            .map(|s| {
                let bucket_path = path.with_extension(format!("bucket{s}"));
                let f = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(&bucket_path)?;
                fs::remove_file(&bucket_path)?;
                Ok(Mutex::new(BufWriter::with_capacity(1 << 16, f)))
            })
            .collect::<io::Result<_>>()?;
        let io_fail: Mutex<Option<io::Error>> = Mutex::new(None);
        let tasks = chunks.len().div_ceil(BUCKET_TASK_CHUNKS);
        (0..tasks).into_par_iter().for_each(|task| {
            let first = task * BUCKET_TASK_CHUNKS;
            let mut local: Vec<Vec<u8>> = vec![Vec::new(); num_segs];
            for &(chunk, len) in &chunks[first..(first + BUCKET_TASK_CHUNKS).min(chunks.len())] {
                stream(chunk, len, &mut |src, dst| {
                    local[seg_of(src)].extend_from_slice(&pack_arc(src, dst).to_le_bytes());
                });
                for (s, buf) in local.iter_mut().enumerate() {
                    if buf.is_empty() {
                        continue;
                    }
                    let mut w = writers[s].lock().unwrap();
                    if let Err(e) = w.write_all(buf) {
                        io_fail.lock().unwrap().get_or_insert(e);
                    }
                    buf.clear();
                }
            }
        });
        if let Some(e) = io_fail.into_inner().unwrap() {
            return Err(e);
        }
        let buckets: Vec<File> = writers
            .into_iter()
            .map(|w| {
                let w = w.into_inner().unwrap();
                w.into_inner().map_err(|e| e.into_error())
            })
            .collect::<io::Result<_>>()?;

        // ---- Pass 3: collate each segment in vertex order and append its
        // sorted (and optionally deduplicated) sublists to the spill file.
        // Each kernel part streams its own block of the bucket through a
        // 64 KiB stack buffer, so a segment holds 4 B per counted arc (its
        // targets) and nothing per bucket byte. The counted offsets become
        // the final ones in place: a segment's window is its own entries;
        // its first entry, which the previous segment already finalized,
        // is set back to its counted value for the kernel, and the
        // kernel's output is shifted down to the final frame.
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut offsets = counted;
        let mut counted_first = 0u64;
        let block = (BUCKET_PART_ARCS * 8) as u64;
        let mut le = [0u8; 1 << 16];
        for (s, bucket) in buckets.into_iter().enumerate() {
            let window = &mut offsets[seg_bounds[s]..=seg_bounds[s + 1]];
            let written = window[0];
            window[0] = counted_first;
            counted_first = window[window.len() - 1];
            // The bucket's own length, not the counted one: a stream that
            // drifted between passes then fails the kernel's audit.
            let bucket_len = bucket.metadata()?.len();
            let parts = bucket_len.div_ceil(block) as usize;
            let read_block = |b: usize, sink: &mut dyn FnMut(VertexId, VertexId)| {
                let mut buf = [0u8; 1 << 16];
                let mut pos = b as u64 * block;
                let end = bucket_len.min(pos + block);
                while pos < end {
                    let take = (end - pos).min(buf.len() as u64) as usize;
                    let bytes = &mut buf[..take];
                    bucket.read_exact_at(bytes, pos)?;
                    for a in bytes.chunks_exact(8) {
                        let (src, dst) = unpack_arc(u64::from_le_bytes(a.try_into().unwrap()));
                        sink(src, dst);
                    }
                    pos += bytes.len() as u64;
                }
                io::Result::Ok(())
            };
            let targets = collate_window(seg_bounds[s], window, dedup, parts, read_block)?;
            drop(bucket);
            let shift = window[0] - written;
            for o in window.iter_mut() {
                *o -= shift;
            }
            for run in targets.chunks(le.len() / 4) {
                for (b, t) in le.chunks_exact_mut(4).zip(run) {
                    b.copy_from_slice(&t.to_le_bytes());
                }
                file.write_all(&le[..run.len() * 4])?;
            }
        }

        // ---- Finalize: the fingerprint over the resident offsets and a
        // re-read of the targets just written.
        let m = *offsets.last().unwrap();
        let mut fp = Fnv1a::new();
        for &o in &offsets {
            fp.update(&o.to_le_bytes());
        }
        file.seek(SeekFrom::Start(0))?;
        hash_targets(&mut file, m, n as u64, &mut fp)?;
        let fingerprint = fp.finish();

        Ok(SpillCsr {
            offsets,
            file: Mutex::new(file),
            path: pending.keep(),
            num_targets: m,
            fingerprint,
            page_len: cfg.page_len.max(1),
            cache_pages: cfg.cache_pages.max(1),
            cache: Mutex::new(BTreeMap::new()),
            tick: AtomicU64::new(0),
        })
    }

    /// Resident footprint: offsets plus the full page-cache budget.
    pub fn resident_bytes(&self) -> u64 {
        self.offsets.len() as u64 * 8 + self.cache_pages as u64 * self.page_len as u64 * 4
    }

    /// Size of the spill file on disk: 4 B per target.
    pub fn on_disk_bytes(&self) -> u64 {
        self.num_targets * 4
    }

    /// Path of the spill file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Fully materialize into an in-memory [`Csr`]. This deliberately
    /// defeats the point of spilling — it is for preprocessing paths
    /// (relabeling studies) that need resident arrays, not for
    /// traversal.
    pub fn to_mem(&self) -> Csr {
        let mut targets: Vec<VertexId> = Vec::with_capacity(self.num_targets as usize);
        let pages = self.num_targets.div_ceil(self.page_len as u64);
        for p in 0..pages {
            targets.extend_from_slice(&self.page(p));
        }
        Csr::from_parts(self.offsets.clone(), targets)
    }

    /// Fetch (or page in) one cache page of targets.
    ///
    /// # Panics
    ///
    /// Panics on a read failure: the file was fully verified at build,
    /// so a failing read mid-traversal is an environment failure (file
    /// deleted, disk gone), unrecoverable like OOM.
    fn page(&self, idx: u64) -> Arc<Vec<VertexId>> {
        {
            let mut cache = self.cache.lock().unwrap();
            if let Some(e) = cache.get_mut(&idx) {
                e.tick = self.tick.fetch_add(1, Ordering::Relaxed);
                return e.data.clone();
            }
        }
        // Read outside the cache lock; a concurrent miss on the same
        // page just reads it twice and both insert identical data.
        let start = idx * self.page_len as u64;
        let len = (self.num_targets.min(start + self.page_len as u64) - start) as usize;
        let mut bytes = vec![0u8; len * 4];
        {
            let mut f = self.file.lock().unwrap();
            f.seek(SeekFrom::Start(start * 4))
                .unwrap_or_else(|e| panic!("seek in spill file {}: {e}", self.path.display()));
            f.read_exact(&mut bytes)
                .unwrap_or_else(|e| panic!("read from spill file {}: {e}", self.path.display()));
        }
        let data: Arc<Vec<VertexId>> = Arc::new(
            bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect(),
        );
        let mut cache = self.cache.lock().unwrap();
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        cache.insert(
            idx,
            CacheEntry {
                tick,
                data: data.clone(),
            },
        );
        while cache.len() > self.cache_pages {
            // LRU eviction by explicit tick; BTreeMap iteration order is
            // structural and the tie-break is the page index (D1-safe).
            let victim = cache
                .iter()
                .min_by_key(|(k, e)| (e.tick, **k))
                .map(|(k, _)| *k)
                .expect("non-empty cache");
            cache.remove(&victim);
        }
        data
    }
}

impl Drop for SpillCsr {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

impl CsrView for SpillCsr {
    fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    fn num_edges(&self) -> u64 {
        self.num_targets
    }

    fn sublist_range(&self, v: VertexId) -> (u64, u64) {
        (self.offsets[v as usize], self.offsets[v as usize + 1])
    }

    fn with_neighbors(&self, v: VertexId, f: &mut dyn FnMut(&[VertexId])) {
        let (s, e) = self.sublist_range(v);
        let mut pos = s;
        while pos < e {
            let page_idx = pos / self.page_len as u64;
            let page = self.page(page_idx);
            let page_base = page_idx * self.page_len as u64;
            let lo = (pos - page_base) as usize;
            let hi = ((e - page_base) as usize).min(page.len());
            f(&page[lo..hi]);
            pos = page_base + hi as u64;
        }
    }

    /// The fingerprint computed at build time — byte-identical to [`Csr::fingerprint`] of the same graph.
    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// A graph in either storage backend. This is what the campaign cache
/// holds; every consumer goes through [`CsrView`] and never sees which
/// backend it got.
#[derive(Debug)]
pub enum CsrStorage {
    /// Fully resident arrays.
    Mem(Csr),
    /// File-backed demand-paged targets.
    Spill(SpillCsr),
}

impl CsrStorage {
    /// Build `spec` into the requested backend.
    ///
    /// # Panics
    ///
    /// Panics if the spill build hits an I/O error (unrecoverable for a
    /// campaign, like OOM in mem mode).
    pub fn build(spec: &GraphSpec, mode: StorageMode, spill: &SpillConfig) -> CsrStorage {
        match mode {
            StorageMode::Mem => CsrStorage::Mem(spec.build()),
            StorageMode::Spill => CsrStorage::Spill(
                SpillCsr::build(spec, spill)
                    .unwrap_or_else(|e| panic!("spill build for {} failed: {e}", spec.name())),
            ),
        }
    }

    /// Which backend this graph lives in.
    pub fn storage_mode(&self) -> StorageMode {
        match self {
            CsrStorage::Mem(_) => StorageMode::Mem,
            CsrStorage::Spill(_) => StorageMode::Spill,
        }
    }

    /// The in-memory CSR, if this is the mem backend.
    pub fn as_mem(&self) -> Option<&Csr> {
        match self {
            CsrStorage::Mem(g) => Some(g),
            CsrStorage::Spill(_) => None,
        }
    }

    /// Fully materialize into an in-memory [`Csr`] (a clone for the mem
    /// backend, a streaming read-back for spill). For preprocessing
    /// paths that need resident arrays; traversal should stay on the
    /// [`CsrView`] accessors.
    pub fn to_mem(&self) -> Csr {
        match self {
            CsrStorage::Mem(g) => g.clone(),
            CsrStorage::Spill(s) => s.to_mem(),
        }
    }

    /// Resident footprint in bytes: full arrays for mem, offsets plus
    /// the page-cache budget for spill.
    pub fn resident_bytes(&self) -> u64 {
        match self {
            CsrStorage::Mem(g) => (g.num_vertices() as u64 + 1) * 8 + g.num_edges() * 4,
            CsrStorage::Spill(s) => s.resident_bytes(),
        }
    }

    /// Bytes on disk: 0 for mem, the spill file size for spill.
    pub fn on_disk_bytes(&self) -> u64 {
        match self {
            CsrStorage::Mem(_) => 0,
            CsrStorage::Spill(s) => s.on_disk_bytes(),
        }
    }

    /// Backend-verified graph fingerprint (== [`Csr::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        match self {
            CsrStorage::Mem(g) => g.fingerprint(),
            CsrStorage::Spill(s) => s.fingerprint(),
        }
    }
}

impl CsrView for CsrStorage {
    fn num_vertices(&self) -> usize {
        match self {
            CsrStorage::Mem(g) => g.num_vertices(),
            CsrStorage::Spill(s) => s.num_vertices(),
        }
    }

    fn num_edges(&self) -> u64 {
        match self {
            CsrStorage::Mem(g) => g.num_edges(),
            CsrStorage::Spill(s) => s.num_edges(),
        }
    }

    fn sublist_range(&self, v: VertexId) -> (u64, u64) {
        match self {
            CsrStorage::Mem(g) => g.sublist_range(v),
            CsrStorage::Spill(s) => s.sublist_range(v),
        }
    }

    fn with_neighbors(&self, v: VertexId, f: &mut dyn FnMut(&[VertexId])) {
        match self {
            CsrStorage::Mem(g) => f(g.neighbors(v)),
            CsrStorage::Spill(s) => s.with_neighbors(v, f),
        }
    }

    fn fingerprint(&self) -> u64 {
        CsrStorage::fingerprint(self)
    }

    fn max_degree_vertex(&self) -> Option<VertexId> {
        match self {
            CsrStorage::Mem(g) => g.max_degree_vertex(),
            CsrStorage::Spill(s) => s.max_degree_vertex(),
        }
    }
}

/// Stream `m` targets out of `reader` into the running whole-graph
/// fingerprint, rejecting any target `>= n` — the build finalizer's
/// re-read of the targets it wrote.
fn hash_targets(reader: &mut impl Read, m: u64, n: u64, fp: &mut Fnv1a) -> io::Result<()> {
    let mut buf = [0u8; 1 << 16];
    let mut remaining = m * 4;
    while remaining > 0 {
        let take = (buf.len() as u64).min(remaining) as usize;
        reader.read_exact(&mut buf[..take])?;
        if buf[..take]
            .chunks_exact(4)
            .any(|c| u32::from_le_bytes(c.try_into().unwrap()) as u64 >= n)
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "spill target out of range",
            ));
        }
        fp.update(&buf[..take]);
        remaining -= take as u64;
    }
    Ok(())
}

/// Segment boundaries of a spill build over the counted offsets:
/// contiguous vertex ranges of at most `segment_arcs` counted arcs (an
/// over-budget vertex gets its own segment). Segment `s` is vertices
/// `bounds[s]..bounds[s + 1]`. Boundaries depend only on the counts,
/// never on thread scheduling.
fn segment_bounds(counted: &[u64], segment_arcs: u64) -> Vec<usize> {
    let n = counted.len() - 1;
    let segment_arcs = segment_arcs.max(1);
    let mut bounds: Vec<usize> = vec![0];
    let mut v = 0usize;
    while v < n {
        let limit = counted[v].saturating_add(segment_arcs);
        let w = counted
            .partition_point(|&o| o <= limit)
            .saturating_sub(1)
            .clamp(v + 1, n);
        bounds.push(w);
        v = w;
    }
    bounds
}

/// A spill file whose build has not finished: deleted when dropped, so
/// a build that returns an error or panics leaves none behind. `keep`
/// hands the path to the built [`SpillCsr`], whose drop deletes it.
struct Unfinished(PathBuf);

impl Unfinished {
    fn keep(mut self) -> PathBuf {
        std::mem::take(&mut self.0)
    }
}

impl Drop for Unfinished {
    fn drop(&mut self) {
        if !self.0.as_os_str().is_empty() {
            let _ = fs::remove_file(&self.0);
        }
    }
}

/// Generator chunks per parallel task when the spill build partitions
/// arcs into buckets; a task reuses its per-segment buffers across them.
const BUCKET_TASK_CHUNKS: usize = 8;

/// Packed arcs per parallel part when the spill collation reads a
/// segment's bucket back: each part reads one block of this many arcs
/// (512 KiB of bucket bytes), the last one of a bucket possibly shorter.
const BUCKET_PART_ARCS: usize = 1 << 16;

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg(tag: &str) -> SpillConfig {
        let dir =
            std::env::temp_dir().join(format!("cxlg-spill-test-{}-{tag}", std::process::id()));
        SpillConfig::new(dir)
    }

    fn tiny_cfg(tag: &str) -> SpillConfig {
        // Pathologically small pages/segments so every code path
        // (multi-window sublists, eviction, multi-segment builds) runs
        // even on small graphs.
        let mut cfg = test_cfg(tag);
        cfg.page_len = 8;
        cfg.cache_pages = 2;
        cfg.segment_arcs = 64;
        cfg
    }

    #[test]
    fn spill_build_matches_mem_build_exactly() {
        for spec in [
            GraphSpec::urand(8).seed(3),
            GraphSpec::kron(8).seed(3),
            GraphSpec::friendster_like(8).seed(3),
        ] {
            let mem = spec.build();
            let spill = SpillCsr::build(&spec, &tiny_cfg("match")).expect("spill build");
            assert_eq!(spill.num_vertices(), mem.num_vertices(), "{}", spec.name());
            assert_eq!(spill.num_edges(), mem.num_edges(), "{}", spec.name());
            assert_eq!(spill.fingerprint(), mem.fingerprint(), "{}", spec.name());
            for v in 0..mem.num_vertices() as VertexId {
                assert_eq!(
                    CsrView::neighbors_vec(&spill, v),
                    mem.neighbors(v),
                    "{} vertex {v}",
                    spec.name()
                );
            }
        }
    }

    #[test]
    fn storage_enum_mirrors_either_backend() {
        let spec = GraphSpec::urand(7).seed(1);
        let mem = CsrStorage::build(&spec, StorageMode::Mem, &test_cfg("enum"));
        let spill = CsrStorage::build(&spec, StorageMode::Spill, &tiny_cfg("enum"));
        assert_eq!(mem.storage_mode(), StorageMode::Mem);
        assert_eq!(spill.storage_mode(), StorageMode::Spill);
        assert!(mem.as_mem().is_some());
        assert!(spill.as_mem().is_none());
        assert_eq!(mem.fingerprint(), spill.fingerprint());
        assert_eq!(mem.num_edges(), spill.num_edges());
        assert_eq!(mem.max_degree_vertex(), spill.max_degree_vertex());
        assert_eq!(mem.num_isolated(), spill.num_isolated());
        assert!(
            spill.resident_bytes() < mem.resident_bytes(),
            "tiny page cache must undercut the fully resident arrays"
        );
        assert_eq!(mem.on_disk_bytes(), 0);
        assert!(spill.on_disk_bytes() > 0);
        for v in [0u32, 1, 63, 127] {
            assert_eq!(mem.neighbors_vec(v), spill.neighbors_vec(v));
            assert_eq!(mem.degree(v), spill.degree(v));
            assert_eq!(
                mem.edge_weight(v, v + 1, 64),
                spill.edge_weight(v, v + 1, 64)
            );
        }
    }

    #[test]
    fn spill_file_holds_only_the_targets() {
        let spec = GraphSpec::kron(8).seed(5);
        let spill = SpillCsr::build(&spec, &tiny_cfg("targets-only")).expect("build");
        let m = spill.num_edges();
        assert!(m > 64, "tiny_cfg must split the build into several segments");
        assert_eq!(spill.on_disk_bytes(), 4 * m);
        let len = fs::metadata(spill.path()).expect("stat spill file").len();
        assert_eq!(len, spill.on_disk_bytes());
    }

    /// The files in `dir`, by name.
    fn dir_listing(dir: &Path) -> Vec<std::ffi::OsString> {
        let mut names: Vec<_> = fs::read_dir(dir)
            .expect("list spill dir")
            .map(|e| e.expect("dir entry").file_name())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn multi_block_buckets_read_back_exactly() {
        for spec in [GraphSpec::urand(12).seed(4), GraphSpec::kron(12).seed(4)] {
            let mut cfg = test_cfg("multi-block");
            cfg.segment_arcs = 100_000;
            // Some segment's bucket must span two or more read-back
            // blocks, the last of them partial.
            let parts = spec.arc_stream();
            let counted = count_offsets(parts.n, &parts.chunks, parts.stream.as_ref());
            let bounds = segment_bounds(&counted, cfg.segment_arcs);
            assert!(
                bounds.windows(2).any(|b| {
                    let arcs = (counted[b[1]] - counted[b[0]]) as usize;
                    arcs > BUCKET_PART_ARCS && !arcs.is_multiple_of(BUCKET_PART_ARCS)
                }),
                "{}: no segment spans a partial second block",
                spec.name()
            );
            let mem = spec.build();
            let spill = SpillCsr::build(&spec, &cfg).expect("spill build");
            assert_eq!(spill.fingerprint(), mem.fingerprint(), "{}", spec.name());
            for v in 0..mem.num_vertices() as VertexId {
                assert_eq!(spill.degree(v), mem.degree(v), "{} vertex {v}", spec.name());
                assert_eq!(
                    CsrView::neighbors_vec(&spill, v),
                    mem.neighbors(v),
                    "{} vertex {v}",
                    spec.name()
                );
            }
        }
    }

    #[test]
    fn built_spill_deletes_its_file_on_drop() {
        // Several segments, so several bucket files: once the build
        // returns, the dir holds the one spill file; once it drops, none.
        let spec = GraphSpec::kron(8).seed(6);
        let cfg = tiny_cfg("drop");
        let _ = fs::remove_dir_all(&cfg.dir);
        let built = SpillCsr::build(&spec, &cfg).expect("build");
        assert!(
            built.num_edges() > 64,
            "tiny_cfg must split the build into several segments"
        );
        let path = built.path().to_path_buf();
        assert!(path.is_file());
        assert_eq!(dir_listing(&cfg.dir), [path.file_name().unwrap()]);
        drop(built);
        assert!(!path.exists(), "a built spill file must be removed on drop");
        assert!(
            dir_listing(&cfg.dir).is_empty(),
            "a dropped spill leaves no files"
        );
    }

    #[test]
    fn a_build_that_fails_leaves_no_files() {
        // A stream that emits one more arc per chunk after its counting
        // pass: the kernel's audit panics in the first segment, after
        // every bucket and the spill file exist.
        let calls = AtomicU64::new(0);
        let chunks: Vec<(u64, usize)> = (0..4).map(|c| (c, 200)).collect();
        let counting_calls = chunks.len() as u64;
        let parts = ArcStream {
            n: 64,
            chunks,
            dedup: false,
            stream: Box::new(move |chunk, len, sink| {
                let drift = usize::from(calls.fetch_add(1, Ordering::Relaxed) >= counting_calls);
                for i in 0..len + drift {
                    sink(
                        (i % 64) as VertexId,
                        ((chunk as usize + i) % 64) as VertexId,
                    );
                }
            }),
        };
        let cfg = tiny_cfg("failed");
        let _ = fs::remove_dir_all(&cfg.dir);
        let build = || SpillCsr::build_stream(&parts, "drift", &cfg);
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build));
        let panic = built.err().expect("a drifting stream must fail the audit");
        let msg = panic.downcast_ref::<String>().map_or("", String::as_str);
        assert!(msg.contains("different arcs across passes"), "{msg}");
        assert!(
            dir_listing(&cfg.dir).is_empty(),
            "a failed build leaves no bucket or spill file"
        );
    }

    #[test]
    fn storage_mode_parses_and_labels() {
        assert_eq!(StorageMode::parse("mem"), Some(StorageMode::Mem));
        assert_eq!(StorageMode::parse("spill"), Some(StorageMode::Spill));
        assert_eq!(StorageMode::parse("mmap"), None);
        assert_eq!(StorageMode::Mem.label(), "mem");
        assert_eq!(StorageMode::Spill.label(), "spill");
        assert_eq!(StorageMode::default(), StorageMode::Mem);
    }

    /// Generic consumers must accept any backend by reference, by `Arc`,
    /// or as a trait object — this is what lets the traversal and
    /// statistics layers stay backend-agnostic.
    fn sum_degrees<G: CsrView + ?Sized>(g: &G) -> u64 {
        (0..g.num_vertices() as VertexId).map(|v| g.degree(v)).sum()
    }

    #[test]
    fn csr_view_is_object_and_arc_compatible() {
        let spec = GraphSpec::urand(6).seed(8);
        let mem = spec.build();
        let spill = SpillCsr::build(&spec, &tiny_cfg("object")).expect("build");
        let m = mem.num_edges();
        assert_eq!(sum_degrees(&mem), m);
        assert_eq!(sum_degrees(&spill), m);
        let arc: Arc<CsrStorage> = Arc::new(CsrStorage::Spill(spill));
        assert_eq!(sum_degrees(&arc), m);
        let dyn_view: &dyn CsrView = arc.as_ref();
        assert_eq!(sum_degrees(dyn_view), m);
        assert_eq!(dyn_view.fingerprint(), mem.fingerprint());
    }
}
