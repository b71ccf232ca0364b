//! Parallel CSR construction from edge lists and regenerable arc streams.
//!
//! Two builders share the sorted-sublist invariant (each vertex's
//! neighbor sublist ascending — the spatial-locality property the
//! read-amplification results of Fig. 3 depend on):
//!
//! * [`csr_from_arc_stream`] — the **two-pass streaming scatter
//!   builder** every generator uses. The arcs are never materialized:
//!   pass 1 streams the chunks to count per-vertex out-degrees, pass 2
//!   regenerates the same chunks (generation is deterministic per
//!   `(seed, chunk)`) and scatters each `dst` directly into its
//!   pre-sized slot of the final targets array, and a parallel
//!   per-sublist sort (+ in-place dedup) restores the invariant. Peak
//!   memory is ≈ 4 B per directed arc plus the offsets/cursors arrays
//!   (16 B per vertex), versus ≈ 12 B/arc for the sort-based path
//!   (packed arcs + the copied-out targets), and the O(m log m) global
//!   comparison sort becomes O(m) counting + scatter plus small
//!   per-sublist sorts.
//!
//!   Pass 2 hands slots out in batches of `SCATTER_BATCH` (256) arcs:
//!   each arc takes its slot from its vertex's cursor as it arrives, but
//!   its `dst` is written only when the batch is full. A locked
//!   `fetch_add` cannot complete until earlier stores drain, and each
//!   scatter store lands in a random, usually uncached, slot of a
//!   targets array far larger than the caches; interleaved one-to-one,
//!   every hand-out waited for the previous arc's store miss, so the
//!   misses ran one at a time. Written back to back, a batch's store
//!   misses overlap. Batching moves when the stores happen, not which
//!   slots the arcs take, so the sorted output is unchanged.
//! * [`csr_from_packed_arcs`] — the naive sort-based builder, retained
//!   only as the test oracle: the property tests cross-check the
//!   streaming builder and the [`crate::reorder`] relabeling against
//!   it. It is not a builder for production callers.
//!
//! Both are **bit-identical** to each other and across any
//! `RAYON_NUM_THREADS`: counting is commutative, scatter order within a
//! sublist is erased by the final per-sublist sort (duplicates are
//! identical values), and dedup of a sorted sublist is order-free.

use crate::csr::Csr;
use crate::gen::{chunk_sizes, CHUNK_EDGES};
use crate::VertexId;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Vertices per parallel work unit in the per-sublist sort and the dedup
/// compaction. Boundaries depend on `n` alone, so work splitting never
/// affects results.
const VERTEX_CHUNK: usize = 1 << 16;

/// Pack an arc into a sortable 64-bit key.
#[inline]
pub fn pack_arc(src: VertexId, dst: VertexId) -> u64 {
    (src as u64) << 32 | dst as u64
}

/// Unpack a 64-bit key back into an arc.
#[inline]
pub fn unpack_arc(key: u64) -> (VertexId, VertexId) {
    ((key >> 32) as VertexId, key as VertexId)
}

/// A `*mut` target-array base shared by scatter workers. Safety rests on
/// the slot discipline, not the type: every write lands at a distinct
/// index handed out by an atomic cursor.
struct ScatterPtr(*mut VertexId);
// SAFETY: the pointer is only written through inside pass 2's scatter,
// where every slot index comes from an atomic fetch_add hand-out — two
// threads can never receive the same index, so concurrent `*base.add(slot)`
// writes are to disjoint locations and sharing the base across threads
// (Send) and by reference (Sync) is sound.
unsafe impl Send for ScatterPtr {}
// SAFETY: see the Send argument above — all concurrent access is
// write-only to disjoint, bounds-checked indices of one live Vec.
unsafe impl Sync for ScatterPtr {}

/// Arcs whose slots pass 2 hands out before it writes any of their
/// targets (see the module docs). 256 `(slot, dst)` pairs are 4 KiB of
/// stack per worker.
const SCATTER_BATCH: usize = 256;

/// Build a CSR with `n` vertices from a **regenerable arc stream** — the
/// two-pass streaming scatter builder.
///
/// `stream(chunk, len, sink)` must emit, via `sink(src, dst)`, exactly
/// the directed arcs of chunk `chunk` (already including any
/// symmetrized reverse arcs), **identically on every invocation**: the
/// builder calls it once per chunk to count degrees and once more to
/// scatter, and panics if the two passes disagree. `chunks` is the
/// `(chunk_index, generator_len)` descriptor list (see
/// [`crate::gen`]); `len` is forwarded to `stream` untouched, so a
/// chunk may emit any number of arcs (symmetrization doubles, filters
/// drop).
///
/// * `dedup` — collapse duplicate arcs (the paper's kron dataset keeps
///   multiplicities out; uniform random keeps whatever the generator
///   drew).
/// * Self-loops are preserved; generators that exclude them do so at
///   drawing time.
///
/// Both endpoints of every arc are range-checked against `n` in the
/// counting pass.
pub fn csr_from_arc_stream<F>(n: usize, chunks: &[(u64, usize)], dedup: bool, stream: F) -> Csr
where
    F: Fn(u64, usize, &mut dyn FnMut(VertexId, VertexId)) + Sync,
{
    // ---- Pass 1: per-vertex out-degree counts (no arc materialization).
    // Atomic increments commute, so the counts — and everything derived
    // from them — are independent of chunk scheduling.
    let counts: Vec<AtomicU64> = std::iter::repeat_with(|| AtomicU64::new(0)).take(n).collect();
    chunks.par_iter().for_each(|&(chunk, len)| {
        stream(chunk, len, &mut |src, dst| {
            assert!((src as usize) < n, "arc with src {src} out of range (n = {n})");
            assert!((dst as usize) < n, "arc with dst {dst} out of range (n = {n})");
            counts[src as usize].fetch_add(1, Ordering::Relaxed);
        });
    });

    // Offsets by prefix sum; then repurpose `counts` as the scatter
    // cursors (each vertex's next free slot), saving an n-word array.
    let mut offsets: Vec<u64> = Vec::with_capacity(n + 1);
    let mut acc = 0u64;
    offsets.push(0);
    for c in &counts {
        let deg = c.swap(acc, Ordering::Relaxed); // cursor := offsets[v]
        acc += deg;
        offsets.push(acc);
    }
    let m = usize::try_from(acc).expect("arc count overflows usize");

    // ---- Pass 2: regenerate and scatter each dst into its sublist.
    // `vec![0; m]` allocates zeroed pages lazily; they are first touched
    // by the scatter writes themselves.
    let mut targets: Vec<VertexId> = vec![0; m];
    let base = ScatterPtr(targets.as_mut_ptr());
    chunks.par_iter().for_each(|&(chunk, len)| {
        let base = &base;
        // Writes each buffered `dst` to its handed-out slot, back to back.
        let write = |batch: &[(usize, VertexId)]| {
            for &(slot, dst) in batch {
                // SAFETY: every `slot` in a batch was handed out by an
                // atomic fetch_add, so no two writes share an index, and
                // `slot < m` was asserted at hand-out.
                unsafe { *base.0.add(slot) = dst };
            }
        };
        let mut batch = [(0usize, 0 as VertexId); SCATTER_BATCH];
        let mut filled = 0;
        stream(chunk, len, &mut |src, dst| {
            let slot = counts[src as usize].fetch_add(1, Ordering::Relaxed) as usize;
            // Memory safety even for a misbehaving stream: a slot past
            // the array is a panic, never a wild write.
            assert!(slot < m, "scatter slot {slot} out of bounds (m = {m})");
            batch[filled] = (slot, dst);
            filled += 1;
            if filled == SCATTER_BATCH {
                write(&batch);
                filled = 0;
            }
        });
        write(&batch[..filled]);
    });
    // Every cursor must have advanced exactly to the next offset —
    // anything else means the stream emitted different arcs in the two
    // passes, and some sublist now holds a neighbor of another vertex.
    // (Violations are gathered, not asserted, inside the parallel scan:
    // a worker-thread panic would reach the caller with its message
    // replaced by the pool's.)
    let mismatched: Vec<u64> = (0..n as u64)
        .into_par_iter()
        .filter(|&v| counts[v as usize].load(Ordering::Relaxed) != offsets[v as usize + 1])
        .collect();
    if let Some(&v) = mismatched.first() {
        panic!(
            "stream emitted different arcs across passes (vertex {v}: \
             cursor {}, expected {}; {} vertices affected)",
            counts[v as usize].load(Ordering::Relaxed),
            offsets[v as usize + 1],
            mismatched.len()
        );
    }
    drop(counts);

    // ---- Pass 3: restore the sorted-sublist invariant.
    let new_degrees = sort_sublists(&offsets, &mut targets, dedup);
    if let Some(new_degrees) = new_degrees {
        let (offsets, targets) = compact_sublists(&offsets, &targets, &new_degrees);
        return Csr::from_parts(offsets, targets);
    }
    Csr::from_parts(offsets, targets)
}

/// Carve `targets` into one `&mut` slice per [`VERTEX_CHUNK`]-sized
/// vertex range, paired with the range's first vertex. Sublist
/// boundaries never split, so the slices are disjoint and segment
/// workers can run in parallel safely; both the sort and the dedup
/// compaction carve with this so their segmentation can never drift
/// apart.
fn carve_segments<'a>(
    offsets: &[u64],
    targets: &'a mut [VertexId],
) -> Vec<(usize, &'a mut [VertexId])> {
    let n = offsets.len() - 1;
    let mut segments: Vec<(usize, &mut [VertexId])> = Vec::with_capacity(n.div_ceil(VERTEX_CHUNK));
    let mut rest = targets;
    let mut consumed = 0u64;
    for first_v in (0..n).step_by(VERTEX_CHUNK) {
        let seg_end = offsets[(first_v + VERTEX_CHUNK).min(n)];
        let (seg, tail) = rest.split_at_mut((seg_end - consumed) as usize);
        segments.push((first_v, seg));
        rest = tail;
        consumed = seg_end;
    }
    segments
}

/// Sort every vertex's sublist in place, in parallel over fixed
/// vertex-range segments. With `dedup`, each sorted sublist is also
/// deduplicated in place — unique values moved to the sublist head —
/// and the per-vertex unique counts are returned for
/// [`compact_sublists`].
fn sort_sublists(offsets: &[u64], targets: &mut [VertexId], dedup: bool) -> Option<Vec<u64>> {
    let n = offsets.len() - 1;
    let unique_counts: Vec<Vec<u64>> = carve_segments(offsets, targets)
        .into_par_iter()
        .map(|(first_v, seg)| {
            let seg_base = offsets[first_v];
            let last_v = (first_v + VERTEX_CHUNK).min(n);
            let mut uniques = Vec::with_capacity(if dedup { last_v - first_v } else { 0 });
            for v in first_v..last_v {
                let lo = (offsets[v] - seg_base) as usize;
                let hi = (offsets[v + 1] - seg_base) as usize;
                let sublist = &mut seg[lo..hi];
                sublist.sort_unstable();
                if dedup {
                    // In-place dedup of a sorted run: unique prefix of
                    // length k, tail left as garbage for the compaction
                    // pass to skip.
                    let mut k = 0;
                    for i in 0..sublist.len() {
                        if i == 0 || sublist[i] != sublist[k - 1] {
                            sublist[k] = sublist[i];
                            k += 1;
                        }
                    }
                    uniques.push(k as u64);
                }
            }
            uniques
        })
        .collect();
    dedup.then(|| unique_counts.into_iter().flatten().collect())
}

/// Rebuild `(offsets, targets)` keeping only each sublist's unique
/// prefix (as recorded by [`sort_sublists`]), in parallel over the same
/// vertex segments.
fn compact_sublists(
    offsets: &[u64],
    targets: &[VertexId],
    new_degrees: &[u64],
) -> (Vec<u64>, Vec<VertexId>) {
    let n = offsets.len() - 1;
    let mut new_offsets: Vec<u64> = Vec::with_capacity(n + 1);
    let mut acc = 0u64;
    new_offsets.push(0);
    for &d in new_degrees {
        acc += d;
        new_offsets.push(acc);
    }
    let mut new_targets: Vec<VertexId> = vec![0; acc as usize];
    let segments = carve_segments(&new_offsets, new_targets.as_mut_slice());
    segments.into_par_iter().for_each(|(first_v, seg)| {
        let mut out = 0usize;
        for v in first_v..(first_v + VERTEX_CHUNK).min(n) {
            let lo = offsets[v] as usize;
            let keep = new_degrees[v] as usize;
            seg[out..out + keep].copy_from_slice(&targets[lo..lo + keep]);
            out += keep;
        }
    });
    (new_offsets, new_targets)
}

/// Build a CSR with `n` vertices from packed arcs (see [`pack_arc`]) by
/// one sort and one counting pass — the **naive sort-based oracle**.
///
/// No production caller uses it: the generators stream through
/// [`csr_from_arc_stream`] and relabeling ([`crate::reorder`]) scatters
/// in two passes. It is the ground truth the property tests compare
/// both against, at ≈ 12 B per arc. Semantics are identical:
///
/// * `dedup` — remove duplicate arcs.
/// * Self-loops are preserved.
/// * Both endpoints are range-checked against `n`.
pub fn csr_from_packed_arcs(n: usize, mut arcs: Vec<u64>, dedup: bool) -> Csr {
    arcs.sort_unstable();
    if dedup {
        arcs.dedup();
    }
    let mut offsets = vec![0u64; n + 1];
    let mut targets = Vec::with_capacity(arcs.len());
    for &a in &arcs {
        let (src, dst) = unpack_arc(a);
        assert!((src as usize) < n, "arc with src {src} out of range (n = {n})");
        assert!((dst as usize) < n, "arc with dst {dst} out of range (n = {n})");
        offsets[src as usize + 1] += 1;
        targets.push(dst);
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    Csr::from_parts(offsets, targets)
}

/// Build a CSR from `(src, dst)` pairs, optionally symmetrizing (adding
/// the reverse arc for every input arc) as the paper's datasets do for
/// undirected graphs. Routed through the streaming scatter builder —
/// the edge slice plays the role of the regenerable stream.
pub fn csr_from_edges(
    n: usize,
    edges: &[(VertexId, VertexId)],
    symmetrize: bool,
    dedup: bool,
) -> Csr {
    let chunks = chunk_sizes(edges.len() as u64);
    csr_from_arc_stream(n, &chunks, dedup, |chunk, len, sink| {
        let lo = chunk as usize * CHUNK_EDGES;
        for &(s, d) in &edges[lo..lo + len] {
            sink(s, d);
            if symmetrize {
                sink(d, s);
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        for &(s, d) in &[(0, 0), (1, 2), (u32::MAX, 7), (123_456, u32::MAX)] {
            assert_eq!(unpack_arc(pack_arc(s, d)), (s, d));
        }
    }

    #[test]
    fn builds_sorted_sublists() {
        let edges = vec![(2, 1), (0, 3), (2, 0), (0, 1)];
        let g = csr_from_edges(4, &edges, false, false);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 3]);
        assert_eq!(g.neighbors(1), &[] as &[VertexId]);
        assert_eq!(g.neighbors(2), &[0, 1]);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn symmetrize_adds_reverse_arcs() {
        let edges = vec![(0, 1), (1, 2)];
        let g = csr_from_edges(3, &edges, true, false);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[1]);
    }

    #[test]
    fn dedup_removes_duplicates() {
        let edges = vec![(0, 1), (0, 1), (0, 1), (1, 0)];
        let g = csr_from_edges(2, &edges, false, true);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn without_dedup_keeps_multiplicity() {
        let edges = vec![(0, 1), (0, 1)];
        let g = csr_from_edges(2, &edges, false, false);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1, 1]);
    }

    #[test]
    fn symmetrized_self_loop_dedups_to_one() {
        let edges = vec![(1, 1)];
        let g = csr_from_edges(2, &edges, true, true);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(1), &[1]);
    }

    #[test]
    fn empty_stream_yields_empty_graph() {
        let g = csr_from_arc_stream(5, &[], false, |_, _, _| {});
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn large_random_build_is_consistent() {
        // 100k arcs over 1k vertices; degree sum must equal arc count.
        let mut arcs = Vec::new();
        let mut state = 12345u64;
        for _ in 0..100_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let s = ((state >> 33) % 1000) as VertexId;
            let d = ((state >> 13) % 1000) as VertexId;
            arcs.push(pack_arc(s, d));
        }
        let g = csr_from_packed_arcs(1000, arcs, false);
        assert_eq!(g.num_edges(), 100_000);
        let degree_sum: u64 = (0..1000u32).map(|v| g.degree(v)).sum();
        assert_eq!(degree_sum, 100_000);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn streaming_matches_sort_reference_on_a_multichunk_input() {
        // Enough edges for several generator chunks, duplicate-heavy so
        // the dedup path does real work.
        let n = 300usize;
        let mut state = 7u64;
        let edges: Vec<(VertexId, VertexId)> = (0..(3 * CHUNK_EDGES + 1234))
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (
                    ((state >> 33) % n as u64) as VertexId,
                    ((state >> 13) % n as u64) as VertexId,
                )
            })
            .collect();
        for (symmetrize, dedup) in [(false, false), (false, true), (true, false), (true, true)] {
            let streamed = csr_from_edges(n, &edges, symmetrize, dedup);
            let mut arcs: Vec<u64> = edges.iter().map(|&(s, d)| pack_arc(s, d)).collect();
            if symmetrize {
                arcs.extend(edges.iter().map(|&(s, d)| pack_arc(d, s)));
            }
            let reference = csr_from_packed_arcs(n, arcs, dedup);
            assert_eq!(
                streamed, reference,
                "streaming != sort reference (symmetrize={symmetrize}, dedup={dedup})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "src 9 out of range")]
    fn stream_rejects_out_of_range_src() {
        csr_from_arc_stream(5, &[(0, 1)], false, |_, _, sink| sink(9, 0));
    }

    #[test]
    #[should_panic(expected = "dst 9 out of range")]
    fn stream_rejects_out_of_range_dst() {
        csr_from_arc_stream(5, &[(0, 1)], false, |_, _, sink| sink(0, 9));
    }

    #[test]
    #[should_panic(expected = "different arcs across passes")]
    fn stream_rejects_nondeterministic_streams() {
        // Emits fewer arcs in the scatter pass than in the counting
        // pass: the cursor check must catch it before a corrupted CSR
        // escapes. (Emitting *more* trips the slot bounds check only for
        // the last non-empty sublist; see the next test for the others.)
        let calls = AtomicU64::new(0);
        csr_from_arc_stream(4, &[(0, 1)], false, |_, _, sink| {
            for _ in calls.fetch_add(1, Ordering::Relaxed)..2 {
                sink(1, 2);
            }
        });
    }

    #[test]
    #[should_panic(expected = "different arcs across passes")]
    fn stream_rejects_an_extra_arc_for_an_interior_vertex() {
        // The extra arc's slot is the first of vertex 2's sublist, inside
        // the array: only the cursor check can catch it.
        let calls = AtomicU64::new(0);
        csr_from_arc_stream(4, &[(0, 1)], false, |_, _, sink| {
            for v in 0..4 {
                sink(v, (v + 1) % 4);
            }
            if calls.fetch_add(1, Ordering::Relaxed) == 1 {
                sink(1, 3);
            }
        });
    }

    #[test]
    fn scatter_batches_split_anywhere_match_the_sort_reference() {
        // One chunk per arc count around the batch size: nothing, a lone
        // arc, one short of a batch, exactly one, one over, and several
        // full batches plus a ragged tail. Few vertices, so duplicates
        // abound and dedup has work to do.
        let b = SCATTER_BATCH;
        let chunks: Vec<(u64, usize)> = (0u64..).zip([0, 1, b - 1, b, b + 1, 3 * b + 7]).collect();
        let arc = |chunk: u64, i: usize| {
            let h = (chunk << 32 | i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (((h >> 40) % 37) as VertexId, ((h >> 20) % 37) as VertexId)
        };
        let mut runs: Vec<Vec<(u64, usize)>> = chunks.iter().map(|&c| vec![c]).collect();
        runs.push(chunks);
        for run in runs {
            for dedup in [false, true] {
                let streamed = csr_from_arc_stream(37, &run, dedup, |c, len, sink| {
                    for i in 0..len {
                        let (s, d) = arc(c, i);
                        sink(s, d);
                    }
                });
                let packed = run
                    .iter()
                    .flat_map(|&(c, len)| (0..len).map(move |i| arc(c, i)))
                    .map(|(s, d)| pack_arc(s, d))
                    .collect();
                assert_eq!(
                    streamed,
                    csr_from_packed_arcs(37, packed, dedup),
                    "chunks {run:?}, dedup={dedup}"
                );
            }
        }
    }
}
