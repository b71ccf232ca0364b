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
//!   per-sublist sort (+ dedup, compacted in place) restores the
//!   invariant. The targets array is the only per-arc allocation: the
//!   build peaks at 4 B per *counted* arc plus 16 B per vertex (offsets
//!   and cursors), ≈ 12 B/arc less than a sort over packed arcs. As
//!   process peak RSS at scale 18 on 2 threads, per stored arc: urand
//!   ≈ 4.9 B, kron ≈ 5.5 B and social ≈ 4.8 B (dedup drops a share of
//!   their counted arcs after the peak).
//!
//!   Pass 2 and the sort are one window kernel, shared with the spill
//!   builder ([`crate::storage::SpillCsr::build`]), which runs it once
//!   per segment. It hands slots out in batches of `SCATTER_BATCH`
//!   (256) arcs: each arc takes its slot from its vertex's cursor as it
//!   arrives, but its `dst` is written only when the batch is full. A
//!   locked `fetch_add` cannot complete until earlier stores drain, and
//!   each scatter store lands in a random, usually uncached, slot of a
//!   targets array far larger than the caches; interleaved one-to-one,
//!   the misses ran one at a time. Written back to back, a batch's
//!   store misses overlap, and the sorted output is unchanged.
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
use std::convert::Infallible;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Vertices per parallel work unit in the per-sublist sort and the dedup
/// compaction. Boundaries depend on the window alone, so work splitting
/// never affects results.
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

/// Arcs whose slots the scatter hands out before it writes any of their
/// targets (see the module docs). 256 `(slot, dst)` pairs are 4 KiB of
/// stack per worker.
const SCATTER_BATCH: usize = 256;

/// View `targets` as atomics, so that parallel scatter workers can
/// store into it through a shared reference. A relaxed atomic store is
/// the same plain store instruction, but two of them to one slot are
/// defined behavior rather than a data race. Relaxed suffices: the
/// parallel loop joins its workers, which publishes every store, before
/// any target is read.
fn as_atomic(targets: &mut [VertexId]) -> &[AtomicU32] {
    const { assert!(std::mem::align_of::<AtomicU32>() == std::mem::align_of::<VertexId>()) };
    // SAFETY: `AtomicU32` has the same size and bit validity as `u32`,
    // and the same alignment (checked at compile time above), and the
    // returned view holds the exclusive borrow of `targets`, so nothing
    // else reads or writes them while it lives.
    unsafe { std::slice::from_raw_parts(targets.as_mut_ptr().cast::<AtomicU32>(), targets.len()) }
}

/// Pass 1 of both builders: stream every chunk once, range-check both
/// endpoints against `n`, and count per-vertex out-degrees. Returns the
/// counted offsets (the degree prefix sums, length `n + 1`). Atomic
/// increments commute, so the counts — and everything derived from
/// them — are independent of chunk scheduling.
///
/// Vertex `v` counts into entry `v + 1`, and the prefix sum runs as a
/// `map` over the counters' own `IntoIter`; `AtomicU64` and `u64` share
/// their layout, so the collect reuses the counters' allocation and the
/// pass peaks at 8 B per vertex, not 16.
pub(crate) fn count_offsets<F>(n: usize, chunks: &[(u64, usize)], stream: &F) -> Vec<u64>
where
    F: Fn(u64, usize, &mut dyn FnMut(VertexId, VertexId)) + Sync + ?Sized,
{
    let counts: Vec<AtomicU64> = std::iter::repeat_with(|| AtomicU64::new(0))
        .take(n + 1)
        .collect();
    chunks.par_iter().for_each(|&(chunk, len)| {
        stream(chunk, len, &mut |src, dst| {
            assert!(
                (src as usize) < n,
                "arc with src {src} out of range (n = {n})"
            );
            assert!(
                (dst as usize) < n,
                "arc with dst {dst} out of range (n = {n})"
            );
            counts[src as usize + 1].fetch_add(1, Ordering::Relaxed);
        });
    });
    let mut acc = 0u64;
    counts
        .into_iter()
        .map(|c| {
            acc += c.into_inner();
            acc
        })
        .collect()
}

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
    let mut offsets = count_offsets(n, chunks, &stream);
    let Ok(mut targets): Result<_, Infallible> =
        collate_window(0, &mut offsets, dedup, chunks.len(), |i, sink| {
            let (chunk, len) = chunks[i];
            stream(chunk, len, sink);
            Ok(())
        });
    targets.shrink_to_fit();
    Csr::from_parts(offsets, targets)
}

/// The scatter, sort and dedup kernel of both builders, over the vertex
/// window `[lo, lo + offsets.len() - 1)`.
///
/// `offsets` holds the window's counted offsets (vertex `lo + i`'s
/// sublist is `offsets[i]..offsets[i + 1]`, in any frame: only
/// differences from `offsets[0]` matter). `feed(part, sink)` for each
/// `part < parts`, run in parallel, must emit every arc of the window
/// exactly once overall, or fail. The kernel
///
/// 1. hands each arc a slot from its vertex's cursor and writes the
///    slots in `SCATTER_BATCH` batches;
/// 2. returns the first failing part's error (in part order), if any;
///    then audits the cursors, panicking if the arcs do not match the
///    counts (an arc outside the window, or a vertex with more or fewer
///    arcs than counted);
/// 3. sorts each sublist and, with `dedup`, drops repeats;
/// 4. compacts the unique prefixes in place: each [`VERTEX_CHUNK`]
///    segment shifts its own left in parallel, then one left
///    `copy_within` per segment, in ascending order, closes the gaps.
///
/// Returns the window's targets and rewrites `offsets` to match them,
/// keeping `offsets[0]`. No second targets array is ever allocated, and
/// the one returned keeps its counted-arc capacity. A caller that keeps
/// it shrinks it; the spill build drops each segment's at once, and
/// shrinking those let the heap grow by about one segment's targets per
/// segment (a social-20 spill build peaked at 75 MB instead of 33 MB).
/// A feed that cannot fail uses `E = Infallible`.
///
/// The scatter is sound for any `feed`, including one that breaks its
/// contract: every write is a relaxed atomic store at a bounds-checked
/// index, so an arc past its vertex's sublist end can at worst land in a
/// slot that another arc also writes — defined behavior, and the audit
/// then panics before any target is read.
pub(crate) fn collate_window<F, E>(
    lo: usize,
    offsets: &mut [u64],
    dedup: bool,
    parts: usize,
    feed: F,
) -> Result<Vec<VertexId>, E>
where
    F: Fn(usize, &mut dyn FnMut(VertexId, VertexId)) -> Result<(), E> + Sync,
    E: Send,
{
    let w = offsets.len() - 1;
    let base = offsets[0];
    let len = usize::try_from(offsets[w] - base).expect("window arc count overflows usize");
    let counted: &[u64] = offsets;
    // Sublist end of window vertex `v`, relative to the window.
    let end = |v: usize| (counted[v + 1] - base) as usize;

    // ---- Scatter. `vec![0; len]` allocates zeroed pages lazily; they
    // are first touched by the scatter writes themselves.
    let cursors: Vec<AtomicU64> = counted[..w]
        .iter()
        .map(|&o| AtomicU64::new(o - base))
        .collect();
    let strays = AtomicU64::new(0);
    let mut targets: Vec<VertexId> = vec![0; len];
    let slots = as_atomic(&mut targets);
    let fed: Vec<Result<(), E>> = (0..parts)
        .into_par_iter()
        .map(|part| {
            // Writes each buffered `dst` to its handed-out slot, back to back.
            // A slot past the window can only come from a vertex that got
            // more arcs than counted; it is dropped, and the audit reports it.
            let write = |batch: &[(usize, VertexId)]| {
                for &(slot, dst) in batch {
                    if let Some(t) = slots.get(slot) {
                        t.store(dst, Ordering::Relaxed);
                    }
                }
            };
            let mut batch = [(0usize, 0 as VertexId); SCATTER_BATCH];
            let mut filled = 0;
            let fed = feed(part, &mut |src, dst| {
                let v = (src as usize).wrapping_sub(lo);
                let Some(cursor) = cursors.get(v) else {
                    strays.fetch_add(1, Ordering::Relaxed);
                    return;
                };
                let slot = cursor.fetch_add(1, Ordering::Relaxed) as usize;
                batch[filled] = (slot, dst);
                filled += 1;
                if filled == SCATTER_BATCH {
                    write(&batch);
                    filled = 0;
                }
            });
            write(&batch[..filled]);
            fed
        })
        .collect();
    fed.into_iter().collect::<Result<(), E>>()?;
    // Every cursor must have advanced exactly to its sublist end —
    // anything else means the stream emitted different arcs in the two
    // passes. (Violations are gathered, not asserted, inside the
    // parallel scan: a worker-thread panic would reach the caller with
    // its message replaced by the pool's.)
    let strays = strays.into_inner();
    let mismatched: Vec<usize> = (0..w)
        .into_par_iter()
        .filter(|&v| cursors[v].load(Ordering::Relaxed) as usize != end(v))
        .collect();
    if let Some(&v) = mismatched.first() {
        panic!(
            "stream emitted different arcs across passes (vertex {}: \
             cursor {}, expected {}; {} vertices affected)",
            lo + v,
            cursors[v].load(Ordering::Relaxed),
            end(v),
            mismatched.len()
        );
    }
    assert!(
        strays == 0,
        "stream emitted different arcs across passes \
         ({strays} arcs outside vertex window {lo}..{})",
        lo + w
    );

    // ---- Sort each sublist; with dedup, keep its unique prefix, shift
    // it left within its segment, and record the vertex's kept degree in
    // its (now spent) cursor. Segments end at sublist boundaries, so
    // their slices are disjoint.
    let mut segments = Vec::with_capacity(w.div_ceil(VERTEX_CHUNK));
    let mut rest: &mut [VertexId] = &mut targets;
    for first in (0..w).step_by(VERTEX_CHUNK) {
        let last = (first + VERTEX_CHUNK).min(w);
        let (seg, tail) = rest.split_at_mut((counted[last] - counted[first]) as usize);
        segments.push((first, seg));
        rest = tail;
    }
    let kept: Vec<usize> = segments
        .into_par_iter()
        .map(|(first, seg)| {
            let seg_base = counted[first];
            let mut out = 0;
            for v in first..(first + VERTEX_CHUNK).min(w) {
                let s = (counted[v] - seg_base) as usize;
                let e = (counted[v + 1] - seg_base) as usize;
                let sublist = &mut seg[s..e];
                sublist.sort_unstable();
                if dedup {
                    let mut k = 0;
                    for i in 0..sublist.len() {
                        if i == 0 || sublist[i] != sublist[k - 1] {
                            sublist[k] = sublist[i];
                            k += 1;
                        }
                    }
                    seg.copy_within(s..s + k, out);
                    out += k;
                    cursors[v].store(k as u64, Ordering::Relaxed);
                }
            }
            out
        })
        .collect();
    if !dedup {
        return Ok(targets);
    }

    // ---- Close the gaps between segments, then rebuild the offsets.
    let mut out = 0;
    for (first, &keep) in (0..w).step_by(VERTEX_CHUNK).zip(&kept) {
        let start = (counted[first] - base) as usize;
        targets.copy_within(start..start + keep, out);
        out += keep;
    }
    targets.truncate(out);
    for v in 0..w {
        offsets[v + 1] = offsets[v] + cursors[v].load(Ordering::Relaxed);
    }
    Ok(targets)
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
        assert!(
            (src as usize) < n,
            "arc with src {src} out of range (n = {n})"
        );
        assert!(
            (dst as usize) < n,
            "arc with dst {dst} out of range (n = {n})"
        );
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
        // escapes. (See the next test for emitting more.)
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
        // Two chunks, so two workers scatter at once at 2 threads. In its
        // second pass chunk 0 emits an extra arc for vertex 1, whose slot
        // is the first of vertex 2's sublist — the slot chunk 1's arc
        // also takes. Only the cursor check can catch it: at 1 thread
        // here, and at 2 threads for the expected panic.
        let build = |threads| {
            let calls = AtomicU64::new(0);
            rayon::with_num_threads(threads, || {
                csr_from_arc_stream(4, &[(0, 1), (1, 1)], false, |chunk, _, sink| {
                    let arcs = if chunk == 0 {
                        [(0, 1), (1, 2)]
                    } else {
                        [(2, 3), (3, 0)]
                    };
                    arcs.into_iter().for_each(|(s, d)| sink(s, d));
                    if chunk == 0 && calls.fetch_add(1, Ordering::Relaxed) == 1 {
                        sink(1, 3);
                    }
                })
            })
        };
        let err = std::panic::catch_unwind(|| build(1)).expect_err("an extra arc must not build");
        let msg = err.downcast_ref::<String>().map_or("", String::as_str);
        assert!(msg.contains("different arcs across passes"), "{msg}");
        build(2);
    }

    #[test]
    #[should_panic(expected = "arcs outside vertex window")]
    fn stream_rejects_an_out_of_range_src_in_the_scatter_pass() {
        // Every counted arc comes back, so only the stray check sees the
        // extra one whose source is past the last vertex.
        let calls = AtomicU64::new(0);
        csr_from_arc_stream(5, &[(0, 1)], false, |_, _, sink| {
            sink(0, 1);
            if calls.fetch_add(1, Ordering::Relaxed) == 1 {
                sink(9, 0);
            }
        });
    }

    /// Run the window kernel over `[lo, hi)` of `arcs`, fed round-robin
    /// in three parts, and check its offsets and targets against the
    /// sort oracle's sublists of the same vertices.
    fn assert_window_matches_oracle(
        n: usize,
        arcs: &[(VertexId, VertexId)],
        (lo, hi): (usize, usize),
        dedup: bool,
    ) {
        let packed: Vec<u64> = arcs.iter().map(|&(s, d)| pack_arc(s, d)).collect();
        let counted = csr_from_packed_arcs(n, packed.clone(), false).offsets()[lo..=hi].to_vec();
        let oracle = csr_from_packed_arcs(n, packed, dedup);
        let in_window = |&&(s, _): &&(VertexId, VertexId)| (lo..hi).contains(&(s as usize));
        let window: Vec<_> = arcs.iter().filter(in_window).collect();
        let mut offsets = counted.clone();
        let Ok(targets): Result<_, Infallible> =
            collate_window(lo, &mut offsets, dedup, 3, |part, sink| {
                for &&(s, d) in window.iter().skip(part).step_by(3) {
                    sink(s, d);
                }
                Ok(())
            });
        let label = format!("window {lo}..{hi}, dedup={dedup}");
        let want = &oracle.offsets()[lo..=hi];
        let range = want[0] as usize..want[hi - lo] as usize;
        assert_eq!(targets, oracle.targets()[range], "{label}");
        let rebased: Vec<u64> = want.iter().map(|o| o - want[0] + counted[0]).collect();
        assert_eq!(offsets, rebased, "{label}: offsets, with offsets[0] kept");
    }

    #[test]
    fn window_kernel_returns_the_first_failing_part_in_part_order() {
        // Parts 1 and 3 fail after emitting some of their arcs, so the
        // counts cannot match: the error must come back, not the audit's
        // panic.
        let mut offsets = vec![0, 4, 8];
        let fed = collate_window(0, &mut offsets, true, 4, |part, sink| {
            sink(part as VertexId % 2, 1);
            match part {
                1 | 3 => Err(part),
                _ => Ok(()),
            }
        });
        assert_eq!(fed, Err(1));
        assert_eq!(
            offsets,
            [0, 4, 8],
            "a failed window keeps its counted offsets"
        );
    }

    #[test]
    fn window_kernel_matches_the_sort_oracle_on_edge_cases() {
        let arcs_of = |sublists: &[&[VertexId]]| -> Vec<(VertexId, VertexId)> {
            let arcs = (0..).zip(sublists);
            arcs.flat_map(|(v, l)| l.iter().map(move |&d| (v, d)))
                .collect()
        };
        // The first and the last vertex hold repeats, two are empty, and
        // one sublist is a single arc four times.
        let mixed = arcs_of(&[&[3, 1, 3], &[], &[4, 4, 4, 4], &[], &[0, 5, 2], &[5, 0, 0]]);
        // One vertex holds every arc.
        let hub = arcs_of(&[&[], &[], &[], &[1, 4, 1, 0, 4, 4], &[]]);
        for dedup in [false, true] {
            for window in [(0, 6), (2, 5), (5, 6), (1, 2), (3, 3), (0, 1)] {
                assert_window_matches_oracle(6, &mixed, window, dedup);
            }
            for window in [(0, 5), (3, 4), (2, 5), (4, 5)] {
                assert_window_matches_oracle(5, &hub, window, dedup);
            }
        }
    }

    #[test]
    fn window_kernel_compacts_across_sort_segments() {
        // Over two VERTEX_CHUNK segments, so the compaction shifts kept
        // prefixes both within and across segments.
        let n = 2 * VERTEX_CHUNK + 3;
        let hubs = (0..n)
            .step_by(997)
            .chain([VERTEX_CHUNK - 1, VERTEX_CHUNK, n - 1]);
        let arcs: Vec<(VertexId, VertexId)> = hubs
            .flat_map(|v| {
                let (v, w) = (v as VertexId, ((v + 1) % n) as VertexId);
                [(v, v / 2), (v, 7), (v, v / 2), (v, w), (v, 7)]
            })
            .collect();
        for dedup in [false, true] {
            assert_window_matches_oracle(n, &arcs, (0, n), dedup);
            assert_window_matches_oracle(n, &arcs, (VERTEX_CHUNK - 1, n), dedup);
        }
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
