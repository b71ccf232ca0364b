//! The discrete-event execution core.
//!
//! One [`Engine`] models a GPU kernel's interaction with external memory:
//! a pool of warps issues device requests through a PCIe link with
//! bandwidth `W` and an outstanding-request credit pool `Nmax` (or the
//! storage queue depth for GPU-initiated storage access, §3.2), the
//! backend device computes service times, and responses serialize on the
//! shared return channel. The three throughput limits of Equation 2 —
//! `S·d` (device service), `Nmax·d/L` (Little's Law on credits), and `W`
//! (return-channel serialization) — all *emerge* from this mechanism; the
//! analytical model in `cxlg-model` is validated against it.
//!
//! # Batch input: windows and a lookahead of `active_warps + 1`
//!
//! A traversal runs as a sequence of **batches** (one per BFS level /
//! SSSP round, matching the level-synchronous kernels of EMOGI/BaM), each
//! a stream of [`DeviceRequest`]s: [`Engine::begin`] opens it,
//! [`Engine::feed`] appends a window of items, and
//! [`Engine::finish_batch`] appends the last window and runs the batch to
//! completion ([`Engine::run_batch`] is `begin` and `finish_batch` with
//! every item, no feed). Warps take items in order, and an event
//! takes at most `active_warps` of them (one per warp with a pull due),
//! then asks whether one more is left. So the engine handles an event
//! only while more than `active_warps` fed items are untaken, or after
//! `finish_batch`: every decision is the one the whole list would make,
//! however the items are split into feeds. The batch starts with
//! `active_warps` pulls; pulls beyond the last item never go live.
//! Between feeds the engine keeps only the items not yet issued: at most
//! `active_warps` untaken, and at most one per warp waiting for a credit.
//!
//! # Event model: credit hand-offs in closed form
//!
//! Three things happen to a request. A **warp pull** takes the next item
//! and, with a credit free, *issues* it: the request channel is computed
//! in closed form — the TLP header / SQ entry serializes from
//! `max(now + issue overhead, channel free)` and reaches the device a
//! fixed flight later — the backend is called with that arrival instant,
//! and one **`SegReady`** event is scheduled per response segment. At a
//! `SegReady` the *return link*, a work-conserving FIFO server, is done
//! with the segment at `max(now, link free) + serialization`; the segment
//! served last (the last of the latest-ready ones, known at issue)
//! carries the request's **completion** at `c = done + propagation`. A
//! completion records the latency, releases the credit and frees the
//! warp, whose next pull is at `c + item_compute`.
//!
//! Pulls and completions are events only where the credit pool can
//! change hands; a saturated batch costs one event per response segment:
//!
//! * **Lazy pulls.** While every credit is held, a pull can only take its
//!   item and wait, so pulls are not events then. The items waiting for a
//!   credit are always the contiguous range `[next_issue, next_item)`,
//!   and the credit pool keeps no waiter queue.
//! * **One hand-off rule.** At a release at `c`, every pull strictly
//!   before `c` has taken its item. If an item waits, the credit passes
//!   straight to the oldest one, which issues at `c`; otherwise it goes
//!   back to the pool.
//! * **Early completion.** A request's last `SegReady` applies its
//!   completion at once, instead of scheduling a `Complete` event, when
//!   the pool is full, no `Complete` is pending, and an item waits at
//!   `c`. Nothing can then touch credits, warps or the backend before
//!   `c`: a credit frees only at a completion, later completions have
//!   later link `done` times, and pulls meanwhile only wait.
//!
//! Otherwise the completion is a `Complete` event, and a pull with a
//! credit free a `Warp` event. All of this reproduces, bit for bit, a
//! loop that schedules every pull and completion and serves waiters from
//! a FIFO queue (the differential test in this module keeps that loop as
//! its oracle; `crates/core/tests/engine_golden.rs` pins the reports
//! across commits):
//!
//! * link `done` strictly increases, so completions apply in the same
//!   order, early or not, and latencies fold in the same order;
//! * issues stay in item order at nondecreasing instants, and channel
//!   exits never decrease in issue order, so the backend sees the same
//!   calls at the same instants;
//! * the in-use credit integral is additive over breakpoints, and a
//!   hand-off changes neither it nor the high water mark;
//! * a `SegReady` touches only the return link, and its early completion
//!   acts strictly later, so its place among same-instant `Warp` and
//!   `Complete` events is immaterial.
//!
//! # Event list: two FIFOs and one lane
//!
//! Pulls are scheduled at the batch start or at a completion plus the
//! per-item compute, and completions at link `done + propagation`; both
//! come in time order, so each kind is a plain FIFO (asserted on every
//! push, in release builds too). The pull FIFO holds runs of warps per
//! instant, so a batch's start is one entry however many warps it has. Among events due at one instant, a
//! `Complete` pops before a `Warp` — a release at `c` precedes a pull at
//! `c`; either order issues the same item at `c` with the same credit
//! counts, and the rule fixes one — and both before a `SegReady`. Only `SegReady`s need sequence
//! stamps: their times are device ready times, in order on one host DRAM
//! channel, mostly in order across interleaved CXL expanders, and mostly
//! out of order on flash media with plane jitter, so they go in a
//! [`Lane`], a FIFO plus an overflow heap that pops in `(time, seq)`
//! order. Shares of `SegReady` pushes that take the FIFO, at perfbench
//! seed 1: `latency-sweep` 86.5%, `campaign` 79.2%, `spill-sequential`
//! 51.7%, `flash-social` 10.2%. Scheduling a `SegReady` before `now`
//! panics, in release builds too.
//!
//! # Parallel execution model: round shards
//!
//! A batch's requests are **globally coupled**: they contend for one
//! credit pool, serialize in issue order on the request channel, and
//! FIFO-share the return link, so a batch cannot be split across threads
//! without changing the very contention the model exists to measure.
//! What *is* independent is the sequence of batches themselves — each
//! level runs the link to idle before the next one starts (the
//! level-synchronous barrier), so the simulation decomposes exactly at
//! round boundaries:
//!
//! * each round's batch can be a **shard** on its own fresh [`Engine`]
//!   from `t = 0` ([`Engine::run_shard`], [`simulate_shards`]);
//! * [`merge_shard_metrics`] reduces the per-shard [`ShardOutcome`]s in
//!   **shard-index order**: simulated times are `u64` picoseconds (sums
//!   and maxes are exact), and the latency [`OnlineStats`] are merged —
//!   never re-streamed — with the fixed fold order making the float
//!   fields bit-identical at any `RAYON_NUM_THREADS`.
//!
//! Because the engine's timing is translation-invariant (the device
//! models and both link servers advance through `max(now, next_free)`,
//! and a drained batch leaves every `next_free` mark at or before its
//! end), a shard simulated at `t = 0` reproduces, shifted, exactly the
//! timeline it would have produced starting at the previous round's end
//! — so on DRAM- and CXL-backed systems the sharded run is
//! **bit-identical** to the coupled single-engine chain.
//!
//! The flash-backed backends (XLFDD, NVMe) are the exception: their
//! media carries real state across batches — plane page registers (a
//! re-read of the most recently sensed page skips the full `tR`), plane
//! busy timestamps, and the latency-jitter RNG stream — which a fresh
//! per-shard engine would reset, changing the physics
//! ([`BackendConfig::quiesces_between_batches`][qb] tells them apart).
//!
//! The traversal driver (`runner::sweep_systems`) chains every system:
//! one engine whose batches run back to back on its clock, on any
//! backend. It runs systems in parallel, never one batch across threads,
//! and never two levels of one system at once. The shards serve
//! perfbench's traced pipeline, which simulates a traversal's levels
//! from whole-level plans; `crates/core/tests/parallel_differential.rs`
//! checks them against the driver's chain on the quiescent backends.
//!
//! [qb]: crate::system::BackendConfig::quiesces_between_batches

use crate::access::DeviceRequest;
use crate::metrics::RunMetrics;
use cxlg_device::target::{MemoryTarget, ReadSegment};
use cxlg_gpu::config::GpuConfig;
use cxlg_link::pcie::PcieLinkConfig;
use cxlg_sim::{Bandwidth, CreditPool, Lane, OnlineStats, SimDuration, SimTime};
use std::collections::VecDeque;

/// How requests travel to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestPath {
    /// Load/store memory access (host DRAM, CXL): read TLPs bounded by
    /// the PCIe `Nmax`.
    Memory,
    /// GPU-initiated storage access (BaM / XLFDD): submission-queue
    /// entries fetched by the drive; concurrency bounded by queue depth,
    /// and the SQ fetch adds one extra link round trip. No
    /// completion-queue traffic is charged (XLFDD has none, §4.1.1).
    Storage {
        /// Bytes per SQ entry crossing the request path.
        entry_bytes: u64,
    },
}

/// Engine configuration assembled by `SystemConfig::build_engine`.
pub struct EngineConfig {
    /// GPU warp model.
    pub gpu: GpuConfig,
    /// The GPU's PCIe link.
    pub link: PcieLinkConfig,
    /// Concurrency credits: `Nmax` for memory paths, total queue depth
    /// for storage paths.
    pub credits: u64,
    /// One-way socket penalty for reaching the backend (Fig. 8/9).
    pub socket_penalty: SimDuration,
    /// Request transport semantics.
    pub path: RequestPath,
    /// Host-side time paid before each request enters the request
    /// channel: the UVM driver's per-fault handling (Related Work, §6),
    /// zero for reads the GPU issues in hardware.
    pub issue_overhead: SimDuration,
}

/// Result of executing one batch.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Simulated completion time of the batch.
    pub end: SimTime,
    /// Bytes fetched from the device in this batch.
    pub fetched_bytes: u64,
    /// Requests executed.
    pub requests: u64,
    /// Per-request latency observations (issue → last byte at GPU).
    pub latency: OnlineStats,
}

/// The engine's future-event list (module docs, "Event list"): warp
/// pulls and completions in time-ordered FIFOs, response segments in a
/// sequence-stamped [`Lane`].
#[derive(Default)]
struct Events {
    /// Time of the event popped last; nothing may be scheduled before it.
    now: SimTime,
    seq: u64,
    /// `(instant, warps)`: instants at which that many warps pull the
    /// next work item.
    pulls: VecDeque<(SimTime, usize)>,
    /// A response segment of `bytes` reaches the return link; the
    /// request's segment the link serves last carries its issue instant.
    segs: Lane<(u64, Option<SimTime>)>,
    /// `(instant, issued)`: the final data of a request issued at
    /// `issued` arrives at the GPU.
    completes: VecDeque<(SimTime, SimTime)>,
}

/// Which kind of event is next.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Next {
    Complete,
    Warp,
    Seg,
}

impl Events {
    /// Queue a warp pull at `t`. Panics, in release builds too, if `t` is
    /// before the newest pull.
    #[inline]
    fn pull(&mut self, t: SimTime) {
        match self.pulls.back_mut() {
            Some((b, n)) if *b == t => *n += 1,
            back => {
                assert!(
                    back.is_none_or(|&mut (b, _)| b < t),
                    "warp pull at {t:?} out of time order"
                );
                self.pulls.push_back((t, 1));
            }
        }
    }

    /// Schedule a segment at `t`. Panics, in release builds too, if `t`
    /// is before the current time.
    #[inline]
    fn seg(&mut self, t: SimTime, bytes: u64, last_of: Option<SimTime>) {
        assert!(t >= self.now, "event at {t:?} before now, {:?}", self.now);
        self.seq += 1;
        self.segs.push(t, self.seq, (bytes, last_of));
    }

    /// Schedule a completion at `t`. Panics, in release builds too,
    /// unless `t` is after every pending completion and not before now.
    #[inline]
    fn complete(&mut self, t: SimTime, issued: SimTime) {
        assert!(t >= self.now, "event at {t:?} before now, {:?}", self.now);
        assert!(
            self.completes.back().is_none_or(|&(b, _)| b < t),
            "completion at {t:?} out of time order"
        );
        self.completes.push_back((t, issued));
    }

    /// The kind of the earliest event, advancing `now` to its time;
    /// `None` once none is pending. Pulls count only when `pulls_live`
    /// (a credit is free and items remain). At equal instants a
    /// `Complete` pops before a `Warp`, and both before a `SegReady`. The
    /// caller pops the event.
    #[inline]
    fn next(&mut self, pulls_live: bool) -> Option<Next> {
        const IDLE: SimTime = SimTime::MAX;
        let c = self.completes.front().map_or(IDLE, |&(t, _)| t);
        let w = match self.pulls.front() {
            Some(&(t, _)) if pulls_live => t,
            _ => IDLE,
        };
        let s = self.segs.peek_key().map_or(IDLE, |(t, _)| t);
        let (t, next) = if c <= w && c <= s {
            (c, Next::Complete)
        } else if w <= s {
            (w, Next::Warp)
        } else {
            (s, Next::Seg)
        };
        if t == IDLE {
            return None;
        }
        self.now = t;
        Some(next)
    }

    /// End a batch: drop the pulls left over (warps retiring with no
    /// work) and free the segment lane, the one list that grows with
    /// device depth. The pull and completion FIFOs, at most one entry
    /// per warp, keep their storage for the next batch. Panics unless no
    /// segment or completion is pending.
    fn release(&mut self) {
        assert!(self.completes.is_empty(), "completions pending");
        self.segs.release();
        self.pulls.clear();
    }
}

/// One batch's progress through its items, which arrive in feeds.
#[derive(Default)]
struct Batch {
    start: SimTime,
    /// Items fed so far.
    fed: usize,
    /// Items taken by warps; `[next_issue, next_item)` wait for a credit.
    next_item: usize,
    /// Items issued.
    next_issue: usize,
    /// The items `[next_issue, fed)` as the last feed left them, the
    /// first of them item `kept_from`: at most `2·active_warps`.
    kept: Vec<DeviceRequest>,
    kept_from: usize,
    fetched: u64,
    /// Payload bytes the return link has carried.
    returned: u64,
    /// One observation per completed item.
    latency: OnlineStats,
    end: SimTime,
}

impl Batch {
    /// Item `i`, while `window` holds the items fed last.
    fn item(&self, window: &[DeviceRequest], i: usize) -> DeviceRequest {
        match i.checked_sub(self.fed - window.len()) {
            Some(j) => window[j],
            None => self.kept[i - self.kept_from],
        }
    }

    /// Whether an item waits for a credit at a release at `c`, given the
    /// pending pulls: every pull strictly before `c` has taken an item.
    #[inline]
    fn waits_at(&self, c: SimTime, pulls: &VecDeque<(SimTime, usize)>) -> bool {
        self.next_issue < self.next_item
            || (self.next_item < self.fed && pulls.front().is_some_and(|&(t, _)| t < c))
    }
}

/// The execution core. Owns the backend device and all link state; one
/// engine is used for a whole run so channel/credit state carries across
/// batches.
///
/// Aligned to 128 bytes (an adjacent-line prefetch pair): the engines of
/// a sweep simulate side by side on different threads, and one engine's
/// hot fields must not share a cache line with another's.
#[repr(align(128))]
pub struct Engine {
    cfg: EngineConfig,
    backend: Box<dyn MemoryTarget>,
    credits: CreditPool,
    /// Link bandwidth `W`, the same in both directions.
    bandwidth: Bandwidth,
    /// Serialization time of one request (read TLP header or SQ entry).
    request_ser: SimDuration,
    /// Request-channel exit to device arrival.
    request_flight: SimDuration,
    /// When the request channel is next free.
    req_next_free: SimTime,
    /// When the return link is next free.
    ret_next_free: SimTime,
    /// The backend's response segments for the request being issued.
    segs: Vec<ReadSegment>,
    events: Events,
    /// The batch in progress.
    batch: Batch,
    run_latency: OnlineStats,
    run_requests: u64,
    run_fetched: u64,
    end_of_time: SimTime,
}

impl Engine {
    /// Build an engine over a backend device.
    pub fn new(cfg: EngineConfig, backend: Box<dyn MemoryTarget>) -> Self {
        let prop = cfg.link.propagation();
        let bandwidth = cfg.link.bandwidth();
        let (request_bytes, sq_fetch) = match cfg.path {
            RequestPath::Memory => (PcieLinkConfig::REQUEST_TLP_BYTES, SimDuration::ZERO),
            // The drive fetches the SQ entry from GPU BAR memory: one
            // more link round trip.
            RequestPath::Storage { entry_bytes, .. } => (entry_bytes, prop + prop),
        };
        Engine {
            credits: CreditPool::new(cfg.credits),
            bandwidth,
            request_ser: bandwidth.transfer_time(request_bytes),
            request_flight: prop + cfg.socket_penalty + sq_fetch,
            cfg,
            backend,
            req_next_free: SimTime::ZERO,
            ret_next_free: SimTime::ZERO,
            segs: Vec::new(),
            events: Events::default(),
            batch: Batch::default(),
            run_latency: OnlineStats::new(),
            run_requests: 0,
            run_fetched: 0,
            end_of_time: SimTime::ZERO,
        }
    }

    /// Begin a batch at `start`. Its items are handed to warps in the
    /// order [`Engine::feed`] and [`Engine::finish_batch`] append them.
    /// Panics if a batch is open.
    pub fn begin(&mut self, start: SimTime) {
        assert!(self.events.pulls.is_empty(), "a batch is open");
        // Everything is scheduled in absolute time, from `start`.
        self.events.now = start;
        self.events.pulls.push_back((start, self.cfg.gpu.active_warps as usize));
        self.batch = Batch {
            start,
            latency: OnlineStats::new(),
            end: start,
            ..Batch::default()
        };
    }

    /// Append `window` to the open batch's items and simulate every
    /// event the items fed so far decide (module docs, "Batch input").
    pub fn feed(&mut self, window: &[DeviceRequest]) {
        self.append(window);
        self.advance(window, false);
        // Keep the items not yet issued.
        let b = &mut self.batch;
        let split = b.fed - window.len();
        let issued_kept = (b.next_issue - b.kept_from).min(b.kept.len());
        b.kept.drain(..issued_kept);
        b.kept
            .extend_from_slice(&window[b.next_issue.saturating_sub(split)..]);
        b.kept_from = b.next_issue;
    }

    /// Append `last`, the open batch's last items, and run the batch to
    /// completion: returns when all data has arrived at the GPU. Panics,
    /// in release builds too, if the drained batch breaks an invariant.
    pub fn finish_batch(&mut self, last: &[DeviceRequest]) -> BatchResult {
        self.append(last);
        self.advance(last, true);
        let b = &mut self.batch;
        let r = b.fed;
        assert_eq!(b.latency.count(), r as u64, "batch did not drain");
        assert!(
            self.credits.in_use() == 0 && b.next_issue == r,
            "credits outstanding after the batch drained"
        );
        assert_eq!(
            b.returned, b.fetched,
            "return-link payload differs from fetched bytes"
        );
        assert!(b.end >= b.start, "batch ended before it started");
        // A chained engine idles between its levels while the other
        // systems of a sweep run theirs; it holds no segment lane then.
        self.events.release();
        let latency = std::mem::take(&mut b.latency);
        // An empty batch leaves the run's totals and clock alone.
        if r > 0 {
            self.run_fetched += b.fetched;
            self.run_requests += r as u64;
            self.run_latency.merge(&latency);
            self.end_of_time = b.end;
        }
        BatchResult {
            end: b.end,
            fetched_bytes: b.fetched,
            requests: r as u64,
            latency,
        }
    }

    /// Execute `requests` starting at `start`: [`Engine::begin`] and
    /// [`Engine::finish_batch`] with all of them.
    pub fn run_batch(&mut self, start: SimTime, requests: &[DeviceRequest]) -> BatchResult {
        self.begin(start);
        self.finish_batch(requests)
    }

    /// Count `window` into the open batch's items.
    fn append(&mut self, window: &[DeviceRequest]) {
        self.batch.fed += window.len();
        self.batch.fetched += window.iter().map(|x| x.bytes).sum::<u64>();
    }

    /// Handle events while they are decided: while more than
    /// `active_warps` fed items are untaken, or, once `finished`, until
    /// none is pending. `window` holds the items fed last.
    fn advance(&mut self, window: &[DeviceRequest], finished: bool) {
        let warps = self.cfg.gpu.active_warps as usize;
        let prop = self.cfg.link.propagation();
        while finished || self.batch.fed - self.batch.next_item > warps {
            let pulls_live = !self.credits.is_full() && self.batch.next_item < self.batch.fed;
            let Some(next) = self.events.next(pulls_live) else {
                break;
            };
            let now = self.events.now;
            match next {
                Next::Warp => {
                    // A credit is free, so no item waits: the warp takes
                    // the next item and issues it.
                    let front = self.events.pulls.front_mut().expect("peeked");
                    front.1 -= 1;
                    if front.1 == 0 {
                        self.events.pulls.pop_front();
                    }
                    let acquired = self.credits.try_acquire(now);
                    assert!(
                        acquired && self.batch.next_issue == self.batch.next_item,
                        "a live pull found no credit"
                    );
                    self.batch.next_item += 1;
                    self.issue(now, window);
                }
                Next::Seg => {
                    let (_, (bytes, last_of)) = self.events.segs.pop().expect("peeked");
                    let ser = self
                        .bandwidth
                        .transfer_time(bytes + PcieLinkConfig::COMPLETION_HEADER_BYTES);
                    let done = now.max(self.ret_next_free) + ser;
                    self.ret_next_free = done;
                    self.batch.returned += bytes;
                    if let Some(issued) = last_of {
                        // Data reaches the GPU after the link propagation.
                        let c = done + prop;
                        if self.credits.is_full()
                            && self.events.completes.is_empty()
                            && self.batch.waits_at(c, &self.events.pulls)
                        {
                            // Nothing moves a credit before `c`.
                            self.complete(c, issued, window);
                        } else {
                            self.events.complete(c, issued);
                        }
                    }
                }
                Next::Complete => {
                    let (c, issued) = self.events.completes.pop_front().expect("peeked");
                    self.complete(c, issued, window);
                }
            }
        }
    }

    /// Apply the completion at `c` of a request issued at `issued`:
    /// record its latency, hand its credit over (module docs), and, while
    /// items remain, queue the freed warp's next pull after it processes
    /// the fetched edges.
    fn complete(&mut self, c: SimTime, issued: SimTime, window: &[DeviceRequest]) {
        let b = &mut self.batch;
        b.latency.push(c.saturating_since(issued).as_us_f64());
        b.end = b.end.max(c);
        let pulls = &mut self.events.pulls;
        while let Some((t, n)) = pulls.front_mut() {
            let left = b.fed - b.next_item;
            if left == 0 || *t >= c {
                break;
            }
            let take = (*n).min(left);
            b.next_item += take;
            *n -= take;
            if *n == 0 {
                pulls.pop_front();
            }
        }
        if b.next_issue < b.next_item {
            self.issue(c, window);
        } else {
            self.credits.release(c);
        }
        if self.batch.next_item < self.batch.fed {
            self.events.pull(c + self.cfg.gpu.item_compute());
        }
    }

    /// Issue the batch's next item at `now`: the host-side issue overhead
    /// (zero except for UVM page faults), then the request serializes on
    /// the request channel once it is free and flies to the device, which
    /// is handed the read at its arrival instant.
    fn issue(&mut self, now: SimTime, window: &[DeviceRequest]) {
        let b = &mut self.batch;
        let req = b.item(window, b.next_issue);
        b.next_issue += 1;
        let out = (now + self.cfg.issue_overhead).max(self.req_next_free) + self.request_ser;
        self.req_next_free = out;
        let arrive = out + self.request_flight;
        self.segs.clear();
        self.backend
            .read(arrive, req.addr, req.bytes, &mut self.segs);
        // The link serves segments in (ready, schedule order): the last
        // one served is the last of the latest-ready ones.
        let last = (0..self.segs.len())
            .max_by_key(|&i| self.segs[i].ready)
            .expect("a device read yields at least one segment");
        for (i, s) in self.segs.iter().enumerate() {
            // Return-side socket hop happens before the link.
            let last_of = (i == last).then_some(now);
            self.events
                .seg(s.ready + self.cfg.socket_penalty, s.bytes, last_of);
        }
    }

    /// Finalize run-level metrics at the end of the last batch.
    pub fn finish(&mut self) -> RunMetrics {
        let end = self.end_of_time;
        RunMetrics {
            runtime: end.saturating_since(SimTime::ZERO),
            useful_bytes: 0, // filled by the traversal layer
            fetched_bytes: self.run_fetched,
            requests: self.run_requests,
            cache_hits: 0, // filled by the traversal layer
            latency: self.run_latency.clone(),
            mean_outstanding: self.credits.mean_in_use(end),
            peak_outstanding: self.credits.high_water(),
        }
    }

    /// Execute one round shard on this engine: run `requests` as a batch
    /// from `t = 0` and capture everything the shard merge needs. The
    /// engine must be fresh (no prior batches; panics otherwise) — each
    /// shard owns its engine, event lanes, and backend outright, which is
    /// what makes shards independently simulable.
    pub fn run_shard(&mut self, requests: &[DeviceRequest]) -> ShardOutcome {
        assert_eq!(
            self.run_requests, 0,
            "run_shard requires a fresh engine; reuse couples shards"
        );
        let result = self.run_batch(SimTime::ZERO, requests);
        ShardOutcome {
            outstanding_integral: self.credits.in_use_integral(result.end),
            peak_outstanding: self.credits.high_water(),
            result,
        }
    }
}

/// Everything [`merge_shard_metrics`] needs from one independently
/// simulated round shard. The outstanding-credit measure is carried as
/// the exact integer integral (credit·ps), not a per-shard float mean,
/// so the merged mean is a single division — bit-identical to the
/// coupled engine's, not merely close.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// The round's batch result on the shard's own `t = 0` clock.
    pub result: BatchResult,
    /// Exact in-use credit integral over the shard (credit·picoseconds).
    pub outstanding_integral: u128,
    /// Peak outstanding requests within the shard.
    pub peak_outstanding: u64,
}

/// Simulate every round's batch as an independent shard across the rayon
/// pool, returning outcomes in round order. `factory` builds one fresh
/// [`Engine`] per shard (each shard gets its own event lanes and backend
/// state). The output is a pure function of `batches`, independent of
/// `RAYON_NUM_THREADS`. On a quiescent backend it equals the driver's
/// chain (module docs).
pub fn simulate_shards<F>(factory: F, batches: &[Vec<DeviceRequest>]) -> Vec<ShardOutcome>
where
    F: Fn() -> Engine + Sync,
{
    use rayon::prelude::*;
    batches.par_iter().map(|reqs| factory().run_shard(reqs)).collect()
}

/// Reduce per-round [`ShardOutcome`]s into run-level [`RunMetrics`],
/// folding in shard-index (= round) order:
///
/// * `runtime`, `fetched_bytes`, `requests` are integer sums — exact and
///   order-independent;
/// * `latency` is [`OnlineStats::merge_ordered`] over the per-shard
///   stats, the same left-to-right fold the coupled engine performs when
///   it merges each batch into `run_latency` — bit-identical to it;
/// * `mean_outstanding` divides the summed integer credit integrals by
///   the summed duration once, reproducing the coupled
///   `CreditPool::mean_in_use` expression exactly;
/// * `peak_outstanding` is the max.
///
/// `useful_bytes` and `cache_hits` are zero here; the traversal layer
/// fills them (they are trace properties, not engine properties).
pub fn merge_shard_metrics(outcomes: &[ShardOutcome]) -> RunMetrics {
    let mut runtime_ps = 0u64;
    let mut fetched = 0u64;
    let mut requests = 0u64;
    let mut peak = 0u64;
    let mut integral = 0u128;
    for o in outcomes {
        runtime_ps += o.result.end.saturating_since(SimTime::ZERO).as_ps();
        fetched += o.result.fetched_bytes;
        requests += o.result.requests;
        peak = peak.max(o.peak_outstanding);
        integral += o.outstanding_integral;
    }
    let latency = OnlineStats::merge_ordered(outcomes.iter().map(|o| &o.result.latency));
    RunMetrics {
        runtime: SimDuration::from_ps(runtime_ps),
        useful_bytes: 0,
        fetched_bytes: fetched,
        requests,
        cache_hits: 0,
        latency,
        mean_outstanding: if runtime_ps == 0 {
            0.0
        } else {
            integral as f64 / runtime_ps as f64
        },
        peak_outstanding: peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxlg_device::cxl_mem::CxlMemDevice;
    use cxlg_device::dram::{HostDram, HostDramConfig};
    use cxlg_link::pcie::PcieGen;
    use proptest::prelude::*;
    use std::sync::{Arc, Mutex};

    fn dram_engine(gen: PcieGen, warps: u32) -> Engine {
        let link = PcieLinkConfig::x16(gen);
        let cfg = EngineConfig {
            gpu: GpuConfig::default().with_active_warps(warps),
            credits: link.nmax(),
            link,
            socket_penalty: SimDuration::ZERO,
            path: RequestPath::Memory,
            issue_overhead: SimDuration::ZERO,
        };
        Engine::new(cfg, Box::new(HostDram::new(HostDramConfig::default())))
    }

    fn uniform_requests(n: usize, bytes: u64) -> Vec<DeviceRequest> {
        (0..n)
            .map(|i| DeviceRequest {
                addr: (i as u64) * 4096,
                bytes,
            })
            .collect()
    }

    /// A device answering its `i`-th read with `script[i]`: segments of
    /// `(delay after arrival in ps, bytes)`. It logs every read's arrival
    /// instant and address.
    struct Scripted {
        script: Vec<Vec<(u64, u64)>>,
        reads: usize,
        log: Arc<Mutex<Vec<(SimTime, u64)>>>,
    }

    impl Scripted {
        fn new(script: Vec<Vec<(u64, u64)>>) -> Self {
            Scripted {
                script,
                reads: 0,
                log: Arc::default(),
            }
        }
    }

    impl MemoryTarget for Scripted {
        fn read(
            &mut self,
            t_arrive: SimTime,
            addr: u64,
            _bytes: u64,
            out: &mut Vec<ReadSegment>,
        ) -> SimTime {
            for &(delay, bytes) in &self.script[self.reads] {
                out.push(ReadSegment {
                    ready: t_arrive + SimDuration::from_ps(delay),
                    bytes,
                });
            }
            self.reads += 1;
            self.log.lock().unwrap().push((t_arrive, addr));
            out.last().map_or(t_arrive, |s| s.ready)
        }
    }

    /// Gen4 x16 (24 B/ns: a 24 B request TLP serializes in 1 ns, a 48 B
    /// segment in 2 ns), 400 ns propagation, near socket.
    fn scripted_engine(warps: u32, backend: Box<dyn MemoryTarget>) -> Engine {
        scripted_engine_with_overhead(warps, backend, SimDuration::ZERO)
    }

    fn scripted_engine_with_overhead(
        warps: u32,
        backend: Box<dyn MemoryTarget>,
        issue_overhead: SimDuration,
    ) -> Engine {
        let link = PcieLinkConfig::x16(PcieGen::Gen4);
        let cfg = EngineConfig {
            gpu: GpuConfig::default().with_active_warps(warps),
            credits: link.nmax(),
            link,
            socket_penalty: SimDuration::ZERO,
            path: RequestPath::Memory,
            issue_overhead,
        };
        Engine::new(cfg, backend)
    }

    fn us(ps: u64) -> f64 {
        SimDuration::from_ps(ps).as_us_f64()
    }

    #[test]
    fn segment_ready_as_the_link_frees_starts_then() {
        // Three warps issue A, B, C at t = 0; the request channel spaces
        // their arrivals 1 ns apart: 401, 402, 403 ns.
        //   A: ready 401 ns, serializes 401 → 403 ns.
        //   B: ready 403 ns (+1 ns at the device) — the instant A's
        //      transfer ends: starts at 403, done 405 ns (no overlap with
        //      A, no gap).
        //   C: ready 403 ns too, queued behind B: 405 → 407 ns.
        // Each completes 400 ns after its link transfer.
        let dev = Scripted::new(vec![vec![(0, 48)], vec![(1_000, 48)], vec![(0, 48)]]);
        let mut e = scripted_engine(3, Box::new(dev));
        let r = e.run_batch(SimTime::ZERO, &uniform_requests(3, 48));
        assert_eq!(r.end, SimTime(807_000));
        assert_eq!(r.latency.min(), us(803_000));
        assert_eq!(r.latency.max(), us(807_000));
        assert_eq!(r.latency.count(), 3);
        assert!((r.latency.mean() - us(805_000)).abs() < 1e-12);
    }

    #[test]
    fn two_flit_cxl_read_completes_on_its_last_flit() {
        let mut e = scripted_engine(1, Box::new(CxlMemDevice::default()));
        // The request leaves the channel at 1 ns and arrives at 401 ns;
        // an identical device yields the flit timings.
        let mut flits = Vec::new();
        CxlMemDevice::default().read(SimTime(401_000), 0, 128, &mut flits);
        assert_eq!(flits.len(), 2);
        assert!(flits.iter().all(|f| f.bytes == 64));
        // 64 B at 24 B/ns: 2667 ps (rounded up). FIFO over both flits.
        let first_done = flits[0].ready + SimDuration::from_ps(2_667);
        let last_done = first_done.max(flits[1].ready) + SimDuration::from_ps(2_667);
        let complete = last_done + SimDuration::from_ps(400_000);
        let r = e.run_batch(SimTime::ZERO, &uniform_requests(1, 128));
        assert_eq!(r.end, complete);
        assert_eq!(r.latency.max(), us(complete.as_ps()));
    }

    #[test]
    fn uvm_host_overhead_delays_issue() {
        // A 1 µs fault-handling overhead precedes the request on the
        // channel: out at 1001 ns, device at 1401 ns, link 1401 → 1403 ns,
        // at the GPU at 1803 ns — exactly 1 µs later than without it.
        let run = |overhead_ps| {
            let dev = Scripted::new(vec![vec![(0, 48)]]);
            let mut e =
                scripted_engine_with_overhead(1, Box::new(dev), SimDuration::from_ps(overhead_ps));
            e.run_batch(SimTime::ZERO, &uniform_requests(1, 48))
        };
        let plain = run(0);
        let uvm = run(1_000_000);
        assert_eq!(plain.end, SimTime(803_000));
        assert_eq!(uvm.end, SimTime(1_803_000));
        assert_eq!(uvm.latency.mean(), us(1_803_000));
    }

    #[test]
    fn a_completion_releases_before_a_same_instant_pull_takes_the_credit() {
        // Two credits, two warps, three 48 B reads. A and B issue at 0
        // (out at 1 and 2 ns, at the device at 401 and 402 ns).
        //   A: ready 401 ns, link 401 → 403 ns, completes at 803 ns; its
        //      credit goes back to the pool (one free) and its warp pulls
        //      again at 823 ns.
        //   B: ready 421 ns, link 421 → 423 ns, completes at 823 ns — the
        //      instant of A's warp's pull, with one credit free.
        // B's completion releases first; the pull then takes the credit
        // and issues C at 823 ns: out 824 ns, device 1224 ns, link
        // 1224 → 1226 ns, at the GPU at 1626 ns.
        let dev = Scripted::new(vec![vec![(0, 48)], vec![(19_000, 48)], vec![(0, 48)]]);
        let log = Arc::clone(&dev.log);
        let link = PcieLinkConfig::x16(PcieGen::Gen4);
        let cfg = EngineConfig {
            gpu: GpuConfig::default().with_active_warps(2),
            credits: 2,
            link,
            socket_penalty: SimDuration::ZERO,
            path: RequestPath::Memory,
            issue_overhead: SimDuration::ZERO,
        };
        let mut e = Engine::new(cfg, Box::new(dev));
        let r = e.run_batch(SimTime::ZERO, &uniform_requests(3, 48));
        assert_eq!(r.end, SimTime(1_626_000));
        let arrivals: Vec<SimTime> = log.lock().unwrap().iter().map(|&(t, _)| t).collect();
        assert_eq!(
            arrivals,
            [SimTime(401_000), SimTime(402_000), SimTime(1_224_000)]
        );
        assert_eq!(r.latency.min(), us(803_000));
        assert_eq!(r.latency.max(), us(823_000));
        // Two credits held over [0, 803) ns, one over [803, 823) and
        // [823, 1626) ns; never more than two.
        assert_eq!(
            e.credits.in_use_integral(r.end),
            2 * 803_000 + 20_000 + 803_000
        );
        assert_eq!(e.credits.high_water(), 2);
    }

    /// Pop every pending event, pulls live, returning the kinds in pop
    /// order.
    fn drain(ev: &mut Events) -> Vec<Next> {
        std::iter::from_fn(|| {
            let next = ev.next(true)?;
            match next {
                Next::Warp => ev.pulls.pop_front().map(drop),
                Next::Seg => ev.segs.pop().map(drop),
                Next::Complete => ev.completes.pop_front().map(drop),
            };
            Some(next)
        })
        .collect()
    }

    #[test]
    fn same_instant_events_pop_complete_then_warp_then_seg() {
        // A Warp, a SegReady and a Complete due at the same picosecond
        // pop in one fixed order, whatever order they were scheduled in.
        use Next::{Complete, Seg, Warp};
        let t = SimTime(5_000);
        for order in [
            [Warp, Seg, Complete],
            [Warp, Complete, Seg],
            [Seg, Warp, Complete],
            [Seg, Complete, Warp],
            [Complete, Warp, Seg],
            [Complete, Seg, Warp],
        ] {
            let mut ev = Events::default();
            for kind in order {
                match kind {
                    Warp => ev.pull(t),
                    Seg => ev.seg(t, 64, Some(SimTime::ZERO)),
                    Complete => ev.complete(t, SimTime::ZERO),
                }
            }
            assert_eq!(drain(&mut ev), [Complete, Warp, Seg]);
            assert_eq!(ev.now, t);
        }
    }

    #[test]
    fn pulls_are_not_events_while_no_credit_is_free() {
        let mut ev = Events::default();
        ev.pull(SimTime(10));
        ev.seg(SimTime(20), 64, None);
        assert_eq!(ev.next(false), Some(Next::Seg));
        assert_eq!(ev.now, SimTime(20));
        ev.segs.pop();
        assert_eq!(ev.next(false), None);
        assert_eq!(ev.pulls.len(), 1);
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut ev = Events::default();
        ev.pull(SimTime(100));
        assert_eq!(ev.now, SimTime::ZERO);
        assert_eq!(drain(&mut ev), [Next::Warp]);
        assert_eq!(ev.now, SimTime(100));
        // Scheduling at the new clock is allowed; before it is not.
        ev.complete(SimTime(100), SimTime::ZERO);
        assert_eq!(drain(&mut ev), [Next::Complete]);
    }

    #[test]
    fn earlier_events_pop_first_across_lanes() {
        let mut ev = Events::default();
        ev.complete(SimTime(30), SimTime::ZERO);
        ev.pull(SimTime(20));
        ev.seg(SimTime(40), 64, None);
        ev.seg(SimTime(10), 64, Some(SimTime::ZERO)); // out of order: overflow heap
        assert_eq!(
            drain(&mut ev),
            [Next::Seg, Next::Warp, Next::Complete, Next::Seg]
        );
        assert_eq!(ev.now, SimTime(40));
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn scheduling_into_the_past_panics() {
        let mut ev = Events::default();
        ev.pull(SimTime(10));
        drain(&mut ev);
        ev.complete(SimTime(9), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of time order")]
    fn completions_out_of_time_order_panic() {
        let mut ev = Events::default();
        ev.complete(SimTime(10), SimTime::ZERO);
        ev.complete(SimTime(10), SimTime::ZERO);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut e = dram_engine(PcieGen::Gen4, 2048);
        let r = e.run_batch(SimTime(123), &[]);
        assert_eq!(r.end, SimTime(123));
        assert_eq!(r.requests, 0);
    }

    #[test]
    fn single_request_latency_matches_fig9_host_dram() {
        // One 128 B zero-copy read to host DRAM: ~0.8 us link round trip
        // + 0.3 us DRAM ≈ 1.1 us (Fig. 9 shows "1+ usec").
        let mut e = dram_engine(PcieGen::Gen4, 1);
        let r = e.run_batch(SimTime::ZERO, &uniform_requests(1, 128));
        let lat = r.latency.mean();
        assert!((1.05..1.25).contains(&lat), "latency {lat} us");
    }

    #[test]
    fn saturated_dram_run_hits_link_bandwidth() {
        // 2048 warps, 768 credits, tiny latency => the return channel is
        // the bottleneck; throughput must approach W = 24,000 MB/s.
        let mut e = dram_engine(PcieGen::Gen4, 2048);
        let reqs = uniform_requests(50_000, 128);
        let r = e.run_batch(SimTime::ZERO, &reqs);
        let mb_s = (50_000u64 * 128) as f64 / 1e6 / r.end.as_secs_f64();
        assert!(mb_s > 0.85 * 24_000.0, "throughput {mb_s} MB/s");
        assert!(mb_s <= 24_000.0 * 1.01, "throughput {mb_s} exceeds W");
    }

    #[test]
    fn gen3_halves_throughput() {
        let run = |gen| {
            let mut e = dram_engine(gen, 2048);
            let reqs = uniform_requests(30_000, 128);
            let r = e.run_batch(SimTime::ZERO, &reqs);
            (30_000u64 * 128) as f64 / 1e6 / r.end.as_secs_f64()
        };
        let g4 = run(PcieGen::Gen4);
        let g3 = run(PcieGen::Gen3);
        let ratio = g4 / g3;
        assert!((ratio - 2.0).abs() < 0.2, "Gen4/Gen3 ratio {ratio}");
    }

    #[test]
    fn littles_law_emerges() {
        // With ample warps and latency L, outstanding N ~= T * L / d
        // (Equation 3).
        let mut e = dram_engine(PcieGen::Gen4, 2048);
        let reqs = uniform_requests(40_000, 128);
        let r = e.run_batch(SimTime::ZERO, &reqs);
        let m = e.finish();
        let t_bytes_per_us = (40_000u64 * 128) as f64 / r.end.as_us_f64();
        let n_predicted = t_bytes_per_us * m.latency.mean() / 128.0;
        let n_measured = m.mean_outstanding;
        let err = (n_predicted - n_measured).abs() / n_measured;
        assert!(
            err < 0.15,
            "Little's law off by {err}: {n_predicted} vs {n_measured}"
        );
    }

    #[test]
    fn credit_pool_bounds_outstanding() {
        let mut e = dram_engine(PcieGen::Gen3, 2048);
        let reqs = uniform_requests(20_000, 128);
        e.run_batch(SimTime::ZERO, &reqs);
        let m = e.finish();
        assert!(m.peak_outstanding <= 256, "peak {}", m.peak_outstanding);
        // And the workload is intense enough to actually hit the cap.
        assert_eq!(m.peak_outstanding, 256);
    }

    #[test]
    fn single_warp_serializes_requests() {
        // One warp = dependent loads: runtime ~= n * (latency + compute).
        let mut e = dram_engine(PcieGen::Gen4, 1);
        let n = 100;
        let r = e.run_batch(SimTime::ZERO, &uniform_requests(n, 128));
        let per_req = r.end.as_us_f64() / n as f64;
        assert!((1.0..1.4).contains(&per_req), "per-request {per_req} us");
    }

    #[test]
    fn batches_accumulate_into_run_metrics() {
        let mut e = dram_engine(PcieGen::Gen4, 256);
        let r1 = e.run_batch(SimTime::ZERO, &uniform_requests(100, 128));
        let r2 = e.run_batch(r1.end, &uniform_requests(200, 64));
        assert!(r2.end > r1.end);
        let m = e.finish();
        assert_eq!(m.requests, 300);
        assert_eq!(m.fetched_bytes, 100 * 128 + 200 * 64);
        assert_eq!(m.latency.count(), 300);
    }

    #[test]
    fn more_warps_do_not_help_beyond_credits() {
        // §3.5.2: GPU concurrency (>= 2048) is not the limit; credits are.
        let run = |warps| {
            let mut e = dram_engine(PcieGen::Gen4, warps);
            let r = e.run_batch(SimTime::ZERO, &uniform_requests(20_000, 128));
            r.end.as_us_f64()
        };
        let t2048 = run(2048);
        let t3072 = run(3072);
        assert!((t2048 - t3072).abs() / t2048 < 0.02);
    }

    /// A batch schedule with empty, tiny, and saturating rounds — the
    /// shapes a BFS level sequence actually produces.
    fn shard_batches() -> Vec<Vec<DeviceRequest>> {
        vec![
            uniform_requests(1, 128),
            uniform_requests(3_000, 64),
            Vec::new(),
            uniform_requests(500, 4096),
            uniform_requests(7, 128),
        ]
    }

    #[test]
    fn sharded_batches_match_coupled_engine_bit_for_bit() {
        let batches = shard_batches();
        let mut coupled = dram_engine(PcieGen::Gen4, 512);
        let mut t = SimTime::ZERO;
        for b in &batches {
            t = coupled.run_batch(t, b).end;
        }
        let cm = coupled.finish();

        let outcomes = simulate_shards(|| dram_engine(PcieGen::Gen4, 512), &batches);
        let sm = merge_shard_metrics(&outcomes);
        assert_eq!(sm.runtime, cm.runtime);
        assert_eq!(sm.fetched_bytes, cm.fetched_bytes);
        assert_eq!(sm.requests, cm.requests);
        assert_eq!(sm.peak_outstanding, cm.peak_outstanding);
        // Float fields must match to the bit, not within a tolerance:
        // the latency stats are the same fixed-order Welford fold, and
        // the outstanding mean is the same single division.
        assert_eq!(sm.latency.fingerprint(), cm.latency.fingerprint());
        assert_eq!(sm.mean_outstanding.to_bits(), cm.mean_outstanding.to_bits());
    }

    #[test]
    fn flash_media_state_breaks_the_shard_decomposition() {
        // Two identical batches re-reading the same addresses: coupled,
        // the second batch hits the plane page registers (a register
        // read instead of a full `tR` sense) and continues the jitter
        // RNG stream; sharded, each fresh engine has forgotten both.
        // This divergence is exactly why the traversal layer keeps
        // flash-backed systems on the coupled chain.
        let sys = crate::system::SystemConfig::xlfdd(PcieGen::Gen4, 16);
        let batches = vec![uniform_requests(64, 128), uniform_requests(64, 128)];
        let mut coupled = sys.build_engine();
        let mut t = SimTime::ZERO;
        for b in &batches {
            t = coupled.run_batch(t, b).end;
        }
        let cm = coupled.finish();
        let sm = merge_shard_metrics(&simulate_shards(|| sys.build_engine(), &batches));
        assert_eq!(sm.requests, cm.requests);
        assert_eq!(sm.fetched_bytes, cm.fetched_bytes);
        assert_ne!(
            sm.runtime, cm.runtime,
            "flash no longer carries cross-batch state; the traversal \
             dispatch (and this test) can be retired"
        );
    }

    #[test]
    fn shard_merge_is_thread_count_invariant() {
        let batches = shard_batches();
        let run = |threads: usize| {
            rayon::with_num_threads(threads, || {
                merge_shard_metrics(&simulate_shards(
                    || dram_engine(PcieGen::Gen4, 512),
                    &batches,
                ))
            })
        };
        let reference = run(1);
        for threads in [2, 8] {
            let m = run(threads);
            assert_eq!(m.runtime, reference.runtime, "threads={threads}");
            assert_eq!(m.latency.fingerprint(), reference.latency.fingerprint());
            assert_eq!(
                m.mean_outstanding.to_bits(),
                reference.mean_outstanding.to_bits()
            );
        }
    }

    #[test]
    fn merge_of_no_shards_is_empty() {
        let m = merge_shard_metrics(&[]);
        assert_eq!(m.runtime, SimDuration::ZERO);
        assert_eq!(m.requests, 0);
        assert_eq!(m.mean_outstanding, 0.0);
    }

    #[test]
    fn fewer_warps_than_credits_limits_throughput() {
        let run = |warps| {
            let mut e = dram_engine(PcieGen::Gen4, warps);
            let r = e.run_batch(SimTime::ZERO, &uniform_requests(20_000, 128));
            r.end.as_us_f64()
        };
        let t_few = run(64);
        let t_many = run(2048);
        assert!(
            t_few > 2.0 * t_many,
            "64 warps should be much slower: {t_few} vs {t_many}"
        );
    }

    /// The event loop before credit hand-offs were closed form, kept as
    /// the oracle of [`Engine::run_batch`]: every warp pull and every
    /// completion is an event, each kind has its own [`Lane`], all events
    /// are stamped from one sequence counter, and items that find no
    /// credit wait in a FIFO queue. It drives the engine's own link,
    /// credit and backend state.
    mod oracle {
        use super::*;

        #[derive(Default)]
        struct Events {
            now: SimTime,
            seq: u64,
            warps: Lane<()>,
            segs: Lane<(u64, Option<SimTime>)>,
            completes: Lane<SimTime>,
        }

        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Next {
            Warp,
            Seg,
            Complete,
        }

        impl Events {
            fn stamp(&mut self, t: SimTime) -> u64 {
                assert!(t >= self.now, "event at {t:?} before now, {:?}", self.now);
                self.seq += 1;
                self.seq
            }

            fn warp(&mut self, t: SimTime) {
                let seq = self.stamp(t);
                self.warps.push(t, seq, ());
            }

            fn seg(&mut self, t: SimTime, bytes: u64, last_of: Option<SimTime>) {
                let seq = self.stamp(t);
                self.segs.push(t, seq, (bytes, last_of));
            }

            fn complete(&mut self, t: SimTime, issued: SimTime) {
                let seq = self.stamp(t);
                self.completes.push(t, seq, issued);
            }

            fn next(&mut self) -> Option<Next> {
                const IDLE: (SimTime, u64) = (SimTime::MAX, u64::MAX);
                let w = self.warps.peek_key().unwrap_or(IDLE);
                let s = self.segs.peek_key().unwrap_or(IDLE);
                let c = self.completes.peek_key().unwrap_or(IDLE);
                let (key, next) = if s < w && s < c {
                    (s, Next::Seg)
                } else if c < w {
                    (c, Next::Complete)
                } else {
                    (w, Next::Warp)
                };
                if key == IDLE {
                    return None;
                }
                self.now = key.0;
                Some(next)
            }
        }

        /// [`Engine::run_batch`] as a fully evented loop.
        pub(super) fn run_batch(
            e: &mut Engine,
            start: SimTime,
            requests: &[DeviceRequest],
        ) -> BatchResult {
            let r = requests.len();
            if r == 0 {
                return BatchResult {
                    end: start,
                    fetched_bytes: 0,
                    requests: 0,
                    latency: OnlineStats::new(),
                };
            }
            let mut ev = Events {
                now: start,
                ..Events::default()
            };
            let warps = (e.cfg.gpu.active_warps as usize).min(r);
            for _ in 0..warps {
                ev.warp(start);
            }
            let mut waiters = VecDeque::new();

            let mut next_item = 0usize;
            let mut completed = 0usize;
            let mut returned = 0u64;
            let mut latency = OnlineStats::new();
            let mut end = start;
            let prop = e.cfg.link.propagation();
            let compute = e.cfg.gpu.item_compute();

            while let Some(next) = ev.next() {
                let now = ev.now;
                match next {
                    Next::Warp => {
                        ev.warps.pop();
                        if next_item >= r {
                            continue; // no more work; warp retires
                        }
                        let idx = next_item;
                        next_item += 1;
                        if e.credits.try_acquire(now) {
                            issue(e, &mut ev, now, requests[idx]);
                        } else {
                            waiters.push_back(idx);
                        }
                    }
                    Next::Seg => {
                        let (_, (bytes, last_of)) = ev.segs.pop().expect("peeked");
                        let ser = e
                            .bandwidth
                            .transfer_time(bytes + PcieLinkConfig::COMPLETION_HEADER_BYTES);
                        let done = now.max(e.ret_next_free) + ser;
                        e.ret_next_free = done;
                        returned += bytes;
                        if let Some(issued) = last_of {
                            ev.complete(done + prop, issued);
                        }
                    }
                    Next::Complete => {
                        let (_, issued) = ev.completes.pop().expect("peeked");
                        let lat = now.saturating_since(issued);
                        latency.push(lat.as_us_f64());
                        completed += 1;
                        end = end.max(now);
                        // The credit passes to the oldest waiter, or back
                        // to the pool.
                        if let Some(waiter) = waiters.pop_front() {
                            issue(e, &mut ev, now, requests[waiter]);
                        } else {
                            e.credits.release(now);
                        }
                        ev.warp(now + compute);
                    }
                }
            }

            let fetched: u64 = requests.iter().map(|x| x.bytes).sum();
            assert_eq!(completed, r, "batch did not drain");
            assert!(e.credits.in_use() == 0 && waiters.is_empty());
            assert_eq!(returned, fetched);
            e.run_fetched += fetched;
            e.run_requests += r as u64;
            e.run_latency.merge(&latency);
            e.end_of_time = end;
            BatchResult {
                end,
                fetched_bytes: fetched,
                requests: r as u64,
                latency,
            }
        }

        fn issue(e: &mut Engine, ev: &mut Events, now: SimTime, req: DeviceRequest) {
            let out = (now + e.cfg.issue_overhead).max(e.req_next_free) + e.request_ser;
            e.req_next_free = out;
            let arrive = out + e.request_flight;
            e.segs.clear();
            e.backend.read(arrive, req.addr, req.bytes, &mut e.segs);
            let last = (0..e.segs.len())
                .max_by_key(|&i| e.segs[i].ready)
                .expect("a device read yields at least one segment");
            for (i, s) in e.segs.iter().enumerate() {
                let last_of = (i == last).then_some(now);
                ev.seg(s.ready + e.cfg.socket_penalty, s.bytes, last_of);
            }
        }
    }

    /// One random engine configuration with a scripted device, and the
    /// batches to run on it back to back.
    struct Scenario {
        cfg: EngineConfig,
        script: Vec<Vec<(u64, u64)>>,
        batches: Vec<Vec<DeviceRequest>>,
    }

    fn scenario(seed: u64) -> Scenario {
        let mut rng = cxlg_sim::Xoshiro256StarStar::seed_from_u64(seed);
        let mut pick = |n: u64| rng.next_below(n);
        // Credits on both sides of the warp count, batches on both sides
        // of the credit count.
        let credits = 1 + pick(8);
        let warps = 1 + pick(2 * credits + 2) as u32;
        let link = PcieLinkConfig::x16(if pick(2) == 0 {
            PcieGen::Gen3
        } else {
            PcieGen::Gen4
        });
        let path = match pick(3) {
            0 => RequestPath::Storage {
                entry_bytes: [16, 64][pick(2) as usize],
            },
            _ => RequestPath::Memory,
        };
        let issue_overhead = SimDuration::from_ps([0, 0, 1_000, 15_000_000][pick(4) as usize]);
        let socket_penalty = SimDuration::from_ps([0, 0, 60_000][pick(3) as usize]);
        // Segment delays on a coarse grid make equal ready instants,
        // equal link `done`s and pull/completion ties common.
        let grain = [1_000, 20_000, 400_000][pick(3) as usize];
        let mut script = Vec::new();
        let batches = (0..1 + pick(3))
            .map(|_| {
                (0..pick(3 * credits + 2))
                    .map(|i| {
                        let segs: Vec<(u64, u64)> = (0..1 + pick(3))
                            .map(|_| (pick(8) * grain, [16, 48, 64, 128][pick(4) as usize]))
                            .collect();
                        let bytes = segs.iter().map(|&(_, b)| b).sum();
                        script.push(segs);
                        DeviceRequest {
                            addr: i * 4096,
                            bytes,
                        }
                    })
                    .collect()
            })
            .collect();
        Scenario {
            cfg: EngineConfig {
                gpu: GpuConfig::default().with_active_warps(warps),
                link,
                credits,
                socket_penalty,
                path,
                issue_overhead,
            },
            script,
            batches,
        }
    }

    /// Everything a run reports, bit for bit, and every read the device
    /// saw.
    #[derive(Debug, PartialEq)]
    struct Observed {
        batches: Vec<(SimTime, u64, u64, u64)>,
        integral: u128,
        high_water: u64,
        mean_outstanding: u64,
        run_latency: u64,
        reads: Vec<(SimTime, u64)>,
    }

    /// A run of one batch on an engine from an instant.
    type Run<'a> = &'a mut dyn FnMut(&mut Engine, SimTime, &[DeviceRequest]) -> BatchResult;

    /// Run `batches` back to back on `e`, batch by batch through `run`.
    fn observe(
        mut e: Engine,
        log: Arc<Mutex<Vec<(SimTime, u64)>>>,
        batches: &[Vec<DeviceRequest>],
        run: Run<'_>,
    ) -> Observed {
        let mut t = SimTime::ZERO;
        let mut out = Vec::new();
        for b in batches {
            let r = run(&mut e, t, b);
            out.push((r.end, r.fetched_bytes, r.requests, r.latency.fingerprint()));
            t = r.end;
        }
        let integral = e.credits.in_use_integral(t);
        let m = e.finish();
        let reads = log.lock().unwrap().clone();
        Observed {
            batches: out,
            integral,
            high_water: m.peak_outstanding,
            mean_outstanding: m.mean_outstanding.to_bits(),
            run_latency: m.latency.fingerprint(),
            reads,
        }
    }

    fn observe_scenario(seed: u64, run: Run<'_>) -> Observed {
        let s = scenario(seed);
        let dev = Scripted::new(s.script);
        let log = Arc::clone(&dev.log);
        observe(Engine::new(s.cfg, Box::new(dev)), log, &s.batches, run)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn closed_form_hand_offs_equal_the_evented_oracle(seed in any::<u64>()) {
            let got = observe_scenario(seed, &mut Engine::run_batch);
            let want = observe_scenario(seed, &mut oracle::run_batch);
            prop_assert_eq!(got, want, "seed {:#x}", seed);
        }
    }

    /// The paper's presets, a tag-starved CXL expander and the
    /// out-of-order bridge, each with batches below, at and above its
    /// credit count.
    fn preset_backends() -> Vec<(crate::system::SystemConfig, [Vec<DeviceRequest>; 3])> {
        use crate::system::{BackendConfig, SystemConfig};
        let mut out_of_order =
            SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(1.5);
        if let BackendConfig::CxlMem { dev, .. } = &mut out_of_order.backend {
            *dev = dev.out_of_order();
        }
        [
            SystemConfig::emogi_on_dram(PcieGen::Gen3),
            SystemConfig::uvm_on_dram(PcieGen::Gen4).with_active_warps(64),
            SystemConfig::emogi_on_cxl(PcieGen::Gen4, 1).with_added_latency_us(3.0),
            out_of_order,
            SystemConfig::xlfdd(PcieGen::Gen4, 2),
            SystemConfig::bam_on_nvme(PcieGen::Gen4, 1),
        ]
        .into_iter()
        .map(|sys| {
            let n = sys.credits() as usize;
            let batches = [
                uniform_requests(n / 3, 512),
                uniform_requests(3 * n, 2048),
                uniform_requests(n + 1, 512),
            ];
            (sys, batches)
        })
        .collect()
    }

    #[test]
    fn closed_form_hand_offs_equal_the_evented_oracle_on_every_backend() {
        for (sys, batches) in preset_backends() {
            let run = |f: Run<'_>| observe(sys.build_engine(), Arc::default(), &batches, f);
            assert_eq!(
                run(&mut Engine::run_batch),
                run(&mut oracle::run_batch),
                "{}",
                sys.label()
            );
        }
    }

    /// A backend that logs every read's arrival instant and address and
    /// passes it on.
    struct Logged {
        inner: Box<dyn MemoryTarget>,
        log: Arc<Mutex<Vec<(SimTime, u64)>>>,
    }

    impl MemoryTarget for Logged {
        fn read(
            &mut self,
            t_arrive: SimTime,
            addr: u64,
            bytes: u64,
            out: &mut Vec<ReadSegment>,
        ) -> SimTime {
            self.log.lock().unwrap().push((t_arrive, addr));
            self.inner.read(t_arrive, addr, bytes, out)
        }
    }

    /// One batch of `requests` on `e` from `start`, fed in windows of
    /// sizes drawn from `rng`: empty, one item, at most `active_warps`,
    /// or more. The last window goes to `finish_batch`, or is fed before
    /// an empty `finish_batch`.
    fn run_windowed(
        e: &mut Engine,
        start: SimTime,
        requests: &[DeviceRequest],
        rng: &mut cxlg_sim::Xoshiro256StarStar,
    ) -> BatchResult {
        let warps = u64::from(e.cfg.gpu.active_warps);
        e.begin(start);
        let mut rest = requests;
        loop {
            let n = match rng.next_below(4) {
                0 => 0,
                1 => 1,
                2 => 1 + rng.next_below(warps),
                _ => warps + 1 + rng.next_below(warps),
            };
            let (window, tail) = rest.split_at((n as usize).min(rest.len()));
            if tail.is_empty() && rng.next_below(2) == 0 {
                return e.finish_batch(window);
            }
            e.feed(window);
            if tail.is_empty() {
                return e.finish_batch(&[]);
            }
            rest = tail;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn windowed_feeds_equal_one_shot_batches(seed in any::<u64>()) {
            let mut rng = cxlg_sim::Xoshiro256StarStar::seed_from_u64(seed);
            let mut windowed = |e: &mut Engine, t, b: &[DeviceRequest]| run_windowed(e, t, b, &mut rng);
            // The oracle's scripted grid...
            let one_shot = observe_scenario(seed, &mut Engine::run_batch);
            prop_assert_eq!(observe_scenario(seed, &mut windowed), one_shot, "seed {:#x}", seed);
            // ...and one of its preset backends, its reads logged.
            let (sys, batches) = preset_backends().swap_remove((seed % 6) as usize);
            let run = |f: Run<'_>| {
                let mut e = sys.build_engine();
                let log = Arc::default();
                let inner = std::mem::replace(&mut e.backend, Box::new(Scripted::new(Vec::new())));
                e.backend = Box::new(Logged { inner, log: Arc::clone(&log) });
                observe(e, log, &batches, f)
            };
            let one_shot = run(&mut Engine::run_batch);
            prop_assert_eq!(run(&mut windowed), one_shot, "{} seed {:#x}", sys.label(), seed);
        }
    }
}
