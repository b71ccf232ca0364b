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
//! A traversal runs as a sequence of **batches** (one per BFS level /
//! SSSP round, matching the level-synchronous kernels of EMOGI/BaM); each
//! batch is a list of [`DeviceRequest`]s executed to completion.
//!
//! # Event model: three kinds, two closed-form FIFO servers
//!
//! A request costs `2 + segments` events (3 on DRAM, 4 for a two-flit
//! CXL read). **`Warp`**: a free warp takes the next item and a credit
//! (or queues as a FIFO waiter); issuing computes the *request channel*
//! in closed form — the TLP header / SQ entry serializes from
//! `max(now + host overhead, channel free)` and reaches the device a
//! fixed flight later — calls the backend with that arrival instant, and
//! schedules one `SegReady` per response segment. **`SegReady`**: the
//! *return link* is a work-conserving FIFO server, so the segment is done
//! at `max(now, link free) + serialization`; the segment served last (the
//! last of the latest-ready ones, known at issue) schedules `Complete`
//! one propagation later. **`Complete`**: record the latency, release the
//! credit (a waiter takes it and issues now), and free the warp after the
//! per-item compute.
//!
//! Device arrival and segment departure need no events of their own, and
//! the closed forms reproduce a loop that has them bit for bit
//! (`crates/core/tests/engine_golden.rs` pins the reports across commits):
//!
//! * arrival is channel exit plus a constant and exits never decrease in
//!   issue order, so the backend sees the same calls at the same instants;
//! * same-instant `SegReady`s are scheduled in issue order either way, so
//!   they enter the link FIFO alike, and link `done` times strictly
//!   increase, so `Complete` times are distinct;
//! * `SegReady` touches only the return link, disjoint from what `Warp`
//!   and `Complete` touch, so their relative order is immaterial;
//! * a `Complete` at `C` is scheduled by `C − propagation`, a `Warp` at
//!   `C` at `C − item_compute`, so with `item_compute < propagation`
//!   (asserted in [`Engine::new`]; 20 ns vs 400 ns) the `Complete` pops
//!   first, as it did.
//!
//! # Event list: one in-order lane per kind
//!
//! Each kind has its own [`Lane`]: a FIFO that takes pushes at or after
//! its newest entry, plus an overflow heap for earlier ones. Every event
//! is stamped from one sequence counter, and the loop pops whichever
//! lane head has the smallest `(time, seq)`. That is exactly the total
//! order of one heap over all events, for any push order, so the lanes
//! change no result. They make most pushes O(1):
//!
//! * a `Warp` is scheduled at the batch start or at `now + item_compute`,
//!   and `now` never decreases, so warp times never decrease;
//! * a `Complete` is scheduled at link `done + propagation`, and link
//!   `done` strictly increases, so completion times never decrease;
//!
//! so neither lane ever uses its heap. `SegReady` times are device ready
//! times: in order on one host DRAM channel, mostly in order across
//! interleaved CXL expanders, and mostly out of order on flash media with
//! plane jitter. Shares of `SegReady` pushes that take the FIFO, at
//! perfbench seed 1: `latency-sweep` 86.5%, `campaign` 79.2%,
//! `spill-sequential` 51.7%, `flash-social` 10.2%. Scheduling an event
//! before `now` panics, in release builds too.
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
//! round boundaries. The parallel engine exploits that:
//!
//! * each round's batch becomes one **shard**, simulated on its own
//!   fresh [`Engine`] (its own event lanes) starting at `t = 0`
//!   ([`Engine::run_shard`]);
//! * shards are fanned out over the rayon pool by [`simulate_shards`],
//!   whose ordered collect puts results back in round order no matter
//!   which worker ran them;
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
//! per-shard engine would reset, changing the physics. The traversal
//! layer therefore dispatches on
//! [`BackendConfig::quiesces_between_batches`][qb]: quiescent backends
//! take the shard path, flash-backed ones stay on the coupled chain
//! (`Traversal::run_coupled`), keeping their paper-fidelity results
//! byte-identical to the pre-shard engine. The differential suite in
//! `crates/core/tests/parallel_differential.rs` pins all of these
//! equivalences.
//!
//! [qb]: crate::system::BackendConfig::quiesces_between_batches

use crate::access::DeviceRequest;
use crate::metrics::RunMetrics;
use cxlg_device::target::{MemoryTarget, ReadSegment};
use cxlg_gpu::config::GpuConfig;
use cxlg_link::pcie::PcieLinkConfig;
use cxlg_sim::{Bandwidth, CreditPool, Lane, OnlineStats, SimDuration, SimTime};

/// How requests travel to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestPath {
    /// Load/store memory access (host DRAM, CXL): read TLPs bounded by
    /// the PCIe `Nmax`.
    Memory,
    /// GPU-initiated storage access (BaM / XLFDD): submission-queue
    /// entries fetched by the drive; concurrency bounded by queue depth,
    /// and the SQ fetch adds one extra link round trip.
    Storage {
        /// Bytes per SQ entry crossing the request path.
        entry_bytes: u64,
        /// Completion-notification bytes on the return path (0 = no CQ).
        completion_bytes: u64,
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

/// The engine's future-event list: one [`Lane`] per event kind, all
/// stamped from one sequence counter so that popping the smallest
/// `(time, seq)` head across them is the order a single heap would give.
#[derive(Default)]
struct Events {
    /// Time of the event popped last; nothing may be scheduled before it.
    now: SimTime,
    seq: u64,
    /// A warp is free and pulls the next work item.
    warps: Lane<()>,
    /// A response segment `(req, last, bytes)` reaches the return link;
    /// `last` marks the request's segment the link serves last.
    segs: Lane<(u32, bool, u64)>,
    /// The request's final data arrived at the GPU.
    completes: Lane<u32>,
}

/// Which lane holds the next event.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Next {
    Warp,
    Seg,
    Complete,
}

impl Events {
    /// The next sequence number for an event due at `t`. Panics, in
    /// release builds too, if `t` is before the current time.
    #[inline]
    fn stamp(&mut self, t: SimTime) -> u64 {
        assert!(t >= self.now, "event at {t:?} before now, {:?}", self.now);
        self.seq += 1;
        self.seq
    }

    #[inline]
    fn warp(&mut self, t: SimTime) {
        let seq = self.stamp(t);
        self.warps.push(t, seq, ());
    }

    #[inline]
    fn seg(&mut self, t: SimTime, req: u32, last: bool, bytes: u64) {
        let seq = self.stamp(t);
        self.segs.push(t, seq, (req, last, bytes));
    }

    #[inline]
    fn complete(&mut self, t: SimTime, req: u32) {
        let seq = self.stamp(t);
        self.completes.push(t, seq, req);
    }

    /// The lane whose head is the earliest `(time, seq)`, advancing `now`
    /// to its time; `None` once every lane is empty. The caller pops it.
    #[inline]
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

/// The execution core. Owns the backend device and all link state; one
/// engine is used for a whole run so channel/credit state carries across
/// batches.
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
    run_latency: OnlineStats,
    run_requests: u64,
    run_fetched: u64,
    end_of_time: SimTime,
}

impl Engine {
    /// Build an engine over a backend device. Panics unless the per-item
    /// compute is shorter than the link propagation (module docs).
    pub fn new(cfg: EngineConfig, backend: Box<dyn MemoryTarget>) -> Self {
        let prop = cfg.link.propagation();
        assert!(
            cfg.gpu.item_compute() < prop,
            "item compute must be shorter than the link propagation"
        );
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
            run_latency: OnlineStats::new(),
            run_requests: 0,
            run_fetched: 0,
            end_of_time: SimTime::ZERO,
        }
    }

    /// The backend device (for statistics).
    pub fn backend(&self) -> &dyn MemoryTarget {
        self.backend.as_ref()
    }

    /// Execute `requests` starting at `start`; returns when all data has
    /// arrived at the GPU. Requests are handed to warps in order. Panics,
    /// in release builds too, if the drained batch breaks an invariant.
    pub fn run_batch(&mut self, start: SimTime, requests: &[DeviceRequest]) -> BatchResult {
        let r = requests.len();
        if r == 0 {
            return BatchResult {
                end: start,
                fetched_bytes: 0,
                requests: 0,
                latency: OnlineStats::new(),
            };
        }
        // Everything is scheduled in absolute time, from `start`.
        self.events.now = start;
        let warps = (self.cfg.gpu.active_warps as usize).min(r);
        for _ in 0..warps {
            self.events.warp(start);
        }

        let mut issue_time = vec![SimTime::ZERO; r];
        let mut next_item = 0usize;
        let mut completed = 0usize;
        let mut returned = 0u64;
        let mut latency = OnlineStats::new();
        let mut end = start;
        let prop = self.cfg.link.propagation();
        let compute = self.cfg.gpu.item_compute();

        while let Some(next) = self.events.next() {
            let now = self.events.now;
            match next {
                Next::Warp => {
                    self.events.warps.pop();
                    if next_item >= r {
                        continue; // no more work; warp retires
                    }
                    let idx = next_item as u32;
                    next_item += 1;
                    if self.credits.try_acquire(now) {
                        self.issue(now, idx, requests, &mut issue_time);
                    } else {
                        self.credits.enqueue_waiter(idx as u64);
                    }
                }
                Next::Seg => {
                    let (_, (req, last, bytes)) = self.events.segs.pop().expect("peeked");
                    let ser = self
                        .bandwidth
                        .transfer_time(bytes + PcieLinkConfig::COMPLETION_HEADER_BYTES);
                    let done = now.max(self.ret_next_free) + ser;
                    self.ret_next_free = done;
                    returned += bytes;
                    if last {
                        // Data reaches the GPU after the link propagation.
                        self.events.complete(done + prop, req);
                    }
                }
                Next::Complete => {
                    let (_, idx) = self.events.completes.pop().expect("peeked");
                    let lat = now.saturating_since(issue_time[idx as usize]);
                    latency.push(lat.as_us_f64());
                    completed += 1;
                    end = end.max(now);
                    if let Some(waiter) = self.credits.release(now) {
                        self.issue(now, waiter as u32, requests, &mut issue_time);
                    }
                    // The freed warp pulls its next item after processing
                    // the fetched edges.
                    self.events.warp(now + compute);
                }
            }
        }

        let fetched: u64 = requests.iter().map(|x| x.bytes).sum();
        assert_eq!(completed, r, "batch did not drain");
        assert!(
            self.credits.in_use() == 0 && self.credits.waiting() == 0,
            "credits outstanding after the batch drained"
        );
        assert_eq!(
            returned, fetched,
            "return-link payload differs from fetched bytes"
        );
        assert!(end >= start, "batch ended before it started");

        self.run_fetched += fetched;
        self.run_requests += r as u64;
        self.run_latency.merge(&latency);
        self.end_of_time = end;
        BatchResult {
            end,
            fetched_bytes: fetched,
            requests: r as u64,
            latency,
        }
    }

    /// Issue request `idx` at `now`: host-side overhead (zero except for
    /// UVM page faults), then the request serializes on the request
    /// channel once it is free and flies to the device, which is handed
    /// the read at its arrival instant.
    fn issue(
        &mut self,
        now: SimTime,
        idx: u32,
        requests: &[DeviceRequest],
        issue_time: &mut [SimTime],
    ) {
        issue_time[idx as usize] = now;
        let req = requests[idx as usize];
        let host = SimDuration::from_ps(req.overhead_ps);
        let out = (now + host).max(self.req_next_free) + self.request_ser;
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
            self.events
                .seg(s.ready + self.cfg.socket_penalty, idx, i == last, s.bytes);
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

    /// The engine's configured credit limit.
    pub fn credit_limit(&self) -> u64 {
        self.cfg.credits
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
/// state). The vendored rayon's ordered collect guarantees the output
/// order — and therefore the downstream merge — is a pure function of
/// `batches`, independent of `RAYON_NUM_THREADS`.
pub fn simulate_shards<F>(factory: F, batches: &[Vec<DeviceRequest>]) -> Vec<ShardOutcome>
where
    F: Fn() -> Engine + Sync,
{
    use rayon::prelude::*;
    batches
        .par_iter()
        .map(|reqs| factory().run_shard(reqs))
        .collect()
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

    fn dram_engine(gen: PcieGen, warps: u32) -> Engine {
        let link = PcieLinkConfig::x16(gen);
        let cfg = EngineConfig {
            gpu: GpuConfig::default().with_active_warps(warps),
            credits: link.nmax(),
            link,
            socket_penalty: SimDuration::ZERO,
            path: RequestPath::Memory,
        };
        Engine::new(cfg, Box::new(HostDram::new(HostDramConfig::default())))
    }

    fn uniform_requests(n: usize, bytes: u64) -> Vec<DeviceRequest> {
        (0..n)
            .map(|i| DeviceRequest {
                addr: (i as u64) * 4096,
                bytes,
                overhead_ps: 0,
            })
            .collect()
    }

    /// A device answering its `i`-th read with `script[i]`: segments of
    /// `(delay after arrival in ps, bytes)`.
    struct Scripted {
        script: Vec<Vec<(u64, u64)>>,
        reads: usize,
    }

    impl MemoryTarget for Scripted {
        fn read(
            &mut self,
            t_arrive: SimTime,
            _addr: u64,
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
            out.last().map_or(t_arrive, |s| s.ready)
        }
        fn alignment(&self) -> u64 {
            1
        }
        fn kind(&self) -> &'static str {
            "scripted"
        }
        fn reads_served(&self) -> u64 {
            self.reads as u64
        }
        fn bytes_served(&self) -> u64 {
            0
        }
    }

    /// Gen4 x16 (24 B/ns: a 24 B request TLP serializes in 1 ns, a 48 B
    /// segment in 2 ns), 400 ns propagation, near socket.
    fn scripted_engine(warps: u32, backend: Box<dyn MemoryTarget>) -> Engine {
        let link = PcieLinkConfig::x16(PcieGen::Gen4);
        let cfg = EngineConfig {
            gpu: GpuConfig::default().with_active_warps(warps),
            credits: link.nmax(),
            link,
            socket_penalty: SimDuration::ZERO,
            path: RequestPath::Memory,
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
        let dev = Scripted {
            script: vec![vec![(0, 48)], vec![(1_000, 48)], vec![(0, 48)]],
            reads: 0,
        };
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
            let dev = Scripted {
                script: vec![vec![(0, 48)]],
                reads: 0,
            };
            let mut e = scripted_engine(1, Box::new(dev));
            let req = DeviceRequest {
                addr: 0,
                bytes: 48,
                overhead_ps,
            };
            e.run_batch(SimTime::ZERO, &[req])
        };
        let plain = run(0);
        let uvm = run(1_000_000);
        assert_eq!(plain.end, SimTime(803_000));
        assert_eq!(uvm.end, SimTime(1_803_000));
        assert_eq!(uvm.latency.mean(), us(1_803_000));
    }

    /// Pop every pending event, returning the lanes in pop order.
    fn drain(ev: &mut Events) -> Vec<Next> {
        std::iter::from_fn(|| {
            let next = ev.next()?;
            match next {
                Next::Warp => ev.warps.pop().map(drop),
                Next::Seg => ev.segs.pop().map(drop),
                Next::Complete => ev.completes.pop().map(drop),
            };
            Some(next)
        })
        .collect()
    }

    #[test]
    fn same_instant_events_pop_in_schedule_order() {
        // A Warp, a SegReady and a Complete due at the same picosecond
        // pop in the order they were scheduled, whichever lanes hold them.
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
                    Warp => ev.warp(t),
                    Seg => ev.seg(t, 0, true, 64),
                    Complete => ev.complete(t, 0),
                }
            }
            assert_eq!(drain(&mut ev), order);
            assert_eq!(ev.now, t);
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut ev = Events::default();
        ev.warp(SimTime(100));
        assert_eq!(ev.now, SimTime::ZERO);
        assert_eq!(drain(&mut ev), [Next::Warp]);
        assert_eq!(ev.now, SimTime(100));
        // Scheduling at the new clock is allowed; before it is not.
        ev.complete(SimTime(100), 0);
        assert_eq!(drain(&mut ev), [Next::Complete]);
    }

    #[test]
    fn earlier_events_pop_first_across_lanes() {
        let mut ev = Events::default();
        ev.complete(SimTime(30), 0);
        ev.warp(SimTime(20));
        ev.seg(SimTime(40), 0, false, 64);
        ev.seg(SimTime(10), 0, true, 64); // out of order: overflow heap
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
        ev.warp(SimTime(10));
        drain(&mut ev);
        ev.complete(SimTime(9), 0);
    }

    #[test]
    #[should_panic(expected = "item compute must be shorter")]
    fn compute_not_shorter_than_propagation_is_rejected() {
        let link =
            PcieLinkConfig::x16(PcieGen::Gen4).with_propagation(SimDuration::from_ps(20_000));
        let cfg = EngineConfig {
            gpu: GpuConfig::default(),
            credits: link.nmax(),
            link,
            socket_penalty: SimDuration::ZERO,
            path: RequestPath::Memory,
        };
        Engine::new(cfg, Box::new(HostDram::new(HostDramConfig::default())));
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
}
