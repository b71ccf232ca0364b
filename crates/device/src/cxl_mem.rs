//! The latency-adjustable CXL.mem memory expander prototype (§4.2.1,
//! Figure 7).
//!
//! Structure mirrors the paper's block diagram: a CXL interface (port
//! latency, 64 B access granularity), latency bridges (Appendix A), a bus
//! matrix funnelling into a **single-channel** onboard DRAM (the paper
//! notes this FPGA-board limitation caps per-device throughput at about
//! 5,700 MB/s), and a finite device tag pool — §4.2.2 infers the Agilex-7
//! handles **128** outstanding accesses, which is why throughput decays
//! with added latency in Figure 10.
//!
//! Requests larger than 64 B split into flits; each flit occupies one
//! device tag from admission until its response leaves the bridge, so a
//! stream of 128 B GPU reads sees only 64 request-level slots (§4.2.2).

use crate::latency_bridge::{BridgeOrdering, LatencyBridge};
use crate::target::{MemoryTarget, ReadSegment};
use cxlg_link::cxl::{CxlPortConfig, CXL_FLIT_BYTES};
use cxlg_sim::{Bandwidth, BandwidthChannel, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Configuration of one CXL memory device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CxlMemConfig {
    /// Onboard DRAM channel bandwidth in MB/s (Fig. 10 cap ≈ 5,700).
    pub dram_bandwidth_mb_per_sec: u64,
    /// Onboard DRAM access latency in ps.
    pub dram_access_latency_ps: u64,
    /// Device tag pool (outstanding 64 B accesses); §4.2.2 infers 128.
    pub device_tags: u64,
    /// Additional latency injected by the bridge, in ps (the Figure 10/11
    /// sweep variable, 0–3 µs in the paper).
    pub added_latency_ps: u64,
    /// Response ordering (the FPGA prototype is in-order).
    pub ordering: BridgeOrdering,
    /// CXL port parameters.
    pub port: CxlPortConfig,
}

impl Default for CxlMemConfig {
    fn default() -> Self {
        CxlMemConfig {
            dram_bandwidth_mb_per_sec: 5_700,
            // Same DRAM technology class as the host (the prototype's
            // onboard DDR4-1333 is, if anything, slower than the host's
            // DDR5): 0.3 us, so the CXL(+0) delta over host DRAM is the
            // 0.5 us port round trip, matching Fig. 9.
            dram_access_latency_ps: 300_000,
            device_tags: 128,
            added_latency_ps: 0,
            ordering: BridgeOrdering::InOrder,
            port: CxlPortConfig::default(),
        }
    }
}

impl CxlMemConfig {
    /// Set the bridge's additional latency in microseconds (the paper's
    /// "+0", "+0.5", … "+3" settings).
    pub fn with_added_latency_us(mut self, us: f64) -> Self {
        self.added_latency_ps = SimDuration::from_us(us).as_ps();
        self
    }

    /// Use the out-of-order bridge variant.
    pub fn out_of_order(mut self) -> Self {
        self.ordering = BridgeOrdering::OutOfOrder;
        self
    }

    /// The added latency as a duration.
    pub fn added_latency(&self) -> SimDuration {
        SimDuration::from_ps(self.added_latency_ps)
    }
}

/// One CXL memory expander.
#[derive(Debug, Clone)]
pub struct CxlMemDevice {
    cfg: CxlMemConfig,
    dram: BandwidthChannel,
    bridge: LatencyBridge,
    /// Release times of in-flight tags, in flit order; admission waits on
    /// the earliest release when the pool is exhausted. The engine hands
    /// reads over in arrival order, so ingress, admission, DRAM
    /// data-ready and bridge stamp times never decrease, and releases
    /// come in time order under either bridge ordering (asserted on every
    /// push, in release builds too): the earliest is the front.
    tag_release: VecDeque<SimTime>,
    flits: u64,
    /// Sum of device-resident times (admission to egress) for mean-latency
    /// reporting, in ps.
    resident_ps: u128,
}

impl CxlMemDevice {
    /// Build from a configuration.
    pub fn new(cfg: CxlMemConfig) -> Self {
        CxlMemDevice {
            dram: BandwidthChannel::new(Bandwidth::from_mb_per_sec(
                cfg.dram_bandwidth_mb_per_sec,
            )),
            bridge: LatencyBridge::new(cfg.added_latency(), cfg.ordering),
            // Allocated once at the tag count it fills to.
            tag_release: VecDeque::with_capacity(cfg.device_tags.min(4096) as usize),
            cfg,
            flits: 0,
            resident_ps: 0,
        }
    }

    /// Mean device-resident time per flit (admission to response egress).
    pub fn mean_resident(&self) -> SimDuration {
        if self.flits == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_ps((self.resident_ps / self.flits as u128) as u64)
        }
    }

    /// Process one 64 B flit entering the device at `t_ingress`; returns
    /// when its response leaves the bridge (before the egress port hop).
    fn serve_flit(&mut self, t_ingress: SimTime) -> SimTime {
        // Tag admission: wait for the earliest in-flight release if the
        // pool is full.
        let t_admit = if self.tag_release.len() as u64 >= self.cfg.device_tags {
            let earliest = self.tag_release.pop_front().expect("non-empty at capacity");
            t_ingress.max(earliest)
        } else {
            t_ingress
        };
        // Bus matrix -> single DRAM channel -> access latency.
        let data_ready = self.dram.transmit(t_admit, CXL_FLIT_BYTES)
            + SimDuration::from_ps(self.cfg.dram_access_latency_ps);
        // Appendix A bridge.
        let release = self.bridge.release(t_admit, data_ready);
        assert!(
            self.tag_release.back().is_none_or(|&b| b <= release),
            "tag release at {release:?} out of time order"
        );
        self.tag_release.push_back(release);
        self.flits += 1;
        self.resident_ps += release.saturating_since(t_admit).as_ps() as u128;
        release
    }
}

impl Default for CxlMemDevice {
    fn default() -> Self {
        Self::new(CxlMemConfig::default())
    }
}

impl MemoryTarget for CxlMemDevice {
    fn read(
        &mut self,
        t_arrive: SimTime,
        _addr: u64,
        bytes: u64,
        out: &mut Vec<ReadSegment>,
    ) -> SimTime {
        debug_assert!(bytes > 0, "zero-byte read");
        let ingress = t_arrive + self.cfg.port.port_latency();
        let port_out = self.cfg.port.port_latency();
        let mut remaining = bytes;
        let mut last = SimTime::ZERO;
        while remaining > 0 {
            let seg = remaining.min(CXL_FLIT_BYTES);
            let release = self.serve_flit(ingress);
            let ready = release + port_out;
            out.push(ReadSegment { ready, bytes: seg });
            last = last.max(ready);
            remaining -= seg;
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_one(dev: &mut CxlMemDevice, t: SimTime, bytes: u64) -> SimTime {
        let mut out = Vec::new();
        dev.read(t, 0, bytes, &mut out)
    }

    #[test]
    fn base_latency_near_microsecond_scale() {
        // Port 0.25 us x2 + DRAM 0.3 us + serialization ~= 0.81 us.
        let mut d = CxlMemDevice::default();
        let ready = read_one(&mut d, SimTime::ZERO, 64);
        let us = ready.as_us_f64();
        assert!((0.75..0.90).contains(&us), "base latency {us} us");
    }

    #[test]
    fn added_latency_shifts_completion() {
        let mut base = CxlMemDevice::default();
        let mut plus2 = CxlMemDevice::new(CxlMemConfig::default().with_added_latency_us(2.0));
        let t0 = read_one(&mut base, SimTime::ZERO, 64);
        let t2 = read_one(&mut plus2, SimTime::ZERO, 64);
        let delta = t2.saturating_since(t0).as_us_f64();
        // Appendix A pops at max(data_ready, stamp + added): the ~0.31 us
        // of DRAM service is absorbed into the 2 us target, so the
        // observed shift is 2.0 minus the base DRAM time. (Fig. 11's axis
        // shows the same effect: +0 -> 1.6 us but +0.5 -> 2.0 us.)
        assert!((1.6..1.8).contains(&delta), "delta {delta} us");
    }

    #[test]
    fn large_reads_split_into_flits() {
        let mut d = CxlMemDevice::default();
        let mut out = Vec::new();
        d.read(SimTime::ZERO, 0, 128, &mut out);
        assert_eq!(out.len(), 2, "128 B = two 64 B flits (§4.2.2)");
        assert_eq!(out.iter().map(|s| s.bytes).sum::<u64>(), 128);
        out.clear();
        d.read(SimTime::ZERO, 0, 96, &mut out);
        assert_eq!(out.len(), 2, "96 B also splits into two accesses");
        assert_eq!(out[1].bytes, 32);
    }

    #[test]
    fn throughput_capped_by_dram_channel_at_zero_added_latency() {
        // Fig. 10 at +0: ~5,700 MB/s.
        let mut d = CxlMemDevice::default();
        let n = 50_000u64;
        let mut last = SimTime::ZERO;
        let mut out = Vec::new();
        for i in 0..n {
            out.clear();
            last = d.read(SimTime::ZERO, i * 64, 64, &mut out);
        }
        let mb_s = (n * 64) as f64 / 1e6 / last.as_secs_f64();
        assert!(
            (mb_s - 5_700.0).abs() / 5_700.0 < 0.02,
            "throughput {mb_s} MB/s"
        );
    }

    #[test]
    fn throughput_decays_with_added_latency_via_tag_starvation() {
        // Fig. 10: with 128 tags and latency L, T ~ 128 * 64 B / L once
        // L exceeds ~1.4 us.
        let mut d = CxlMemDevice::new(CxlMemConfig::default().with_added_latency_us(4.0));
        let n = 50_000u64;
        let mut last = SimTime::ZERO;
        let mut out = Vec::new();
        for i in 0..n {
            out.clear();
            last = d.read(SimTime::ZERO, i * 64, 64, &mut out);
        }
        let mb_s = (n * 64) as f64 / 1e6 / last.as_secs_f64();
        // L ~= 0.1 (dram) + 4.0 (bridge) ~ 4.1 us inside the tag window;
        // T ~= 128 * 64 / 4.1us ~= 2,000 MB/s.
        assert!(mb_s < 2_300.0, "expected tag-starved throughput, got {mb_s}");
        assert!(mb_s > 1_600.0, "unreasonably low throughput {mb_s}");
    }

    #[test]
    fn tag_pool_bounds_concurrency() {
        // Issue 256 zero-time flits; the 129th cannot start before the
        // 1st releases.
        let cfg = CxlMemConfig::default().with_added_latency_us(1.0);
        let mut d = CxlMemDevice::new(cfg);
        let mut completions = Vec::new();
        let mut out = Vec::new();
        for i in 0..256u64 {
            out.clear();
            completions.push(d.read(SimTime::ZERO, i * 64, 64, &mut out));
        }
        // First 128 release together (bridge-dominated); the next 128
        // start only after those releases.
        let first = completions[0];
        let tail = completions[200];
        assert!(tail.saturating_since(first).as_us_f64() > 0.9);
    }

    #[test]
    fn in_order_bridge_produces_monotone_completions() {
        let mut d = CxlMemDevice::new(CxlMemConfig::default().with_added_latency_us(0.5));
        let mut out = Vec::new();
        let mut last = SimTime::ZERO;
        for i in 0..1000u64 {
            out.clear();
            let r = d.read(SimTime(i * 1000), i * 64, 64, &mut out);
            assert!(r >= last, "completion order violated at {i}");
            last = r;
        }
    }

    #[test]
    fn out_of_order_mode_reported_in_config() {
        let d = CxlMemDevice::new(CxlMemConfig::default().out_of_order());
        assert_eq!(d.cfg.ordering, BridgeOrdering::OutOfOrder);
    }

    #[test]
    fn stats_accumulate() {
        let mut d = CxlMemDevice::default();
        let mut out = Vec::new();
        d.read(SimTime::ZERO, 0, 128, &mut out);
        d.read(SimTime::ZERO, 128, 64, &mut out);
        assert_eq!(d.flits, 3);
        assert!(d.mean_resident().as_ns_f64() > 0.0);
    }
}
