//! Host DRAM model — the external memory EMOGI was designed for.
//!
//! §3.3.1 of the paper: *"the IOPS of the host DRAM-based external memory
//! is excessively high"*, so the slope of the throughput profile is set by
//! latency, not by a device service rate. We model the DIMM population as
//! an aggregate bandwidth channel (8 channels of DDR4-3200 in Table 3 ≈
//! 200 GB/s, never the bottleneck behind a 24 GB/s link) plus a fixed
//! access latency. The GPU-observed ~1.1–1.2 µs of Fig. 9 decomposes into
//! this device latency plus the PCIe round trip.

use crate::target::{MemoryTarget, ReadSegment};
use cxlg_sim::{Bandwidth, BandwidthChannel, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Host DRAM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HostDramConfig {
    /// Aggregate channel bandwidth in MB/s (Table 3: 8 × DDR4-3200 ≈
    /// 200 GB/s; Table 4's DRAM 1 is a single DDR5 channel ≈ 38 GB/s).
    pub bandwidth_mb_per_sec: u64,
    /// Device-side access latency (row activate + CAS + controller), ps.
    pub access_latency_ps: u64,
}

impl Default for HostDramConfig {
    fn default() -> Self {
        HostDramConfig {
            bandwidth_mb_per_sec: 200_000,
            access_latency_ps: 300_000, // 0.3 us
        }
    }
}

impl HostDramConfig {
    /// Access latency as a duration.
    fn access_latency(&self) -> SimDuration {
        SimDuration::from_ps(self.access_latency_ps)
    }
}

/// Host DRAM as an external-memory target.
#[derive(Debug, Clone)]
pub struct HostDram {
    cfg: HostDramConfig,
    channel: BandwidthChannel,
}

impl HostDram {
    /// Build from a configuration.
    pub fn new(cfg: HostDramConfig) -> Self {
        HostDram {
            channel: BandwidthChannel::new(Bandwidth::from_mb_per_sec(
                cfg.bandwidth_mb_per_sec,
            )),
            cfg,
        }
    }
}

impl Default for HostDram {
    fn default() -> Self {
        Self::new(HostDramConfig::default())
    }
}

impl MemoryTarget for HostDram {
    fn read(
        &mut self,
        t_arrive: SimTime,
        _addr: u64,
        bytes: u64,
        out: &mut Vec<ReadSegment>,
    ) -> SimTime {
        // Fixed access latency, then the data crosses the (never-binding)
        // internal channel. DRAM is heavily banked, so requests do not
        // serialize on access latency — only on channel bandwidth.
        let data_at = self.channel.transmit(t_arrive, bytes) + self.cfg.access_latency();
        out.push(ReadSegment {
            ready: data_at,
            bytes,
        });
        data_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_dominates_small_reads() {
        let mut d = HostDram::default();
        let mut out = Vec::new();
        let ready = d.read(SimTime::ZERO, 0, 128, &mut out);
        // 128 B at 200 GB/s is 0.64 ns; latency is 300 ns.
        assert!((ready.as_ns_f64() - 300.0).abs() < 2.0, "{ready:?}");
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn back_to_back_reads_do_not_serialize_on_latency() {
        // Banked DRAM: two reads issued together differ only by the
        // channel serialization of the first payload, not by 2x latency.
        let mut d = HostDram::default();
        let mut out = Vec::new();
        let r1 = d.read(SimTime::ZERO, 0, 128, &mut out);
        let r2 = d.read(SimTime::ZERO, 4096, 128, &mut out);
        let delta = r2.saturating_since(r1);
        assert!(delta.as_ns_f64() < 2.0, "{delta:?}");
    }

    #[test]
    fn sustained_throughput_hits_channel_bandwidth() {
        let mut d = HostDram::new(HostDramConfig {
            bandwidth_mb_per_sec: 10_000,
            access_latency_ps: 300_000,
        });
        let mut out = Vec::new();
        let mut last = SimTime::ZERO;
        let n = 10_000u64;
        for i in 0..n {
            last = d.read(SimTime::ZERO, i * 128, 128, &mut out);
        }
        let mb_s = (n * 128) as f64 / 1e6 / last.as_secs_f64();
        assert!((mb_s - 10_000.0).abs() / 10_000.0 < 0.01, "{mb_s}");
    }
}
