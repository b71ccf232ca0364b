//! XLFDD — the FPGA storage prototype with microsecond-latency flash
//! (§4.1.1, reference \[38\] of the paper).
//!
//! Key properties the evaluation depends on:
//!
//! * **16 B address alignment** — far below NVMe's 512 B minimum, the
//!   property behind Observation 1;
//! * **transfer size: any multiple of 16 B up to 2 kB** — so a whole edge
//!   sublist is fetched in one request instead of being split into GPU
//!   cache lines;
//! * **11 MIOPS per drive** via a lightweight storage interface, with
//!   submission queues in GPU BAR memory and *no completion queues*;
//! * microsecond-latency flash media (under 5 µs).

use crate::flash::{FlashArray, FlashConfig};
use crate::target::{MemoryTarget, ReadSegment};
use crate::write::WritableTarget;
use cxlg_sim::{Bandwidth, BandwidthChannel, RateServer, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// XLFDD drive configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct XlfddConfig {
    /// Smallest address alignment (16 B, §4.1.1).
    pub alignment: u64,
    /// Largest single transfer (2 kB, §4.1.1).
    pub max_transfer: u64,
    /// Controller random-read ceiling in MIOPS (11 per drive, §4.1.1).
    pub controller_miops: f64,
    /// Fixed controller processing overhead per request, ps.
    pub controller_overhead_ps: u64,
    /// The drive's own PCIe link bandwidth in MB/s (Table 3: each XLFDD
    /// sits on a PCIe 3.0 x4 link, ~3,000 MB/s effective); response DMA
    /// serializes here before reaching the shared GPU link.
    pub drive_link_mb_per_sec: u64,
    /// Flash media parameters.
    pub flash: FlashConfig,
}

impl Default for XlfddConfig {
    fn default() -> Self {
        XlfddConfig {
            alignment: 16,
            max_transfer: 2048,
            controller_miops: 11.0,
            controller_overhead_ps: 300_000, // 0.3 us FPGA pipeline
            drive_link_mb_per_sec: 3_000,
            flash: FlashConfig::default(),
        }
    }
}

/// One XLFDD drive.
#[derive(Debug, Clone)]
pub struct XlfddDrive {
    cfg: XlfddConfig,
    controller: RateServer,
    flash: FlashArray,
    link: BandwidthChannel,
}

impl XlfddDrive {
    /// Build from a configuration; `drive_seed` decorrelates the flash
    /// jitter streams of drives in an array.
    pub fn new(mut cfg: XlfddConfig, drive_seed: u64) -> Self {
        cfg.flash.seed ^= drive_seed.wrapping_mul(0x9E3779B97F4A7C15);
        XlfddDrive {
            controller: RateServer::from_miops(cfg.controller_miops),
            flash: FlashArray::new(cfg.flash),
            link: BandwidthChannel::new(Bandwidth::from_mb_per_sec(cfg.drive_link_mb_per_sec)),
            cfg,
        }
    }
}

impl Default for XlfddDrive {
    fn default() -> Self {
        Self::new(XlfddConfig::default(), 0)
    }
}

impl MemoryTarget for XlfddDrive {
    fn read(
        &mut self,
        t_arrive: SimTime,
        addr: u64,
        bytes: u64,
        out: &mut Vec<ReadSegment>,
    ) -> SimTime {
        // The drive's interface contract (§4.1.1), checked in release
        // builds: the access method must plan within it.
        assert!(bytes > 0, "zero-byte read");
        assert!(
            bytes <= self.cfg.max_transfer,
            "transfer {bytes} exceeds XLFDD max {}; split at the access layer",
            self.cfg.max_transfer
        );
        assert_eq!(addr % self.cfg.alignment, 0, "misaligned XLFDD read");
        // Lightweight controller: one IOPS slot, fixed pipeline overhead.
        let admitted = self.controller.admit(t_arrive)
            + SimDuration::from_ps(self.cfg.controller_overhead_ps);
        // One media access per flash page touched (a <=2 kB transfer spans
        // at most two 4 kB pages when it straddles a boundary).
        let first_page = addr / self.cfg.flash.page_bytes;
        let last_page = (addr + bytes - 1) / self.cfg.flash.page_bytes;
        let mut ready = SimTime::ZERO;
        for page in first_page..=last_page {
            let r = self.flash.read_page(admitted, page * self.cfg.flash.page_bytes);
            ready = ready.max(r);
        }
        // The drive DMAs the payload out over its own x4 link before the
        // switch fabric merges it onto the shared GPU link.
        let ready = self.link.transmit(ready, bytes);
        out.push(ReadSegment { ready, bytes });
        ready
    }
}

impl WritableTarget for XlfddDrive {
    /// Program the pages covering `[addr, addr + bytes)`; returns when
    /// the last plane finishes. Occupies planes for `tPROG` each.
    fn write(&mut self, t_arrive: SimTime, addr: u64, bytes: u64) -> SimTime {
        let page_bytes = self.cfg.flash.page_bytes;
        let first = addr / page_bytes;
        let last = (addr + bytes.max(1) - 1) / page_bytes;
        let mut done = SimTime::ZERO;
        for page in first..=last {
            done = done.max(self.flash.program_page(t_arrive, page * page_bytes));
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_with(dies: u32, planes_per_die: u32) -> XlfddDrive {
        XlfddDrive::new(
            XlfddConfig {
                flash: FlashConfig {
                    dies,
                    planes_per_die,
                    jitter_mean_ps: 0,
                    ..FlashConfig::default()
                },
                ..XlfddConfig::default()
            },
            0,
        )
    }

    fn quiet() -> XlfddDrive {
        let f = FlashConfig::default();
        quiet_with(f.dies, f.planes_per_die)
    }

    #[test]
    fn single_read_is_microsecond_scale() {
        let mut d = quiet();
        let mut out = Vec::new();
        let ready = d.read(SimTime::ZERO, 0, 256, &mut out);
        // 0.3 us controller + 4 us flash + ~0.09 us x4-link DMA = 4.39 us.
        assert!((ready.as_us_f64() - 4.39).abs() < 0.05, "{ready:?}");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].bytes, 256);
    }

    #[test]
    fn controller_limits_iops_to_11m() {
        let mut d = quiet();
        let n = 110_000u64;
        let mut out = Vec::new();
        let mut last = SimTime::ZERO;
        for i in 0..n {
            out.clear();
            last = last.max(d.read(SimTime::ZERO, (i * 256) % (1 << 30), 16, &mut out));
        }
        let miops = n as f64 / last.as_secs_f64() / 1e6;
        assert!((miops - 11.0).abs() < 0.8, "achieved {miops} MIOPS");
    }

    #[test]
    fn page_straddling_read_touches_two_dies_or_serializes() {
        let mut d = quiet();
        let mut out = Vec::new();
        // 2 kB read starting 1 kB before a page boundary.
        let ready = d.read(SimTime::ZERO, 4096 - 1024, 2048, &mut out);
        // Two page reads: if they land on different dies they overlap
        // (4.3 us); same die serializes (8.3 us). Either way >= one tR.
        let us = ready.as_us_f64();
        assert!(us >= 4.29, "{us}");
        assert!(us <= 8.5, "{us}");
        // On a one-plane array both page reads serialize: two full tR.
        let mut one_plane = quiet_with(1, 1);
        let ready = one_plane.read(SimTime::ZERO, 4096 - 1024, 2048, &mut out);
        let t_r = FlashConfig::default().read_latency_ps;
        assert!(ready.as_ps() >= 2 * t_r, "{ready:?}");
    }

    #[test]
    fn distinct_drive_seeds_decorrelate_jitter() {
        let mut a = XlfddDrive::new(XlfddConfig::default(), 1);
        let mut b = XlfddDrive::new(XlfddConfig::default(), 2);
        let mut out = Vec::new();
        let ra = a.read(SimTime::ZERO, 0, 64, &mut out);
        out.clear();
        let rb = b.read(SimTime::ZERO, 0, 64, &mut out);
        assert_ne!(ra, rb, "jitter streams should differ across drives");
    }

    #[test]
    fn interface_properties_match_paper() {
        let cfg = XlfddConfig::default();
        assert_eq!(cfg.alignment, 16);
        assert_eq!(cfg.max_transfer, 2048);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn rejects_misaligned_reads() {
        let mut d = quiet();
        let mut out = Vec::new();
        d.read(SimTime::ZERO, 7, 64, &mut out);
    }
}
