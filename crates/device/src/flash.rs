//! Multi-die, multi-plane microsecond-latency flash array.
//!
//! The XLFDD prototype \[38\] is built from "low-latency flash chips with a
//! latency of under 5 usec" (§4.1.1). A *plane* serves one page read at a
//! time (`tR`); low-latency flash supports independent multi-plane reads,
//! and the array interleaves addresses across all planes, so aggregate
//! random-read IOPS scales with plane count until the drive's controller
//! becomes the limit. §2.3 notes this media-level parallelism is what
//! lets microsecond flash "support sufficient random read performance
//! required for in-memory-class graph processing".

use cxlg_sim::{SimDuration, SimTime, Xoshiro256StarStar};
use serde::{Deserialize, Serialize};

/// Flash array configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlashConfig {
    /// Number of dies.
    pub dies: u32,
    /// Independent planes per die. Low-latency flash (XL-FLASH class)
    /// supports independent multi-plane reads, so a plane — not a die —
    /// is the unit that serializes page reads.
    pub planes_per_die: u32,
    /// Media read time `tR` per page access, in ps (~4 µs for the
    /// low-latency flash in the paper).
    pub read_latency_ps: u64,
    /// Exponential jitter added to `tR`, mean in ps (0 disables). Real
    /// flash read times vary with cell state and ECC effort.
    pub jitter_mean_ps: u64,
    /// Die page size in bytes; one read occupies the die once per page
    /// touched.
    pub page_bytes: u64,
    /// Service time for a read that hits the plane's page register (the
    /// page most recently sensed on that plane), in ps. Graph workloads
    /// cluster many sublist reads onto one page; real flash streams
    /// those from the register instead of re-sensing the array.
    pub register_read_ps: u64,
    /// Seed for the jitter stream (deterministic per drive).
    pub seed: u64,
}

impl Default for FlashConfig {
    fn default() -> Self {
        FlashConfig {
            dies: 64,
            planes_per_die: 8,
            read_latency_ps: 4_000_000, // 4 us
            jitter_mean_ps: 200_000,    // 0.2 us
            page_bytes: 4096,
            register_read_ps: 300_000, // 0.3 us
            seed: 0xF1A5,
        }
    }
}

/// The die array.
#[derive(Debug, Clone)]
pub struct FlashArray {
    cfg: FlashConfig,
    /// One availability register per plane (the serializing unit).
    plane_free: Vec<SimTime>,
    /// Page currently held in each plane's page register.
    plane_page: Vec<u64>,
    rng: Xoshiro256StarStar,
}

impl FlashArray {
    /// Build from a configuration.
    pub fn new(cfg: FlashConfig) -> Self {
        assert!(cfg.dies > 0, "need at least one die");
        assert!(cfg.planes_per_die > 0, "need at least one plane");
        assert!(cfg.page_bytes.is_power_of_two(), "page size must be 2^k");
        FlashArray {
            plane_free: vec![SimTime::ZERO; (cfg.dies * cfg.planes_per_die) as usize],
            plane_page: vec![u64::MAX; (cfg.dies * cfg.planes_per_die) as usize],
            rng: Xoshiro256StarStar::seed_from_u64(cfg.seed),
            cfg,
        }
    }

    /// Which plane an address maps to (page-granular striping with a mix
    /// to decorrelate from application stride patterns).
    #[inline]
    fn plane_of(&self, addr: u64) -> usize {
        let page = addr / self.cfg.page_bytes;
        // SplitMix-style avalanche so sequential pages spread over planes.
        let mut z = page.wrapping_mul(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        (z % self.plane_free.len() as u64) as usize
    }

    /// Read the page containing `addr`, arriving at its plane at `t`.
    /// Returns when the data is out of the media. Reads spanning a page
    /// boundary should be split by the caller (the drive's transfer-size
    /// rules guarantee this for XLFDD).
    pub fn read_page(&mut self, t: SimTime, addr: u64) -> SimTime {
        let plane = self.plane_of(addr);
        let page = addr / self.cfg.page_bytes;
        let start = t.max(self.plane_free[plane]);
        let service = if self.plane_page[plane] == page {
            // Register hit: the page was just sensed; stream it out.
            self.cfg.register_read_ps
        } else {
            let jitter = if self.cfg.jitter_mean_ps == 0 {
                0
            } else {
                self.rng.next_exp(self.cfg.jitter_mean_ps as f64) as u64
            };
            self.cfg.read_latency_ps + jitter
        };
        let ready = start + SimDuration::from_ps(service);
        self.plane_free[plane] = ready;
        self.plane_page[plane] = page;
        ready
    }

    /// Program (write) the page containing `addr`: occupies the plane for
    /// `tPROG` (see [`crate::write::FLASH_PROGRAM_PS`]) and invalidates
    /// its page register.
    pub fn program_page(&mut self, t: SimTime, addr: u64) -> SimTime {
        let plane = self.plane_of(addr);
        let start = t.max(self.plane_free[plane]);
        let ready = start + SimDuration::from_ps(crate::write::FLASH_PROGRAM_PS);
        self.plane_free[plane] = ready;
        self.plane_page[plane] = u64::MAX;
        ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_jitter(dies: u32, planes: u32) -> FlashArray {
        FlashArray::new(FlashConfig {
            dies,
            planes_per_die: planes,
            jitter_mean_ps: 0,
            ..FlashConfig::default()
        })
    }

    #[test]
    fn single_read_takes_tr() {
        let mut f = no_jitter(4, 1);
        let ready = f.read_page(SimTime::ZERO, 0);
        assert_eq!(ready.as_us_f64(), 4.0);
    }

    #[test]
    fn same_plane_serializes_different_planes_overlap() {
        let mut f = no_jitter(8, 1);
        let a0 = 0u64;
        let p0 = f.plane_of(a0);
        let same = (1..200)
            .map(|i| i * 4096)
            .find(|&a| f.plane_of(a) == p0)
            .expect("some page shares plane 0");
        let diff = (1..200)
            .map(|i| i * 4096)
            .find(|&a| f.plane_of(a) != p0)
            .expect("some page on another plane");
        let r0 = f.read_page(SimTime::ZERO, a0);
        let r_same = f.read_page(SimTime::ZERO, same);
        let r_diff = f.read_page(SimTime::ZERO, diff);
        assert_eq!(r_same.as_us_f64(), 8.0, "same plane must serialize");
        assert_eq!(r_diff.as_us_f64(), 4.0, "other plane is independent");
        assert_eq!(r0.as_us_f64(), 4.0);
    }

    #[test]
    fn aggregate_iops_approaches_planes_over_tr() {
        // 64 dies x 8 planes at 4 us => 128 MIOPS peak.
        let mut f = no_jitter(64, 8);
        let n = 256_000u64;
        let mut last = SimTime::ZERO;
        let mut rng = cxlg_sim::Xoshiro256StarStar::seed_from_u64(1);
        for _ in 0..n {
            let addr = rng.next_below(1 << 32) & !4095;
            last = last.max(f.read_page(SimTime::ZERO, addr));
        }
        let iops = n as f64 / last.as_secs_f64() / 1e6;
        // Random routing loses some balance; expect within 25% of peak.
        assert!(iops > 96.0, "achieved {iops} MIOPS");
        assert!(iops <= 128.5, "achieved {iops} MIOPS exceeds peak");
    }

    #[test]
    fn plane_mapping_is_stable_and_in_range() {
        let f = no_jitter(16, 2);
        for addr in (0..100u64).map(|i| i * 8192 + 7) {
            let d = f.plane_of(addr);
            assert!(d < 32);
            assert_eq!(d, f.plane_of(addr), "mapping must be pure");
            // Whole page maps to one plane.
            assert_eq!(f.plane_of(addr & !4095), d);
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let cfg = FlashConfig::default();
        let mut a = FlashArray::new(cfg);
        let mut b = FlashArray::new(cfg);
        for i in 0..100 {
            assert_eq!(
                a.read_page(SimTime::ZERO, i * 4096),
                b.read_page(SimTime::ZERO, i * 4096)
            );
        }
    }

    #[test]
    fn repeated_page_reads_hit_the_register() {
        let mut f = no_jitter(8, 1);
        let r1 = f.read_page(SimTime::ZERO, 0);
        assert_eq!(r1.as_us_f64(), 4.0);
        // Same page again: register read (0.3 us), serialized after r1.
        let r2 = f.read_page(SimTime::ZERO, 64);
        assert!((r2.as_us_f64() - 4.3).abs() < 1e-9, "{r2:?}");
        // A different page on the same plane evicts the register.
        let p0 = f.plane_of(0);
        let other = (1..200)
            .map(|i| i * 4096)
            .find(|&a| f.plane_of(a) == p0)
            .unwrap();
        f.read_page(SimTime::ZERO, other);
        let r4 = f.read_page(SimTime::ZERO, 0);
        // A full tR after the two queued reads: the register was evicted.
        assert!(r4.as_us_f64() > 12.0);
    }

    #[test]
    fn sequential_pages_spread_across_planes() {
        let f = no_jitter(16, 1);
        let mut seen = std::collections::HashSet::new();
        for i in 0..64u64 {
            seen.insert(f.plane_of(i * 4096));
        }
        assert!(seen.len() > 8, "striping too weak: {} planes", seen.len());
    }
}
