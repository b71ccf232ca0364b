//! PCIe link parameters: generations, effective bandwidth, and the
//! outstanding-read tag limit `Nmax`.
//!
//! §3.2 of the paper: *"consider a PCIe Gen 4.0 x16 link supported by
//! modern GPUs. Then Nmax = 768 due to the PCIe specification, and
//! W = 24,000 MB/sec, for which we use an effective bandwidth rather than
//! the theoretical value of 31,500 MB/sec."* §3.5: Nmax is 256 for
//! Gen 3.0 and 768 for Gen 4.0 and 5.0.

use cxlg_sim::{Bandwidth, SimDuration};
use serde::{Deserialize, Serialize};

/// PCIe generation of the GPU link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PcieGen {
    /// PCIe 3.0 — 256 outstanding reads, ~12 GB/s effective at x16.
    Gen3,
    /// PCIe 4.0 — 768 outstanding reads, ~24 GB/s effective at x16.
    Gen4,
    /// PCIe 5.0 — 768 outstanding reads, ~48 GB/s effective at x16.
    Gen5,
}

impl PcieGen {
    /// Maximum outstanding non-posted read requests (`Nmax`, §3.2/§3.5).
    pub fn nmax_outstanding(self) -> u64 {
        match self {
            PcieGen::Gen3 => 256,
            PcieGen::Gen4 | PcieGen::Gen5 => 768,
        }
    }

    /// Effective data bandwidth of a x16 link in MB/s (the paper's `W`:
    /// 12,000 for Gen3 per §4.2.2, 24,000 for Gen4 per §3.2; Gen5 doubles
    /// Gen4 per the Discussion section).
    fn effective_mb_per_sec_x16(self) -> u64 {
        match self {
            PcieGen::Gen3 => 12_000,
            PcieGen::Gen4 => 24_000,
            PcieGen::Gen5 => 48_000,
        }
    }

}

/// A configured PCIe link (generation + lane count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PcieLinkConfig {
    /// Link generation.
    pub gen: PcieGen,
    /// Lane count (1, 2, 4, 8, or 16).
    pub lanes: u32,
    /// One-way propagation + root-complex processing delay in picoseconds.
    /// The GPU-observed host-DRAM latency of ~1.1–1.2 µs (Fig. 9) is
    /// calibrated as `2 * propagation + DRAM device latency`.
    pub propagation_ps: u64,
}

impl PcieLinkConfig {
    /// Default one-way propagation (0.4 µs, so ~0.8 µs of the Fig. 9
    /// round trip is attributed to the link and root complex).
    const DEFAULT_PROPAGATION_PS: u64 = 400_000;

    /// A x16 GPU link of the given generation with default propagation.
    pub fn x16(gen: PcieGen) -> Self {
        PcieLinkConfig {
            gen,
            lanes: 16,
            propagation_ps: Self::DEFAULT_PROPAGATION_PS,
        }
    }

    /// Effective bandwidth `W` scaled by lane count.
    pub fn bandwidth(&self) -> Bandwidth {
        let mb = self.gen.effective_mb_per_sec_x16() as u128 * self.lanes as u128 / 16;
        Bandwidth::from_mb_per_sec(mb as u64)
    }

    /// Outstanding-read limit `Nmax` (a property of the protocol/credits,
    /// not of lane count).
    pub fn nmax(&self) -> u64 {
        self.gen.nmax_outstanding()
    }

    /// One-way propagation delay.
    pub fn propagation(&self) -> SimDuration {
        SimDuration::from_ps(self.propagation_ps)
    }

    /// Wire cost of a read *request* TLP. Read requests carry no payload;
    /// we charge the 24-byte TLP header against the (otherwise idle)
    /// request-direction bandwidth.
    pub const REQUEST_TLP_BYTES: u64 = 24;

    /// Per-completion header overhead added to response payloads.
    ///
    /// Zero by design: the paper's `W` is an **effective** bandwidth
    /// ("24,000 MB/sec ... rather than the theoretical value of 31,500",
    /// §3.2), i.e. TLP/DLLP framing overhead is already discounted.
    /// Charging headers again on top of the effective rate would
    /// double-count ~17% of goodput at 96 B payloads and push saturated
    /// runs below `W`.
    pub const COMPLETION_HEADER_BYTES: u64 = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        // §3.2 and §4.2.2 of the paper.
        assert_eq!(PcieGen::Gen4.nmax_outstanding(), 768);
        assert_eq!(PcieGen::Gen3.nmax_outstanding(), 256);
        assert_eq!(PcieGen::Gen5.nmax_outstanding(), 768);
        assert_eq!(PcieGen::Gen4.effective_mb_per_sec_x16(), 24_000);
        assert_eq!(PcieGen::Gen3.effective_mb_per_sec_x16(), 12_000);
    }

    #[test]
    fn lane_scaling() {
        let x16 = PcieLinkConfig::x16(PcieGen::Gen4);
        let x4 = PcieLinkConfig { lanes: 4, ..x16 };
        assert_eq!(x16.bandwidth().mb_per_sec(), 24_000.0);
        assert_eq!(x4.bandwidth().mb_per_sec(), 6_000.0);
        assert_eq!(x16.nmax(), x4.nmax(), "Nmax is not lane-scaled");
    }

    #[test]
    fn gen3_halves_gen4() {
        // §4.2.2: "With PCIe Gen 3.0 x16 link ... the effective bandwidth
        // is halved as W = 12,000 MB/sec".
        let g3 = PcieLinkConfig::x16(PcieGen::Gen3).bandwidth().mb_per_sec();
        let g4 = PcieLinkConfig::x16(PcieGen::Gen4).bandwidth().mb_per_sec();
        assert_eq!(g3 * 2.0, g4);
    }

    #[test]
    fn serialization_times_are_sane() {
        // 128 B at Gen4 x16: ~5.3 ns; the request TLP is about 1 ns.
        let l = PcieLinkConfig::x16(PcieGen::Gen4);
        assert_eq!(l.propagation().as_us_f64(), 0.4);
        let resp = l.bandwidth().transfer_time(128);
        assert!((resp.as_ns_f64() - 5.33).abs() < 0.1);
        let req = l.bandwidth().transfer_time(PcieLinkConfig::REQUEST_TLP_BYTES);
        assert!(req.as_ns_f64() < 1.5);
    }
}
