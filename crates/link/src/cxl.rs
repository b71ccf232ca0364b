//! CXL.mem protocol framing.
//!
//! §3.5.3 of the paper: the CXL specification provides 16 tag bits (65,536
//! outstanding requests) so the protocol itself is not the concurrency
//! limit — individual devices are (the Agilex-7 prototype handles 128).
//! The CXL data transfer size is **64 B**, so larger GPU reads are split:
//! *"a 128 B or 96 B read from the GPU through PCIe is split into two 64 B
//! reads at the CXL level, \[so\] the number of requests for the CXL memory
//! can double"* (§4.2.2).

use cxlg_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// CXL.mem access granularity in bytes.
pub const CXL_FLIT_BYTES: u64 = 64;

/// Per-port CXL interface configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CxlPortConfig {
    /// One-way protocol/port processing latency in picoseconds. Fig. 9
    /// shows CXL(+0) ≈ host DRAM + 0.5 µs; we attribute that 0.5 µs to the
    /// CXL port (0.25 µs each way).
    pub port_latency_ps: u64,
    /// Number of CXL.mem instances exposed by the device (the prototype in
    /// Fig. 7 has two, bridged onto a single DRAM channel).
    pub mem_instances: u32,
}

impl Default for CxlPortConfig {
    fn default() -> Self {
        CxlPortConfig {
            port_latency_ps: 250_000,
            mem_instances: 2,
        }
    }
}

impl CxlPortConfig {
    /// One-way port latency.
    pub fn port_latency(&self) -> SimDuration {
        SimDuration::from_ps(self.port_latency_ps)
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_port_adds_half_microsecond_round_trip() {
        let port = CxlPortConfig::default();
        assert!((2.0 * port.port_latency().as_us_f64() - 0.5).abs() < 1e-9);
        assert_eq!(port.mem_instances, 2);
    }
}
