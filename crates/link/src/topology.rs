//! Dual-socket system topology (Figure 8 of the paper).
//!
//! The evaluation machine has two CPUs; the GPU hangs off CPU 1. DRAM 0
//! and CXL devices 0–2 are attached to CPU 0, DRAM 1 and CXL devices 3–4
//! to CPU 1. Accesses from the GPU to a device on the *other* socket cross
//! the inter-CPU link and observe a marginally longer latency — the
//! solid-filled vs. hollow bars of Figure 9.

use cxlg_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// A CPU socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Socket {
    /// CPU 0 (far from the GPU).
    Cpu0,
    /// CPU 1 (the GPU's socket).
    Cpu1,
}

/// Where a memory device lives in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DevicePlacement {
    /// Attachment socket.
    pub socket: Socket,
}

impl DevicePlacement {
    /// Attached to the GPU's socket (CPU 1), like DRAM 1 / CXL 3.
    pub fn near() -> Self {
        DevicePlacement {
            socket: Socket::Cpu1,
        }
    }

    /// Attached to the far socket (CPU 0), like DRAM 0 / CXL 0.
    pub fn far() -> Self {
        DevicePlacement {
            socket: Socket::Cpu0,
        }
    }
}

/// System topology: which socket the GPU is on and the inter-CPU hop cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    /// The GPU's socket (CPU 1 in Fig. 8).
    pub gpu_socket: Socket,
    /// One-way inter-CPU (UPI) hop latency in picoseconds. Fig. 9 shows
    /// DRAM 0 / CXL 0 only "marginally" slower than DRAM 1 / CXL 3; we
    /// default to 50 ns each way (0.1 µs round trip).
    pub upi_hop_ps: u64,
}

impl Default for Topology {
    fn default() -> Self {
        Topology {
            gpu_socket: Socket::Cpu1,
            upi_hop_ps: 50_000,
        }
    }
}

impl Topology {
    /// Extra one-way latency for the GPU to reach a device at `placement`.
    pub fn socket_penalty(&self, placement: DevicePlacement) -> SimDuration {
        if placement.socket == self.gpu_socket {
            SimDuration::ZERO
        } else {
            SimDuration::from_ps(self.upi_hop_ps)
        }
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_devices_have_no_penalty() {
        let t = Topology::default();
        assert_eq!(t.socket_penalty(DevicePlacement::near()), SimDuration::ZERO);
    }

    #[test]
    fn far_devices_pay_the_upi_hop() {
        let t = Topology::default();
        assert_eq!(
            t.socket_penalty(DevicePlacement::far()).as_ns_f64(),
            50.0
        );
    }

    #[test]
    fn custom_gpu_socket_flips_penalties() {
        let t = Topology {
            gpu_socket: Socket::Cpu0,
            upi_hop_ps: 70_000,
        };
        assert_eq!(t.socket_penalty(DevicePlacement::far()), SimDuration::ZERO);
        assert_eq!(t.socket_penalty(DevicePlacement::near()).as_ns_f64(), 70.0);
    }
}
