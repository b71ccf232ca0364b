//! The latency bridge of Appendix A (Figure 12).
//!
//! The paper's CXL prototype inserts a configurable delay between the
//! DRAM and the CXL interface: *"We add a time stamp to an incoming read
//! request, read data from the DRAM, and push it to a FIFO along with the
//! time stamp. When the current time becomes greater than the time stamp
//! of the FIFO head by a specified additional latency, the data is popped
//! and sent to the CPU."* Because the Agilex-7 CXL interface processes
//! requests **in order**, a plain FIFO suffices; the paper notes an
//! out-of-order CXL interface would need "a slightly more involved
//! design" — we implement that variant too ([`BridgeOrdering::OutOfOrder`])
//! for the ablation benches.

use cxlg_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Response ordering discipline of the bridge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BridgeOrdering {
    /// Responses leave in request order (the FPGA prototype's behaviour).
    InOrder,
    /// Responses leave as soon as their own delay expires (the
    /// "slightly more involved design" of Appendix A).
    OutOfOrder,
}

/// The timestamped-FIFO delay element.
#[derive(Debug, Clone)]
pub struct LatencyBridge {
    added: SimDuration,
    ordering: BridgeOrdering,
    /// In-order mode: release time of the previous response.
    prev_release: SimTime,
}

impl LatencyBridge {
    /// Bridge adding `added` latency with the given ordering.
    pub fn new(added: SimDuration, ordering: BridgeOrdering) -> Self {
        LatencyBridge {
            added,
            ordering,
            prev_release: SimTime::ZERO,
        }
    }

    /// The configured additional latency.
    pub fn added_latency(&self) -> SimDuration {
        self.added
    }

    /// Compute when a response is released to the CXL interface.
    ///
    /// * `stamped` — when the request entered the bridge (its timestamp);
    /// * `data_ready` — when the DRAM produced the data.
    ///
    /// The pop rule is `max(data_ready, stamped + added)`, and in in-order
    /// mode additionally `>= previous release`.
    #[inline]
    pub fn release(&mut self, stamped: SimTime, data_ready: SimTime) -> SimTime {
        debug_assert!(data_ready >= stamped, "data ready before request arrived");
        let own = data_ready.max(stamped + self.added);
        let out = match self.ordering {
            BridgeOrdering::InOrder => own.max(self.prev_release),
            BridgeOrdering::OutOfOrder => own,
        };
        self.prev_release = match self.ordering {
            BridgeOrdering::InOrder => out,
            // OoO mode does not constrain successors.
            BridgeOrdering::OutOfOrder => self.prev_release.max(out),
        };
        out
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(x: f64) -> SimDuration {
        SimDuration::from_us(x)
    }

    fn at(x: f64) -> SimTime {
        SimTime::ZERO + us(x)
    }

    #[test]
    fn adds_configured_latency() {
        let mut b = LatencyBridge::new(us(2.0), BridgeOrdering::InOrder);
        // Request stamped at 1.0, DRAM answers at 1.1 -> released at 3.0.
        let rel = b.release(at(1.0), at(1.1));
        assert_eq!(rel, at(3.0));
    }

    #[test]
    fn zero_added_latency_passes_through() {
        let mut b = LatencyBridge::new(SimDuration::ZERO, BridgeOrdering::InOrder);
        assert_eq!(b.release(at(1.0), at(1.2)), at(1.2));
    }

    #[test]
    fn slow_dram_dominates_short_delay() {
        let mut b = LatencyBridge::new(us(0.5), BridgeOrdering::InOrder);
        // DRAM takes 2 us (> 0.5 us bridge delay): release at data_ready.
        assert_eq!(b.release(at(0.0), at(2.0)), at(2.0));
    }

    #[test]
    fn in_order_head_of_line_blocking() {
        let mut b = LatencyBridge::new(us(1.0), BridgeOrdering::InOrder);
        // First request is late (stamped 0, data at 5 -> release 5).
        let r1 = b.release(at(0.0), at(5.0));
        assert_eq!(r1, at(5.0));
        // Second request would be ready at 2.0 on its own, but FIFO order
        // holds it behind the first.
        let r2 = b.release(at(1.0), at(1.1));
        assert_eq!(r2, at(5.0));
    }

    #[test]
    fn out_of_order_releases_independently() {
        let mut b = LatencyBridge::new(us(1.0), BridgeOrdering::OutOfOrder);
        let r1 = b.release(at(0.0), at(5.0));
        assert_eq!(r1, at(5.0));
        let r2 = b.release(at(1.0), at(1.1));
        assert_eq!(r2, at(2.0), "OoO must not block behind the slow head");
    }
}
