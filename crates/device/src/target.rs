//! The device-facing read interface shared by all external-memory models.
//!
//! A device consumes a read `(addr, bytes)` arriving at some instant and
//! reports **when response data leaves the device**, broken into segments
//! (CXL returns per-64 B flit; storage devices DMA the payload as one
//! burst). The DES driver in `cxlg-core` then serializes those segments
//! onto the shared PCIe return channel, which is where the paper's
//! bandwidth bottleneck `W` lives.

use cxlg_sim::SimTime;

/// One chunk of response data leaving a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadSegment {
    /// When this segment's data is ready at the device output.
    pub ready: SimTime,
    /// Segment payload size in bytes.
    pub bytes: u64,
}

/// A passive timing model of an external memory or storage device: one
/// read in, its response timing out. The quantities the paper reduces a
/// device to (service rate, latency, internal bandwidth) live inside each
/// model; alignment and transfer limits belong to the access method that
/// plans the requests, and each drive asserts its own in `read`.
///
/// `Send`, so a chained engine can take its levels on whichever pool
/// worker planned them.
pub trait MemoryTarget: Send {
    /// Process a read of `bytes` at device-local address `addr` arriving
    /// at `t_arrive`. Pushes one or more [`ReadSegment`]s (in
    /// ready-time order) onto `out` and returns the instant the *last*
    /// segment is ready (the request's device-side completion).
    ///
    /// `out` is an out-parameter so the hot path can reuse its allocation.
    fn read(&mut self, t_arrive: SimTime, addr: u64, bytes: u64, out: &mut Vec<ReadSegment>)
        -> SimTime;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial fixed-latency device used to validate the trait contract
    /// and as a reference point for the real models.
    struct FixedLatency {
        latency_ps: u64,
    }

    impl MemoryTarget for FixedLatency {
        fn read(
            &mut self,
            t: SimTime,
            _addr: u64,
            bytes: u64,
            out: &mut Vec<ReadSegment>,
        ) -> SimTime {
            let ready = t + cxlg_sim::SimDuration::from_ps(self.latency_ps);
            out.push(ReadSegment { ready, bytes });
            ready
        }
    }

    #[test]
    fn trait_contract() {
        let mut d = FixedLatency { latency_ps: 1000 };
        let mut out = Vec::new();
        let ready = d.read(SimTime(5), 0, 64, &mut out);
        assert_eq!(ready, SimTime(1005));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].bytes, 64);
    }
}
