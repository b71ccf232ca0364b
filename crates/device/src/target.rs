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

/// A passive timing model of an external memory or storage device.
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

    /// Smallest address alignment the device supports for reads.
    fn alignment(&self) -> u64;

    /// Largest single-request transfer, if bounded (XLFDD: 2 kB).
    fn max_transfer(&self) -> Option<u64> {
        None
    }

    /// Short human-readable device kind for reports.
    fn kind(&self) -> &'static str;

    /// Reads served so far.
    fn reads_served(&self) -> u64;

    /// Bytes of response data produced so far.
    fn bytes_served(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial fixed-latency device used to validate the trait contract
    /// and as a reference point for the real models.
    struct FixedLatency {
        latency_ps: u64,
        reads: u64,
        bytes: u64,
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
            self.reads += 1;
            self.bytes += bytes;
            ready
        }
        fn alignment(&self) -> u64 {
            1
        }
        fn kind(&self) -> &'static str {
            "fixed"
        }
        fn reads_served(&self) -> u64 {
            self.reads
        }
        fn bytes_served(&self) -> u64 {
            self.bytes
        }
    }

    #[test]
    fn trait_contract() {
        let mut d = FixedLatency {
            latency_ps: 1000,
            reads: 0,
            bytes: 0,
        };
        let mut out = Vec::new();
        let ready = d.read(SimTime(5), 0, 64, &mut out);
        assert_eq!(ready, SimTime(1005));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].bytes, 64);
        assert_eq!(d.reads_served(), 1);
        assert_eq!(d.bytes_served(), 64);
        assert_eq!(d.max_transfer(), None);
    }
}
