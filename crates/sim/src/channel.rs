//! Bandwidth-serialized FIFO channel.
//!
//! Models a transmission resource (one direction of a PCIe link, a DRAM
//! channel, a flash-die data bus): transfers are serialized back-to-back at
//! the channel rate, so a transfer submitted while the channel is busy
//! starts when the previous one finishes. This single `next_free` register
//! is exactly the behaviour that makes aggregate throughput obey
//! `T <= W` (Equation 2's third term) in the full-system simulation.

use crate::time::{Bandwidth, SimTime};

/// One direction of a shared link, serializing transfers at a fixed rate.
#[derive(Debug, Clone)]
pub struct BandwidthChannel {
    rate: Bandwidth,
    next_free: SimTime,
}

impl BandwidthChannel {
    /// A channel with the given line rate.
    pub fn new(rate: Bandwidth) -> Self {
        BandwidthChannel {
            rate,
            next_free: SimTime::ZERO,
        }
    }

    /// Submit a transfer of `bytes` at time `now`; returns the completion
    /// time (when the last byte has left the channel).
    ///
    /// FIFO ordering is inherent: each call pushes `next_free` forward, so
    /// later submissions finish later.
    #[inline]
    pub fn transmit(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = now.max(self.next_free);
        self.next_free = start + self.rate.transfer_time(bytes);
        self.next_free
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gbps(g: u64) -> Bandwidth {
        Bandwidth::from_mb_per_sec(g * 1_000)
    }

    #[test]
    fn idle_channel_starts_immediately() {
        let mut ch = BandwidthChannel::new(gbps(1));
        // 1000 bytes at 1 GB/s = 1 us.
        let done = ch.transmit(SimTime::ZERO, 1000);
        assert_eq!(done.as_us_f64(), 1.0);
    }

    #[test]
    fn busy_channel_serializes() {
        let mut ch = BandwidthChannel::new(gbps(1));
        let d1 = ch.transmit(SimTime::ZERO, 1000);
        let d2 = ch.transmit(SimTime::ZERO, 1000);
        assert_eq!(d2.as_us_f64(), 2.0);
        assert!(d2 > d1);
        // A transfer arriving after the channel drained starts at its own time.
        let d3 = ch.transmit(SimTime(10 * 1_000_000), 1000);
        assert_eq!(d3.as_us_f64(), 11.0);
    }

    #[test]
    fn throughput_never_exceeds_rate() {
        let mut ch = BandwidthChannel::new(Bandwidth::from_mb_per_sec(24_000));
        let mut last = SimTime::ZERO;
        for _ in 0..10_000 {
            last = ch.transmit(SimTime::ZERO, 128);
        }
        let achieved = 10_000.0 * 128.0 / 1e6 / last.as_secs_f64();
        assert!(
            achieved <= 24_000.0 + 1.0,
            "achieved {achieved} MB/s exceeds line rate"
        );
        // And it should be *at* the line rate when saturated.
        assert!(achieved > 23_900.0, "achieved {achieved} MB/s");
    }
}
