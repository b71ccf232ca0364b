//! Rate-limited server: models a device's IOPS ceiling.
//!
//! A server with rate `S` ops/sec accepts at most one operation start per
//! `1/S` interval; operations arriving faster queue up. This produces the
//! `T <= S * d` term of the paper's throughput model (Equation 2's first
//! term) in the full-system simulation. For multi-unit devices (16 XLFDD
//! drives, multiple flash dies) use one `RateServer` per unit and route by
//! address, or a single server with the aggregate rate when unit-level
//! detail is not needed.

use crate::time::{SimDuration, SimTime, PS_PER_S};

/// A FIFO server admitting one operation start per `1/rate` interval.
#[derive(Debug, Clone)]
pub struct RateServer {
    /// Minimum spacing between operation starts, in ps.
    interval: SimDuration,
    next_slot: SimTime,
}

impl RateServer {
    /// Server with the given operation rate (ops per second). A rate of 0
    /// means "never admits" (slot times saturate to the far future).
    fn from_ops_per_sec(rate: f64) -> Self {
        assert!(rate >= 0.0, "negative rate");
        let interval = if rate == 0.0 {
            SimDuration(u64::MAX)
        } else {
            SimDuration((PS_PER_S as f64 / rate).round().max(1.0) as u64)
        };
        RateServer {
            interval,
            next_slot: SimTime::ZERO,
        }
    }

    /// Server admitting operations at `mega_ops` million operations/sec
    /// (the paper quotes device random-read performance in MIOPS).
    pub fn from_miops(mega_ops: f64) -> Self {
        Self::from_ops_per_sec(mega_ops * 1e6)
    }

    /// Admit an operation arriving at `now`; returns the time its service
    /// *starts* (>= now).
    #[inline]
    pub fn admit(&mut self, now: SimTime) -> SimTime {
        let start = now.max(self.next_slot);
        self.next_slot = start + self.interval;
        start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spacing_is_one_over_rate() {
        // 1 MIOPS => 1 us between starts.
        let mut s = RateServer::from_miops(1.0);
        let t0 = s.admit(SimTime::ZERO);
        let t1 = s.admit(SimTime::ZERO);
        let t2 = s.admit(SimTime::ZERO);
        assert_eq!(t0, SimTime::ZERO);
        assert_eq!(t1.as_us_f64(), 1.0);
        assert_eq!(t2.as_us_f64(), 2.0);
    }

    #[test]
    fn slack_arrivals_are_not_delayed() {
        let mut s = RateServer::from_miops(1.0);
        s.admit(SimTime::ZERO);
        // Arrives 10 us later, long after the next slot opened.
        let t = s.admit(SimTime(10_000_000));
        assert_eq!(t.as_us_f64(), 10.0);
    }

    #[test]
    fn achieved_rate_matches_configured_when_saturated() {
        let mut s = RateServer::from_miops(11.0); // one XLFDD drive
        let mut last = SimTime::ZERO;
        for _ in 0..100_000 {
            last = s.admit(SimTime::ZERO);
        }
        let achieved = 100_000.0 / last.as_secs_f64() / 1e6;
        assert!((achieved - 11.0).abs() / 11.0 < 0.01, "{achieved} MIOPS");
    }

    #[test]
    fn zero_rate_saturates() {
        let mut s = RateServer::from_ops_per_sec(0.0);
        let t0 = s.admit(SimTime::ZERO);
        assert_eq!(t0, SimTime::ZERO);
        // The second op never gets a slot (saturated far future).
        let t1 = s.admit(SimTime::ZERO);
        assert_eq!(t1, SimTime::MAX);
    }
}
