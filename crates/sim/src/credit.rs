//! Credit pool: a counting semaphore for outstanding-request limits.
//!
//! The PCIe specification bounds the number of outstanding non-posted reads
//! (`Nmax` = 256 for Gen3, 768 for Gen4/5 — §3.2 of the paper), and the CXL
//! prototype's FPGA bounds its own tags at 128 (§4.2.2). Both are modeled
//! as a `CreditPool`: issuing a read acquires a credit and the completion
//! releases it. Would-be issuers that find the pool full are the driver's
//! to queue: a credit handed straight from a completing request to a
//! waiting one never returns to the pool, which changes neither the in-use
//! count nor its integral. Little's Law (`N d = T L`, Equation 3) then
//! emerges from the simulation rather than being asserted.

use crate::time::SimTime;

/// A counting semaphore that integrates its in-use count over time.
#[derive(Debug, Clone)]
pub struct CreditPool {
    capacity: u64,
    available: u64,
    /// Time-weighted accumulator of in-use credits, for measuring the mean
    /// number of outstanding requests (the `N` in Little's Law).
    in_use_weighted: u128,
    last_update: SimTime,
    high_water: u64,
}

impl CreditPool {
    /// Pool with `capacity` credits, all initially available.
    pub fn new(capacity: u64) -> Self {
        CreditPool {
            capacity,
            available: capacity,
            in_use_weighted: 0,
            last_update: SimTime::ZERO,
            high_water: 0,
        }
    }

    fn advance(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_update).as_ps() as u128;
        self.in_use_weighted += dt * (self.capacity - self.available) as u128;
        self.last_update = self.last_update.max(now);
    }

    /// Try to take one credit at `now`; `false` if every credit is held.
    #[inline]
    pub fn try_acquire(&mut self, now: SimTime) -> bool {
        self.advance(now);
        if self.available > 0 {
            self.available -= 1;
            self.high_water = self.high_water.max(self.capacity - self.available);
            true
        } else {
            false
        }
    }

    /// Return one credit to the pool at `now`. Panics, in release builds
    /// too, if no credit is held.
    #[inline]
    pub fn release(&mut self, now: SimTime) {
        self.advance(now);
        assert!(self.available < self.capacity, "release without acquire");
        self.available += 1;
    }

    /// Whether every credit is held.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.available == 0
    }

    /// Credits currently held.
    #[inline]
    pub fn in_use(&self) -> u64 {
        self.capacity - self.available
    }

    /// Maximum simultaneous credits ever held.
    #[inline]
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Time-averaged number of credits in use over `[0, now]` — the mean
    /// outstanding-request count `N` of Little's Law.
    pub fn mean_in_use(&mut self, now: SimTime) -> f64 {
        self.advance(now);
        if now.as_ps() == 0 {
            return 0.0;
        }
        self.in_use_weighted as f64 / now.as_ps() as f64
    }

    /// Exact credit·picosecond integral of in-use credits over `[0, now]`
    /// — the numerator of [`CreditPool::mean_in_use`], exposed as an
    /// integer so independently simulated round shards can sum their
    /// integrals and take a *single* division, reproducing the coupled
    /// run's mean bit-for-bit instead of averaging per-shard floats.
    pub fn in_use_integral(&mut self, now: SimTime) -> u128 {
        self.advance(now);
        self.in_use_weighted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_until_exhausted() {
        let mut p = CreditPool::new(3);
        assert!(p.try_acquire(SimTime::ZERO));
        assert!(p.try_acquire(SimTime::ZERO));
        assert!(!p.is_full());
        assert!(p.try_acquire(SimTime::ZERO));
        assert!(p.is_full());
        assert!(!p.try_acquire(SimTime::ZERO));
        assert_eq!(p.in_use(), 3);
        assert_eq!(p.high_water(), 3);
    }

    #[test]
    fn release_returns_credit_when_no_waiters() {
        let mut p = CreditPool::new(1);
        assert!(p.try_acquire(SimTime::ZERO));
        p.release(SimTime(10));
        assert_eq!(p.in_use(), 0);
        assert!(p.try_acquire(SimTime(10)));
    }

    #[test]
    fn a_hand_off_that_skips_the_pool_keeps_its_integral() {
        // A credit passed from a completing holder to a waiting one at
        // 5 ps either returns to the pool and is taken again at once, or
        // never touches the pool; the in-use integral and the high water
        // mark agree.
        let mut via_pool = CreditPool::new(1);
        let mut handed = CreditPool::new(1);
        for p in [&mut via_pool, &mut handed] {
            assert!(p.try_acquire(SimTime::ZERO));
        }
        via_pool.release(SimTime(5));
        assert!(via_pool.try_acquire(SimTime(5)));
        for p in [&mut via_pool, &mut handed] {
            p.release(SimTime(7));
            assert_eq!(p.in_use_integral(SimTime(9)), 7);
            assert_eq!(p.high_water(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "release without acquire")]
    fn release_without_acquire_panics() {
        let mut p = CreditPool::new(2);
        assert!(p.try_acquire(SimTime::ZERO));
        p.release(SimTime(1));
        p.release(SimTime(2));
    }

    #[test]
    fn mean_in_use_is_time_weighted() {
        let mut p = CreditPool::new(4);
        // 2 credits held for the whole first microsecond...
        assert!(p.try_acquire(SimTime::ZERO));
        assert!(p.try_acquire(SimTime::ZERO));
        p.release(SimTime(1_000_000));
        p.release(SimTime(1_000_000));
        // ...then zero held for the second microsecond.
        let mean = p.mean_in_use(SimTime(2_000_000));
        assert!((mean - 1.0).abs() < 1e-9, "{mean}");
    }

    #[test]
    fn in_use_integral_is_the_exact_mean_numerator() {
        let mut p = CreditPool::new(4);
        assert!(p.try_acquire(SimTime::ZERO));
        assert!(p.try_acquire(SimTime::ZERO));
        p.release(SimTime(1_000_000));
        p.release(SimTime(1_500_000));
        // 2 credits for 1 ms + 1 credit for 0.5 ms = 2.5e6 credit·ps.
        let end = SimTime(2_000_000);
        assert_eq!(p.in_use_integral(end), 2_500_000);
        let mean = p.mean_in_use(end);
        assert_eq!(mean.to_bits(), (2_500_000f64 / 2_000_000f64).to_bits());
    }

    #[test]
    fn littles_law_shape() {
        // Hold exactly c credits continuously; mean in-use == c.
        let mut p = CreditPool::new(8);
        for _ in 0..8 {
            assert!(p.try_acquire(SimTime::ZERO));
        }
        let mean = p.mean_in_use(SimTime(1_000));
        assert!((mean - 8.0).abs() < 1e-9);
    }
}
