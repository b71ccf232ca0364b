//! Simulated time: picosecond-resolution instants, durations, and bandwidths.
//!
//! All hardware latencies in the paper are quoted in nanoseconds or
//! microseconds and all bandwidths in MB/s; the constructors below mirror
//! those units so model code reads like the paper (`SimDuration::from_us(1.2)`,
//! `Bandwidth::from_mb_per_sec(24_000)`).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Picoseconds per nanosecond.
const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per second.
pub const PS_PER_S: u64 = 1_000_000_000_000;

/// An instant in simulated time, measured in picoseconds from simulation
/// start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(pub u64);

/// A span of simulated time in picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Raw picosecond count.
    #[inline]
    pub fn as_ps(self) -> u64 {
        self.0
    }

    /// This instant expressed in (fractional) nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// This instant expressed in (fractional) microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// This instant expressed in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from integer picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> SimDuration {
        SimDuration(ps)
    }

    /// Construct from (possibly fractional) microseconds.
    #[inline]
    pub fn from_us(us: f64) -> SimDuration {
        debug_assert!(us >= 0.0, "negative duration: {us} us");
        SimDuration((us * PS_PER_US as f64).round() as u64)
    }

    /// Raw picosecond count.
    #[inline]
    pub fn as_ps(self) -> u64 {
        self.0
    }

    /// This duration in (fractional) nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// This duration in (fractional) microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// This duration in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Longer of two durations.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Shorter of two durations.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}us", self.as_us_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

/// A data rate in bytes per second, with exact integer conversion to
/// per-byte serialization delays.
///
/// Stored as bytes/sec; transfer times are computed in `u128` to avoid
/// overflow (`bytes * PS_PER_S` exceeds `u64` for transfers over ~18 MB).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Construct from MB/s (decimal megabytes, as used throughout the paper).
    #[inline]
    pub const fn from_mb_per_sec(mb: u64) -> Bandwidth {
        Bandwidth(mb * 1_000_000)
    }

    /// The rate in MB/s (decimal).
    #[inline]
    pub fn mb_per_sec(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time to serialize `bytes` at this rate (rounded up to the next
    /// picosecond so back-to-back transfers can never exceed the rate).
    /// Transfers up to ~18 MB take a `u64` division; larger ones the
    /// `u128` path, with the same result.
    #[inline]
    pub fn transfer_time(self, bytes: u64) -> SimDuration {
        if self.0 == 0 {
            return SimDuration(u64::MAX);
        }
        match bytes.checked_mul(PS_PER_S) {
            Some(n) => SimDuration(n.div_ceil(self.0)),
            None => self.transfer_time_wide(bytes),
        }
    }

    /// [`Bandwidth::transfer_time`] in `u128`, saturating; the rate must
    /// be nonzero.
    fn transfer_time_wide(self, bytes: u64) -> SimDuration {
        let ps = (bytes as u128 * PS_PER_S as u128).div_ceil(self.0 as u128);
        SimDuration(ps.min(u64::MAX as u128) as u64)
    }
}

impl fmt::Debug for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}MB/s", self.mb_per_sec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_convert() {
        assert_eq!(SimDuration::from_ps(1_000).as_ns_f64(), 1.0);
        assert_eq!(SimDuration::from_us(1.0).as_ps(), 1_000_000);
        assert_eq!(SimDuration::from_ps(PS_PER_S).as_secs_f64(), 1.0);
        assert!((SimDuration::from_us(1.2).as_us_f64() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn fractional_nanoseconds_round() {
        // 0.0005 us = 500 ps exactly
        assert_eq!(SimDuration::from_us(0.0005).as_ps(), 500);
        // 89.6 B at 24 GB/s is ~3.73 ns; check no truncation-to-zero.
        let bw = Bandwidth::from_mb_per_sec(24_000);
        assert!(bw.transfer_time(90).as_ps() > 0);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_ps(10_000);
        assert_eq!(t.as_ps(), 10_000);
        let t2 = t + SimDuration::from_ps(5_000);
        assert_eq!(t2.saturating_since(t).as_ps(), 5_000);
        assert_eq!(t.saturating_since(t2).as_ps(), 0);
        assert_eq!(t.max(t2), t2);
        assert_eq!(t.min(t2), t);
    }

    #[test]
    fn time_add_assign() {
        let mut t = SimTime::ZERO;
        t += SimDuration::from_us(2.0);
        assert_eq!(t.as_us_f64(), 2.0);
    }

    #[test]
    fn saturating_behaviour() {
        let big = SimTime(u64::MAX - 10);
        let t = big + SimDuration::from_ps(PS_PER_S);
        assert_eq!(t, SimTime::MAX);
        assert_eq!(SimDuration(5) - SimDuration(10), SimDuration::ZERO);
    }

    #[test]
    fn bandwidth_serialization_delay() {
        // PCIe Gen4 x16 effective: 24,000 MB/s. 128 B should take
        // 128 / 24e9 s = 5.333... ns.
        let bw = Bandwidth::from_mb_per_sec(24_000);
        let d = bw.transfer_time(128);
        assert!((d.as_ns_f64() - 5.333).abs() < 0.01, "{d:?}");
    }

    #[test]
    fn zero_bandwidth_is_infinite_delay() {
        let bw = Bandwidth(0);
        assert_eq!(bw.transfer_time(1).as_ps(), u64::MAX);
    }

    #[test]
    fn transfer_time_rounds_up() {
        // 3 bytes at 1 GB/s = 3 ns exactly = 3000 ps.
        let bw = Bandwidth::from_mb_per_sec(1_000);
        assert_eq!(bw.transfer_time(3).as_ps(), 3_000);
        // 1 byte at 3 bytes/sec: 1/3 s, must round UP.
        let slow = Bandwidth(3);
        assert_eq!(slow.transfer_time(1).as_ps(), PS_PER_S / 3 + 1);
    }

    #[test]
    fn u64_fast_path_matches_the_u128_path() {
        // The presets' rates in MB/s: PCIe x4 and x16 links of Gen3/4/5
        // (3,000-48,000), XLFDD and NVMe drive links (3,000 and 6,000),
        // the CXL expander's onboard DRAM (5,700), and host DRAM (10,000
        // and 200,000); plus rates that make the rounding bite.
        let rates = [3_000, 5_700, 6_000, 10_000, 12_000, 24_000, 48_000, 200_000]
            .map(Bandwidth::from_mb_per_sec)
            .into_iter()
            .chain([1, 3, 7, u64::MAX].map(Bandwidth));
        let edge = u64::MAX / PS_PER_S;
        let sizes = [0, 1, 24, 64, 4096, 2 << 20, edge - 1, edge, edge + 1];
        for bw in rates {
            for bytes in sizes.into_iter().chain([u64::MAX]) {
                assert_eq!(
                    bw.transfer_time(bytes),
                    bw.transfer_time_wide(bytes),
                    "{bw:?}, {bytes} B"
                );
            }
        }
        // The fast path covers exactly the multiplications that fit.
        assert!(edge.checked_mul(PS_PER_S).is_some());
        assert!((edge + 1).checked_mul(PS_PER_S).is_none());
    }

    #[test]
    fn duration_scalar_ops() {
        let d = SimDuration::from_ps(10_000);
        assert_eq!(d.max(SimDuration::from_ps(20_000)).as_ns_f64(), 20.0);
        assert_eq!(d.min(SimDuration::from_ps(20_000)).as_ns_f64(), 10.0);
    }

    #[test]
    fn display_formats() {
        let t = SimTime::ZERO + SimDuration::from_us(1.5);
        assert_eq!(format!("{t}"), "1.500us");
        assert_eq!(format!("{}", SimDuration::from_us(0.25)), "0.250us");
    }
}
