//! Deterministic pseudo-random number generation for the simulator.
//!
//! The hardware models and the graph generators in `cxlg-graph` need
//! cheap, seedable randomness (flash die selection, service-time jitter,
//! random-read microbenchmark addresses, edge endpoints, vertex
//! shuffles) that is stable across platforms and releases. We implement
//! SplitMix64 (for seeding) and xoshiro256** (for streams) directly —
//! ~40 lines — as the workspace's one PRNG.

/// SplitMix64: used to expand a single `u64` seed into xoshiro state.
/// (Sebastiano Vigna's public-domain reference algorithm.)
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256**: the workhorse generator. Fast, 256-bit state, passes
/// BigCrush; plenty for simulation jitter and address streams.
#[derive(Debug, Clone)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Seed via SplitMix64 so that any `u64` (including 0) yields a good
    /// state.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Xoshiro256StarStar { s }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)` via Lemire's multiply-shift reduction
    /// (unbiased enough for simulation purposes; exact rejection would cost
    /// a branch we do not need here). Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below(0)");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponentially distributed sample with the given mean. Used for
    /// service-time jitter in device models.
    #[inline]
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        // Avoid ln(0).
        let u = self.next_f64().max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Bernoulli trial with success probability `p`.
    #[inline]
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // First outputs for seed 0 (Vigna's reference implementation).
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = Xoshiro256StarStar::seed_from_u64(42);
        let mut b = Xoshiro256StarStar::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256StarStar::seed_from_u64(1);
        let mut b = Xoshiro256StarStar::seed_from_u64(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn zero_seed_is_fine() {
        let mut r = Xoshiro256StarStar::seed_from_u64(0);
        // Must not collapse to all-zero outputs.
        assert!((0..10).any(|_| r.next_u64() != 0));
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = Xoshiro256StarStar::seed_from_u64(7);
        for _ in 0..10_000 {
            assert!(r.next_below(17) < 17);
        }
        // bound = 1 always yields 0.
        assert_eq!(r.next_below(1), 0);
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut r = Xoshiro256StarStar::seed_from_u64(11);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn exponential_mean() {
        let mut r = Xoshiro256StarStar::seed_from_u64(13);
        let n = 200_000;
        let mean_target = 4.0;
        let sum: f64 = (0..n).map(|_| r.next_exp(mean_target)).sum();
        let mean = sum / n as f64;
        assert!((mean - mean_target).abs() / mean_target < 0.02, "{mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Xoshiro256StarStar::seed_from_u64(3);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>(), "shuffle did nothing");
    }

    #[test]
    fn bernoulli_rate() {
        let mut r = Xoshiro256StarStar::seed_from_u64(5);
        let hits = (0..100_000).filter(|_| r.next_bool(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "{rate}");
    }
}
