//! Measurement primitives: online moments of the per-request latency
//! that feed the per-run metrics reported by the figure harnesses.

use serde::{Deserialize, Serialize};

/// Welford online mean/variance with min/max tracking.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another accumulator into this one (parallel reduction).
    ///
    /// The merge is *exact* in the sense the shard runner needs: it is a
    /// pure function of the two accumulators' field values (Chan et al.'s
    /// pairwise update), so folding the same shards in the same order
    /// always produces bit-identical results. It is **not** exactly
    /// associative in floating point — merging in a different order can
    /// change low-order bits — which is why every parallel consumer must
    /// fold shards in a fixed, input-defined order (see
    /// [`OnlineStats::merge_ordered`]).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        let mean = self.mean + d * other.n as f64 / n as f64;
        let m2 =
            self.m2 + other.m2 + d * d * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Fold `shards` left-to-right into one accumulator. The reduction
    /// order is the iteration order — callers hand shards over in a
    /// deterministic, input-defined order (shard index), which is what
    /// makes the merged statistics byte-identical at any thread count.
    pub fn merge_ordered<'a>(shards: impl IntoIterator<Item = &'a OnlineStats>) -> OnlineStats {
        let mut acc = OnlineStats::new();
        for s in shards {
            acc.merge(s);
        }
        acc
    }

    /// Bit-exact digest of the accumulator state (count, mean, m2,
    /// min, max, by their raw bit patterns). Two accumulators fingerprint
    /// equal iff they would serialize identically — the differential
    /// test harness uses this to catch *any* divergence in a parallel
    /// reduction, including low-order float bits that approximate
    /// comparisons would wave through.
    pub fn fingerprint(&self) -> u64 {
        // SplitMix64 over the five field words; order-sensitive.
        let mut h: u64 = 0x9E3779B97F4A7C15;
        for w in [
            self.n,
            self.mean.to_bits(),
            self.m2.to_bits(),
            self.min.to_bits(),
            self.max.to_bits(),
        ] {
            h ^= w;
            h = h.wrapping_mul(0xBF58476D1CE4E5B9);
            h ^= h >> 27;
            h = h.wrapping_mul(0x94D049BB133111EB);
            h ^= h >> 31;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic_moments() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_merge_equals_sequential() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        xs.iter().for_each(|&x| whole.push(x));
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        xs[..400].iter().for_each(|&x| left.push(x));
        xs[400..].iter().for_each(|&x| right.push(x));
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
    }

    #[test]
    fn merge_ordered_equals_manual_fold_bit_for_bit() {
        // Three shards with deliberately awkward values; the helper must
        // reproduce the exact left-to-right fold, bitwise.
        let mut shards = vec![OnlineStats::new(), OnlineStats::new(), OnlineStats::new()];
        for (i, s) in shards.iter_mut().enumerate() {
            for k in 0..50 + i {
                s.push(((i * 37 + k) as f64).sin() * 1e3);
            }
        }
        let merged = OnlineStats::merge_ordered(shards.iter());
        let mut manual = OnlineStats::new();
        for s in &shards {
            manual.merge(s);
        }
        assert_eq!(merged.fingerprint(), manual.fingerprint());
        assert_eq!(merged.mean().to_bits(), manual.mean().to_bits());
    }

    #[test]
    fn fingerprint_detects_any_field_tamper() {
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for x in [1.0, 2.5, -3.0, 7.25] {
            a.push(x);
            b.push(x);
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
        // One extra observation — or a re-streamed (rather than merged)
        // reduction — must change the digest.
        b.push(1e-9);
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Even a tamper that keeps the mean identical is caught.
        let mut c = a.clone();
        c.push(a.mean());
        assert!((c.mean() - a.mean()).abs() < 1e-12);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(3.0);
        let before = a.mean();
        a.merge(&OnlineStats::new());
        assert_eq!(a.mean(), before);
        let mut empty = OnlineStats::new();
        empty.merge(&a);
        assert_eq!(empty.mean(), before);
    }
}
