//! BaM-style software cache in GPU onboard memory.
//!
//! §3.3.2: "BaM implements a software cache on the GPU memory and reads
//! data at a cache line granularity", so its transfer size equals its
//! alignment (`d = a`). §3.1 notes the paper's RAF numbers come from "CPU
//! simulation implementing a software cache to experiment with alignment
//! sizes without hardware constraints" — this module is that simulation:
//! a set-associative cache with per-set LRU, configurable line size (the
//! alignment `a`) and capacity.

use serde::{Deserialize, Serialize};

/// Software cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SoftwareCacheConfig {
    /// Total capacity in bytes (GPU memory budget; BaM dedicates most of
    /// the onboard memory to this).
    pub capacity_bytes: u64,
    /// Cache line size = the access alignment `a`.
    pub line_bytes: u64,
    /// Associativity.
    pub ways: u32,
}

impl SoftwareCacheConfig {
    /// Standard geometry: 16-way, given capacity and line size.
    pub fn new(capacity_bytes: u64, line_bytes: u64) -> Self {
        SoftwareCacheConfig {
            capacity_bytes,
            line_bytes,
            ways: 16,
        }
    }

    /// Number of sets implied by the geometry (at least 1).
    fn num_sets(&self) -> u64 {
        (self.capacity_bytes / self.line_bytes / self.ways as u64).max(1)
    }

    /// Lines held at capacity.
    fn num_lines(&self) -> u64 {
        self.num_sets() * self.ways as u64
    }
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Line already resident.
    Hit,
    /// Line fetched; an older line may have been evicted.
    Miss {
        /// Evicted line ID, if the set was full.
        evicted: Option<u64>,
    },
}

/// Set-associative software cache over abstract line IDs
/// (`line_id = byte_offset / line_bytes`).
#[derive(Debug, Clone)]
pub struct SoftwareCache {
    cfg: SoftwareCacheConfig,
    /// Every set's `ways` slots in one array, set after set. A set is an
    /// LRU stack, most recent first, with its [`EMPTY`] slots at the
    /// tail: lines are only ever inserted at the front and evicted from
    /// the back.
    slots: Vec<u64>,
    /// Number of sets.
    sets: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// The slot value of a set's unused ways. A real line ID would need a
/// byte offset of `u64::MAX` at a 1-byte line.
const EMPTY: u64 = u64::MAX;

impl SoftwareCache {
    /// Build an empty cache.
    pub fn new(cfg: SoftwareCacheConfig) -> Self {
        SoftwareCache {
            cfg,
            slots: vec![EMPTY; cfg.num_lines() as usize],
            sets: cfg.num_sets(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The geometry in use.
    pub fn config(&self) -> &SoftwareCacheConfig {
        &self.cfg
    }

    /// The slots of the set `line` maps to.
    #[inline]
    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        // Avalanche the line ID so strided access patterns spread over
        // sets, as BaM's hash-partitioned cache does.
        let mut z = line.wrapping_mul(0x9E3779B97F4A7C15);
        z ^= z >> 29;
        let ways = self.cfg.ways as usize;
        let start = (z % self.sets) as usize * ways;
        start..start + ways
    }

    /// Touch `line`; returns whether it hit and what was evicted.
    pub fn access(&mut self, line: u64) -> AccessOutcome {
        debug_assert_ne!(line, EMPTY, "line ID collides with the empty-slot sentinel");
        let range = self.set_range(line);
        let set = &mut self.slots[range];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            // Move to MRU position.
            set[..=pos].rotate_right(1);
            self.hits += 1;
            return AccessOutcome::Hit;
        }
        self.misses += 1;
        // The LRU slot goes to the front: an empty way, or the victim.
        set.rotate_right(1);
        let evicted = std::mem::replace(&mut set[0], line);
        if evicted == EMPTY {
            AccessOutcome::Miss { evicted: None }
        } else {
            self.evictions += 1;
            AccessOutcome::Miss {
                evicted: Some(evicted),
            }
        }
    }

    /// Is `line` currently resident (no LRU update)?
    pub fn contains(&self, line: u64) -> bool {
        line != EMPTY && self.slots[self.set_range(line)].contains(&line)
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Bytes fetched from the backing device (`misses * line_bytes`).
    pub fn fetched_bytes(&self) -> u64 {
        self.misses * self.cfg.line_bytes
    }

    /// Hit rate over all accesses.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(lines: u64, ways: u32, line_bytes: u64) -> SoftwareCache {
        SoftwareCache::new(SoftwareCacheConfig {
            capacity_bytes: lines * line_bytes,
            line_bytes,
            ways,
        })
    }

    #[test]
    fn geometry_math() {
        let cfg = SoftwareCacheConfig::new(1 << 20, 4096);
        assert_eq!(cfg.num_lines(), 256);
        assert_eq!(cfg.num_sets(), 16);
        assert_eq!(cfg.ways, 16);
        // Degenerate tiny capacity still has one set.
        let tiny = SoftwareCacheConfig::new(4096, 4096);
        assert_eq!(tiny.num_sets(), 1);
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = small(64, 4, 4096);
        assert!(matches!(c.access(7), AccessOutcome::Miss { evicted: None }));
        assert_eq!(c.access(7), AccessOutcome::Hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.fetched_bytes(), 4096, "one miss fetches one line");
        assert!(c.contains(7));
        assert!(!c.contains(8));
    }

    #[test]
    fn lru_evicts_least_recent_within_set() {
        // Single set, 2 ways: A, B, touch A, insert C -> evicts B.
        let mut c = small(2, 2, 4096);
        c.access(1);
        c.access(2);
        c.access(1); // A is now MRU
        match c.access(3) {
            AccessOutcome::Miss { evicted: Some(v) } => assert_eq!(v, 2),
            other => panic!("expected eviction of 2, got {other:?}"),
        }
        assert!(c.contains(1));
        assert!(!c.contains(2));
    }

    #[test]
    fn fetched_bytes_counts_misses_times_line() {
        let mut c = small(1024, 16, 512);
        for line in 0..100 {
            c.access(line);
        }
        assert_eq!(c.fetched_bytes(), 100 * 512);
        assert_eq!(c.hit_rate(), 0.0);
        for line in 0..100 {
            c.access(line);
        }
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = small(64, 16, 4096);
        // Cycle through 4x capacity twice: second pass mostly misses.
        for _ in 0..2 {
            for line in 0..256u64 {
                c.access(line);
            }
        }
        assert!(
            c.hit_rate() < 0.2,
            "LRU cycling should thrash, hit rate {}",
            c.hit_rate()
        );
    }

    #[test]
    fn working_set_within_capacity_hits_after_warmup() {
        let mut c = small(256, 16, 4096);
        for pass in 0..4 {
            for line in 0..128u64 {
                let out = c.access(line);
                if pass > 0 {
                    assert_eq!(out, AccessOutcome::Hit, "pass {pass} line {line}");
                }
            }
        }
    }

    #[test]
    fn strided_lines_spread_over_sets() {
        // Power-of-two strides are the classic set-conflict pathology;
        // the hashed indexing should keep the conflict-miss rate low.
        let mut c = small(1024, 16, 4096);
        let stride = 64u64; // would all land in one set without hashing
        for rep in 0..4 {
            for i in 0..512u64 {
                let out = c.access(i * stride);
                if rep > 0 {
                    // Working set (512 lines) is half of capacity: after
                    // warmup nearly everything should hit.
                    let _ = out;
                }
            }
        }
        assert!(
            c.hit_rate() > 0.6,
            "hashed sets should avoid stride conflicts, hit rate {}",
            c.hit_rate()
        );
    }
}
