//! BaM-style software cache in GPU onboard memory.
//!
//! §3.3.2: "BaM implements a software cache on the GPU memory and reads
//! data at a cache line granularity", so its transfer size equals its
//! alignment (`d = a`). §3.1 notes the paper's RAF numbers come from "CPU
//! simulation implementing a software cache to experiment with alignment
//! sizes without hardware constraints" — this module is that simulation:
//! a set-associative cache with per-set LRU, configurable line size (the
//! alignment `a`) and capacity. UVM's page residency (§6) is the same
//! structure at 4 kB lines.
//!
//! The cache is pure LRU state: [`SoftwareCache::access`] says whether a
//! line hit, and callers count hits, misses and fetched bytes themselves.

use serde::{Deserialize, Serialize};

/// Associativity of every software cache.
const WAYS: u32 = 16;

/// Software cache geometry (always 16-way set-associative).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SoftwareCacheConfig {
    /// Total capacity in bytes (GPU memory budget; BaM dedicates most of
    /// the onboard memory to this).
    pub capacity_bytes: u64,
    /// Cache line size = the access alignment `a`.
    pub line_bytes: u64,
}

impl SoftwareCacheConfig {
    /// Standard geometry: 16-way, given capacity and line size.
    pub fn new(capacity_bytes: u64, line_bytes: u64) -> Self {
        SoftwareCacheConfig {
            capacity_bytes,
            line_bytes,
        }
    }

    /// Number of sets implied by the geometry (at least 1).
    fn num_sets(&self) -> u64 {
        (self.capacity_bytes / self.line_bytes / WAYS as u64).max(1)
    }

    /// Lines held at capacity.
    fn num_lines(&self) -> u64 {
        self.num_sets() * WAYS as u64
    }
}

/// Set-associative software cache over abstract line IDs
/// (`line_id = byte_offset / line_bytes`).
#[derive(Debug, Clone)]
pub struct SoftwareCache {
    cfg: SoftwareCacheConfig,
    /// Every set's [`WAYS`] slots in one array, set after set. A set is
    /// an LRU stack, most recent first, with its [`EMPTY`] slots at the
    /// tail: lines are only ever inserted at the front and evicted from
    /// the back.
    slots: Vec<u64>,
    /// Number of sets.
    sets: u64,
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
        }
    }

    /// The geometry in use.
    pub fn config(&self) -> &SoftwareCacheConfig {
        &self.cfg
    }

    /// Touch `line`, making it the most recent in its set; returns
    /// whether it was already resident (a miss evicts the set's least
    /// recent line once the set is full).
    pub fn access(&mut self, line: u64) -> bool {
        debug_assert_ne!(line, EMPTY, "line ID collides with the empty-slot sentinel");
        // Avalanche the line ID so strided access patterns spread over
        // sets, as BaM's hash-partitioned cache does.
        let mut z = line.wrapping_mul(0x9E3779B97F4A7C15);
        z ^= z >> 29;
        let start = (z % self.sets) as usize * WAYS as usize;
        let set = &mut self.slots[start..start + WAYS as usize];
        match set.iter().position(|&l| l == line) {
            Some(pos) => {
                // Move to MRU position.
                set[..=pos].rotate_right(1);
                true
            }
            None => {
                // The LRU slot goes to the front: an empty way, or the
                // victim.
                set.rotate_right(1);
                set[0] = line;
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_lines(lines: u64, line_bytes: u64) -> SoftwareCache {
        SoftwareCache::new(SoftwareCacheConfig::new(lines * line_bytes, line_bytes))
    }

    /// Hits over `lines` touched in order.
    fn hits(c: &mut SoftwareCache, lines: impl IntoIterator<Item = u64>) -> usize {
        lines.into_iter().filter(|&l| c.access(l)).count()
    }

    #[test]
    fn geometry_math() {
        let cfg = SoftwareCacheConfig::new(1 << 20, 4096);
        assert_eq!(cfg.num_lines(), 256);
        assert_eq!(cfg.num_sets(), 16);
        // Degenerate tiny capacity still has one full set.
        let tiny = SoftwareCacheConfig::new(4096, 4096);
        assert_eq!(tiny.num_sets(), 1);
        assert_eq!(tiny.num_lines(), WAYS as u64);
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = with_lines(64, 4096);
        assert!(!c.access(7));
        assert!(c.access(7));
        assert!(!c.access(8));
    }

    #[test]
    fn lru_evicts_least_recent_within_set() {
        // One set of 16 ways: fill it, re-touch line 0 so line 1 is the
        // least recent, then insert a 17th line.
        let mut c = with_lines(WAYS as u64, 4096);
        assert_eq!(hits(&mut c, 0..16), 0);
        assert!(c.access(0));
        assert!(!c.access(16), "a 17th line misses");
        assert!(c.access(0), "the re-touched line survives");
        assert!(!c.access(1), "the least recent line was evicted");
    }

    #[test]
    fn fetched_bytes_counts_misses_times_line() {
        let mut c = with_lines(1024, 512);
        let misses = 100 - hits(&mut c, 0..100);
        assert_eq!(misses as u64 * c.config().line_bytes, 100 * 512);
        assert_eq!(
            hits(&mut c, 0..100),
            100,
            "the second pass hits: half of all accesses"
        );
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = with_lines(64, 4096);
        // Cycle through 4x capacity twice: second pass mostly misses.
        let h = hits(&mut c, (0..2).flat_map(|_| 0..256u64));
        assert!(h < 512 / 5, "LRU cycling should thrash, {h} hits of 512");
    }

    #[test]
    fn working_set_within_capacity_hits_after_warmup() {
        let mut c = with_lines(256, 4096);
        assert_eq!(hits(&mut c, 0..128u64), 0, "cold pass");
        for pass in 1..4 {
            for line in 0..128u64 {
                assert!(c.access(line), "pass {pass} line {line}");
            }
        }
    }

    #[test]
    fn strided_lines_spread_over_sets() {
        // Power-of-two strides are the classic set-conflict pathology;
        // the hashed indexing should keep the conflict-miss rate low.
        let mut c = with_lines(1024, 4096);
        let stride = 64u64; // would all land in one set without hashing
        let strided = || (0..512u64).map(|i| i * stride);
        hits(&mut c, strided());
        // Working set (512 lines) is half of capacity: after warmup
        // nearly everything should hit.
        let warm = hits(&mut c, (0..3).flat_map(|_| strided()));
        assert!(
            warm * 100 >= 95 * 3 * 512,
            "hashed sets should avoid stride conflicts, {warm} hits of {}",
            3 * 512
        );
    }
}
