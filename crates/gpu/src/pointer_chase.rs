//! The pointer-chasing latency microbenchmark of Appendix B.
//!
//! "We allocate a 16-GB block of CXL memory and fill it with 134 million
//! 128-B indices (or pointers) each pointing to the next address to look
//! at. We run a single GPU warp to chase them … The pointers are set in
//! such a way that the GPU has to move randomly in the 16-GB space." Each
//! hop is a dependent 128 B load, so the run time divided by the hop count
//! is the GPU-observed memory latency (Figure 9).
//!
//! We generate the same structure lazily: a pseudo-random permutation walk
//! over 128 B-aligned slots, without materializing the region.

use cxlg_sim::Xoshiro256StarStar;

/// Pointer stride — each pointer occupies 128 B (Appendix B).
pub const POINTER_BYTES: u64 = 128;

/// A deterministic random walk over a region of 128 B pointer slots.
#[derive(Debug, Clone)]
pub struct PointerChase {
    region_bytes: u64,
    rng: Xoshiro256StarStar,
    current: u64,
}

impl PointerChase {
    /// Walk over a region of `region_bytes` (must hold at least two
    /// pointers), starting from slot 0.
    pub fn new(region_bytes: u64, seed: u64) -> Self {
        assert!(
            region_bytes >= 2 * POINTER_BYTES,
            "region too small for pointer chasing"
        );
        PointerChase {
            region_bytes,
            rng: Xoshiro256StarStar::seed_from_u64(seed),
            current: 0,
        }
    }

    /// Number of pointer slots in the region.
    pub fn slots(&self) -> u64 {
        self.region_bytes / POINTER_BYTES
    }

    /// Address of the next dependent load. Never returns the same slot
    /// twice in a row (a self-pointing pointer would end the chase).
    pub fn next_addr(&mut self) -> u64 {
        let slots = self.slots();
        let mut next = self.rng.next_below(slots);
        if next == self.current {
            next = (next + 1) % slots;
        }
        self.current = next;
        next * POINTER_BYTES
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_are_pointer_aligned_and_in_range() {
        let mut pc = PointerChase::new(1 << 20, 1);
        for _ in 0..10_000 {
            let a = pc.next_addr();
            assert_eq!(a % POINTER_BYTES, 0);
            assert!(a < 1 << 20);
        }
    }

    #[test]
    fn no_consecutive_repeats() {
        let mut pc = PointerChase::new(4 * POINTER_BYTES, 7);
        let mut prev = u64::MAX;
        for _ in 0..1000 {
            let a = pc.next_addr();
            assert_ne!(a, prev, "chase stalled on a self-pointer");
            prev = a;
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = PointerChase::new(1 << 16, 42);
        let mut b = PointerChase::new(1 << 16, 42);
        for _ in 0..100 {
            assert_eq!(a.next_addr(), b.next_addr());
        }
        let mut c = PointerChase::new(1 << 16, 43);
        let diffs = (0..100).filter(|_| a.next_addr() != c.next_addr()).count();
        assert!(diffs > 50);
    }

    #[test]
    fn walk_covers_the_region() {
        let mut pc = PointerChase::new(64 * POINTER_BYTES, 3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2000 {
            seen.insert(pc.next_addr());
        }
        assert!(seen.len() > 50, "only {} of 64 slots visited", seen.len());
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_degenerate_region() {
        PointerChase::new(POINTER_BYTES, 1);
    }
}
