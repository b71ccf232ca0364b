//! In-order event lanes: a future-event list that is a FIFO whenever the
//! events arrive in time order.
//!
//! A [`Lane`] pops `(time, seq, item)` entries in `(time, seq)` order,
//! exactly like a binary heap keyed on the pair, for any push order. A
//! push at or after the time of the lane's newest FIFO entry appends to
//! the FIFO in O(1); only an earlier push goes to a small overflow heap.
//! The FIFO stays sorted because `seq` is the caller's counter and only
//! grows, so a pop takes the smaller of two heads.
//!
//! A lane is for events that arrive *mostly* in time order. The engine
//! in `cxlg-core` keeps its response segments in one: device ready times
//! are in order on one DRAM channel and out of order on flash media with
//! plane jitter. Events that are scheduled in nondecreasing time by
//! construction (a warp's next pull, a FIFO server's completions, a tag
//! pool's releases) need no sequence stamps and no heap; a plain
//! `VecDeque` with an order assert holds them.

use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

#[derive(Debug, Clone)]
struct Entry<T> {
    time: SimTime,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

// Entries order by key alone; the item is never compared.
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A min-ordered event list over `(time, seq)` keys: a FIFO for in-order
/// pushes plus an overflow heap for the rest.
///
/// `seq` must strictly increase across the pushes into one lane; ties
/// in time then pop in push order.
#[derive(Debug, Clone)]
pub struct Lane<T> {
    fifo: VecDeque<Entry<T>>,
    heap: BinaryHeap<Reverse<Entry<T>>>,
}

impl<T> Default for Lane<T> {
    fn default() -> Self {
        Lane {
            fifo: VecDeque::new(),
            heap: BinaryHeap::new(),
        }
    }
}

impl<T> Lane<T> {
    /// An empty lane.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `item` due at `time`, with sequence number `seq`.
    #[inline]
    pub fn push(&mut self, time: SimTime, seq: u64, item: T) {
        let entry = Entry { time, seq, item };
        match self.fifo.back() {
            Some(back) if time < back.time => self.heap.push(Reverse(entry)),
            back => {
                debug_assert!(back.is_none_or(|b| seq > b.seq), "seq must increase");
                self.fifo.push_back(entry);
            }
        }
    }

    /// Whether the heap holds the smallest entry.
    #[inline]
    fn heap_first(&self) -> bool {
        match (self.fifo.front(), self.heap.peek()) {
            (Some(f), Some(Reverse(h))) => h.key() < f.key(),
            (None, h) => h.is_some(),
            (Some(_), None) => false,
        }
    }

    /// `(time, seq)` of the entry [`Lane::pop`] returns next.
    #[inline]
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        if self.heap_first() {
            self.heap.peek().map(|Reverse(h)| h.key())
        } else {
            self.fifo.front().map(Entry::key)
        }
    }

    /// Remove the entry with the smallest `(time, seq)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let e = if self.heap_first() {
            self.heap.pop().map(|Reverse(h)| h)
        } else {
            self.fifo.pop_front()
        }?;
        Some((e.time, e.item))
    }

    /// Number of pending entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.fifo.len() + self.heap.len()
    }

    /// True when no entries are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty() && self.heap.is_empty()
    }

    /// Free the lane's storage. Panics unless the lane is empty.
    pub fn release(&mut self) {
        assert!(self.is_empty(), "released a lane with pending entries");
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;

    /// Push `items` at their times with sequence numbers 0, 1, 2, ….
    fn lane_of<T: Copy>(items: &[(u64, T)]) -> Lane<T> {
        let mut lane = Lane::new();
        for (seq, &(t, x)) in items.iter().enumerate() {
            lane.push(SimTime(t), seq as u64, x);
        }
        lane
    }

    #[test]
    fn pops_in_time_order() {
        let mut lane = lane_of(&[(30, "c"), (10, "a"), (20, "b")]);
        assert_eq!(lane.peek_key(), Some((SimTime(10), 1)));
        assert_eq!(lane.pop(), Some((SimTime(10), "a")));
        assert_eq!(lane.pop(), Some((SimTime(20), "b")));
        assert_eq!(lane.pop(), Some((SimTime(30), "c")));
        assert_eq!(lane.pop(), None);
        assert_eq!(lane.peek_key(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let items: Vec<(u64, u32)> = (0..100).map(|i| (5, i)).collect();
        let mut lane = lane_of(&items);
        for i in 0..100u32 {
            assert_eq!(lane.pop().unwrap().1, i);
        }
    }

    #[test]
    fn schedule_now_runs_after_existing_same_time_events() {
        // 'a' overflows to the heap behind 'x'. 'b', scheduled later for
        // the same instant as 'a', also overflows and pops after it; 'y'
        // ties with 'x' in the FIFO and pops after it.
        let mut lane = lane_of(&[(20, 'x'), (10, 'a')]);
        lane.push(SimTime(10), 2, 'b');
        lane.push(SimTime(20), 3, 'y');
        let order: Vec<char> = std::iter::from_fn(|| lane.pop().map(|(_, c)| c)).collect();
        assert_eq!(order, ['a', 'b', 'x', 'y']);
    }

    #[test]
    fn len_counts_both_queues() {
        let mut lane = lane_of(&[(5, ()), (1, ()), (9, ())]);
        assert_eq!(lane.len(), 3);
        assert!(!lane.is_empty());
        while lane.pop().is_some() {}
        assert_eq!(lane.len(), 0);
        assert!(lane.is_empty());
    }

    #[test]
    fn release_frees_storage_and_the_lane_stays_usable() {
        let mut lane = lane_of(&[(5, 1), (1, 2), (9, 3)]);
        while lane.pop().is_some() {}
        lane.release();
        assert_eq!((lane.fifo.capacity(), lane.heap.capacity()), (0, 0));
        lane.push(SimTime(4), 10, 7);
        assert_eq!(lane.pop(), Some((SimTime(4), 7)));
    }

    #[test]
    #[should_panic(expected = "pending entries")]
    fn release_of_a_pending_lane_panics() {
        lane_of(&[(5, ())]).release();
    }

    #[test]
    fn interleaved_schedule_and_pop_is_causal() {
        // A small cascade: each event schedules a successor; times must be
        // non-decreasing throughout.
        let mut lane = Lane::new();
        let mut seq = 0u64;
        lane.push(SimTime(1), seq, 0u32);
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, depth)) = lane.pop() {
            assert!(t >= last);
            last = t;
            count += 1;
            if depth < 50 {
                seq += 1;
                lane.push(SimTime(t.0 + depth as u64 % 7), seq, depth + 1);
            }
        }
        assert_eq!(count, 51);
    }

    #[test]
    fn matches_a_reference_heap_under_random_interleavings() {
        // Times come from a narrow, drifting window, so pushes land in
        // order, out of order, and on equal times; every so often the
        // lane is drained to empty.
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x1a4e);
        let mut lane = Lane::new();
        let mut reference: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut base = 0u64;
        let mut prev = SimTime::ZERO;
        let mut out_of_order = 0;
        for step in 0..20_000u64 {
            if step % 2_500 == 2_499 {
                while let Some(Reverse(want)) = reference.pop() {
                    assert_eq!(lane.pop(), Some(want));
                }
                assert!(lane.is_empty());
                continue;
            }
            if rng.next_below(3) < 2 {
                let t = SimTime(base + rng.next_below(8));
                out_of_order += (t < prev) as u32;
                prev = t;
                lane.push(t, seq, seq);
                reference.push(Reverse((t, seq)));
                seq += 1;
                base += rng.next_below(3);
            } else {
                let want = reference.pop().map(|Reverse(k)| k);
                assert_eq!(lane.peek_key(), want);
                assert_eq!(lane.pop(), want);
            }
            assert_eq!(lane.len(), reference.len());
        }
        assert!(out_of_order > 100, "{out_of_order} out-of-order pushes");
    }
}
