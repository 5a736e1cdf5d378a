//! The simulator's future-event queue: one [`BinaryHeap`] min-ordered on
//! `(deadline, push count)`, so events at the same instant pop in push
//! order (FIFO) and a seeded run replays byte for byte;
//! `tests/event_queue_diff_sim.rs` pins whole seeded lossy runs to
//! recorded goldens on top of it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// One scheduled event: ordered by `(at, tiebreak)` only — the payload
/// never participates in comparisons.
struct Entry<T> {
    at: SimTime,
    tiebreak: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.tiebreak == other.tiebreak
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.tiebreak).cmp(&(other.at, other.tiebreak))
    }
}

/// The simulator's future-event queue (see the module docs).
pub struct EventQueue<T> {
    tiebreak: u64,
    heap: BinaryHeap<Reverse<Entry<T>>>,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            tiebreak: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// Schedules `item` at `at`, after everything already scheduled at
    /// the same instant.
    pub fn push(&mut self, at: SimTime, item: T) {
        self.tiebreak += 1;
        self.heap.push(Reverse(Entry {
            at,
            tiebreak: self.tiebreak,
            item,
        }));
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.item))
    }

    /// Deadline of the earliest event without removing it.
    pub fn next_at(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn fifo_within_identical_deadline() {
        let mut q: EventQueue<u64> = EventQueue::new();
        let t = SimTime::from_millis(5);
        q.push(SimTime::from_millis(6), 1_000);
        for i in 0..100u64 {
            q.push(t, i);
        }
        q.push(SimTime::from_millis(4), 1_001);
        assert_eq!(q.pop(), Some((SimTime::from_millis(4), 1_001)));
        let order: Vec<u64> = (0..100).map(|_| q.pop().unwrap().1).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
        assert_eq!(q.pop(), Some((SimTime::from_millis(6), 1_000)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn next_at_matches_pop_and_len_tracks() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.next_at(), None);
        let mut s = 33u64;
        for i in 0..500u32 {
            q.push(SimTime::from_nanos(splitmix(&mut s) % 40_000_000_000), i);
        }
        assert_eq!(q.len(), 500);
        let mut n = 500;
        let mut last = SimTime::ZERO;
        let mut rearms = 0u32;
        while let Some(at) = q.next_at() {
            let (popped_at, _) = q.pop().expect("next_at implies nonempty");
            assert_eq!(at, popped_at);
            assert!(popped_at >= last, "popped deadlines must never decrease");
            last = popped_at;
            n -= 1;
            // Re-arm at or after the popped instant, as the simulator
            // does: same-instant, link-latency and heartbeat deltas.
            if rearms < 2_000 {
                let r = splitmix(&mut s);
                let delta = [0, r % 1_000, r % 80_000_000, 250_000_000][(r % 4) as usize];
                q.push(popped_at + Duration::from_nanos(delta), 500 + rearms);
                rearms += 1;
                n += 1;
            }
            assert_eq!(q.len(), n);
        }
        assert_eq!(rearms, 2_000);
        assert_eq!(n, 0);
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_and_max_deadlines_survive() {
        let mut q: EventQueue<&'static str> = EventQueue::new();
        q.push(SimTime::MAX, "max");
        q.push(SimTime::from_secs(86_400 * 365), "year");
        q.push(SimTime::from_nanos(1), "now");
        assert_eq!(q.pop().unwrap().1, "now");
        assert_eq!(q.pop().unwrap().1, "year");
        assert_eq!(q.pop().unwrap().1, "max");
        assert!(q.pop().is_none());
    }
}
