//! The simulator's future-event queue: two [`BinaryHeap`]s, one for
//! timers and one for every other event, each min-ordered on
//! `(deadline, push count)`. The count comes from **one** counter shared
//! by both heaps, and [`EventQueue::pop`] takes whichever head has the
//! smaller key, so the two heaps pop in exactly the total order one heap
//! of both kinds would: by deadline, and in push order (FIFO) among
//! events at the same instant. A seeded run replays byte for byte;
//! `tests/event_queue_diff_sim.rs` pins whole seeded lossy runs to
//! recorded goldens on top of it.
//!
//! The split is for speed only. Timers are most of the simulator's pops
//! and their payload is small, so they sift in a heap of small entries
//! instead of one sized for a packet.

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

impl<T> Entry<T> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.tiebreak)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        self.key().cmp(&other.key())
    }
}

/// What [`EventQueue::pop`] took off the queue.
#[derive(Debug, PartialEq, Eq)]
pub enum Popped<E, T> {
    /// An event pushed with [`EventQueue::push`].
    Event(E),
    /// A timer pushed with [`EventQueue::push_timer`].
    Timer(T),
}

/// The simulator's future-event queue (see the module docs): events of
/// type `E` and timers of type `T`.
pub struct EventQueue<E, T> {
    /// Pushes so far, over both heaps: the next entry's tiebreak.
    pushes: u64,
    events: BinaryHeap<Reverse<Entry<E>>>,
    timers: BinaryHeap<Reverse<Entry<T>>>,
}

impl<E, T> Default for EventQueue<E, T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E, T> EventQueue<E, T> {
    /// An empty queue.
    pub fn new() -> EventQueue<E, T> {
        EventQueue {
            pushes: 0,
            events: BinaryHeap::new(),
            timers: BinaryHeap::new(),
        }
    }

    /// The next push's place in the order.
    fn next_key(&mut self) -> u64 {
        self.pushes += 1;
        self.pushes
    }

    /// Schedules `item` at `at`, after everything already scheduled at
    /// the same instant.
    pub fn push(&mut self, at: SimTime, item: E) {
        let tiebreak = self.next_key();
        self.events.push(Reverse(Entry { at, tiebreak, item }));
    }

    /// Schedules the timer `item` at `at`, after everything (timers and
    /// events alike) already scheduled at the same instant.
    pub fn push_timer(&mut self, at: SimTime, item: T) {
        let tiebreak = self.next_key();
        self.timers.push(Reverse(Entry { at, tiebreak, item }));
    }

    /// `true` when the earliest entry is a timer.
    fn timer_first(&self) -> bool {
        match (self.events.peek(), self.timers.peek()) {
            (Some(Reverse(e)), Some(Reverse(t))) => t.key() < e.key(),
            (None, Some(_)) => true,
            (_, None) => false,
        }
    }

    /// Removes and returns the earliest entry, timer or event.
    pub fn pop(&mut self) -> Option<(SimTime, Popped<E, T>)> {
        if self.timer_first() {
            self.timers
                .pop()
                .map(|Reverse(t)| (t.at, Popped::Timer(t.item)))
        } else {
            self.events
                .pop()
                .map(|Reverse(e)| (e.at, Popped::Event(e.item)))
        }
    }

    /// Deadline of the earliest entry without removing it.
    pub fn next_at(&self) -> Option<SimTime> {
        let event = self.events.peek().map(|Reverse(e)| e.at);
        let timer = self.timers.peek().map(|Reverse(t)| t.at);
        match (event, timer) {
            (Some(e), Some(t)) => Some(e.min(t)),
            (e, t) => e.or(t),
        }
    }

    /// Number of scheduled entries, timers included.
    pub fn len(&self) -> usize {
        self.events.len() + self.timers.len()
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    /// The item under either kind, for tests that push the same type
    /// down both lanes.
    fn item<T>(popped: Popped<T, T>) -> T {
        match popped {
            Popped::Event(x) | Popped::Timer(x) => x,
        }
    }

    #[test]
    fn fifo_within_identical_deadline() {
        let mut q: EventQueue<u64, u64> = EventQueue::new();
        let t = SimTime::from_millis(5);
        q.push(SimTime::from_millis(6), 1_000);
        for i in 0..100u64 {
            if i % 3 == 0 {
                q.push_timer(t, i);
            } else {
                q.push(t, i);
            }
        }
        q.push_timer(SimTime::from_millis(4), 1_001);
        assert_eq!(
            q.pop(),
            Some((SimTime::from_millis(4), Popped::Timer(1_001)))
        );
        let order: Vec<u64> = (0..100).map(|_| item(q.pop().unwrap().1)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
        assert_eq!(
            q.pop(),
            Some((SimTime::from_millis(6), Popped::Event(1_000)))
        );
        assert!(q.pop().is_none());
    }

    /// Random pushes down both lanes, re-armed as the simulator does,
    /// pop in exactly the order one heap of all of them gives.
    #[test]
    fn two_heaps_pop_in_one_heaps_order() {
        // Items are numbered in push order, so one heap on `(at, item)`
        // is the single-heap order.
        type Oracle = BinaryHeap<Reverse<(SimTime, u32)>>;
        fn push(
            q: &mut EventQueue<u32, u32>,
            oracle: &mut Oracle,
            s: &mut u64,
            at: SimTime,
            i: u32,
        ) {
            // Timers are most of the simulator's pushes: three in four here.
            if splitmix(s) % 4 < 1 {
                q.push(at, i);
            } else {
                q.push_timer(at, i);
            }
            oracle.push(Reverse((at, i)));
        }
        let mut q = EventQueue::new();
        let mut oracle = Oracle::new();
        let mut s = 33u64;
        for i in 0..500u32 {
            let at = SimTime::from_nanos(splitmix(&mut s) % 40_000_000_000);
            push(&mut q, &mut oracle, &mut s, at, i);
        }
        assert_eq!(q.len(), 500);
        let mut rearms = 0u32;
        let mut last = SimTime::ZERO;
        while let Some(at) = q.next_at() {
            let (popped_at, popped) = q.pop().expect("next_at implies nonempty");
            let Reverse((want_at, want)) = oracle.pop().expect("the oracle holds as many");
            assert_eq!((at, popped_at, item(popped)), (want_at, want_at, want));
            assert!(popped_at >= last, "popped deadlines must never decrease");
            last = popped_at;
            // Re-arm at or after the popped instant, as the simulator
            // does: same-instant, link-latency and heartbeat deltas.
            if rearms < 2_000 {
                let r = splitmix(&mut s);
                let delta = [0, r % 1_000, r % 80_000_000, 250_000_000][(r % 4) as usize];
                let at = popped_at + Duration::from_nanos(delta);
                push(&mut q, &mut oracle, &mut s, at, 500 + rearms);
                rearms += 1;
            }
            assert_eq!(q.len(), oracle.len());
        }
        assert_eq!(rearms, 2_000);
        assert!(q.is_empty() && oracle.is_empty());
    }

    #[test]
    fn far_future_and_max_deadlines_survive() {
        let mut q: EventQueue<&'static str, &'static str> = EventQueue::new();
        q.push(SimTime::MAX, "max");
        q.push_timer(SimTime::from_secs(86_400 * 365), "year");
        q.push(SimTime::from_nanos(1), "now");
        assert_eq!(q.next_at(), Some(SimTime::from_nanos(1)));
        assert_eq!(item(q.pop().unwrap().1), "now");
        assert_eq!(item(q.pop().unwrap().1), "year");
        assert_eq!(q.next_at(), Some(SimTime::MAX));
        assert_eq!(item(q.pop().unwrap().1), "max");
        assert!(q.pop().is_none());
        assert_eq!(q.next_at(), None);
    }
}
