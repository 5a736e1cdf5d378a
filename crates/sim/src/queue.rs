//! The simulator's future-event queue: a hierarchical timer wheel.
//!
//! Profiling showed [`crate::world::World`]'s event-queue pops dominating
//! the DIS-scenario step rate once sites × receivers grows past a few
//! hundred hosts — exactly the dense heartbeat/timer traffic LBRM §2.1
//! generates. A single [`BinaryHeap`] pays O(log n) compares *and moves*
//! per pop; the hierarchical timer wheel's push and pop are amortized
//! O(1).
//!
//! # Shape
//!
//! Virtual time is bucketed into ticks of `2^22` ns (≈4.2 ms). The wheel
//! has [`LEVELS`] levels of [`SLOTS`] slots each; a level-`l` slot spans
//! `256^l` ticks, so level 0 covers deadlines up to ≈1.07 s away (one
//! tick per slot), level 1 up to ≈4.6 min, and six levels cover the
//! entire `u64` nanosecond range. The tick size is tuned (empirically,
//! against the DIS-scenario step rate) to the traffic the scenario
//! actually schedules: per-link latencies from [`crate::topology`] (a
//! few to ~80 ms) and the heartbeat band (`h_min` = 250 ms) land in
//! level 0, so the common case is a single bucket push with no cascade;
//! only the idle `h_max` backoff tail (seconds) sits higher.
//!
//! Events whose deadline falls inside the currently *open* tick live in
//! `near`, a [`BinaryHeap`] min-ordered on `(deadline, tiebreak)`: a
//! drained bucket becomes the heap in one O(n) heapify, and a push into
//! the open tick (a same-tick fan-out or re-arm) is an O(log n) sift.
//! Advancing the clock drains the next occupied slot into `near`
//! (level 0) or cascades it one level down (levels ≥ 1); per-level
//! occupancy bitmaps make "find the next occupied slot" a handful of
//! word scans instead of a walk over empty buckets.
//!
//! # Determinism
//!
//! Pop order is **exactly** a binary heap's: strictly increasing
//! `(deadline, tiebreak)` with the tiebreak assigned at push (FIFO within
//! a deadline). The wheel only ever partitions events by time bucket —
//! the `near` heap restores the total order inside a bucket, buckets are
//! opened in time order, and cascading moves events between buckets
//! without reordering them. This module's tests hold the wheel to that
//! claim against a plain `BinaryHeap` oracle under random interleaved
//! churn; `tests/event_queue_diff_sim.rs` pins whole seeded lossy runs
//! to recorded goldens on top of it.

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

/// log2 of the tick size in nanoseconds: `2^22` ns ≈ 4.2 ms per tick.
///
/// Re-measured at the 1000-site × 30-receiver regime (~100k+ resident
/// events): shifts 18/20 (finer) and 26 (coarser) all
/// lose 10–25% on the `dis_scenario_1000x30` workload, 24 is within
/// noise of 22. The scenario's dominant deltas (5–80 ms links, 250 ms
/// heartbeat) land in level 0 at 22 with small enough buckets that the
/// ready-list batch sort stays cheap.
const GRANULARITY_SHIFT: u32 = 22;
/// log2 of the slots per level.
const LEVEL_BITS: u32 = 8;
/// Slots per level (`2^LEVEL_BITS`).
const SLOTS: usize = 1 << LEVEL_BITS;
/// Levels: 6 × 8 bits of tick ≥ the 42 tick bits a `u64` of nanoseconds
/// leaves after the granularity shift, so any `SimTime` is addressable.
const LEVELS: usize = 6;
/// Words in a level's occupancy bitmap.
const WORDS: usize = SLOTS / 64;

/// One wheel level: `SLOTS` buckets plus an occupancy bitmap so the next
/// occupied bucket is found by word scans, not a slot walk.
struct Level<T> {
    slots: Vec<Vec<Entry<T>>>,
    occupied: [u64; WORDS],
    count: usize,
}

impl<T> Level<T> {
    fn new() -> Level<T> {
        Level {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            count: 0,
        }
    }
}

/// Slot index of `tick` at `level` (its residue in that level's rotation).
#[inline]
fn slot_index(tick: u64, level: usize) -> usize {
    ((tick >> (LEVEL_BITS as usize * level)) & (SLOTS as u64 - 1)) as usize
}

/// Level housing an event `delta` ticks ahead of the open tick
/// (`delta ≥ 1`). Level `l` takes `delta ∈ (256^l, 256^(l+1)]` — the
/// *inclusive* upper bound (one full rotation ahead, which aliases onto
/// the current slot index) is what the distance-256 case of
/// [`next_occupied`] exists for.
#[inline]
fn level_for(delta: u64) -> usize {
    let d = delta - 1;
    if d == 0 {
        0
    } else {
        (((63 - d.leading_zeros()) / LEVEL_BITS) as usize).min(LEVELS - 1)
    }
}

/// Distance (in slots, `1..=SLOTS`) and index of the next occupied slot
/// strictly after `idx`, wrapping circularly; `idx` itself is reported at
/// distance `SLOTS` (an event one full rotation ahead).
fn next_occupied(occ: &[u64; WORDS], idx: usize) -> Option<(u64, usize)> {
    let mut scanned = 0usize;
    while scanned < SLOTS {
        let pos = (idx + 1 + scanned) & (SLOTS - 1);
        let word = pos / 64;
        let bit = pos % 64;
        let w = occ[word] >> bit;
        if w != 0 {
            let t = w.trailing_zeros() as usize;
            if scanned + t < SLOTS {
                let dist = (scanned + t + 1) as u64;
                return Some((dist, (idx + dist as usize) & (SLOTS - 1)));
            }
        }
        scanned += 64 - bit;
    }
    None
}

/// The hierarchical timer wheel.
struct Wheel<T> {
    /// The open tick: events at `tick <= cur` live in `near`.
    cur: u64,
    /// Events inside the open tick, a min-heap on `(at, tiebreak)`.
    ///
    /// This was a descending-sorted `Vec` with exact-position inserts
    /// until the 1000-site regime: a single heartbeat fan-out there
    /// lands tens of thousands of LAN deliveries inside one 4.2 ms
    /// tick, and O(n) `Vec::insert` per same-tick push turns that burst
    /// into O(n²) memmoves. A binary heap keeps the burst at
    /// O(n log n) while popping the identical `(at, tiebreak)` order
    /// (tiebreaks are unique, so heap ordering is total).
    near: BinaryHeap<Reverse<Entry<T>>>,
    levels: Vec<Level<T>>,
    /// Events resident in wheel slots (excludes `near`).
    resident: usize,
}

impl<T> Wheel<T> {
    fn new() -> Wheel<T> {
        Wheel {
            cur: 0,
            near: BinaryHeap::new(),
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            resident: 0,
        }
    }

    fn push(&mut self, e: Entry<T>) {
        let tick = e.at.nanos() >> GRANULARITY_SHIFT;
        if tick <= self.cur {
            self.near.push(Reverse(e));
            return;
        }
        let level = level_for(tick - self.cur);
        let slot = slot_index(tick, level);
        let lv = &mut self.levels[level];
        lv.slots[slot].push(e);
        lv.occupied[slot / 64] |= 1 << (slot % 64);
        lv.count += 1;
        self.resident += 1;
    }

    /// Moves the clock to the next occupied bucket, draining it into
    /// `near` (level 0) or cascading it a level down (levels ≥ 1).
    /// Returns `false` when the wheel holds no events at all.
    fn advance(&mut self) -> bool {
        loop {
            if self.resident == 0 {
                return false;
            }
            // Earliest bucket across levels. A level-0 hit is an exact
            // tick; a level-l hit is that slot's base tick, a lower bound
            // on its contents. Ties go to the *highest* level so a
            // coarse bucket sharing its base with a finer one cascades
            // first and its events merge into the finer buckets below.
            let mut best: Option<(u64, usize, usize)> = None;
            for level in 0..LEVELS {
                let lv = &self.levels[level];
                if lv.count == 0 {
                    continue;
                }
                let idx = slot_index(self.cur, level);
                if let Some((dist, slot)) = next_occupied(&lv.occupied, idx) {
                    let shift = LEVEL_BITS as usize * level;
                    let base = ((self.cur >> shift) + dist) << shift;
                    match best {
                        Some((b, _, _)) if b < base => {}
                        _ => best = Some((base, level, slot)),
                    }
                }
            }
            let Some((base, level, slot)) = best else {
                debug_assert!(false, "resident events but no occupied slot");
                return false;
            };
            let lv = &mut self.levels[level];
            let mut entries = std::mem::take(&mut lv.slots[slot]);
            lv.occupied[slot / 64] &= !(1 << (slot % 64));
            lv.count -= entries.len();
            self.resident -= entries.len();
            if level == 0 {
                self.cur = base;
                // `near` is empty here (advance only runs when it is), so
                // the drained bucket *becomes* the ready list after one
                // O(n) heapify; `map(Reverse)` collects in place, so
                // steady state moves one buffer per open tick.
                debug_assert!(self.near.is_empty());
                self.near = BinaryHeap::from(entries.into_iter().map(Reverse).collect::<Vec<_>>());
                return true;
            }
            // Cascade: park the clock one tick shy of the bucket's base
            // so every re-push lands strictly below this level (an event
            // exactly at `base` gets delta 1 → level 0, not `near`).
            self.cur = base - 1;
            for e in entries.drain(..) {
                self.push(e);
            }
            self.levels[level].slots[slot] = entries;
        }
    }

    fn pop(&mut self) -> Option<Entry<T>> {
        loop {
            if let Some(Reverse(e)) = self.near.pop() {
                self.resident_check();
                return Some(e);
            }
            if !self.advance() {
                return None;
            }
        }
    }

    fn next_at(&mut self) -> Option<SimTime> {
        loop {
            if let Some(Reverse(e)) = self.near.peek() {
                return Some(e.at);
            }
            if !self.advance() {
                return None;
            }
        }
    }

    #[inline]
    fn resident_check(&self) {
        debug_assert!(self.levels.iter().map(|l| l.count).sum::<usize>() == self.resident);
    }
}

/// The simulator's future-event queue: events pop in strictly increasing
/// `(deadline, tiebreak)`, the tiebreak being the push count, so events
/// at the same instant pop in push order (FIFO).
pub struct EventQueue<T> {
    tiebreak: u64,
    len: usize,
    wheel: Wheel<T>,
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
            len: 0,
            wheel: Wheel::new(),
        }
    }

    /// Schedules `item` at `at`, after everything already scheduled at
    /// the same instant.
    pub fn push(&mut self, at: SimTime, item: T) {
        self.tiebreak += 1;
        self.len += 1;
        self.wheel.push(Entry {
            at,
            tiebreak: self.tiebreak,
            item,
        });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let e = self.wheel.pop()?;
        self.len -= 1;
        Some((e.at, e.item))
    }

    /// Deadline of the earliest event without removing it. (`&mut`
    /// because the wheel may advance its clock to locate the minimum —
    /// invisible to callers.)
    pub fn next_at(&mut self) -> Option<SimTime> {
        self.wheel.next_at()
    }

    /// Number of scheduled events (bucket-resident ones included).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

    /// The wheel in lockstep with the reference it must replay: a plain
    /// binary heap on `(at, push count)`. Every push goes to both; every
    /// pop must agree exactly (the tests' items are unique, so equal
    /// `(at, item)` pairs are the same event).
    struct Lockstep {
        wheel: EventQueue<u64>,
        oracle: BinaryHeap<Reverse<Entry<u64>>>,
        pushes: u64,
    }

    impl Lockstep {
        fn new() -> Lockstep {
            Lockstep {
                wheel: EventQueue::new(),
                oracle: BinaryHeap::new(),
                pushes: 0,
            }
        }

        fn push(&mut self, at: SimTime, item: u64) {
            self.wheel.push(at, item);
            self.pushes += 1;
            let tiebreak = self.pushes;
            self.oracle.push(Reverse(Entry { at, tiebreak, item }));
        }

        fn pop(&mut self) -> Option<(SimTime, u64)> {
            let want = self.oracle.pop().map(|Reverse(e)| (e.at, e.item));
            assert_eq!(self.wheel.next_at(), want.map(|(at, _)| at));
            let got = self.wheel.pop();
            assert_eq!(got, want, "wheel must replay the heap exactly");
            assert_eq!(self.wheel.len(), self.oracle.len());
            got
        }

        fn drain(&mut self) -> Vec<(SimTime, u64)> {
            std::iter::from_fn(|| self.pop()).collect()
        }
    }

    /// Wheel and heap oracle must agree on every pop of an identical
    /// schedule — including interleaved pushes at and around the current
    /// time, which is how the simulator actually drives it.
    #[test]
    fn wheel_matches_heap_under_random_interleaved_churn() {
        for seed in [1u64, 7, 99, 4242] {
            let mut q = Lockstep::new();
            let mut s = seed;
            let mut now = SimTime::ZERO;
            let mut id = 0u64;
            for _ in 0..64 {
                q.push(SimTime::from_nanos(splitmix(&mut s) % 2_000_000), id);
                id += 1;
            }
            let mut popped = 0usize;
            while let Some((at, _)) = q.pop() {
                assert!(at >= now, "seed {seed}: pops must be time-monotonic");
                now = at;
                popped += 1;
                if popped >= 4_000 {
                    break;
                }
                // Re-arm with deltas spanning near (same tick), the
                // tick size, link latencies, heartbeats, and far
                // cascade-heavy backoffs.
                let r = splitmix(&mut s);
                let delta = match r % 7 {
                    0 => 0,
                    1 => r % 1_000,
                    2 => 100_000 + r % 900_000,
                    3 => 1_000_000 + r % 30_000_000,
                    4 => 250_000_000,
                    5 => 2_000_000_000 + r % 30_000_000_000,
                    _ => 300_000_000_000 + r % 1_000_000_000_000,
                };
                if !r.is_multiple_of(3) {
                    q.push(now + Duration::from_nanos(delta), id);
                    id += 1;
                }
            }
        }
    }

    #[test]
    fn fifo_within_identical_deadline() {
        let mut q = Lockstep::new();
        let t = SimTime::from_millis(5);
        for i in 0..100u64 {
            q.push(t, i);
        }
        let order: Vec<u64> = q.drain().into_iter().map(|(_, i)| i).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    /// Deltas of exactly one full rotation (256 ticks, 65536 ticks, …)
    /// alias onto the pusher's own slot index — the distance-256 scan
    /// case — and must still fire at the right time.
    #[test]
    fn full_rotation_aliases_fire_on_time() {
        let tick = 1u64 << GRANULARITY_SHIFT;
        let mut q: EventQueue<u64> = EventQueue::new();
        q.push(SimTime::from_nanos(1), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        for (i, rot) in [256u64, 65_536, 16_777_216].iter().enumerate() {
            q.push(SimTime::from_nanos(rot * tick), i as u64 + 1);
        }
        q.push(SimTime::from_nanos(2 * tick), 100);
        assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(2 * tick), 100));
        assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(256 * tick), 1));
        assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(65_536 * tick), 2));
        assert_eq!(
            q.pop().unwrap(),
            (SimTime::from_nanos(16_777_216 * tick), 3)
        );
        assert!(q.pop().is_none());
    }

    /// A coarse bucket whose base coincides with an occupied fine bucket
    /// must cascade first so same-tick events from both merge in
    /// tiebreak order.
    #[test]
    fn tied_bucket_bases_merge_in_push_order() {
        let tick = 1u64 << GRANULARITY_SHIFT;
        let mut q: EventQueue<u64> = EventQueue::new();
        // 512 ticks ahead: level 1, slot base 512. Same instant also
        // reachable later as a level-0 push once cur advances.
        let far = SimTime::from_nanos(512 * tick + 7);
        q.push(far, 1);
        q.push(SimTime::from_nanos(300 * tick), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        // cur is now within level-1 range of `far`; this lands level 0.
        q.push(far, 3);
        assert_eq!(q.pop().unwrap(), (far, 1));
        assert_eq!(q.pop().unwrap(), (far, 3));
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
        while let Some(at) = q.next_at() {
            let (popped_at, _) = q.pop().expect("next_at implies nonempty");
            assert_eq!(at, popped_at);
            n -= 1;
            assert_eq!(q.len(), n);
        }
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

    #[test]
    fn level_for_boundaries() {
        assert_eq!(level_for(1), 0);
        assert_eq!(level_for(255), 0);
        assert_eq!(level_for(256), 0); // full rotation alias stays low
        assert_eq!(level_for(257), 1);
        assert_eq!(level_for(65_536), 1);
        assert_eq!(level_for(65_537), 2);
        assert_eq!(level_for(u64::MAX >> GRANULARITY_SHIFT), 5);
    }

    #[test]
    fn next_occupied_scans_wrap() {
        let mut occ = [0u64; WORDS];
        assert_eq!(next_occupied(&occ, 0), None);
        occ[0] |= 1 << 5;
        assert_eq!(next_occupied(&occ, 0), Some((5, 5)));
        assert_eq!(next_occupied(&occ, 5), Some((256, 5)));
        assert_eq!(next_occupied(&occ, 200), Some((61, 5)));
        occ[3] |= 1 << 63;
        assert_eq!(next_occupied(&occ, 5), Some((250, 255)));
    }
}
