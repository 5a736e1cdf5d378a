//! Gap tracking over the data sequence space.
//!
//! Receivers and logging servers both need to answer: *which sequence
//! numbers am I missing?* [`GapTracker`] maintains that set. Internally
//! sequence numbers are *unwrapped* onto a `u64` index line (RTP-style),
//! so the tracker is correct across 32-bit wraparound without the
//! fragility of doing interval arithmetic in modular space.

use std::collections::BTreeSet;

use lbrm_wire::packet::SeqRange;
use lbrm_wire::Seq;

/// Maps wrapping 32-bit sequence numbers onto a monotone `u64` line.
///
/// The mapping picks, for each observed `Seq`, the 64-bit extension
/// closest to the highest index seen so far — correct as long as
/// reordering stays within ±2^31 packets of the stream head.
#[derive(Debug, Clone, Default)]
pub struct SeqUnwrapper {
    highest: Option<u64>,
}

impl SeqUnwrapper {
    /// Creates an unwrapper with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Unwraps `seq` to its position on the index line, updating the
    /// stream head if this is the newest packet yet.
    pub fn unwrap(&mut self, seq: Seq) -> u64 {
        let idx = self.peek(seq);
        if self.highest.is_none_or(|h| idx > h) {
            self.highest = Some(idx);
        }
        idx
    }

    /// Computes the unwrapped index without recording it.
    pub fn peek(&self, seq: Seq) -> u64 {
        let raw = u64::from(seq.raw());
        let Some(h) = self.highest else {
            return raw;
        };
        // Candidates in the head's cycle and the two adjacent ones; pick
        // the one nearest the head.
        let cycle = h >> 32;
        let mut best = raw + (cycle << 32);
        let mut best_dist = best.abs_diff(h);
        if cycle > 0 {
            let cand = raw + ((cycle - 1) << 32);
            if cand.abs_diff(h) < best_dist {
                best_dist = cand.abs_diff(h);
                best = cand;
            }
        }
        if let Some(cand) = (cycle + 1)
            .checked_mul(1 << 32)
            .and_then(|s| s.checked_add(raw))
        {
            if cand.abs_diff(h) < best_dist {
                best = cand;
            }
        }
        best
    }

    /// Re-wraps an index to its 32-bit sequence number.
    pub fn rewrap(idx: u64) -> Seq {
        Seq(idx as u32)
    }

    /// Highest unwrapped index observed.
    pub fn highest(&self) -> Option<u64> {
        self.highest
    }
}

/// Outcome of observing a sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observation {
    /// First packet ever observed.
    First,
    /// The next in-order packet.
    InOrder,
    /// Ahead of the head: created `gap` missing packets.
    Ahead {
        /// Number of sequence numbers newly marked missing: the newest
        /// ones below the observed one, at most a bounded span.
        gap: u64,
    },
    /// Filled a previously missing slot.
    Filled,
    /// Already had it (or it predates the tracking floor).
    Duplicate,
    /// Precedes the first packet ever observed — a reordered early
    /// packet (or pre-join history). Not tracked as a gap, but not a
    /// duplicate either: consumers usually deliver it.
    BeforeStart,
}

/// Tracks received / missing sequence numbers above a floor.
///
/// ```
/// use lbrm_core::gaps::{GapTracker, Observation};
/// use lbrm_wire::Seq;
///
/// let mut t = GapTracker::new();
/// t.observe(Seq(1));
/// assert_eq!(t.observe(Seq(4)), Observation::Ahead { gap: 2 });
/// let missing = t.missing_ranges(16);
/// assert_eq!((missing[0].first, missing[0].last), (Seq(2), Seq(3)));
/// assert_eq!(t.observe(Seq(2)), Observation::Filled);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GapTracker {
    unwrapper: SeqUnwrapper,
    /// Everything below this index is settled (received or given up).
    floor: u64,
    /// Head: highest index observed + 1 (0 when nothing observed).
    head: u64,
    /// Missing indexes in `[floor, head)`.
    missing: BTreeSet<u64>,
    /// The floor set by the very first observation; indexes below it are
    /// pre-start territory, not given-up gaps.
    start_floor: u64,
    /// Pre-start indexes already seen (bounded duplicate detection for
    /// the reordered-stream-head case).
    early: BTreeSet<u64>,
    started: bool,
    /// Sequence numbers given up unrecorded because they lay beyond
    /// [`MAX_GAP_SPAN`] of one observation.
    given_up: u64,
}

/// Cap on remembered pre-start indexes.
const MAX_EARLY: usize = 256;

/// Most sequence numbers one observation may newly mark missing.
///
/// A single checksum-valid packet can claim any sequence up to 2^31
/// ahead of the head; without a bound it would cost work (and missing
/// entries, and recoveries) in proportion to the jump. Only the newest
/// `MAX_GAP_SPAN` numbers below it are tracked; the older part is given
/// up at once and only counted ([`GapTracker::given_up`]). The bound is
/// far above any loss burst the paper's scenarios produce (the largest
/// span in every `reproduce` experiment is 24) and keeps the work per
/// hostile packet to milliseconds.
pub(crate) const MAX_GAP_SPAN: u64 = 1 << 14;

/// The first of the `len` sequence numbers ending at `last`: the start
/// of a span an observation reported newly missing.
pub(crate) fn span_start(last: Seq, len: u64) -> Seq {
    Seq(last.raw().wrapping_sub(len.saturating_sub(1) as u32))
}

impl GapTracker {
    /// Creates an empty tracker; the first observed packet sets the floor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes sequence `seq` as received.
    pub fn observe(&mut self, seq: Seq) -> Observation {
        let idx = self.unwrapper.unwrap(seq);
        if !self.started {
            self.started = true;
            self.floor = idx;
            self.start_floor = idx;
            self.head = idx + 1;
            return Observation::First;
        }
        if idx < self.start_floor {
            if self.early.contains(&idx) {
                return Observation::Duplicate;
            }
            self.early.insert(idx);
            while self.early.len() > MAX_EARLY {
                self.early.pop_first();
            }
            return Observation::BeforeStart;
        }
        if idx < self.floor {
            return Observation::Duplicate;
        }
        if idx < self.head {
            if self.missing.remove(&idx) {
                self.advance_floor();
                return Observation::Filled;
            }
            return Observation::Duplicate;
        }
        let gap = self.mark_missing(idx);
        self.head = idx + 1;
        if gap == 0 {
            self.advance_floor();
            Observation::InOrder
        } else {
            Observation::Ahead { gap }
        }
    }

    /// Declares that a heartbeat announced `seq` as the newest data
    /// packet: if we have not seen it, everything from the head through
    /// `seq` is missing. Returns the number of newly missing packets.
    pub fn observe_announced(&mut self, seq: Seq) -> u64 {
        let idx = self.unwrapper.unwrap(seq);
        if !self.started {
            // A heartbeat before any data: we know packets up to `seq`
            // exist but have nothing. Treat seq itself as missing too.
            self.started = true;
            self.floor = idx;
            self.start_floor = idx;
            self.head = idx + 1;
            self.missing.insert(idx);
            return 1;
        }
        if idx < self.head {
            return 0;
        }
        let newly = self.mark_missing(idx + 1);
        self.head = idx + 1;
        newly
    }

    /// Marks the indexes from the head up to `end` (exclusive) missing,
    /// at most the [`MAX_GAP_SPAN`] newest of them; returns how many.
    fn mark_missing(&mut self, end: u64) -> u64 {
        let span = end - self.head;
        let kept = span.min(MAX_GAP_SPAN);
        self.given_up += span - kept;
        self.missing.extend(end - kept..end);
        kept
    }

    fn advance_floor(&mut self) {
        // Up to the lowest missing index (none lies below the floor), or
        // to the head when nothing is missing.
        let next = self.missing.first().map_or(self.head, |&m| m);
        self.floor = self.floor.max(next);
    }

    /// `seq`'s position on the tracker's index line, without recording
    /// it: a key that stays ordered across the 32-bit wrap.
    pub(crate) fn index(&self, seq: Seq) -> u64 {
        self.unwrapper.peek(seq)
    }

    /// `true` once at least one packet (or announcement) was observed.
    pub fn started(&self) -> bool {
        self.started
    }

    /// Highest sequence observed or announced, if any.
    pub fn highest(&self) -> Option<Seq> {
        if self.started {
            Some(SeqUnwrapper::rewrap(self.head - 1))
        } else {
            None
        }
    }

    /// Number of currently missing packets.
    pub fn missing_count(&self) -> usize {
        self.missing.len()
    }

    /// Sequence numbers given up unrecorded because one observation
    /// jumped more than [`MAX_GAP_SPAN`] past the head.
    pub(crate) fn given_up(&self) -> u64 {
        self.given_up
    }

    /// `true` if `seq` is currently marked missing.
    pub fn is_missing(&self, seq: Seq) -> bool {
        let idx = self.index(seq);
        self.missing.contains(&idx)
    }

    /// `true` if `seq` is settled (observed, or abandoned via
    /// [`give_up_before`](Self::give_up_before)) — i.e. not missing and
    /// not beyond the head. Parties that must distinguish *received* from
    /// *abandoned* (the log store) keep the payloads and consult those.
    pub fn has(&self, seq: Seq) -> bool {
        let idx = self.index(seq);
        if !self.started {
            return false;
        }
        if idx < self.start_floor {
            return self.early.contains(&idx);
        }
        idx < self.head && !self.missing.contains(&idx)
    }

    /// The missing set as ascending, disjoint, maximal ranges — ready for
    /// a NACK. At most `max_ranges` are returned (earliest first).
    pub fn missing_ranges(&self, max_ranges: usize) -> Vec<SeqRange> {
        let mut out: Vec<SeqRange> = Vec::new();
        let mut cur: Option<(u64, u64)> = None;
        for &m in &self.missing {
            match cur {
                Some((first, last)) if m == last + 1 => cur = Some((first, m)),
                Some((first, last)) => {
                    out.push(SeqRange {
                        first: SeqUnwrapper::rewrap(first),
                        last: SeqUnwrapper::rewrap(last),
                    });
                    if out.len() == max_ranges {
                        return out;
                    }
                    cur = Some((m, m));
                }
                None => cur = Some((m, m)),
            }
        }
        if let Some((first, last)) = cur {
            if out.len() < max_ranges {
                out.push(SeqRange {
                    first: SeqUnwrapper::rewrap(first),
                    last: SeqUnwrapper::rewrap(last),
                });
            }
        }
        out
    }

    /// Extends tracking *below* the first observation back to the
    /// stream's origin, [`Seq::FIRST`] (nothing is sent before it),
    /// marking those numbers missing: whoever observes a stream first
    /// at seq n may have missed everything before it. Like a forward
    /// jump, it marks at most [`MAX_GAP_SPAN`] numbers. Only meaningful
    /// right after the first observation; returns the newly missing
    /// range, if any.
    pub fn reach_back_to_origin(&mut self) -> Option<(Seq, Seq)> {
        if !self.started {
            return None;
        }
        let old_start = self.start_floor;
        let lo = old_start
            .saturating_sub(MAX_GAP_SPAN)
            .max(u64::from(Seq::FIRST.raw()));
        if lo >= old_start {
            return None;
        }
        for idx in lo..old_start {
            if !self.early.contains(&idx) {
                self.missing.insert(idx);
            }
        }
        self.early.retain(|&e| e < lo);
        self.start_floor = lo;
        self.floor = self.floor.min(lo);
        self.advance_floor();
        Some((
            SeqUnwrapper::rewrap(lo),
            SeqUnwrapper::rewrap(old_start - 1),
        ))
    }

    /// Abandons one missing sequence (recovery gave up on it). Returns
    /// `true` if it was indeed missing.
    pub fn abandon(&mut self, seq: Seq) -> bool {
        let idx = self.index(seq);
        let removed = self.missing.remove(&idx);
        if removed {
            self.advance_floor();
        }
        removed
    }

    /// Abandons recovery of everything before `seq` (exclusive), handing
    /// each missing sequence dropped to `dropped`, in order: used by
    /// windowed reliability modes.
    pub fn give_up_before(&mut self, seq: Seq, mut dropped: impl FnMut(Seq)) {
        let idx = self.index(seq);
        let kept = self.missing.split_off(&idx);
        for m in std::mem::replace(&mut self.missing, kept) {
            dropped(SeqUnwrapper::rewrap(m));
        }
        if idx > self.floor {
            self.floor = idx.min(self.head);
        }
        self.advance_floor();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranges(t: &GapTracker) -> Vec<(u32, u32)> {
        t.missing_ranges(64)
            .iter()
            .map(|r| (r.first.raw(), r.last.raw()))
            .collect()
    }

    #[test]
    fn in_order_stream_has_no_gaps() {
        let mut t = GapTracker::new();
        assert_eq!(t.observe(Seq(10)), Observation::First);
        assert_eq!(t.observe(Seq(11)), Observation::InOrder);
        assert_eq!(t.observe(Seq(12)), Observation::InOrder);
        assert_eq!(t.missing_count(), 0);
        assert_eq!(t.highest(), Some(Seq(12)));
        assert!(t.has(Seq(11)));
    }

    #[test]
    fn gap_detected_and_filled() {
        let mut t = GapTracker::new();
        t.observe(Seq(1));
        assert_eq!(t.observe(Seq(4)), Observation::Ahead { gap: 2 });
        assert_eq!(ranges(&t), vec![(2, 3)]);
        assert!(t.is_missing(Seq(2)));
        assert_eq!(t.observe(Seq(2)), Observation::Filled);
        assert_eq!(ranges(&t), vec![(3, 3)]);
        assert_eq!(t.observe(Seq(3)), Observation::Filled);
        assert_eq!(t.missing_count(), 0);
    }

    #[test]
    fn duplicates_are_recognized() {
        let mut t = GapTracker::new();
        t.observe(Seq(5));
        assert_eq!(t.observe(Seq(5)), Observation::Duplicate);
        t.observe(Seq(7));
        t.observe(Seq(6));
        assert_eq!(t.observe(Seq(6)), Observation::Duplicate);
    }

    #[test]
    fn heartbeat_announcement_creates_missing() {
        let mut t = GapTracker::new();
        t.observe(Seq(10));
        // Heartbeat says newest data is #13: we are missing 11..=13.
        assert_eq!(t.observe_announced(Seq(13)), 3);
        assert_eq!(ranges(&t), vec![(11, 13)]);
        // Repeating the announcement adds nothing.
        assert_eq!(t.observe_announced(Seq(13)), 0);
        // Older announcement adds nothing.
        assert_eq!(t.observe_announced(Seq(12)), 0);
    }

    #[test]
    fn heartbeat_before_any_data() {
        let mut t = GapTracker::new();
        assert_eq!(t.observe_announced(Seq(5)), 1);
        assert!(t.is_missing(Seq(5)));
        assert_eq!(t.observe(Seq(5)), Observation::Filled);
        assert_eq!(t.missing_count(), 0);
    }

    #[test]
    fn multiple_disjoint_ranges() {
        let mut t = GapTracker::new();
        t.observe(Seq(1));
        t.observe(Seq(3));
        t.observe(Seq(6));
        t.observe(Seq(10));
        assert_eq!(ranges(&t), vec![(2, 2), (4, 5), (7, 9)]);
        // Range cap.
        assert_eq!(t.missing_ranges(2).len(), 2);
    }

    #[test]
    fn give_up_before_abandons_old_gaps() {
        let mut t = GapTracker::new();
        t.observe(Seq(1));
        t.observe(Seq(10));
        assert_eq!(t.missing_count(), 8);
        let mut dropped = Vec::new();
        t.give_up_before(Seq(8), |seq| dropped.push(seq.raw()));
        assert_eq!(dropped, (2..8).collect::<Vec<_>>());
        assert_eq!(ranges(&t), vec![(8, 9)]);
    }

    #[test]
    fn works_across_wraparound() {
        let mut t = GapTracker::new();
        t.observe(Seq(u32::MAX - 1));
        assert_eq!(t.observe(Seq(1)), Observation::Ahead { gap: 2 });
        assert_eq!(ranges(&t), vec![(u32::MAX, 0)]);
        assert_eq!(t.observe(Seq(u32::MAX)), Observation::Filled);
        assert_eq!(t.observe(Seq(0)), Observation::Filled);
        assert_eq!(t.missing_count(), 0);
        assert_eq!(t.highest(), Some(Seq(1)));
    }

    #[test]
    fn reordered_stream_head_is_before_start_not_duplicate() {
        // #2 beats #1 to the receiver: #1 must be classified as early
        // history, not silently swallowed.
        let mut t = GapTracker::new();
        assert_eq!(t.observe(Seq(2)), Observation::First);
        assert_eq!(t.observe(Seq(1)), Observation::BeforeStart);
        // A re-delivery of the early packet is now a duplicate.
        assert_eq!(t.observe(Seq(1)), Observation::Duplicate);
        assert!(t.has(Seq(1)));
        assert_eq!(t.missing_count(), 0);
    }

    #[test]
    fn early_set_is_bounded() {
        let mut t = GapTracker::new();
        t.observe(Seq(100_000));
        for i in 0..1_000u32 {
            t.observe(Seq(i));
        }
        // Still functional and bounded (no assert on exact size beyond
        // classification behaviour for the most recent entries).
        assert_eq!(t.observe(Seq(999)), Observation::Duplicate);
        assert_eq!(t.missing_count(), 0);
    }

    #[test]
    fn reordering_near_wrap() {
        let mut t = GapTracker::new();
        t.observe(Seq(u32::MAX));
        t.observe(Seq(2));
        t.observe(Seq(0)); // late arrival from previous cycle region
        t.observe(Seq(1));
        assert_eq!(t.missing_count(), 0);
    }

    #[test]
    fn one_jump_tracks_at_most_the_bounded_span() {
        let mut t = GapTracker::new();
        t.observe(Seq(1));
        let far = Seq(1 + (1 << 20));
        assert_eq!(t.observe(far), Observation::Ahead { gap: MAX_GAP_SPAN });
        assert_eq!(t.missing_count() as u64, MAX_GAP_SPAN);
        assert_eq!(t.given_up(), (1 << 20) - 1 - MAX_GAP_SPAN);
        // The tracked numbers are the newest ones below the jump.
        let first = span_start(far.prev(), MAX_GAP_SPAN);
        assert_eq!(
            ranges(&t),
            vec![(first.raw(), far.prev().raw())],
            "one contiguous span ending below the jump"
        );
        // A given-up number arriving late fills nothing.
        assert_eq!(t.observe(Seq(2)), Observation::Duplicate);
        // A heartbeat announcing a further jump is bounded the same way.
        let farther = Seq(far.raw() + (1 << 20));
        assert_eq!(t.observe_announced(farther), MAX_GAP_SPAN);
        assert_eq!(t.missing_count() as u64, 2 * MAX_GAP_SPAN);
        assert!(t.is_missing(farther));
        // The largest forward jump the unwrapper accepts, 2^31 - 2.
        let mut t = GapTracker::new();
        t.observe(Seq(1));
        assert_eq!(
            t.observe(Seq(1 + (1 << 31) - 2)),
            Observation::Ahead { gap: MAX_GAP_SPAN }
        );
        assert_eq!(t.given_up(), (1 << 31) - 3 - MAX_GAP_SPAN);
    }

    #[test]
    fn reach_back_stops_at_the_stream_origin() {
        let mut t = GapTracker::new();
        t.observe(Seq(3));
        assert_eq!(t.reach_back_to_origin(), Some((Seq(1), Seq(2))));
        assert_eq!(ranges(&t), vec![(1, 2)], "no phantom #0");
        assert!(!t.is_missing(Seq(0)));
        // Nothing precedes the origin: a first observation there has
        // nothing to reach back to.
        let mut t = GapTracker::new();
        t.observe(Seq::FIRST);
        assert_eq!(t.reach_back_to_origin(), None);
        assert_eq!(t.missing_count(), 0);
    }

    #[test]
    fn reach_back_marks_at_most_the_bounded_span() {
        let mut t = GapTracker::new();
        let first = Seq(1 << 31);
        t.observe(first);
        let (lo, hi) = t.reach_back_to_origin().expect("history below the join");
        assert_eq!(
            (lo, hi),
            (span_start(first.prev(), MAX_GAP_SPAN), first.prev())
        );
        assert_eq!(t.missing_count() as u64, MAX_GAP_SPAN);
    }

    #[test]
    fn unwrapper_monotone_head() {
        let mut u = SeqUnwrapper::new();
        let a = u.unwrap(Seq(u32::MAX));
        let b = u.unwrap(Seq(0));
        let c = u.unwrap(Seq(1));
        assert_eq!(b, a + 1);
        assert_eq!(c, a + 2);
        // An old packet maps below the head, not to a new cycle.
        let old = u.unwrap(Seq(u32::MAX - 5));
        assert_eq!(old, a - 5);
    }
}
