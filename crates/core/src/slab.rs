//! A segmented slab keyed by unwrapped sequence index.
//!
//! The packet log and the sender's retransmit buffer both map a dense,
//! mostly-contiguous band of unwrapped sequence indexes to payloads, and
//! both sit on the repair hot path: every NACK serve is a lookup, every
//! `LogAck` release is a front trim. A `BTreeMap` pays tree
//! pointer-chasing per operation; [`SeqSlab`] replaces it with fixed-size
//! **segments** of `SEG_SIZE` slots addressed by `idx >> SEG_SHIFT`, each
//! carrying a presence bitmap of `[u64; 64]` words:
//!
//! * `insert`/`get`/`remove`/`contains` are O(1) index arithmetic plus
//!   one bit test;
//! * span scans ([`SeqSlab::for_each_in`], [`SeqSlab::missing_runs_in`])
//!   are word scans over the bitmaps — a `trailing_zeros` walk that
//!   skips absent segments wholesale and never iterates per-entry over
//!   holes;
//! * front trimming ([`SeqSlab::truncate_front`], [`SeqSlab::retain`])
//!   drops whole sealed segments in O(1) and bit-clears only inside the
//!   head segment.
//!
//! Slot vectors grow lazily toward the highest occupied offset, so a
//! thousand small logs (one per simulated site) do not each pay
//! `SEG_SIZE * size_of::<T>()` up front.
//!
//! Indexes are expected to come from
//! [`SeqUnwrapper`](crate::gaps::SeqUnwrapper) — a monotone band within
//! ±2^31 of the stream head, far below `u64::MAX` (the arithmetic here
//! assumes `idx + 1` and `(seg + 1) << SEG_SHIFT` cannot overflow).
//! Memory is proportional to the *span* of live segments, not the live
//! count: an insert far below the current base extends the segment
//! directory (8 bytes per intervening segment), which the ±2^31 reorder
//! bound keeps at a few megabytes even in the adversarial worst case.

use std::collections::VecDeque;

/// log2 of the segment size: segments hold 4096 slots.
pub const SEG_SHIFT: u32 = 12;
/// Slots per segment.
pub const SEG_SIZE: usize = 1 << SEG_SHIFT;
const SEG_MASK: u64 = (SEG_SIZE as u64) - 1;
/// Bitmap words per segment.
const WORDS: usize = SEG_SIZE / 64;

#[derive(Debug, Clone)]
struct Segment<T> {
    /// Presence bitmap: bit `off` set iff `slots[off]` holds a value.
    bits: [u64; WORDS],
    /// Number of set bits (live slots).
    len: u32,
    /// Values, grown lazily toward the highest occupied offset.
    slots: Vec<Option<T>>,
}

impl<T> Segment<T> {
    fn new() -> Self {
        Segment {
            bits: [0; WORDS],
            len: 0,
            slots: Vec::new(),
        }
    }

    #[inline]
    fn contains(&self, off: usize) -> bool {
        (self.bits[off >> 6] >> (off & 63)) & 1 == 1
    }

    #[inline]
    fn get(&self, off: usize) -> Option<&T> {
        if self.contains(off) {
            self.slots[off].as_ref()
        } else {
            None
        }
    }

    fn insert(&mut self, off: usize, v: T) -> Option<T> {
        if self.slots.len() <= off {
            self.slots.resize_with(off + 1, || None);
        }
        let old = self.slots[off].replace(v);
        if old.is_none() {
            self.bits[off >> 6] |= 1u64 << (off & 63);
            self.len += 1;
        }
        old
    }

    fn remove(&mut self, off: usize) -> Option<T> {
        if !self.contains(off) {
            return None;
        }
        self.bits[off >> 6] &= !(1u64 << (off & 63));
        self.len -= 1;
        self.slots[off].take()
    }

    fn first_set(&self) -> Option<usize> {
        self.bits
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(i, &w)| (i << 6) | w.trailing_zeros() as usize)
    }

    fn last_set(&self) -> Option<usize> {
        self.bits
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &w)| w != 0)
            .map(|(i, &w)| (i << 6) | (63 - w.leading_zeros() as usize))
    }
}

/// A map from `u64` index to `T`, laid out as a deque of fixed-size
/// segments with per-segment presence bitmaps. See the module docs for
/// the layout and complexity story.
#[derive(Debug, Clone)]
pub struct SeqSlab<T> {
    /// Absolute segment number of `segs[0]`.
    base_seg: u64,
    /// Segment directory; `None` entries are never-touched (or fully
    /// dropped) segments inside the live span.
    segs: VecDeque<Option<Box<Segment<T>>>>,
    /// Total live entries across all segments.
    len: usize,
}

impl<T> Default for SeqSlab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SeqSlab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        SeqSlab {
            base_seg: 0,
            segs: VecDeque::new(),
            len: 0,
        }
    }

    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entries are held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn seg_ref(&self, seg_num: u64) -> Option<&Segment<T>> {
        if seg_num < self.base_seg {
            return None;
        }
        self.segs
            .get((seg_num - self.base_seg) as usize)?
            .as_deref()
    }

    /// Fetches the value at `idx`, if present.
    #[inline]
    pub fn get(&self, idx: u64) -> Option<&T> {
        self.seg_ref(idx >> SEG_SHIFT)?
            .get((idx & SEG_MASK) as usize)
    }

    /// Mutable access to the value at `idx`, if present.
    #[inline]
    pub fn get_mut(&mut self, idx: u64) -> Option<&mut T> {
        let seg_num = idx >> SEG_SHIFT;
        if seg_num < self.base_seg {
            return None;
        }
        let rel = (seg_num - self.base_seg) as usize;
        let seg = self.segs.get_mut(rel)?.as_deref_mut()?;
        let off = (idx & SEG_MASK) as usize;
        if seg.contains(off) {
            seg.slots[off].as_mut()
        } else {
            None
        }
    }

    /// `true` iff `idx` holds a value — answered from the bitmap, the
    /// value itself is never touched.
    #[inline]
    pub fn contains(&self, idx: u64) -> bool {
        self.seg_ref(idx >> SEG_SHIFT)
            .is_some_and(|s| s.contains((idx & SEG_MASK) as usize))
    }

    /// Inserts a value at `idx`, returning the previous one if any.
    pub fn insert(&mut self, idx: u64, v: T) -> Option<T> {
        let seg_num = idx >> SEG_SHIFT;
        if self.segs.is_empty() {
            self.base_seg = seg_num;
            self.segs.push_back(None);
        } else if seg_num < self.base_seg {
            for _ in 0..(self.base_seg - seg_num) {
                self.segs.push_front(None);
            }
            self.base_seg = seg_num;
        } else {
            let need = (seg_num - self.base_seg) as usize + 1;
            while self.segs.len() < need {
                self.segs.push_back(None);
            }
        }
        let rel = (seg_num - self.base_seg) as usize;
        let seg = self.segs[rel].get_or_insert_with(|| Box::new(Segment::new()));
        let old = seg.insert((idx & SEG_MASK) as usize, v);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes and returns the value at `idx`, if present.
    pub fn remove(&mut self, idx: u64) -> Option<T> {
        let seg_num = idx >> SEG_SHIFT;
        if seg_num < self.base_seg {
            return None;
        }
        let rel = (seg_num - self.base_seg) as usize;
        let seg = self.segs.get_mut(rel)?.as_deref_mut()?;
        let v = seg.remove((idx & SEG_MASK) as usize);
        if v.is_some() {
            self.len -= 1;
        }
        v
    }

    /// Drops leading segments that hold nothing.
    fn shrink_front(&mut self) {
        while let Some(front) = self.segs.front() {
            if front.as_ref().is_none_or(|s| s.len == 0) {
                self.segs.pop_front();
                self.base_seg += 1;
            } else {
                break;
            }
        }
    }

    /// The lowest live entry, if any.
    pub fn first(&self) -> Option<(u64, &T)> {
        for (seg_num, slot) in (self.base_seg..).zip(self.segs.iter()) {
            if let Some(seg) = slot.as_deref() {
                if seg.len > 0 {
                    let off = seg.first_set().expect("len > 0 implies a set bit");
                    let v = seg.slots[off].as_ref().expect("bit set implies slot");
                    return Some(((seg_num << SEG_SHIFT) | off as u64, v));
                }
            }
        }
        None
    }

    /// The highest live entry, if any.
    pub fn last(&self) -> Option<(u64, &T)> {
        let mut seg_num = self.base_seg + self.segs.len() as u64;
        for slot in self.segs.iter().rev() {
            seg_num -= 1;
            if let Some(seg) = slot.as_deref() {
                if seg.len > 0 {
                    let off = seg.last_set().expect("len > 0 implies a set bit");
                    let v = seg.slots[off].as_ref().expect("bit set implies slot");
                    return Some(((seg_num << SEG_SHIFT) | off as u64, v));
                }
            }
        }
        None
    }

    /// Removes and returns the lowest live entry, if any.
    pub fn pop_first(&mut self) -> Option<(u64, T)> {
        self.shrink_front();
        let seg = self
            .segs
            .front_mut()?
            .as_deref_mut()
            .expect("shrink_front leaves a live front segment");
        let off = seg.first_set().expect("live front segment");
        let v = seg.remove(off).expect("bit set implies slot");
        let idx = (self.base_seg << SEG_SHIFT) | off as u64;
        self.len -= 1;
        self.shrink_front();
        Some((idx, v))
    }

    /// Drops the oldest entries until at most `target` remain. Whole
    /// leading segments are dropped in O(1); only the segment straddling
    /// the new front is bit-trimmed in place.
    pub fn truncate_front(&mut self, target: usize) {
        while self.len > target {
            self.shrink_front();
            let front = self
                .segs
                .front_mut()
                .expect("len > 0 implies a segment")
                .as_deref_mut()
                .expect("shrink_front leaves a live front segment");
            let excess = self.len - target;
            if front.len as usize <= excess {
                self.len -= front.len as usize;
                self.segs.pop_front();
                self.base_seg += 1;
            } else {
                let mut to_clear = excess;
                'words: for w in 0..WORDS {
                    while front.bits[w] != 0 {
                        let b = front.bits[w].trailing_zeros() as usize;
                        front.bits[w] &= front.bits[w] - 1;
                        front.slots[(w << 6) | b] = None;
                        front.len -= 1;
                        to_clear -= 1;
                        if to_clear == 0 {
                            break 'words;
                        }
                    }
                }
                debug_assert_eq!(to_clear, 0);
                self.len -= excess;
            }
        }
        self.shrink_front();
    }

    /// Keeps only entries for which `f` returns `true`, then drops
    /// emptied leading segments.
    pub fn retain(&mut self, mut f: impl FnMut(u64, &T) -> bool) {
        for (seg_num, slot) in (self.base_seg..).zip(self.segs.iter_mut()) {
            if let Some(seg) = slot.as_deref_mut() {
                let seg_base = seg_num << SEG_SHIFT;
                for w in 0..WORDS {
                    let mut bits = seg.bits[w];
                    while bits != 0 {
                        let b = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let off = (w << 6) | b;
                        let keep = f(
                            seg_base | off as u64,
                            seg.slots[off].as_ref().expect("bit set implies slot"),
                        );
                        if !keep {
                            seg.bits[w] &= !(1u64 << b);
                            seg.slots[off] = None;
                            seg.len -= 1;
                            self.len -= 1;
                        }
                    }
                }
            }
        }
        self.shrink_front();
    }

    /// Calls `f` for every live entry with index in `[lo, hi]`, in
    /// ascending order. This is the batched serving primitive: a word
    /// scan with a `trailing_zeros` walk per occupied word; absent or
    /// empty segments inside the span are skipped in O(1) each.
    pub fn for_each_in(&self, lo: u64, hi: u64, mut f: impl FnMut(u64, &T)) {
        if self.len == 0 || hi < lo || self.segs.is_empty() {
            return;
        }
        let lo_seg = lo >> SEG_SHIFT;
        let hi_seg = hi >> SEG_SHIFT;
        let last_alloc = self.base_seg + self.segs.len() as u64 - 1;
        let mut seg_num = lo_seg.max(self.base_seg);
        let stop = hi_seg.min(last_alloc);
        while seg_num <= stop {
            if let Some(seg) = self.segs[(seg_num - self.base_seg) as usize].as_deref() {
                if seg.len > 0 {
                    let seg_base = seg_num << SEG_SHIFT;
                    let w_lo = if seg_num == lo_seg {
                        ((lo & SEG_MASK) >> 6) as usize
                    } else {
                        0
                    };
                    let w_hi = if seg_num == hi_seg {
                        ((hi & SEG_MASK) >> 6) as usize
                    } else {
                        WORDS - 1
                    };
                    for w in w_lo..=w_hi {
                        let mut bits = seg.bits[w];
                        if seg_num == lo_seg && w == w_lo {
                            bits &= u64::MAX << (lo & 63);
                        }
                        if seg_num == hi_seg && w == w_hi {
                            bits &= u64::MAX >> (63 - (hi & 63));
                        }
                        while bits != 0 {
                            let b = bits.trailing_zeros() as u64;
                            bits &= bits - 1;
                            let off = ((w as u64) << 6) | b;
                            f(
                                seg_base | off,
                                seg.slots[off as usize]
                                    .as_ref()
                                    .expect("bit set implies slot"),
                            );
                        }
                    }
                }
            }
            seg_num += 1;
        }
    }

    /// Emits the *missing* index runs in `[lo, hi]` as coalesced
    /// inclusive `(start, end)` pairs — the complement of
    /// [`for_each_in`](Self::for_each_in) over the span. Cost is
    /// O(occupied words + runs), never O(span).
    pub fn missing_runs_in(&self, lo: u64, hi: u64, mut emit: impl FnMut(u64, u64)) {
        if hi < lo {
            return;
        }
        let mut cursor = lo;
        self.for_each_in(lo, hi, |idx, _| {
            if idx > cursor {
                emit(cursor, idx - 1);
            }
            cursor = idx + 1;
        });
        if cursor <= hi {
            emit(cursor, hi);
        }
    }

    /// Iterates live entries with index in `[lo, hi]`, ascending.
    pub fn range(&self, lo: u64, hi: u64) -> Range<'_, T> {
        Range {
            slab: self,
            cursor: lo,
            hi,
            done: self.len == 0 || hi < lo,
        }
    }

    /// Iterates all live entries in ascending index order.
    pub fn iter(&self) -> Range<'_, T> {
        self.range(0, u64::MAX)
    }
}

/// Ascending iterator over a [`SeqSlab`] index span.
pub struct Range<'a, T> {
    slab: &'a SeqSlab<T>,
    cursor: u64,
    hi: u64,
    done: bool,
}

impl<'a, T> Iterator for Range<'a, T> {
    type Item = (u64, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let slab = self.slab;
        if slab.segs.is_empty() {
            self.done = true;
            return None;
        }
        let last_alloc = slab.base_seg + slab.segs.len() as u64 - 1;
        while self.cursor <= self.hi {
            let seg_num = self.cursor >> SEG_SHIFT;
            if seg_num < slab.base_seg {
                self.cursor = slab.base_seg << SEG_SHIFT;
                continue;
            }
            if seg_num > last_alloc {
                break;
            }
            if let Some(seg) = slab.segs[(seg_num - slab.base_seg) as usize].as_deref() {
                let off = (self.cursor & SEG_MASK) as usize;
                let mut w = off >> 6;
                let mut bits = seg.bits[w] & (u64::MAX << (off & 63));
                loop {
                    if bits != 0 {
                        let b = bits.trailing_zeros() as usize;
                        let idx = (seg_num << SEG_SHIFT) | ((w as u64) << 6) | b as u64;
                        if idx > self.hi {
                            self.done = true;
                            return None;
                        }
                        self.cursor = idx + 1;
                        let v = seg.slots[(w << 6) | b]
                            .as_ref()
                            .expect("bit set implies slot");
                        return Some((idx, v));
                    }
                    w += 1;
                    if w == WORDS {
                        break;
                    }
                    bits = seg.bits[w];
                }
            }
            self.cursor = (seg_num + 1) << SEG_SHIFT;
        }
        self.done = true;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(s: &SeqSlab<u64>) -> Vec<u64> {
        s.iter().map(|(i, _)| i).collect()
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = SeqSlab::new();
        assert!(s.is_empty());
        assert_eq!(s.insert(5, 50), None);
        assert_eq!(s.insert(5, 55), Some(50));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(5), Some(&55));
        *s.get_mut(5).unwrap() += 1;
        assert_eq!(s.get(5), Some(&56));
        assert_eq!(s.get_mut(4), None);
        assert!(s.contains(5));
        assert!(!s.contains(4));
        assert_eq!(s.remove(5), Some(56));
        assert_eq!(s.remove(5), None);
        assert!(s.is_empty());
    }

    #[test]
    fn spans_segment_boundaries() {
        let mut s = SeqSlab::new();
        // Straddle the 4096 boundary and a far-away segment.
        for idx in [4094, 4095, 4096, 4097, 20_000] {
            s.insert(idx, idx);
        }
        assert_eq!(keys(&s), vec![4094, 4095, 4096, 4097, 20_000]);
        assert_eq!(s.first(), Some((4094, &4094)));
        assert_eq!(s.last(), Some((20_000, &20_000)));
        let mut missing = Vec::new();
        s.missing_runs_in(4090, 4100, |a, b| missing.push((a, b)));
        assert_eq!(missing, vec![(4090, 4093), (4098, 4100)]);
    }

    #[test]
    fn insert_below_base_extends_front() {
        let mut s = SeqSlab::new();
        s.insert(10_000, 1);
        s.insert(3, 2);
        assert_eq!(keys(&s), vec![3, 10_000]);
        assert_eq!(s.first(), Some((3, &2)));
    }

    #[test]
    fn word_boundary_masks() {
        let mut s = SeqSlab::new();
        for idx in [63, 64, 127, 128] {
            s.insert(idx, idx);
        }
        let mut got = Vec::new();
        s.for_each_in(63, 128, |i, _| got.push(i));
        assert_eq!(got, vec![63, 64, 127, 128]);
        got.clear();
        s.for_each_in(64, 127, |i, _| got.push(i));
        assert_eq!(got, vec![64, 127]);
        let mut missing = Vec::new();
        s.missing_runs_in(63, 128, |a, b| missing.push((a, b)));
        assert_eq!(missing, vec![(65, 126)]);
    }

    #[test]
    fn missing_runs_skip_absent_segments_cheaply() {
        let mut s = SeqSlab::new();
        s.insert(1, 1);
        s.insert(5_000_000, 2);
        let mut missing = Vec::new();
        s.missing_runs_in(1, 10_000_000, |a, b| missing.push((a, b)));
        assert_eq!(missing, vec![(2, 4_999_999), (5_000_001, 10_000_000)]);
        // Entirely-empty span.
        let empty: SeqSlab<u64> = SeqSlab::new();
        let mut runs = Vec::new();
        empty.missing_runs_in(10, 20, |a, b| runs.push((a, b)));
        assert_eq!(runs, vec![(10, 20)]);
    }

    #[test]
    fn pop_first_and_truncate_front() {
        let mut s = SeqSlab::new();
        for idx in 0..10_000u64 {
            s.insert(idx, idx);
        }
        assert_eq!(s.pop_first(), Some((0, 0)));
        // Trim to 100 entries: drops two whole segments plus a bit-trim.
        s.truncate_front(100);
        assert_eq!(s.len(), 100);
        assert_eq!(s.first().map(|(i, _)| i), Some(9900));
        assert_eq!(s.last().map(|(i, _)| i), Some(9999));
        s.truncate_front(0);
        assert!(s.is_empty());
        assert_eq!(s.pop_first(), None);
    }

    #[test]
    fn retain_drops_and_shrinks() {
        let mut s = SeqSlab::new();
        for idx in 0..9000u64 {
            s.insert(idx, idx);
        }
        s.retain(|idx, _| idx >= 8500);
        assert_eq!(s.len(), 500);
        assert_eq!(s.first().map(|(i, _)| i), Some(8500));
        // The front segments (0 and 1) were emptied and dropped.
        assert!(s.base_seg >= 2);
    }

    #[test]
    fn range_iterates_within_bounds() {
        let mut s = SeqSlab::new();
        for idx in [2, 64, 4095, 4096, 9000] {
            s.insert(idx, idx * 10);
        }
        let got: Vec<u64> = s.range(64, 4096).map(|(i, _)| i).collect();
        assert_eq!(got, vec![64, 4095, 4096]);
        assert_eq!(s.range(5, 1).count(), 0);
        assert_eq!(s.range(9001, u64::MAX).count(), 0);
    }
}
