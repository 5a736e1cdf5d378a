//! The packet log held by a logging server.
//!
//! "The length of time that the logging server must store a packet is
//! application-specific" (§2): some applications keep packets only for
//! their useful lifetime, others log everything. [`Retention`] captures
//! those policies; [`LogStore`] is the store itself, indexed by unwrapped
//! sequence number so wraparound is a non-event.
//!
//! Entries live in a [`SeqSlab`] — segmented storage with per-segment
//! presence bitmaps, O(1) insert/get/has and word-scan span queries;
//! this is the hot tier the repair path serves from. The randomized
//! property tests in `crates/core/tests/logstore_diff.rs` drive the
//! store against a plain `BTreeMap` model through the same operation
//! streams and compare every observable. Payloads only the log holds
//! are packed a block at a time into one shared buffer
//! ([`LogStore::pack`]): one decoded off the network otherwise keeps its
//! whole datagram allocation alive.
//!
//! Contiguity claims ([`LogStore::contiguous_high`]) are deliberately
//! *not* read from the slab's presence bitmaps: they come from an
//! [`IntervalSet`] of every index **ever** logged, which survives
//! pruning. A primary that reported contiguity from current presence
//! would let retention fake contiguity across a never-logged gap and the
//! source would discard an unlogged packet.

use std::collections::BTreeMap;
use std::time::Duration;

use bytes::Bytes;

use lbrm_wire::{Seq, SeqRange};

use crate::gaps::SeqUnwrapper;
use crate::slab::SeqSlab;
use crate::time::Time;

/// How long logged packets are kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retention {
    /// Keep everything (the paper's strong-persistence applications; a
    /// disk spill would hang off this policy in a deployment).
    All,
    /// Keep at most the newest `n` packets.
    Count(usize),
    /// Keep packets for their useful lifetime.
    Lifetime(Duration),
}

/// Indexes per packing block (see [`LogStore::pack`]).
const PACK: u64 = 128;

/// One logged packet. The sequence number is not stored: the unwrapped
/// index key re-wraps to it exactly.
#[derive(Debug, Clone)]
struct Entry {
    payload: Bytes,
    logged_at: Time,
}

/// A set of `u64` indexes stored as coalesced half-open runs
/// `[start, end)`. Memory is proportional to the number of *gaps*, not
/// packets, so "ever logged" bookkeeping stays small for long streams.
#[derive(Debug, Clone, Default)]
struct IntervalSet {
    runs: BTreeMap<u64, u64>,
}

impl IntervalSet {
    fn contains(&self, idx: u64) -> bool {
        self.runs
            .range(..=idx)
            .next_back()
            .is_some_and(|(_, &end)| idx < end)
    }

    /// Inserts one index, coalescing with neighbors. Returns `true` if new.
    fn insert(&mut self, idx: u64) -> bool {
        if self.contains(idx) {
            return false;
        }
        // Merge with a preceding run ending exactly at idx.
        let prev = self
            .runs
            .range(..=idx)
            .next_back()
            .filter(|(_, &end)| end == idx)
            .map(|(&s, _)| s);
        // Merge with a following run starting exactly at idx + 1.
        let next = self.runs.get(&(idx + 1)).copied();
        match (prev, next) {
            (Some(p), Some(n)) => {
                self.runs.remove(&(idx + 1));
                self.runs.insert(p, n);
            }
            (Some(p), None) => {
                self.runs.insert(p, idx + 1);
            }
            (None, Some(n)) => {
                self.runs.remove(&(idx + 1));
                self.runs.insert(idx, n);
            }
            (None, None) => {
                self.runs.insert(idx, idx + 1);
            }
        }
        true
    }

    /// The first (lowest) run, if any.
    fn first_run(&self) -> Option<(u64, u64)> {
        self.runs.first_key_value().map(|(&s, &e)| (s, e))
    }
}

/// An in-memory packet log with retention and contiguity tracking.
#[derive(Debug, Clone)]
pub struct LogStore {
    retention: Retention,
    unwrapper: SeqUnwrapper,
    entries: SeqSlab<Entry>,
    /// Every index ever logged (survives pruning), as coalesced runs:
    /// contiguity claims are made from this, so pruning can never fake
    /// contiguity across a never-logged gap.
    logged: IntervalSet,
    /// Packing block of the newest index logged so far.
    head_block: Option<u64>,
}

impl LogStore {
    /// Creates an empty store with the given retention policy.
    pub fn new(retention: Retention) -> Self {
        LogStore {
            retention,
            unwrapper: SeqUnwrapper::new(),
            entries: SeqSlab::new(),
            logged: IntervalSet::default(),
            head_block: None,
        }
    }

    /// Number of packets currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no packets are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a packet; returns `true` if it was new. Duplicate inserts
    /// keep the original timestamp and payload.
    pub fn insert(&mut self, now: Time, seq: Seq, payload: Bytes) -> bool {
        let idx = self.unwrapper.unwrap(seq);
        let fresh = self.logged.insert(idx);
        if fresh {
            let entry = Entry {
                payload,
                logged_at: now,
            };
            self.entries.insert(idx, entry);
            self.prune(now);
            // The stream head entering a new block packs the block two
            // behind it: late, reordered arrivals have had a block's
            // worth of time to land.
            let block = idx / PACK;
            if self.head_block.is_none_or(|head| block > head) {
                self.head_block = Some(block);
                if let Some(behind) = block.checked_sub(2) {
                    self.pack(behind);
                }
            }
        }
        fresh
    }

    /// Copies the payloads of `block` that the log alone holds into one
    /// shared buffer. A payload decoded off the network is a slice of
    /// its datagram, so each would keep its own allocation and the
    /// datagram's headers alive for as long as it is logged; packed, a
    /// block of them costs one allocation and their bytes. A payload
    /// held elsewhere too (the simulator hands every logger the same
    /// buffer) is left as it is: copying it would cost memory, not save
    /// it.
    fn pack(&mut self, block: u64) {
        let (lo, hi) = (block * PACK, block * PACK + (PACK - 1));
        let mut bytes = Vec::new();
        let mut packed = Vec::new();
        self.entries.for_each_in(lo, hi, |idx, e| {
            if e.payload.is_unique() {
                if bytes.capacity() == 0 {
                    // Payloads of one stream tend to share a size.
                    bytes.reserve(PACK as usize * e.payload.len());
                }
                bytes.extend_from_slice(&e.payload);
                packed.push((idx, e.payload.len()));
            }
        });
        if packed.is_empty() {
            return;
        }
        let chunk = Bytes::copy_from_slice(&bytes);
        let mut at = 0;
        for (idx, len) in packed {
            let e = self.entries.get_mut(idx).expect("scanned above");
            e.payload = chunk.slice(at..at + len);
            at += len;
        }
    }

    /// Fetches a packet's payload if present.
    pub fn get(&self, seq: Seq) -> Option<Bytes> {
        let idx = self.unwrapper.peek(seq);
        self.entries.get(idx).map(|e| e.payload.clone())
    }

    /// `true` if the packet is currently held — answered from the
    /// presence bitmap; the payload is never cloned.
    pub fn has(&self, seq: Seq) -> bool {
        self.entries.contains(self.unwrapper.peek(seq))
    }

    /// Highest sequence such that every packet from the lowest-ever
    /// logged one through it has been logged (the cumulative-ack value a
    /// primary reports in `LogAck`). `None` until anything is logged.
    ///
    /// Late out-of-order arrivals *below* the previous lowest sequence
    /// can lower this value; consumers treat `LogAck` release points as
    /// monotone (the sender keeps the max it has seen).
    pub fn contiguous_high(&self) -> Option<Seq> {
        self.logged
            .first_run()
            .map(|(_, end)| SeqUnwrapper::rewrap(end - 1))
    }

    /// Sequences in `[first, last]` that are *not* held, as coalesced
    /// inclusive runs (what a logger still needs to fetch from its
    /// parent). Cost is O(held + runs), never O(span): a request spanning
    /// millions of absent sequences returns a single run instead of
    /// iterating (and allocating) them all — a word scan over presence
    /// bitmaps.
    pub fn missing_in(&self, first: Seq, last: Seq) -> Vec<SeqRange> {
        let lo = self.unwrapper.peek(first);
        let hi = self.unwrapper.peek(last);
        if hi < lo {
            return Vec::new();
        }
        let mut out = Vec::new();
        self.missing_runs(lo, hi, &mut out);
        out
    }

    /// Appends the missing runs in `[lo, hi]` (unwrapped) to `out`.
    fn missing_runs(&self, lo: u64, hi: u64, out: &mut Vec<SeqRange>) {
        self.entries.missing_runs_in(lo, hi, |start, end| {
            out.push(SeqRange {
                first: SeqUnwrapper::rewrap(start),
                last: SeqUnwrapper::rewrap(end),
            });
        });
    }

    /// Batched repair serving: partitions the `count` sequences starting
    /// at `first` into held payloads (appended to `present`, ascending
    /// sequence order) and missing runs (appended to `missing`,
    /// coalesced). One span scan replaces `count` individual
    /// `has`/`get` calls on the NACK path.
    pub fn collect_span(
        &self,
        first: Seq,
        count: u64,
        present: &mut Vec<(Seq, Bytes)>,
        missing: &mut Vec<SeqRange>,
    ) {
        if count == 0 {
            return;
        }
        let lo = self.unwrapper.peek(first);
        let hi = lo + (count - 1);
        self.entries.for_each_in(lo, hi, |idx, e| {
            present.push((SeqUnwrapper::rewrap(idx), e.payload.clone()));
        });
        self.missing_runs(lo, hi, missing);
    }

    /// Applies the retention policy at time `now`.
    pub fn prune(&mut self, now: Time) {
        match self.retention {
            Retention::All => {}
            // The slab drops whole sealed segments in O(1) and bit-trims
            // only the head segment.
            Retention::Count(n) => self.entries.truncate_front(n),
            Retention::Lifetime(ttl) => {
                // Entries sit in logged order for the in-order common
                // case, so expired ones cluster at the front: pop them
                // directly and stop at the first unexpired entry — no
                // temporary key Vec on every insert.
                while let Some((_, e)) = self.entries.first() {
                    if now.since(e.logged_at) > ttl {
                        self.entries.pop_first();
                    } else {
                        break;
                    }
                }
            }
        }
    }

    /// Iterates held packets in sequence order.
    pub fn iter(&self) -> impl Iterator<Item = (Seq, &Bytes)> {
        self.entries
            .iter()
            .map(|(idx, e)| (SeqUnwrapper::rewrap(idx), &e.payload))
    }

    /// The oldest held sequence, if any.
    pub fn oldest(&self) -> Option<Seq> {
        self.entries
            .first()
            .map(|(idx, _)| SeqUnwrapper::rewrap(idx))
    }

    /// The newest held sequence, if any.
    pub fn newest(&self) -> Option<Seq> {
        self.entries
            .last()
            .map(|(idx, _)| SeqUnwrapper::rewrap(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut log = LogStore::new(Retention::All);
        assert!(log.insert(Time::ZERO, Seq(1), b("one")));
        assert!(log.insert(Time::ZERO, Seq(2), b("two")));
        assert!(!log.insert(Time::ZERO, Seq(1), b("dup")));
        assert_eq!(log.get(Seq(1)), Some(b("one"))); // original kept
        assert_eq!(log.get(Seq(3)), None);
        assert_eq!(log.len(), 2);
        assert!(!log.is_empty());
    }

    #[test]
    fn contiguity_tracks_gaps() {
        let mut log = LogStore::new(Retention::All);
        assert_eq!(log.contiguous_high(), None);
        log.insert(Time::ZERO, Seq(1), b("a"));
        assert_eq!(log.contiguous_high(), Some(Seq(1)));
        log.insert(Time::ZERO, Seq(3), b("c"));
        assert_eq!(log.contiguous_high(), Some(Seq(1))); // 2 missing
        log.insert(Time::ZERO, Seq(2), b("b"));
        assert_eq!(log.contiguous_high(), Some(Seq(3)));
    }

    #[test]
    fn missing_in_reports_holes() {
        let mut log = LogStore::new(Retention::All);
        log.insert(Time::ZERO, Seq(1), b("a"));
        log.insert(Time::ZERO, Seq(4), b("d"));
        assert_eq!(
            log.missing_in(Seq(1), Seq(4)),
            vec![SeqRange {
                first: Seq(2),
                last: Seq(3)
            }]
        );
        assert_eq!(log.missing_in(Seq(4), Seq(1)), Vec::<SeqRange>::new());
        assert_eq!(log.missing_in(Seq(1), Seq(1)), Vec::<SeqRange>::new());
    }

    #[test]
    fn missing_in_emits_runs_not_sequences() {
        // A NACK spanning a mostly-empty range must cost O(held + runs):
        // the result is a handful of runs, never millions of elements.
        let mut log = LogStore::new(Retention::All);
        log.insert(Time::ZERO, Seq(1), b("a"));
        log.insert(Time::ZERO, Seq(5_000_000), b("m"));
        let missing = log.missing_in(Seq(1), Seq(10_000_000));
        assert_eq!(
            missing,
            vec![
                SeqRange {
                    first: Seq(2),
                    last: Seq(4_999_999)
                },
                SeqRange {
                    first: Seq(5_000_001),
                    last: Seq(10_000_000)
                },
            ]
        );
        // Edge runs: hole at the very start and very end of the span.
        let empty = LogStore::new(Retention::All);
        assert_eq!(
            empty.missing_in(Seq(10), Seq(20)),
            vec![SeqRange {
                first: Seq(10),
                last: Seq(20)
            }]
        );
        // Fully-held span has no runs.
        let mut full = LogStore::new(Retention::All);
        for i in 1..=5 {
            full.insert(Time::ZERO, Seq(i), b("x"));
        }
        assert_eq!(full.missing_in(Seq(1), Seq(5)), Vec::<SeqRange>::new());
    }

    #[test]
    fn collect_span_partitions_present_and_missing() {
        let mut log = LogStore::new(Retention::All);
        log.insert(Time::ZERO, Seq(1), b("a"));
        log.insert(Time::ZERO, Seq(3), b("c"));
        log.insert(Time::ZERO, Seq(4), b("d"));
        let mut present = Vec::new();
        let mut missing = Vec::new();
        log.collect_span(Seq(1), 5, &mut present, &mut missing);
        let seqs: Vec<Seq> = present.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![Seq(1), Seq(3), Seq(4)]);
        assert_eq!(present[0].1, b("a"));
        assert_eq!(
            missing,
            vec![
                SeqRange {
                    first: Seq(2),
                    last: Seq(2)
                },
                SeqRange {
                    first: Seq(5),
                    last: Seq(5)
                },
            ]
        );
        // Zero-count spans touch nothing.
        present.clear();
        missing.clear();
        log.collect_span(Seq(1), 0, &mut present, &mut missing);
        assert!(present.is_empty() && missing.is_empty());
    }

    #[test]
    fn count_retention_evicts_oldest() {
        let mut log = LogStore::new(Retention::Count(3));
        for i in 1..=5 {
            log.insert(Time::ZERO, Seq(i), b("x"));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.oldest(), Some(Seq(3)));
        assert_eq!(log.newest(), Some(Seq(5)));
        assert!(!log.has(Seq(1)));
        assert!(log.has(Seq(5)));
        // Contiguity is not broken by pruning: everything through 5
        // was once logged.
        assert_eq!(log.contiguous_high(), Some(Seq(5)));
    }

    #[test]
    fn lifetime_retention_expires() {
        let mut log = LogStore::new(Retention::Lifetime(Duration::from_secs(10)));
        log.insert(Time::ZERO, Seq(1), b("a"));
        log.insert(Time::from_secs(8), Seq(2), b("b"));
        log.prune(Time::from_secs(11));
        assert!(!log.has(Seq(1)));
        assert!(log.has(Seq(2)));
        log.prune(Time::from_secs(19));
        assert!(log.is_empty());
    }

    #[test]
    fn iter_in_order_across_wrap() {
        let mut log = LogStore::new(Retention::All);
        log.insert(Time::ZERO, Seq(u32::MAX), b("a"));
        log.insert(Time::ZERO, Seq(0), b("b"));
        log.insert(Time::ZERO, Seq(1), b("c"));
        let seqs: Vec<Seq> = log.iter().map(|(s, _)| s).collect();
        assert_eq!(seqs, vec![Seq(u32::MAX), Seq(0), Seq(1)]);
        assert_eq!(log.contiguous_high(), Some(Seq(1)));
    }

    #[test]
    fn pruning_never_fakes_contiguity_over_a_gap() {
        // Seq 2 is never logged; even after pruning hides the hole, the
        // store must not claim contiguity past 1 — a primary reporting
        // otherwise would let the source discard an unlogged packet.
        let mut log = LogStore::new(Retention::Count(2));
        log.insert(Time::ZERO, Seq(1), b("a"));
        log.insert(Time::ZERO, Seq(3), b("c"));
        log.insert(Time::ZERO, Seq(4), b("d"));
        log.insert(Time::ZERO, Seq(5), b("e"));
        assert_eq!(log.contiguous_high(), Some(Seq(1)));
        // Late arrival of 2 (e.g. recovered from the source) repairs
        // it.
        log.insert(Time::ZERO, Seq(2), b("b"));
        assert_eq!(log.contiguous_high(), Some(Seq(5)));
    }

    #[test]
    fn out_of_order_inserts() {
        let mut log = LogStore::new(Retention::All);
        log.insert(Time::ZERO, Seq(5), b("e"));
        log.insert(Time::ZERO, Seq(7), b("g"));
        log.insert(Time::ZERO, Seq(6), b("f"));
        assert_eq!(log.contiguous_high(), Some(Seq(7)));
        assert_eq!(log.missing_in(Seq(5), Seq(7)), Vec::<SeqRange>::new());
    }

    #[test]
    fn lifetime_prune_pops_expired_front_and_stops() {
        let mut log = LogStore::new(Retention::Lifetime(Duration::from_secs(10)));
        for i in 1..=3 {
            log.insert(Time::from_secs(i as u64), Seq(i), b("x"));
        }
        // At t=13 entries logged at 1 and 2 are expired, 3 is not.
        log.prune(Time::from_secs(13));
        assert!(!log.has(Seq(1)));
        assert!(!log.has(Seq(2)));
        assert!(log.has(Seq(3)));
        // A late out-of-order arrival (low seq, fresh timestamp) sits
        // at the front; the front-pop stops there — same shielding
        // the original front-scan had.
        log.insert(Time::from_secs(20), Seq(0), b("late-low"));
        log.prune(Time::from_secs(25));
        assert!(log.has(Seq(0)));
        assert!(log.has(Seq(3)), "shielded by the unexpired front entry");
    }

    /// Payloads only the log holds are packed into one buffer per block
    /// once the head is two blocks on; one held elsewhere too keeps its
    /// own buffer, and every payload reads back unchanged.
    #[test]
    fn packs_only_payloads_the_log_alone_holds() {
        let mut log = LogStore::new(Retention::All);
        let shared = b("held-by-the-caller");
        let payload = |i: u32| Bytes::copy_from_slice(&i.to_be_bytes());
        let n = 3 * PACK as u32;
        for i in 0..n {
            let p = if i == 5 { shared.clone() } else { payload(i) };
            log.insert(Time::ZERO, Seq(i), p);
        }
        let at = |i: u32| log.get(Seq(i)).unwrap().as_ptr() as usize;
        // Block 0 is packed: neighbours sit side by side in one buffer,
        // skipping the shared payload, which is left where it was.
        assert_eq!(at(1), at(0) + 4);
        assert_eq!(at(6), at(4) + 4);
        assert_eq!(at(5), shared.as_ptr() as usize);
        // Block 1 is only one behind the head: not yet.
        let block1 = PACK as u32;
        assert_ne!(at(block1 + 1), at(block1) + 4);
        for i in (0..n).filter(|&i| i != 5) {
            assert_eq!(log.get(Seq(i)), Some(payload(i)));
        }
        assert_eq!(log.get(Seq(5)), Some(shared));
    }

    #[test]
    fn count_retention_across_segment_boundaries() {
        // Retention smaller than a segment, stream longer than several
        // segments: whole-segment drops plus head trims must leave
        // exactly the newest 100.
        let mut log = LogStore::new(Retention::Count(100));
        for i in 1..=20_000u32 {
            log.insert(Time::ZERO, Seq(i), b("x"));
        }
        assert_eq!(log.len(), 100);
        assert_eq!(log.oldest(), Some(Seq(19_901)));
        assert_eq!(log.newest(), Some(Seq(20_000)));
        assert!(!log.has(Seq(19_900)));
        assert!(log.has(Seq(19_901)));
    }
}
