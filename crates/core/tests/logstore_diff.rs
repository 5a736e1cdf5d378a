//! LogStore-vs-model differential property tests.
//!
//! The segmented-slab [`LogStore`] must be observably identical to the
//! simplest thing that could work — the `BTreeMap` keyed by unwrapped
//! index it replaced, kept here as a private [`Model`] — for every
//! operation the protocol performs. These seeded randomized loops (the
//! offline stand-in for proptest, same pattern as `proptests.rs`) drive
//! both through identical operation streams — inserts in and out of
//! order, duplicate inserts, retention pruning, span queries — and
//! compare every observable after every step. Dedicated edge tests cover
//! sequence wraparound and segment/word boundaries, where the slab's bit
//! arithmetic earns its keep.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use bytes::Bytes;
use lbrm_core::gaps::SeqUnwrapper;
use lbrm_core::logstore::{LogStore, Retention};
use lbrm_core::time::Time;
use lbrm_wire::packet::SeqRange;
use lbrm_wire::Seq;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The reference the slab store must match: held packets in a
/// `BTreeMap`, every index ever logged in a `BTreeSet`, retention as a
/// pop-from-the-front loop.
struct Model {
    retention: Retention,
    unwrapper: SeqUnwrapper,
    held: BTreeMap<u64, (Bytes, Time)>,
    logged: BTreeSet<u64>,
}

fn range(lo: u64, hi: u64) -> SeqRange {
    SeqRange {
        first: SeqUnwrapper::rewrap(lo),
        last: SeqUnwrapper::rewrap(hi),
    }
}

impl Model {
    fn new(retention: Retention) -> Model {
        Model {
            retention,
            unwrapper: SeqUnwrapper::new(),
            held: BTreeMap::new(),
            logged: BTreeSet::new(),
        }
    }

    fn insert(&mut self, now: Time, seq: Seq, payload: Bytes) -> bool {
        let idx = self.unwrapper.unwrap(seq);
        let fresh = self.logged.insert(idx);
        if fresh {
            self.held.insert(idx, (payload, now));
            self.prune(now);
        }
        fresh
    }

    fn prune(&mut self, now: Time) {
        match self.retention {
            Retention::All => {}
            Retention::Count(n) => {
                while self.held.len() > n {
                    self.held.pop_first();
                }
            }
            Retention::Lifetime(ttl) => {
                while let Some(e) = self.held.first_entry() {
                    if now.since(e.get().1) > ttl {
                        e.remove();
                    } else {
                        break;
                    }
                }
            }
        }
    }

    fn get(&self, seq: Seq) -> Option<Bytes> {
        let idx = self.unwrapper.peek(seq);
        self.held.get(&idx).map(|(payload, _)| payload.clone())
    }

    fn contiguous_high(&self) -> Option<Seq> {
        let mut it = self.logged.iter().copied();
        let mut end = it.next()?;
        for idx in it {
            if idx != end + 1 {
                break;
            }
            end = idx;
        }
        Some(SeqUnwrapper::rewrap(end))
    }

    fn oldest(&self) -> Option<Seq> {
        let (&idx, _) = self.held.first_key_value()?;
        Some(SeqUnwrapper::rewrap(idx))
    }

    fn newest(&self) -> Option<Seq> {
        let (&idx, _) = self.held.last_key_value()?;
        Some(SeqUnwrapper::rewrap(idx))
    }

    /// `collect_span` over `[first, first + count)`: held payloads in
    /// ascending order, and the coalesced missing runs between them.
    fn collect_span(&self, first: Seq, count: u64) -> (Vec<(Seq, Bytes)>, Vec<SeqRange>) {
        let (mut present, mut missing) = (Vec::new(), Vec::new());
        if count == 0 {
            return (present, missing);
        }
        let lo = self.unwrapper.peek(first);
        let hi = lo + (count - 1);
        let mut cursor = lo;
        for (&idx, (payload, _)) in self.held.range(lo..=hi) {
            if idx > cursor {
                missing.push(range(cursor, idx - 1));
            }
            cursor = idx + 1;
            present.push((SeqUnwrapper::rewrap(idx), payload.clone()));
        }
        if cursor <= hi {
            missing.push(range(cursor, hi));
        }
        (present, missing)
    }

    fn missing_in(&self, first: Seq, last: Seq) -> Vec<SeqRange> {
        let lo = self.unwrapper.peek(first);
        let hi = self.unwrapper.peek(last);
        if hi < lo {
            return Vec::new();
        }
        self.collect_span(first, hi - lo + 1).1
    }
}

fn payload(seq: u32) -> Bytes {
    Bytes::from(seq.to_be_bytes().to_vec())
}

/// Asserts every observable of the store agrees with the model; `span`
/// bounds the sequence window the run used so query probes stay in scope.
fn assert_equivalent(store: &LogStore, model: &Model, base: u32, span: u32, r: &mut SmallRng) {
    assert_eq!(store.len(), model.held.len());
    assert_eq!(store.is_empty(), model.held.is_empty());
    assert_eq!(store.contiguous_high(), model.contiguous_high());
    assert_eq!(store.oldest(), model.oldest());
    assert_eq!(store.newest(), model.newest());
    // Random point probes.
    for _ in 0..8 {
        let seq = Seq(base.wrapping_add(r.random_range(0u64..u64::from(span)) as u32));
        assert_eq!(store.has(seq), model.get(seq).is_some(), "has({seq:?})");
        assert_eq!(store.get(seq), model.get(seq), "get({seq:?})");
    }
    // Random span probes (missing_in + collect_span).
    for _ in 0..4 {
        let a = r.random_range(0u64..u64::from(span)) as u32;
        let b = r.random_range(0u64..u64::from(span)) as u32;
        let first = Seq(base.wrapping_add(a.min(b)));
        let last = Seq(base.wrapping_add(a.max(b)));
        assert_eq!(
            store.missing_in(first, last),
            model.missing_in(first, last),
            "missing_in({first:?}, {last:?})"
        );
        let count = u64::from(a.max(b) - a.min(b)) + 1;
        let (mut present, mut missing) = (Vec::new(), Vec::new());
        store.collect_span(first, count, &mut present, &mut missing);
        let (want_present, want_missing) = model.collect_span(first, count);
        assert_eq!(
            present, want_present,
            "collect_span present ({first:?}, {count})"
        );
        assert_eq!(
            missing, want_missing,
            "collect_span missing ({first:?}, {count})"
        );
    }
}

/// Full in-order iteration equality (O(n) — compared at run end).
fn assert_iter_equal(store: &LogStore, model: &Model) {
    let got: Vec<(Seq, &Bytes)> = store.iter().collect();
    let want: Vec<(Seq, &Bytes)> = model
        .held
        .iter()
        .map(|(&idx, (payload, _))| (SeqUnwrapper::rewrap(idx), payload))
        .collect();
    assert_eq!(got, want);
}

/// One random run: identical op stream into store and model, observables
/// compared after every operation.
fn differential_run(seed: u64, base: u32, span: u32, retention: Retention) {
    let mut r = SmallRng::seed_from_u64(seed);
    let mut store = LogStore::new(retention);
    let mut model = Model::new(retention);
    let mut now = Time::ZERO;
    let ops = r.random_range(40u64..160) as usize;
    for _ in 0..ops {
        match r.random_range(0u64..10) {
            // Mostly inserts (including duplicates — same payload rule).
            0..=6 => {
                let seq = Seq(base.wrapping_add(r.random_range(0u64..u64::from(span)) as u32));
                let fresh = store.insert(now, seq, payload(seq.raw()));
                let want = model.insert(now, seq, payload(seq.raw()));
                assert_eq!(fresh, want, "insert({seq:?}) freshness");
            }
            // A short in-order burst (the common case).
            7 => {
                let start = r.random_range(0u64..u64::from(span)) as u32;
                for i in 0..r.random_range(1u64..20) as u32 {
                    let seq = Seq(base.wrapping_add(start).wrapping_add(i));
                    store.insert(now, seq, payload(seq.raw()));
                    model.insert(now, seq, payload(seq.raw()));
                }
            }
            // Time advances (drives Lifetime retention).
            8 => {
                now += Duration::from_millis(r.random_range(1u64..5_000));
            }
            // Explicit prune sweep at the current time.
            _ => {
                store.prune(now);
                model.prune(now);
            }
        }
        assert_equivalent(&store, &model, base, span, &mut r);
    }
    assert_iter_equal(&store, &model);
}

#[test]
fn randomized_differential_all_retention() {
    for seed in 0..24 {
        differential_run(0xD1FF + seed, 1_000, 40_000, Retention::All);
    }
}

#[test]
fn randomized_differential_count_retention() {
    for seed in 0..24 {
        // Caps below, at, and above one 4096-slot segment.
        let cap = [64, 1_000, 4_096, 9_000][seed as usize % 4];
        differential_run(0xC0DE + seed, 1_000, 40_000, Retention::Count(cap));
    }
}

#[test]
fn randomized_differential_lifetime_retention() {
    for seed in 0..24 {
        differential_run(
            0x11FE + seed,
            1_000,
            40_000,
            Retention::Lifetime(Duration::from_secs(10)),
        );
    }
}

#[test]
fn randomized_differential_across_seq_wraparound() {
    // Sequence windows straddling u32::MAX: the unwrapper maps them onto
    // one monotone line and store and model must agree bit-for-bit.
    for seed in 0..24 {
        differential_run(0x3A9 + seed, u32::MAX - 20_000, 40_000, Retention::All);
        differential_run(
            0x7B1 + seed,
            u32::MAX - 20_000,
            40_000,
            Retention::Count(2_000),
        );
    }
}

#[test]
fn wraparound_span_queries_cross_the_seam() {
    let mut store = LogStore::new(Retention::All);
    store.insert(Time::ZERO, Seq(u32::MAX - 1), payload(1));
    store.insert(Time::ZERO, Seq(1), payload(2));
    assert_eq!(
        store.missing_in(Seq(u32::MAX - 1), Seq(1)),
        vec![SeqRange {
            first: Seq(u32::MAX),
            last: Seq(0)
        }]
    );
    store.insert(Time::ZERO, Seq(u32::MAX), payload(3));
    store.insert(Time::ZERO, Seq(0), payload(4));
    assert_eq!(store.contiguous_high(), Some(Seq(1)));
    let seqs: Vec<Seq> = store.iter().map(|(s, _)| s).collect();
    assert_eq!(seqs, vec![Seq(u32::MAX - 1), Seq(u32::MAX), Seq(0), Seq(1)]);
}

#[test]
fn segment_and_word_boundary_edges() {
    // Presence straddling the 4096-entry segment boundary and 64-bit
    // word boundaries.
    let edges = [63u32, 64, 127, 4_095, 4_096, 8_191, 8_192];
    let mut store = LogStore::new(Retention::All);
    for &e in &edges {
        store.insert(Time::ZERO, Seq(e), payload(e));
    }
    for &e in &edges {
        assert!(store.has(Seq(e)), "has({e})");
        if !edges.contains(&(e + 1)) {
            assert!(!store.has(Seq(e + 1)), "!has({})", e + 1);
        }
        assert_eq!(store.get(Seq(e)), Some(payload(e)));
    }
    // The missing runs between edges coalesce exactly.
    assert_eq!(
        store.missing_in(Seq(63), Seq(8_192)),
        vec![
            SeqRange {
                first: Seq(65),
                last: Seq(126)
            },
            SeqRange {
                first: Seq(128),
                last: Seq(4_094)
            },
            SeqRange {
                first: Seq(4_097),
                last: Seq(8_190)
            },
        ]
    );
}

#[test]
fn count_prune_at_exact_segment_multiples() {
    // Retention exactly at segment-size multiples exercises the slab's
    // whole-segment drop path with an empty head trim.
    for cap in [4_096usize, 8_192] {
        let mut store = LogStore::new(Retention::Count(cap));
        let mut model = Model::new(Retention::Count(cap));
        for i in 0..20_000u32 {
            store.insert(Time::ZERO, Seq(i), payload(i));
            model.insert(Time::ZERO, Seq(i), payload(i));
        }
        assert_eq!(store.len(), cap);
        assert_eq!(store.oldest(), model.oldest());
        assert_eq!(store.newest(), model.newest());
        assert_iter_equal(&store, &model);
    }
}
