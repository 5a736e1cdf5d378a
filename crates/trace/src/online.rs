//! The recovery-forensics correlator: the [`OnlineAnalyzer`] folds a
//! [`ProtocolEvent`] stream *one record at a time* into a
//! [`RecoveryReport`]. It is the only correlation loop and the only
//! place an [`Anomaly`] is raised; live sinks, JSONL replay, the doctor
//! sidecar and [`analyze`](crate::analyze::analyze) (sort, then fold
//! with unbounded reservoirs) all go through it.
//!
//! For the million-event captures a thousands-of-sites DIS run
//! produces, materializing every record and every per-`(host, seq)`
//! timeline blows up exactly where the forensics layer matters most.
//! The correlator instead:
//!
//! * holds only the **open** timelines, evicting each one the moment it
//!   closes (repair received and the `Recovered`/`RecoveryAbandoned`
//!   settlement observed) or ages out past a configurable horizon;
//! * folds stage latencies straight into fixed-size
//!   [`StreamingHistogram`]s (power-of-two buckets + a bounded,
//!   deterministically seeded reservoir), never a vector of samples;
//! * retains closed timelines in a bounded reservoir (close order is
//!   preserved among the survivors);
//! * meters its own resident state — live timelines and approximate
//!   bytes — as a first-class [`StreamStats`] metric in the final
//!   [`RecoveryReport`], which is what the `trace_doctor --mem-budget`
//!   CI gate asserts on.
//!
//! A record costs hash probes, not tree updates: the lookup-only state
//! lives in `FixedMap`s (a fixed multiply-rotate hasher, so even
//! iteration order is a pure function of the input), and the age index
//! is a sorted queue that closing a timeline never touches. The maps
//! [`finish`](OnlineAnalyzer::finish) walks in key order stay B-trees,
//! except the two a record probes most, the still-open timelines and
//! the duplicate counts, which are sorted once, there.
//!
//! **Fidelity contract.** With no live-cap and no horizon the report is
//! exact up to reservoir sampling: while the number of recoveries stays
//! at or below the reservoir capacities the histograms and retained
//! timelines hold every sample; beyond that, counts, means and maxima
//! stay exact and percentiles answer from the reservoir. The reference
//! the loop is checked against is the straight-line analyzer it
//! replaced, kept as a private oracle in
//! `crates/bench/tests/forensics_stream_sim.rs`, which pins field-for-
//! field equality on seeded lossy-WAN captures with randomized loss
//! patterns.
//!
//! Divergences are explicit, never silent:
//!
//! * a **horizon** closes an open timeline that outlived it as
//!   `Unrecovered` (with the matching unrecovered-gap anomaly) —
//!   "recovered eventually, after the horizon" is reported as a
//!   failure, which is the right call for a live monitor;
//! * a **live-timeline cap** force-evicts the oldest open timeline;
//!   its fate is unknown, so it is only counted in
//!   [`StreamStats::force_evicted`] (no anomaly, no timeline);
//! * out-of-order records are correlated as they arrive and counted in
//!   [`StreamStats::out_of_order`]; only
//!   [`analyze`](crate::analyze::analyze) sorts first.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Mutex;

use lbrm_wire::{HostId, Seq};

use crate::analyze::{
    AnalyzeConfig, Anomaly, RecoveryOutcome, RecoveryReport, RecoveryTimeline, RepairSource,
    StreamStats, TraceRecord, DUPLICATE_BOUND, MAX_GAP_SPAN, SETTLE_SLACK_NANOS,
};
use crate::{lock, ProtocolEvent, StreamingHistogram, TraceSink};

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// rustc's FxHasher scheme: one rotate, xor and multiply per word. It
/// has no per-process seed, so a [`FixedMap`] hashes, probes and
/// iterates identically on every run.
#[derive(Debug, Default, Clone, Copy)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The crate's one hashed container: a `HashMap` keyed through
/// [`FxHasher`], for state that is only ever looked up by key.
type FixedMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Tunables for the [`OnlineAnalyzer`]. The defaults never evict (no
/// cap, no horizon) and keep reservoirs big enough that sim-scale runs
/// are never sampled.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// The correlation/anomaly tunables.
    pub analyze: AnalyzeConfig,
    /// Hard cap on concurrently open timelines; the oldest is
    /// force-evicted (counted, not flagged) when exceeded. `None` = no
    /// cap (the `--mem-budget` gate then measures the true peak).
    pub max_live_timelines: Option<usize>,
    /// Age-out horizon: an open timeline whose loss was detected more
    /// than this many nanoseconds before the current record is closed
    /// as unrecovered. `None` = open timelines live to end-of-stream.
    pub horizon_nanos: Option<u64>,
    /// Raw-sample reservoir capacity per stage histogram.
    pub stage_reservoir: usize,
    /// Reservoir capacity for retained closed [`RecoveryTimeline`]s.
    pub timeline_reservoir: usize,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            analyze: AnalyzeConfig::default(),
            max_live_timelines: None,
            horizon_nanos: None,
            stage_reservoir: 4096,
            timeline_reservoir: 4096,
        }
    }
}

/// One still-open `(host, seq)` recovery.
#[derive(Debug, Clone)]
struct OpenRecovery {
    detected_at: u64,
    first_nack_at: Option<u64>,
    nacks_sent: u32,
    served_at: Option<u64>,
    served_by: Option<HostId>,
    repaired_at: Option<u64>,
    source: RepairSource,
}

/// Approximate resident bytes of one open-recovery map entry (payload +
/// key + node overhead) — the unit live state is metered in.
fn open_entry_bytes() -> u64 {
    (std::mem::size_of::<OpenRecovery>() + 12 + 32) as u64
}

/// Whether an age-queue entry `(detected_at, host, seq)` still names an
/// open timeline (and not a closed one, or a later one for the same
/// `(host, seq)`).
fn names_open(open: &FixedMap<(u64, u32), OpenRecovery>, &(at, h, s): &(u64, u64, u32)) -> bool {
    open.get(&(h, s)).is_some_and(|o| o.detected_at == at)
}

/// Bounded reservoir of closed timelines. Under capacity it is exactly
/// the close-order vector; over capacity, Algorithm R keeps a uniform
/// sample and close order is restored among the survivors at the end.
#[derive(Debug, Clone)]
struct TimelineReservoir {
    kept: Vec<(u64, RecoveryTimeline)>,
    capacity: usize,
    seen: u64,
    rng: u64,
}

impl TimelineReservoir {
    fn new(capacity: usize) -> Self {
        TimelineReservoir {
            kept: Vec::new(),
            capacity: capacity.max(1),
            seen: 0,
            rng: 0x7135_11FE_D00D_5EED,
        }
    }

    fn offer(&mut self, t: RecoveryTimeline) {
        if (self.seen as usize) < self.capacity {
            self.kept.push((self.seen, t));
        } else {
            let j = splitmix64(&mut self.rng) % (self.seen + 1);
            if (j as usize) < self.capacity {
                self.kept[j as usize] = (self.seen, t);
            }
        }
        self.seen += 1;
    }

    fn into_vec(mut self) -> Vec<RecoveryTimeline> {
        // Under capacity every offer was a push, in close order. Over
        // it, sort the 16-byte (close index, slot) pairs and move each
        // timeline into place once, not the timelines themselves.
        if self.seen > self.kept.len() as u64 {
            self.kept.sort_by_cached_key(|&(i, _)| i);
        }
        self.kept.into_iter().map(|(_, t)| t).collect()
    }
}

/// The streaming correlator: feed it records via [`push`]
/// (or through the [`OnlineAnalyzerSink`] adapter / a JSONL reader),
/// then [`finish`](OnlineAnalyzer::finish) it into a
/// [`RecoveryReport`].
///
/// [`push`]: OnlineAnalyzer::push
///
/// The analyzer is `Clone` so a live monitor can take a *provisional*
/// snapshot mid-stream (`analyzer.clone().finish()`) without disturbing
/// the ongoing correlation — see [`crate::doctor`].
#[derive(Debug, Clone)]
pub struct OnlineAnalyzer {
    cfg: OnlineConfig,
    // Correlation state. Hashed maps are probed by key (`finish` sorts
    // `open` and `dups_per_host_seq`); the ordered ones are walked in
    // key order by `finish`.
    roles: FixedMap<u64, &'static str>,
    sent_at: FixedMap<u32, u64>,
    sent_epoch: BTreeMap<u32, u32>,
    remulticast_at: FixedMap<u32, u64>,
    settled: BTreeSet<u32>,
    active_epochs: BTreeSet<u32>,
    open: FixedMap<(u64, u32), OpenRecovery>,
    /// Age index over `open`: `(detected_at, host, seq)`, strictly
    /// ascending, so the oldest open timeline is at the front. An
    /// in-order detection is a `push_back`. Closing a timeline leaves
    /// its entry behind; readers skip an entry whose `open` slot is gone
    /// or holds another `detected_at`, and the queue is compacted to the
    /// live entries once it holds more than `2 * live + 64`.
    by_age: VecDeque<(u64, u64, u32)>,
    requests_per_seq: BTreeMap<u32, u64>,
    dups_per_host_seq: FixedMap<(u64, u32), u64>,
    last_tx: BTreeMap<u64, u64>,
    max_silence: BTreeMap<u64, u64>,
    truncated_gap_spans: u64,
    // Election forensics: leaders per term, the newest elected term, and
    // (host, seq) serves made under a term older than the newest. A
    // repair from such a serve that a receiver *accepts* is split-brain.
    term_leaders: BTreeMap<u32, HostId>,
    max_term: u32,
    stale_serves: FixedMap<(u64, u32), u32>,
    /// Term conflicts and accepted stale serves, in stream order. Kept
    /// out of [`committed_anomalies`](Self::committed_anomalies) (like
    /// every end-of-stream detector) and appended after stalled
    /// settlements in [`finish`](Self::finish).
    split_brain: Vec<Anomaly>,
    fenced_rejects: u64,
    // Folded results.
    recovered: usize,
    abandoned: usize,
    unrecovered: usize,
    detection: StreamingHistogram,
    request: StreamingHistogram,
    serve: StreamingHistogram,
    return_leg: StreamingHistogram,
    total: StreamingHistogram,
    sources: BTreeMap<&'static str, u64>,
    telescoping: usize,
    timelines: TimelineReservoir,
    /// Unrecovered-gap anomalies raised by horizon evictions, in
    /// eviction order (end-of-stream gaps follow in key order).
    gap_anomalies: Vec<Anomaly>,
    // Stream bookkeeping.
    records: u64,
    last_at: u64,
    end_ns: u64,
    out_of_order: u64,
    peak_live: u64,
    peak_bytes: u64,
    force_evicted: u64,
    aged_out: u64,
}

impl OnlineAnalyzer {
    /// A fresh analyzer with the given tunables.
    pub fn new(cfg: OnlineConfig) -> Self {
        let stage = cfg.stage_reservoir;
        let tl = cfg.timeline_reservoir;
        OnlineAnalyzer {
            cfg,
            roles: FixedMap::default(),
            sent_at: FixedMap::default(),
            sent_epoch: BTreeMap::new(),
            remulticast_at: FixedMap::default(),
            settled: BTreeSet::new(),
            active_epochs: BTreeSet::new(),
            open: FixedMap::default(),
            by_age: VecDeque::new(),
            requests_per_seq: BTreeMap::new(),
            dups_per_host_seq: FixedMap::default(),
            last_tx: BTreeMap::new(),
            max_silence: BTreeMap::new(),
            truncated_gap_spans: 0,
            term_leaders: BTreeMap::new(),
            max_term: 0,
            stale_serves: FixedMap::default(),
            split_brain: Vec::new(),
            fenced_rejects: 0,
            recovered: 0,
            abandoned: 0,
            unrecovered: 0,
            detection: StreamingHistogram::new(stage),
            request: StreamingHistogram::new(stage),
            serve: StreamingHistogram::new(stage),
            return_leg: StreamingHistogram::new(stage),
            total: StreamingHistogram::new(stage),
            sources: BTreeMap::new(),
            telescoping: 0,
            timelines: TimelineReservoir::new(tl),
            gap_anomalies: Vec::new(),
            records: 0,
            last_at: 0,
            end_ns: 0,
            out_of_order: 0,
            peak_live: 0,
            peak_bytes: 0,
            force_evicted: 0,
            aged_out: 0,
        }
    }

    /// Records consumed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Currently open (live) timelines.
    pub fn live_timelines(&self) -> usize {
        self.open.len()
    }

    /// Most timelines ever open at once.
    pub fn peak_live_timelines(&self) -> u64 {
        self.peak_live
    }

    /// Approximate bytes of resident correlation state right now: live
    /// timelines + one age-index entry each, the per-seq/per-host
    /// aggregate maps, the stage histograms and the retained-timeline
    /// reservoir. Closed entries the age queue still holds are not
    /// counted; compaction keeps them to at most `live + 64`.
    pub fn approx_resident_bytes(&self) -> u64 {
        const NODE: u64 = 32; // Map node or bucket overhead per entry, roughly.
        self.open.len() as u64 * (open_entry_bytes() + 24 + NODE)
            + (self.roles.len() + self.last_tx.len() + self.max_silence.len()) as u64 * (16 + NODE)
            + (self.sent_at.len()
                + self.sent_epoch.len()
                + self.remulticast_at.len()
                + self.requests_per_seq.len()) as u64
                * (12 + NODE)
            + (self.settled.len() + self.active_epochs.len()) as u64 * (4 + NODE)
            + self.dups_per_host_seq.len() as u64 * (20 + NODE)
            + self.detection.approx_bytes()
            + self.request.approx_bytes()
            + self.serve.approx_bytes()
            + self.return_leg.approx_bytes()
            + self.total.approx_bytes()
            + self.timelines.kept.len() as u64
                * (std::mem::size_of::<RecoveryTimeline>() as u64 + 8)
            + self.gap_anomalies.len() as u64 * std::mem::size_of::<Anomaly>() as u64
    }

    /// Highest resident-byte estimate observed so far.
    pub fn peak_resident_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Newest stream timestamp observed so far (nanoseconds).
    pub fn end_nanos(&self) -> u64 {
        self.end_ns
    }

    /// The tunables this analyzer was built with.
    pub fn config(&self) -> &OnlineConfig {
        &self.cfg
    }

    /// The anomalies committed so far: the horizon's unrecovered gaps,
    /// in eviction order. [`finish`](Self::finish) only appends to this
    /// list (still-open timelines and the end-of-stream detectors
    /// contribute nothing until then), so it is always a prefix of the
    /// final report's anomalies.
    pub fn committed_anomalies(&self) -> &[Anomaly] {
        &self.gap_anomalies
    }

    /// The `limit` oldest still-open recoveries, oldest first — the
    /// bounded listing behind the admin surface's `/timelines/live`.
    pub fn live_oldest(&self, limit: usize) -> Vec<LiveGap> {
        self.by_age
            .iter()
            .filter(|entry| names_open(&self.open, entry))
            .map(|&(at, h, s)| {
                let o = &self.open[&(h, s)];
                LiveGap {
                    host: HostId(h),
                    seq: Seq(s),
                    detected_at_nanos: at,
                    nacks_sent: o.nacks_sent,
                    served: o.served_at.is_some(),
                    repaired: o.repaired_at.is_some(),
                }
            })
            .take(limit)
            .collect()
    }

    fn close_timeline(
        &mut self,
        host: HostId,
        seq: Seq,
        o: OpenRecovery,
        outcome: RecoveryOutcome,
        latency: Option<u64>,
    ) {
        let t = RecoveryTimeline {
            host,
            seq,
            sent_at_nanos: self.sent_at.get(&seq.raw()).copied(),
            detected_at_nanos: o.detected_at,
            first_nack_at_nanos: o.first_nack_at,
            nacks_sent: o.nacks_sent,
            served_at_nanos: o.served_at,
            served_by: o.served_by,
            repaired_at_nanos: o.repaired_at,
            source: o.source,
            outcome,
            recovery_latency_nanos: latency,
        };
        if t.outcome == RecoveryOutcome::Recovered {
            if let Some(n) = t.detection_nanos() {
                self.detection.record(n);
            }
            if let Some(n) = t.request_nanos() {
                self.request.record(n);
            }
            if let Some(n) = t.serve_nanos() {
                self.serve.record(n);
            }
            if let Some(n) = t.return_nanos() {
                self.return_leg.record(n);
            }
            if let Some(n) = t.recovery_latency_nanos {
                self.total.record(n);
            }
            *self.sources.entry(t.source.label()).or_insert(0) += 1;
            if t.stages_telescope() {
                self.telescoping += 1;
            }
        }
        self.timelines.offer(t);
    }

    /// Detection time of the oldest open timeline, dropping the closed
    /// entries in front of it.
    fn oldest_detected(&mut self) -> Option<u64> {
        while let Some(&front) = self.by_age.front() {
            if names_open(&self.open, &front) {
                return Some(front.0);
            }
            self.by_age.pop_front();
        }
        None
    }

    /// Removes the oldest open timeline and returns it, if any.
    fn evict_oldest(&mut self) -> Option<(HostId, Seq, OpenRecovery)> {
        self.oldest_detected()?;
        let (_, h, s) = self.by_age.pop_front()?;
        let o = self.open.remove(&(h, s))?;
        Some((HostId(h), Seq(s), o))
    }

    fn open_timeline(&mut self, h: u64, seq: u32, at: u64) {
        if let Entry::Vacant(e) = self.open.entry((h, seq)) {
            e.insert(OpenRecovery {
                detected_at: at,
                first_nack_at: None,
                nacks_sent: 0,
                served_at: None,
                served_by: None,
                repaired_at: None,
                source: RepairSource::Unknown,
            });
            // An equal entry left behind by a closed timeline already
            // sits in the right place and now names this one.
            let key = (at, h, seq);
            match self.by_age.back() {
                Some(&last) if last >= key => {
                    if let Err(i) = self.by_age.binary_search(&key) {
                        self.by_age.insert(i, key);
                    }
                }
                _ => self.by_age.push_back(key),
            }
            // Enforce the live-timeline cap immediately, so the peak
            // the budget gate asserts on truly never exceeds it.
            if let Some(cap) = self.cfg.max_live_timelines {
                while self.open.len() > cap.max(1) {
                    let _ = self.evict_oldest().expect("over cap implies non-empty");
                    self.force_evicted += 1;
                }
            }
            self.peak_live = self.peak_live.max(self.open.len() as u64);
        }
    }

    /// Consumes one record. Records are expected in timestamp order
    /// (what every sink and JSONL capture produces); out-of-order
    /// records are still correlated but counted in
    /// [`StreamStats::out_of_order`].
    pub fn push(&mut self, at_nanos: u64, host: HostId, event: &ProtocolEvent) {
        self.records += 1;
        if at_nanos < self.last_at {
            self.out_of_order += 1;
        }
        self.last_at = at_nanos;
        self.end_ns = self.end_ns.max(at_nanos);
        let h = host.raw();

        // Horizon age-out: close everything that has been open longer
        // than the horizon before correlating the new record.
        let mut aged = false;
        if let Some(horizon) = self.cfg.horizon_nanos {
            let cutoff = at_nanos.saturating_sub(horizon);
            while self.oldest_detected().is_some_and(|d| d < cutoff) {
                aged = true;
                let (eh, es, o) = self.evict_oldest().expect("checked non-empty");
                self.aged_out += 1;
                self.unrecovered += 1;
                self.gap_anomalies.push(Anomaly::UnrecoveredGap {
                    host: eh,
                    seq: es,
                    detected_at_nanos: o.detected_at,
                });
                self.close_timeline(eh, es, o, RecoveryOutcome::Unrecovered, None);
            }
        }

        match event {
            ProtocolEvent::RoleAnnounced { role } => {
                self.roles.insert(h, role);
            }
            ProtocolEvent::DataSent { seq, epoch } => {
                self.sent_at.entry(seq.raw()).or_insert(at_nanos);
                self.sent_epoch.entry(seq.raw()).or_insert(epoch.raw());
                // saturating: arrival order is not sorted, so an
                // out-of-order record must not underflow.
                let gap =
                    at_nanos.saturating_sub(self.last_tx.get(&h).copied().unwrap_or(at_nanos));
                let m = self.max_silence.entry(h).or_insert(0);
                *m = (*m).max(gap);
                self.last_tx.insert(h, at_nanos);
            }
            ProtocolEvent::HeartbeatSent { .. } => {
                let gap =
                    at_nanos.saturating_sub(self.last_tx.get(&h).copied().unwrap_or(at_nanos));
                let m = self.max_silence.entry(h).or_insert(0);
                *m = (*m).max(gap);
                self.last_tx.insert(h, at_nanos);
            }
            ProtocolEvent::GapDetected { first, last } => {
                let span = u64::from(last.distance_from(*first)) + 1;
                if span > MAX_GAP_SPAN {
                    self.truncated_gap_spans += 1;
                }
                for (i, seq) in first.iter_to(*last).enumerate() {
                    if i as u64 >= MAX_GAP_SPAN {
                        break;
                    }
                    self.open_timeline(h, seq.raw(), at_nanos);
                }
            }
            ProtocolEvent::NackSent {
                target,
                first,
                last,
                ..
            } => {
                let span = u64::from(last.distance_from(*first)) + 1;
                // The paper's implosion bound (§2.2.1, Figure 7) is on
                // requests reaching the *primary*: local NACKs absorbed
                // by a site secondary are the mechanism working, not
                // implosion, so only primary-bound requests count.
                let upstream = self.roles.get(&target.raw()).copied() == Some("logger_primary");
                for (i, seq) in first.iter_to(*last).enumerate() {
                    if i as u64 >= MAX_GAP_SPAN.min(span) {
                        break;
                    }
                    if upstream {
                        *self.requests_per_seq.entry(seq.raw()).or_insert(0) += 1;
                    }
                    if let Some(o) = self.open.get_mut(&(h, seq.raw())) {
                        o.first_nack_at.get_or_insert(at_nanos);
                        o.nacks_sent += 1;
                    }
                }
            }
            ProtocolEvent::RetransServed { seq, multicast, to } => {
                if *multicast {
                    for ((_, s), o) in self.open.iter_mut() {
                        if *s == seq.raw() {
                            o.served_at.get_or_insert(at_nanos);
                            o.served_by.get_or_insert(host);
                        }
                    }
                } else if let Some(o) = self.open.get_mut(&(to.raw(), seq.raw())) {
                    o.served_at.get_or_insert(at_nanos);
                    o.served_by.get_or_insert(host);
                }
            }
            ProtocolEvent::Remulticast { seq, .. } => {
                self.remulticast_at.entry(seq.raw()).or_insert(at_nanos);
                for ((_, s), o) in self.open.iter_mut() {
                    if *s == seq.raw() {
                        o.served_at.get_or_insert(at_nanos);
                        o.served_by.get_or_insert(host);
                    }
                }
            }
            ProtocolEvent::RepairReceived { seq, from, kind } => {
                if *kind == "retrans" {
                    if let Some(&stale) = self.stale_serves.get(&(from.raw(), seq.raw())) {
                        self.split_brain.push(Anomaly::SplitBrainServe {
                            seq: *seq,
                            by: *from,
                            term: stale,
                            current: self.max_term,
                        });
                    }
                }
                let source = match *kind {
                    "retrans" => match self.roles.get(&from.raw()).copied() {
                        Some("logger_primary") => RepairSource::Primary,
                        Some("logger_secondary") => RepairSource::Secondary,
                        Some("logger_replica") => RepairSource::Replica,
                        Some("sender") => RepairSource::Sender,
                        _ => RepairSource::Unknown,
                    },
                    "data" => {
                        if self
                            .remulticast_at
                            .get(&seq.raw())
                            .is_some_and(|&t| t <= at_nanos)
                        {
                            RepairSource::Remulticast
                        } else {
                            RepairSource::LateOriginal
                        }
                    }
                    _ => RepairSource::Unknown,
                };
                if let Some(o) = self.open.get_mut(&(h, seq.raw())) {
                    o.repaired_at = Some(at_nanos);
                    o.source = source;
                }
            }
            ProtocolEvent::RepairDuplicate { seq, .. } => {
                *self.dups_per_host_seq.entry((h, seq.raw())).or_insert(0) += 1;
            }
            ProtocolEvent::Recovered { seq, latency_nanos } => {
                if let Some(o) = self.open.remove(&(h, seq.raw())) {
                    self.recovered += 1;
                    self.close_timeline(
                        host,
                        *seq,
                        o,
                        RecoveryOutcome::Recovered,
                        Some(*latency_nanos),
                    );
                }
            }
            ProtocolEvent::RecoveryAbandoned { seq } => {
                if let Some(o) = self.open.remove(&(h, seq.raw())) {
                    self.abandoned += 1;
                    self.close_timeline(host, *seq, o, RecoveryOutcome::Abandoned, None);
                }
            }
            ProtocolEvent::Settled { seq, .. } => {
                self.settled.insert(seq.raw());
            }
            ProtocolEvent::EpochActive { epoch, .. } => {
                self.active_epochs.insert(epoch.raw());
            }
            ProtocolEvent::TermElected { term, leader } => {
                match self.term_leaders.get(term) {
                    Some(&prev) if prev != *leader => {
                        self.split_brain.push(Anomaly::TermConflict {
                            term: *term,
                            a: prev,
                            b: *leader,
                        });
                    }
                    Some(_) => {}
                    None => {
                        self.term_leaders.insert(*term, *leader);
                    }
                }
                self.max_term = self.max_term.max(*term);
            }
            ProtocolEvent::AuthorityServe { seq, term } if *term < self.max_term => {
                self.stale_serves.insert((h, seq.raw()), *term);
            }
            ProtocolEvent::StaleTermFenced { .. } => {
                self.fenced_rejects += 1;
            }
            // Nothing else moves correlation state: unless the horizon
            // just closed timelines, the age queue and the meter read as
            // they did after the previous record (once the meter has
            // read at all: it never reads 0).
            _ if !aged && self.peak_bytes > 0 => return,
            _ => {}
        }
        if self.by_age.len() > 2 * self.open.len() + 64 {
            let open = &self.open;
            self.by_age.retain(|entry| names_open(open, entry));
        }
        self.peak_bytes = self.peak_bytes.max(self.approx_resident_bytes());
    }

    /// Consumes one parsed [`TraceRecord`].
    pub fn push_record(&mut self, r: &TraceRecord) {
        self.push(r.at_nanos, r.host, &r.event);
    }

    /// Closes the stream: whatever is still open becomes an unrecovered
    /// gap, the end-of-stream anomaly detectors run over the aggregate
    /// maps, and the folded state becomes a [`RecoveryReport`].
    pub fn finish(mut self) -> RecoveryReport {
        let end_ns = self.end_ns;

        // Trailing silence: from the last transmission to end-of-run.
        for (&h, &t) in &self.last_tx {
            let m = self.max_silence.entry(h).or_insert(0);
            *m = (*m).max(end_ns.saturating_sub(t));
        }

        // Horizon evictions first (eviction order), then end-of-stream
        // gaps in key order.
        let mut anomalies: Vec<Anomaly> = std::mem::take(&mut self.gap_anomalies);
        let mut still_open: Vec<((u64, u32), OpenRecovery)> =
            std::mem::take(&mut self.open).into_iter().collect();
        still_open.sort_unstable_by_key(|&(key, _)| key);
        for ((h, s), o) in still_open {
            self.unrecovered += 1;
            anomalies.push(Anomaly::UnrecoveredGap {
                host: HostId(h),
                seq: Seq(s),
                detected_at_nanos: o.detected_at,
            });
            self.close_timeline(HostId(h), Seq(s), o, RecoveryOutcome::Unrecovered, None);
        }

        let secondaries = self
            .roles
            .values()
            .filter(|r| **r == "logger_secondary")
            .count() as u64;
        // NACK implosion (§2.2.1: distributed logging bounds requests at
        // roughly one per site).
        let nack_bound = self
            .cfg
            .analyze
            .nack_fan_in_bound
            .or((secondaries > 0).then_some(secondaries + 2));
        let max_nack_fan_in = self.requests_per_seq.values().copied().max().unwrap_or(0);
        if let Some(bound) = nack_bound {
            for (&s, &n) in &self.requests_per_seq {
                if n > bound {
                    anomalies.push(Anomaly::NackImplosion {
                        seq: Seq(s),
                        requests: n,
                        bound,
                    });
                }
            }
        }

        // Duplicate repairs beyond the statistical-ACK expectation. The
        // bound is per receiver: one redundant copy each at many
        // receivers is the expected cost of re-multicast, while one
        // receiver served the same repair many times over means
        // requests are not being suppressed.
        let mut duplicate_repairs = 0u64;
        let mut dups: Vec<((u64, u32), u64)> = self
            .dups_per_host_seq
            .iter()
            .map(|(&k, &n)| (k, n))
            .collect();
        dups.sort_unstable_by_key(|&(key, _)| key);
        for ((host, s), n) in dups {
            duplicate_repairs += n;
            if n > DUPLICATE_BOUND {
                anomalies.push(Anomaly::ExcessDuplicateRepairs {
                    host: HostId(host),
                    seq: Seq(s),
                    duplicates: n,
                    bound: DUPLICATE_BOUND,
                });
            }
        }

        // Heartbeat silence beyond h_max (with 1.5x slack for the last
        // in-flight interval).
        if let Some(h_max) = self.cfg.analyze.h_max_nanos {
            let bound = h_max + h_max / 2;
            for (&h, &gap) in &self.max_silence {
                if gap > bound {
                    anomalies.push(Anomaly::HeartbeatSilence {
                        host: HostId(h),
                        gap_nanos: gap,
                        h_max_nanos: h_max,
                    });
                }
            }
        }

        // Stalled settlements: data in an active epoch that never settled
        // (ignoring sends within the trailing grace window).
        for (&s, &e) in &self.sent_epoch {
            if !self.active_epochs.contains(&e) || self.settled.contains(&s) {
                continue;
            }
            let at = self.sent_at.get(&s).copied().unwrap_or(0);
            if at.saturating_add(SETTLE_SLACK_NANOS) < end_ns {
                anomalies.push(Anomaly::StalledSettlement {
                    seq: Seq(s),
                    sent_at_nanos: at,
                });
            }
        }

        // Split-brain detections (term conflicts and accepted stale
        // serves), in stream order, after every other detector.
        anomalies.append(&mut self.split_brain);

        let peak_bytes = self.peak_bytes.max(self.approx_resident_bytes());
        RecoveryReport {
            timelines: self.timelines.into_vec(),
            recovered: self.recovered,
            abandoned: self.abandoned,
            unrecovered: self.unrecovered,
            detection: self.detection.into_snapshot(),
            request: self.request.into_snapshot(),
            serve: self.serve.into_snapshot(),
            return_leg: self.return_leg.into_snapshot(),
            total: self.total.into_snapshot(),
            sources: self.sources,
            duplicate_repairs,
            max_nack_fan_in,
            telescoping: self.telescoping,
            truncated_gap_spans: self.truncated_gap_spans,
            fenced_rejects: self.fenced_rejects,
            anomalies,
            stream: StreamStats {
                streamed: true,
                peak_live_timelines: self.peak_live,
                peak_resident_bytes: peak_bytes,
                force_evicted: self.force_evicted,
                aged_out: self.aged_out,
                out_of_order: self.out_of_order,
            },
        }
    }
}

/// One still-open recovery, as listed by the admin surface's
/// `/timelines/live` route (see [`crate::doctor`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveGap {
    /// The receiver still missing the packet.
    pub host: HostId,
    /// The missing sequence.
    pub seq: Seq,
    /// When the loss was detected.
    pub detected_at_nanos: u64,
    /// NACK packets sent for it so far.
    pub nacks_sent: u32,
    /// A logger has already served a retransmission.
    pub served: bool,
    /// The repair arrived but the recovery is not yet settled.
    pub repaired: bool,
}

/// A [`TraceSink`] wrapping an [`OnlineAnalyzer`], so a live scenario
/// can audit itself in bounded memory — no [`CollectorSink`]
/// materialization step. Fan it out next to a `MetricsRegistry` or a
/// `JsonLinesSink` and call [`finish`](OnlineAnalyzerSink::finish)
/// after the run.
///
/// [`CollectorSink`]: crate::CollectorSink
#[derive(Debug)]
pub struct OnlineAnalyzerSink {
    inner: Mutex<OnlineAnalyzer>,
}

impl OnlineAnalyzerSink {
    /// A sink analyzing with the given tunables.
    pub fn new(cfg: OnlineConfig) -> Self {
        OnlineAnalyzerSink {
            inner: Mutex::new(OnlineAnalyzer::new(cfg)),
        }
    }

    /// Records consumed so far.
    pub fn records(&self) -> u64 {
        lock(&self.inner).records()
    }

    /// Most timelines ever open at once.
    pub fn peak_live_timelines(&self) -> u64 {
        lock(&self.inner).peak_live_timelines()
    }

    /// Finalizes the analysis, leaving a fresh analyzer (with the same
    /// tunables) behind — the sink may still be shared with a world
    /// that outlives the report.
    pub fn finish(&self) -> RecoveryReport {
        let mut guard = lock(&self.inner);
        let cfg = guard.cfg.clone();
        std::mem::replace(&mut *guard, OnlineAnalyzer::new(cfg)).finish()
    }
}

impl TraceSink for OnlineAnalyzerSink {
    fn record(&self, at_nanos: u64, host: HostId, event: &ProtocolEvent) {
        lock(&self.inner).push(at_nanos, host, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze, parse_json_line};
    use lbrm_wire::EpochId;

    const SENDER: HostId = HostId(1);
    const PRIMARY: HostId = HostId(2);
    const RX: HostId = HostId(40);

    fn rec(at_ms: u64, host: HostId, event: ProtocolEvent) -> TraceRecord {
        TraceRecord {
            at_nanos: at_ms * 1_000_000,
            host,
            event,
        }
    }

    fn lossy_stream(packets: u32) -> Vec<TraceRecord> {
        let mut v = vec![
            rec(0, SENDER, ProtocolEvent::RoleAnnounced { role: "sender" }),
            rec(
                0,
                PRIMARY,
                ProtocolEvent::RoleAnnounced {
                    role: "logger_primary",
                },
            ),
            rec(0, RX, ProtocolEvent::RoleAnnounced { role: "receiver" }),
        ];
        for i in 1..=packets {
            let t = u64::from(i) * 100;
            v.push(rec(
                t,
                SENDER,
                ProtocolEvent::DataSent {
                    seq: Seq(i),
                    epoch: EpochId(0),
                },
            ));
            // Every third packet is lost at RX and recovered.
            if i % 3 == 0 {
                v.push(rec(
                    t + 10,
                    RX,
                    ProtocolEvent::GapDetected {
                        first: Seq(i),
                        last: Seq(i),
                    },
                ));
                v.push(rec(
                    t + 20,
                    RX,
                    ProtocolEvent::NackSent {
                        target: PRIMARY,
                        packets: 1,
                        first: Seq(i),
                        last: Seq(i),
                    },
                ));
                v.push(rec(
                    t + 30,
                    PRIMARY,
                    ProtocolEvent::RetransServed {
                        seq: Seq(i),
                        multicast: false,
                        to: RX,
                    },
                ));
                v.push(rec(
                    t + 40,
                    RX,
                    ProtocolEvent::RepairReceived {
                        seq: Seq(i),
                        from: PRIMARY,
                        kind: "retrans",
                    },
                ));
                v.push(rec(
                    t + 40,
                    RX,
                    ProtocolEvent::Recovered {
                        seq: Seq(i),
                        latency_nanos: 30 * 1_000_000,
                    },
                ));
            }
        }
        v
    }

    fn run_online(records: &[TraceRecord], cfg: OnlineConfig) -> RecoveryReport {
        let mut a = OnlineAnalyzer::new(cfg);
        for r in records {
            a.push_record(r);
        }
        a.finish()
    }

    #[test]
    fn matches_batch_exactly_on_a_clean_stream() {
        let records = lossy_stream(30);
        let batch = analyze(&records, &AnalyzeConfig::default());
        let online = run_online(&records, OnlineConfig::default());

        assert_eq!(online.recovered, batch.recovered);
        assert_eq!(online.abandoned, batch.abandoned);
        assert_eq!(online.unrecovered, batch.unrecovered);
        assert_eq!(online.telescoping, batch.telescoping);
        assert_eq!(online.sources, batch.sources);
        assert_eq!(online.anomalies, batch.anomalies);
        assert_eq!(online.max_nack_fan_in, batch.max_nack_fan_in);
        assert_eq!(online.total.samples(), batch.total.samples());
        assert_eq!(online.detection.samples(), batch.detection.samples());
        assert_eq!(online.request.samples(), batch.request.samples());
        assert_eq!(online.serve.samples(), batch.serve.samples());
        assert_eq!(online.return_leg.samples(), batch.return_leg.samples());
        assert_eq!(online.timelines.len(), batch.timelines.len());
        for (a, b) in online.timelines.iter().zip(&batch.timelines) {
            assert_eq!(a.render(), b.render());
        }
        assert!(online.stream.streamed);
        assert!(!batch.stream.streamed);
        // One loss open at a time in this stream.
        assert_eq!(online.stream.peak_live_timelines, 1);
        assert!(online.stream.peak_resident_bytes > 0);
    }

    #[test]
    fn eviction_keeps_live_state_bounded() {
        // 10 packets all lost at once, never recovered: batch peaks at
        // 10 live timelines; a cap of 3 bounds the stream at 3.
        let mut records = vec![rec(
            0,
            SENDER,
            ProtocolEvent::RoleAnnounced { role: "sender" },
        )];
        records.push(rec(
            10,
            RX,
            ProtocolEvent::GapDetected {
                first: Seq(1),
                last: Seq(10),
            },
        ));
        records.push(rec(500, RX, ProtocolEvent::FreshnessLost));
        let cfg = OnlineConfig {
            analyze: AnalyzeConfig {
                h_max_nanos: None,
                ..AnalyzeConfig::default()
            },
            max_live_timelines: Some(3),
            ..OnlineConfig::default()
        };
        let report = run_online(&records, cfg);
        assert_eq!(report.stream.peak_live_timelines, 3);
        assert_eq!(report.stream.force_evicted, 7);
        // The 3 survivors close as unrecovered gaps; the evicted 7 are
        // only counted, never flagged.
        assert_eq!(report.unrecovered, 3);
        assert_eq!(
            report
                .anomalies
                .iter()
                .filter(|a| a.kind() == "unrecovered_gap")
                .count(),
            3
        );
    }

    #[test]
    fn horizon_ages_out_stale_timelines_as_unrecovered() {
        let mut records = vec![rec(
            0,
            SENDER,
            ProtocolEvent::RoleAnnounced { role: "sender" },
        )];
        records.push(rec(
            10,
            RX,
            ProtocolEvent::GapDetected {
                first: Seq(1),
                last: Seq(1),
            },
        ));
        // A later record far past the horizon triggers the age-out; the
        // recovery that eventually arrives finds the timeline closed.
        records.push(rec(5_000, RX, ProtocolEvent::FreshnessLost));
        records.push(rec(
            5_001,
            RX,
            ProtocolEvent::Recovered {
                seq: Seq(1),
                latency_nanos: 1,
            },
        ));
        let cfg = OnlineConfig {
            analyze: AnalyzeConfig {
                h_max_nanos: None,
                ..AnalyzeConfig::default()
            },
            horizon_nanos: Some(1_000 * 1_000_000),
            ..OnlineConfig::default()
        };
        let report = run_online(&records, cfg);
        assert_eq!(report.stream.aged_out, 1);
        assert_eq!(report.unrecovered, 1);
        assert_eq!(report.recovered, 0);
        assert_eq!(report.anomalies[0].kind(), "unrecovered_gap");
        assert!(!report.is_clean());
    }

    #[test]
    fn sampled_reservoirs_keep_exact_counts() {
        let records = lossy_stream(600); // 200 recoveries
        let batch = analyze(&records, &AnalyzeConfig::default());
        let cfg = OnlineConfig {
            stage_reservoir: 16,
            timeline_reservoir: 8,
            ..OnlineConfig::default()
        };
        let online = run_online(&records, cfg);
        assert_eq!(online.recovered, batch.recovered);
        assert_eq!(online.total.count(), batch.total.count());
        assert!(online.total.is_sampled());
        assert_eq!(online.total.mean(), batch.total.mean());
        assert_eq!(online.total.max(), batch.total.max());
        assert_eq!(online.timelines.len(), 8);
        assert_eq!(online.anomalies, batch.anomalies);
        // At this scale the streaming analyzer's resident state (tiny
        // reservoirs, bounded histograms) undercuts the batch record
        // vector it never materializes.
        assert!(online.stream.peak_resident_bytes < batch.stream.peak_resident_bytes);
    }

    fn closed_timeline(seq: u32) -> RecoveryTimeline {
        RecoveryTimeline {
            host: RX,
            seq: Seq(seq),
            sent_at_nanos: None,
            detected_at_nanos: u64::from(seq),
            first_nack_at_nanos: None,
            nacks_sent: 0,
            served_at_nanos: None,
            served_by: None,
            repaired_at_nanos: None,
            source: RepairSource::Unknown,
            outcome: RecoveryOutcome::Abandoned,
            recovery_latency_nanos: None,
        }
    }

    /// Over capacity, the kept sample comes back in close order: what a
    /// stable sort of the kept `(close index, timeline)` pairs by index
    /// returns, the restore `into_vec` once made.
    #[test]
    fn an_overfull_reservoir_returns_its_sample_in_close_order() {
        for capacity in [1, 7, 64] {
            for offered in [capacity - 1, capacity, capacity + 1, 10 * capacity + 3] {
                let mut r = TimelineReservoir::new(capacity);
                for seq in 0..offered as u32 {
                    r.offer(closed_timeline(seq));
                }
                let mut oracle = r.kept.clone();
                oracle.sort_by_key(|(i, _)| *i);
                let want: Vec<String> = oracle.iter().map(|(_, t)| format!("{t:?}")).collect();
                let got = r.into_vec();
                assert_eq!(got.len(), offered.min(capacity));
                assert!(got.windows(2).all(|w| w[0].seq.raw() < w[1].seq.raw()));
                let got: Vec<String> = got.iter().map(|t| format!("{t:?}")).collect();
                assert_eq!(got, want, "capacity {capacity}, {offered} offered");
            }
        }
    }

    #[test]
    fn sink_adapter_feeds_the_analyzer_and_resets_on_finish() {
        let sink = OnlineAnalyzerSink::new(OnlineConfig::default());
        for r in lossy_stream(9) {
            sink.record(r.at_nanos, r.host, &r.event);
        }
        assert!(sink.records() > 0);
        let report = sink.finish();
        assert_eq!(report.recovered, 3);
        assert!(report.is_clean(), "{:?}", report.anomalies);
        assert_eq!(sink.records(), 0, "finish leaves a fresh analyzer");
    }

    #[test]
    fn split_brain_detector_matches_batch() {
        // A stale primary serves seq 3 after term 2 elects a new
        // leader; RX accepts one repair from it (split-brain) while a
        // second serve is fenced (rejected, counted only).
        let new_leader = HostId(3);
        let mut records = lossy_stream(9);
        records.push(rec(
            1000,
            SENDER,
            ProtocolEvent::TermElected {
                term: 2,
                leader: new_leader,
            },
        ));
        records.push(rec(
            1010,
            PRIMARY,
            ProtocolEvent::AuthorityServe {
                seq: Seq(3),
                term: 1,
            },
        ));
        records.push(rec(
            1020,
            RX,
            ProtocolEvent::RepairReceived {
                seq: Seq(3),
                from: PRIMARY,
                kind: "retrans",
            },
        ));
        records.push(rec(
            1030,
            RX,
            ProtocolEvent::StaleTermFenced {
                from: PRIMARY,
                term: 1,
            },
        ));
        // A second leader announced for term 2: a term conflict.
        records.push(rec(
            1040,
            SENDER,
            ProtocolEvent::TermElected {
                term: 2,
                leader: PRIMARY,
            },
        ));
        let batch = analyze(&records, &AnalyzeConfig::default());
        let online = run_online(&records, OnlineConfig::default());
        assert_eq!(online.anomalies, batch.anomalies);
        assert_eq!(online.fenced_rejects, batch.fenced_rejects);
        assert_eq!(online.fenced_rejects, 1);
        let kinds: Vec<&str> = online.anomalies.iter().map(|a| a.kind()).collect();
        assert!(kinds.contains(&"split_brain_serve"), "{kinds:?}");
        assert!(kinds.contains(&"term_conflict"), "{kinds:?}");
        // Split-brain anomalies come after every other detector's, in
        // stream order (the serve at t=1020 precedes the conflicting
        // announce at t=1040).
        let n = kinds.len();
        assert_eq!(&kinds[n - 2..], ["split_brain_serve", "term_conflict"]);
    }

    /// Outside input: a capture whose timestamps sit near `u64::MAX`
    /// must not overflow the settlement grace window (a debug panic, or
    /// a wrapped sum that flags a packet sent at end-of-run as stalled).
    #[test]
    fn settle_slack_saturates_on_far_future_timestamps() {
        let at = u64::MAX - 5;
        let lines = [
            ProtocolEvent::EpochActive {
                epoch: EpochId(0),
                ackers: 2,
            }
            .to_json(at, SENDER),
            ProtocolEvent::DataSent {
                seq: Seq(1),
                epoch: EpochId(0),
            }
            .to_json(at, SENDER),
        ];
        let mut a = OnlineAnalyzer::new(OnlineConfig::default());
        for line in &lines {
            a.push_record(&parse_json_line(line).expect("well-formed line"));
        }
        let report = a.finish();
        assert!(report.is_clean(), "{:?}", report.anomalies);
    }

    /// A seeded churn of gap openings and closings over four receivers
    /// and 24 seqs: ties, reopened `(host, seq)` pairs, and timestamps
    /// jittered back so some records arrive out of order. It starts by
    /// closing and reopening one gap within the same instant.
    fn churn_stream(seed: u64, len: usize) -> Vec<TraceRecord> {
        let gap = ProtocolEvent::GapDetected {
            first: Seq(1),
            last: Seq(1),
        };
        let mut v = vec![
            rec(0, RX, gap.clone()),
            rec(0, RX, ProtocolEvent::RecoveryAbandoned { seq: Seq(1) }),
            rec(0, RX, gap),
        ];
        let mut rng = seed;
        let mut t = 0;
        v.extend((0..len).map(|_| {
            t += splitmix64(&mut rng) % 3;
            let at = t.saturating_sub(splitmix64(&mut rng) % 8 / 5 * 4);
            let host = HostId(40 + splitmix64(&mut rng) % 4);
            let seq = Seq(1 + (splitmix64(&mut rng) % 24) as u32);
            let event = match splitmix64(&mut rng) % 8 {
                0..=2 => ProtocolEvent::GapDetected {
                    first: seq,
                    last: Seq(seq.raw() + (splitmix64(&mut rng) % 3) as u32),
                },
                3..=5 => ProtocolEvent::Recovered {
                    seq,
                    latency_nanos: 1,
                },
                6 => ProtocolEvent::RecoveryAbandoned { seq },
                _ => ProtocolEvent::FreshnessLost,
            };
            rec(at, host, event)
        }));
        v
    }

    /// The age index's old contract, by brute force: the open set as a
    /// plain list, its oldest found by a scan.
    #[derive(Default)]
    struct AgeReference {
        open: Vec<(u64, u64, u32)>,
        aged_out: Vec<Anomaly>,
        force_evicted: u64,
    }

    impl AgeReference {
        fn pop_oldest(&mut self) -> (u64, u64, u32) {
            let (i, _) = self
                .open
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| **e)
                .unwrap();
            self.open.swap_remove(i)
        }

        fn push(&mut self, cfg: &OnlineConfig, r: &TraceRecord) {
            let h = r.host.raw();
            if let Some(horizon) = cfg.horizon_nanos {
                let cutoff = r.at_nanos.saturating_sub(horizon);
                while self.open.iter().any(|e| e.0 < cutoff) {
                    let (at, h, s) = self.pop_oldest();
                    self.aged_out.push(Anomaly::UnrecoveredGap {
                        host: HostId(h),
                        seq: Seq(s),
                        detected_at_nanos: at,
                    });
                }
            }
            match r.event {
                ProtocolEvent::GapDetected { first, last } => {
                    for seq in first.iter_to(last) {
                        if self.open.iter().any(|e| (e.1, e.2) == (h, seq.raw())) {
                            continue;
                        }
                        self.open.push((r.at_nanos, h, seq.raw()));
                        while self.open.len() > cfg.max_live_timelines.unwrap_or(usize::MAX) {
                            self.pop_oldest();
                            self.force_evicted += 1;
                        }
                    }
                }
                ProtocolEvent::Recovered { seq, .. } | ProtocolEvent::RecoveryAbandoned { seq } => {
                    self.open.retain(|e| (e.1, e.2) != (h, seq.raw()));
                }
                _ => {}
            }
        }

        fn oldest(&self, k: usize) -> Vec<(u64, u64, u32)> {
            let mut v = self.open.clone();
            v.sort_unstable();
            v.truncate(k);
            v
        }
    }

    #[test]
    fn age_queue_evicts_in_age_order_on_shuffled_streams() {
        let horizon = Some(20 * 1_000_000);
        for seed in 0..12 {
            let records = churn_stream(seed, 2_000);
            for (cap, horizon) in [(Some(16), horizon), (Some(16), None), (None, horizon)] {
                let cfg = OnlineConfig {
                    max_live_timelines: cap,
                    horizon_nanos: horizon,
                    ..OnlineConfig::default()
                };
                let mut a = OnlineAnalyzer::new(cfg.clone());
                let mut reference = AgeReference::default();
                for r in &records {
                    a.push_record(r);
                    reference.push(&cfg, r);
                    for k in [3, usize::MAX] {
                        let live: Vec<_> = a
                            .live_oldest(k)
                            .iter()
                            .map(|g| (g.detected_at_nanos, g.host.raw(), g.seq.raw()))
                            .collect();
                        assert_eq!(live, reference.oldest(k), "seed {seed}");
                    }
                    assert_eq!(a.committed_anomalies(), reference.aged_out);
                    assert!(a.by_age.len() <= 2 * a.open.len() + 64);
                }
                let report = a.finish();
                assert!(report.stream.out_of_order > 0);
                assert_eq!(report.stream.force_evicted, reference.force_evicted);
                assert_eq!(report.stream.aged_out, reference.aged_out.len() as u64);
                assert_eq!(cap.is_some(), reference.force_evicted > 0);
                assert_eq!(horizon.is_some(), !reference.aged_out.is_empty());
            }
        }
    }

    /// Records that change nothing skip the meter, yet the peak reads as
    /// if it were read after every record, from the first one on.
    #[test]
    fn the_peak_meter_reads_as_if_metered_after_every_record() {
        for seed in 0..4 {
            let mut records = vec![rec(0, RX, ProtocolEvent::FreshnessLost)];
            records.extend(churn_stream(seed, 2_000));
            for horizon in [None, Some(20 * 1_000_000)] {
                let mut a = OnlineAnalyzer::new(OnlineConfig {
                    horizon_nanos: horizon,
                    ..OnlineConfig::default()
                });
                let mut peak = 0;
                for r in &records {
                    a.push_record(r);
                    peak = peak.max(a.approx_resident_bytes());
                    assert_eq!(a.peak_resident_bytes(), peak, "seed {seed}");
                }
            }
        }
    }

    /// A record that changes nothing itself may still age timelines
    /// out, and the age queue is then compacted as after any other.
    #[test]
    fn an_ignored_record_that_ages_timelines_out_compacts_the_queue() {
        let mut a = OnlineAnalyzer::new(OnlineConfig {
            horizon_nanos: Some(100),
            ..OnlineConfig::default()
        });
        let gap = |seq| ProtocolEvent::GapDetected {
            first: Seq(seq),
            last: Seq(seq),
        };
        a.push(0, RX, &gap(1)); // ages out at 120
        a.push(50, RX, &gap(2)); // still open at 120
        for seq in 3..69 {
            a.push(60, RX, &gap(seq));
            let recovered = ProtocolEvent::Recovered {
                seq: Seq(seq),
                latency_nanos: 1,
            };
            a.push(60, RX, &recovered);
        }
        // Two open entries and 66 closed ones behind them: at the bound.
        assert_eq!(a.by_age.len(), 2 * a.open.len() + 64);
        a.push(120, RX, &ProtocolEvent::FreshnessLost);
        assert_eq!((a.live_timelines(), a.aged_out), (1, 1));
        assert!(a.by_age.len() <= 2 * a.open.len() + 64);
    }

    /// `approx_resident_bytes` as metered when the age index held exactly
    /// one entry per open timeline.
    fn metered_with_one_age_entry_per_live(a: &OnlineAnalyzer) -> u64 {
        const NODE: u64 = 32;
        a.open.len() as u64 * open_entry_bytes()
            + a.open.len() as u64 * (24 + NODE)
            + (a.roles.len() + a.last_tx.len() + a.max_silence.len()) as u64 * (16 + NODE)
            + (a.sent_at.len()
                + a.sent_epoch.len()
                + a.remulticast_at.len()
                + a.requests_per_seq.len()) as u64
                * (12 + NODE)
            + (a.settled.len() + a.active_epochs.len()) as u64 * (4 + NODE)
            + a.dups_per_host_seq.len() as u64 * (20 + NODE)
            + [&a.detection, &a.request, &a.serve, &a.return_leg, &a.total]
                .iter()
                .map(|h| h.approx_bytes())
                .sum::<u64>()
            + a.timelines.kept.len() as u64 * (std::mem::size_of::<RecoveryTimeline>() as u64 + 8)
            + a.gap_anomalies.len() as u64 * std::mem::size_of::<Anomaly>() as u64
    }

    #[test]
    fn age_queue_stays_bounded_behind_a_stuck_gap() {
        let mut a = OnlineAnalyzer::new(OnlineConfig::default());
        let gap = |seq| ProtocolEvent::GapDetected {
            first: Seq(seq),
            last: Seq(seq),
        };
        a.push(0, RX, &gap(1)); // never recovers
        for i in 0..100_000u32 {
            a.push(u64::from(i) + 1, RX, &gap(i + 2));
            if i >= 4 {
                let seq = Seq(i - 2);
                a.push(
                    u64::from(i) + 1,
                    RX,
                    &ProtocolEvent::Recovered {
                        seq,
                        latency_nanos: 1,
                    },
                );
            }
            assert!(a.by_age.len() <= 2 * a.open.len() + 64);
            assert_eq!(
                a.approx_resident_bytes(),
                metered_with_one_age_entry_per_live(&a)
            );
        }
        assert_eq!(a.live_timelines(), 5);
        assert_eq!(a.live_oldest(1)[0].seq, Seq(1));
    }

    #[test]
    fn out_of_order_records_are_counted() {
        let mut records = lossy_stream(9);
        records.swap(1, 4);
        let online = run_online(&records, OnlineConfig::default());
        assert!(online.stream.out_of_order > 0);
    }
}
