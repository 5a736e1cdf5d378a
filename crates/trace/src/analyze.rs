//! Recovery forensics: the record and report types, the JSONL replay
//! parser and the collecting sinks — everything around the correlator
//! except the correlator itself.
//!
//! The paper's evaluation is entirely about *recovery behaviour* — how
//! fast a loss is detected (§2.1), who repairs it (§2.2), and how many
//! redundant copies the repair costs (§2.3). The forensics layer answers
//! the question the flat counters cannot: *why did this particular
//! sequence take that long to recover at that host?*
//!
//! There is one correlation loop, [`OnlineAnalyzer`]: it folds a
//! [`ProtocolEvent`] stream one record at a time into a
//! [`RecoveryReport`] and raises every [`Anomaly`]. [`analyze`] is the
//! convenience for a capture already held in memory (collected live via
//! [`CollectorSink`], or replayed from a
//! [`JsonLinesSink`](crate::JsonLinesSink) file via
//! [`parse_json_lines`]): it sorts the records by timestamp and folds
//! them through an `OnlineAnalyzer` with no eviction and no sampling.
//! The report holds:
//!
//! * one [`RecoveryTimeline`] per `(host, seq)` recovery — loss
//!   detected → NACK sent → logger serve / re-multicast → repair
//!   received, each stage time-stamped;
//! * per-stage latency histograms whose sum telescopes to the
//!   end-to-end recovery latency;
//! * a repair-source breakdown (primary / secondary / replica / sender
//!   / statistical-ACK re-multicast / heartbeat payload / late
//!   original);
//! * [`Anomaly`] detections: unrecovered gaps at end-of-run, NACK
//!   fan-in above the paper's one-request-per-site bound, duplicate
//!   repairs beyond the statistical-ACK expectation, heartbeat silence
//!   longer than `h_max`, stalled statistical-ACK settlements, and
//!   split-brain authority (term conflicts, accepted stale serves).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use lbrm_wire::{HostId, Seq};

use crate::{lock, HistogramSnapshot, OnlineAnalyzer, OnlineConfig, ProtocolEvent, TraceSink};

/// One recorded event: timestamp, emitting host, event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Nanoseconds on the emitting clock.
    pub at_nanos: u64,
    /// The emitting host ([`crate::Tracer::UNTAGGED`] if never tagged).
    pub host: HostId,
    /// The event itself.
    pub event: ProtocolEvent,
}

/// A [`TraceSink`] that retains every record in memory for analysis —
/// the live-run feeder for [`analyze`].
#[derive(Debug, Default)]
pub struct CollectorSink {
    records: Mutex<Vec<TraceRecord>>,
}

impl CollectorSink {
    /// A copy of everything recorded so far, in emission order.
    pub fn records(&self) -> Vec<TraceRecord> {
        lock(&self.records).clone()
    }

    /// Drains the collected records.
    pub fn take(&self) -> Vec<TraceRecord> {
        std::mem::take(&mut lock(&self.records))
    }

    /// Number of records collected.
    pub fn len(&self) -> usize {
        lock(&self.records).len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        lock(&self.records).is_empty()
    }
}

impl TraceSink for CollectorSink {
    fn record(&self, at_nanos: u64, host: HostId, event: &ProtocolEvent) {
        lock(&self.records).push(TraceRecord {
            at_nanos,
            host,
            event: event.clone(),
        });
    }
}

/// A [`TraceSink`] that forwards every record to several sinks, one
/// whole record at a time: a scenario can aggregate into its
/// [`MetricsRegistry`](crate::MetricsRegistry) *and* collect raw records
/// for forensics in the same run. Endpoint threads recording
/// concurrently cannot interleave between the inner sinks, so every
/// inner sink sees the identical record order — which is what makes a
/// capture written next to a live
/// [`DoctorSidecar`](crate::doctor::DoctorSidecar) replayable as the
/// exact stream the sidecar analyzed.
pub struct FanoutSink {
    sinks: Vec<Arc<dyn TraceSink>>,
    gate: Mutex<()>,
}

impl FanoutSink {
    /// Fans records out to each of `sinks`, in order.
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> Self {
        FanoutSink {
            sinks,
            gate: Mutex::new(()),
        }
    }
}

impl std::fmt::Debug for FanoutSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanoutSink")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl TraceSink for FanoutSink {
    fn record(&self, at_nanos: u64, host: HostId, event: &ProtocolEvent) {
        let _gate = lock(&self.gate);
        for s in &self.sinks {
            s.record(at_nanos, host, event);
        }
    }
}

// ---------------------------------------------------------------------
// JSONL replay
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FieldVal {
    Num(u64),
    Float(f64),
    Str(String),
}

impl FieldVal {
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            FieldVal::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            FieldVal::Num(n) => Some(*n as f64),
            FieldVal::Float(f) => Some(*f),
            _ => None,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            FieldVal::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses the flat one-level JSON objects [`ProtocolEvent::to_json`]
/// writes (hand-rolled; the environment has no serde). Values never
/// contain escapes, commas, or nested structure.
fn parse_fields(line: &str) -> Option<BTreeMap<String, FieldVal>> {
    let body = line.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut fields = BTreeMap::new();
    for pair in body.split(',') {
        let (key, value) = pair.split_once(':')?;
        let key = key.trim().strip_prefix('"')?.strip_suffix('"')?;
        let value = value.trim();
        let parsed = if let Some(s) = value.strip_prefix('"') {
            FieldVal::Str(s.strip_suffix('"')?.to_owned())
        } else if let Ok(n) = value.parse::<u64>() {
            FieldVal::Num(n)
        } else {
            FieldVal::Float(value.parse::<f64>().ok()?)
        };
        fields.insert(key.to_owned(), parsed);
    }
    Some(fields)
}

/// Parses one [`ProtocolEvent::to_json`] line back into a
/// [`TraceRecord`]. Returns `None` for malformed or unknown lines.
pub fn parse_json_line(line: &str) -> Option<TraceRecord> {
    let f = parse_fields(line)?;
    Some(TraceRecord {
        at_nanos: f.get("at_ns")?.as_u64()?,
        host: HostId(f.get("host")?.as_u64()?),
        event: ProtocolEvent::from_json_fields(&f)?,
    })
}

/// Parses a whole JSON-lines trace, returning the records plus the
/// number of non-blank lines that failed to parse (a truncated final
/// line from an unflushed writer shows up here).
pub fn parse_json_lines(text: &str) -> (Vec<TraceRecord>, usize) {
    let mut records = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_json_line(line) {
            Some(r) => records.push(r),
            None => skipped += 1,
        }
    }
    (records, skipped)
}

// ---------------------------------------------------------------------
// Timelines
// ---------------------------------------------------------------------

/// Who supplied the repair that closed a recovery timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RepairSource {
    /// Retransmission from the primary logging server.
    Primary,
    /// Retransmission from a site/regional secondary logger (§2.2.1).
    Secondary,
    /// Retransmission from a primary replica (§2.2.3).
    Replica,
    /// Retransmission straight from the sender's transmit buffer.
    Sender,
    /// Statistical-ACK re-multicast of the original data (§2.3.2).
    Remulticast,
    /// The late original finally arrived on its own.
    LateOriginal,
    /// The repair carrier could not be attributed.
    Unknown,
}

impl RepairSource {
    /// Stable label for breakdown maps and JSON.
    pub fn label(self) -> &'static str {
        match self {
            RepairSource::Primary => "primary",
            RepairSource::Secondary => "secondary",
            RepairSource::Replica => "replica",
            RepairSource::Sender => "sender",
            RepairSource::Remulticast => "remulticast",
            RepairSource::LateOriginal => "late_original",
            RepairSource::Unknown => "unknown",
        }
    }
}

/// How a recovery timeline ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// The gap was filled.
    Recovered,
    /// The receiver gave up (reliability mode or attempt exhaustion).
    Abandoned,
    /// Still open at end-of-run — an anomaly.
    Unrecovered,
}

/// The causal story of one `(host, seq)` recovery.
#[derive(Debug, Clone)]
pub struct RecoveryTimeline {
    /// The recovering receiver (or logger).
    pub host: HostId,
    /// The lost sequence.
    pub seq: Seq,
    /// When the source originally multicast it (from `DataSent`).
    pub sent_at_nanos: Option<u64>,
    /// When the gap was detected at `host`.
    pub detected_at_nanos: u64,
    /// When the first NACK for it left `host`.
    pub first_nack_at_nanos: Option<u64>,
    /// NACK packets sent for it from `host` (retries included).
    pub nacks_sent: u32,
    /// When a logger/sender served it (retrans or re-multicast).
    pub served_at_nanos: Option<u64>,
    /// The serving host.
    pub served_by: Option<HostId>,
    /// When the repair arrived at `host`.
    pub repaired_at_nanos: Option<u64>,
    /// Attributed repair source.
    pub source: RepairSource,
    /// Terminal state.
    pub outcome: RecoveryOutcome,
    /// End-to-end latency reported by the receiver's `Recovered` event.
    pub recovery_latency_nanos: Option<u64>,
}

impl RecoveryTimeline {
    /// Loss-to-detection latency (needs the original `DataSent`).
    pub fn detection_nanos(&self) -> Option<u64> {
        self.sent_at_nanos
            .map(|s| self.detected_at_nanos.saturating_sub(s))
    }

    /// Detection-to-first-NACK latency (the `nack_delay` holdoff).
    pub fn request_nanos(&self) -> Option<u64> {
        self.first_nack_at_nanos
            .map(|n| n.saturating_sub(self.detected_at_nanos))
    }

    /// First-NACK-to-serve latency (request propagation + log lookup).
    pub fn serve_nanos(&self) -> Option<u64> {
        match (self.served_at_nanos, self.first_nack_at_nanos) {
            (Some(s), Some(n)) => Some(s.saturating_sub(n)),
            _ => None,
        }
    }

    /// Serve-to-repair-arrival latency (the return path).
    pub fn return_nanos(&self) -> Option<u64> {
        match (self.repaired_at_nanos, self.served_at_nanos) {
            (Some(r), Some(s)) => Some(r.saturating_sub(s)),
            _ => None,
        }
    }

    /// `true` when the stage timestamps are monotone and telescope
    /// exactly to the reported end-to-end recovery latency.
    pub fn stages_telescope(&self) -> bool {
        let (Some(nack), Some(served), Some(repaired), Some(total)) = (
            self.first_nack_at_nanos,
            self.served_at_nanos,
            self.repaired_at_nanos,
            self.recovery_latency_nanos,
        ) else {
            return false;
        };
        self.detected_at_nanos <= nack
            && nack <= served
            && served <= repaired
            && repaired - self.detected_at_nanos == total
    }

    /// One-line human rendering of the causal chain.
    pub fn render(&self) -> String {
        let mut s = String::with_capacity(128);
        let _ = write!(
            s,
            "host {} seq {}: detected@{:.3}ms",
            self.host.raw(),
            self.seq.raw(),
            self.detected_at_nanos as f64 / 1e6
        );
        if let Some(n) = self.request_nanos() {
            let _ = write!(s, " -({:.3}ms)-> nack", n as f64 / 1e6);
        }
        if let Some(n) = self.serve_nanos() {
            let by = self.served_by.map_or(u64::MAX, HostId::raw);
            let _ = write!(s, " -({:.3}ms)-> served by {by}", n as f64 / 1e6);
        }
        if let Some(n) = self.return_nanos() {
            let _ = write!(s, " -({:.3}ms)-> repaired", n as f64 / 1e6);
        }
        let _ = match self.outcome {
            RecoveryOutcome::Recovered => write!(
                s,
                " [{} in {:.3}ms]",
                self.source.label(),
                self.recovery_latency_nanos.unwrap_or(0) as f64 / 1e6
            ),
            RecoveryOutcome::Abandoned => write!(s, " [abandoned]"),
            RecoveryOutcome::Unrecovered => write!(s, " [UNRECOVERED]"),
        };
        s
    }
}

// ---------------------------------------------------------------------
// Anomalies
// ---------------------------------------------------------------------

/// A protocol-health violation detected in the stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Anomaly {
    /// A detected gap was never filled or abandoned by end-of-run.
    UnrecoveredGap {
        /// The stuck receiver.
        host: HostId,
        /// The still-missing sequence.
        seq: Seq,
        /// When its loss was detected.
        detected_at_nanos: u64,
    },
    /// More NACK packets for one sequence than the paper's
    /// one-request-per-site bound allows (§2.2.1).
    NackImplosion {
        /// The over-requested sequence.
        seq: Seq,
        /// NACK packets observed for it.
        requests: u64,
        /// The configured/derived bound.
        bound: u64,
    },
    /// More redundant repairs of one sequence than the statistical-ACK
    /// expectation (§2.3).
    ExcessDuplicateRepairs {
        /// The over-served receiver.
        host: HostId,
        /// The over-repaired sequence.
        seq: Seq,
        /// Redundant copies observed.
        duplicates: u64,
        /// The configured bound.
        bound: u64,
    },
    /// A source went silent for longer than `h_max` (plus slack) — the
    /// variable-heartbeat guarantee (§2.1.2) was violated.
    HeartbeatSilence {
        /// The silent source.
        host: HostId,
        /// Longest observed transmission gap.
        gap_nanos: u64,
        /// The configured `h_max`.
        h_max_nanos: u64,
    },
    /// A data packet in an active statistical-ACK epoch never settled.
    StalledSettlement {
        /// The unsettled sequence.
        seq: Seq,
        /// When it was sent.
        sent_at_nanos: u64,
    },
    /// Two different leaders were announced for the same election term —
    /// the election safety invariant was violated outright.
    TermConflict {
        /// The contested term.
        term: u32,
        /// First announced leader.
        a: HostId,
        /// Conflicting announced leader.
        b: HostId,
    },
    /// A repair served by a deposed primary under a stale term was
    /// *accepted* by a receiver — fencing failed and two authorities
    /// effectively served the group (split-brain double-serve).
    SplitBrainServe {
        /// The doubly-served sequence.
        seq: Seq,
        /// The stale authority that served it.
        by: HostId,
        /// The stale term it served under.
        term: u32,
        /// The newest elected term at that point in the stream.
        current: u32,
    },
}

impl Anomaly {
    /// Stable kind label for JSON and counting.
    pub fn kind(&self) -> &'static str {
        match self {
            Anomaly::UnrecoveredGap { .. } => "unrecovered_gap",
            Anomaly::NackImplosion { .. } => "nack_implosion",
            Anomaly::ExcessDuplicateRepairs { .. } => "excess_duplicate_repairs",
            Anomaly::HeartbeatSilence { .. } => "heartbeat_silence",
            Anomaly::StalledSettlement { .. } => "stalled_settlement",
            Anomaly::TermConflict { .. } => "term_conflict",
            Anomaly::SplitBrainServe { .. } => "split_brain_serve",
        }
    }

    /// Human one-liner.
    pub fn describe(&self) -> String {
        match self {
            Anomaly::UnrecoveredGap {
                host,
                seq,
                detected_at_nanos,
            } => format!(
                "unrecovered gap: host {} seq {} detected at {:.3}ms never filled",
                host.raw(),
                seq.raw(),
                *detected_at_nanos as f64 / 1e6
            ),
            Anomaly::NackImplosion {
                seq,
                requests,
                bound,
            } => format!(
                "NACK implosion: seq {} requested {requests} times (site bound {bound})",
                seq.raw()
            ),
            Anomaly::ExcessDuplicateRepairs {
                host,
                seq,
                duplicates,
                bound,
            } => format!(
                "excess duplicate repairs: host {} got seq {} redundantly {duplicates} times (bound {bound})",
                host.raw(),
                seq.raw()
            ),
            Anomaly::HeartbeatSilence {
                host,
                gap_nanos,
                h_max_nanos,
            } => format!(
                "heartbeat silence: source {} quiet for {:.1}s (h_max {:.1}s)",
                host.raw(),
                *gap_nanos as f64 / 1e9,
                *h_max_nanos as f64 / 1e9
            ),
            Anomaly::StalledSettlement { seq, sent_at_nanos } => format!(
                "stalled settlement: seq {} (sent at {:.3}ms) never settled",
                seq.raw(),
                *sent_at_nanos as f64 / 1e6
            ),
            Anomaly::TermConflict { term, a, b } => format!(
                "term conflict: term {term} announced with two leaders ({} and {})",
                a.raw(),
                b.raw()
            ),
            Anomaly::SplitBrainServe {
                seq,
                by,
                term,
                current,
            } => format!(
                "split-brain serve: host {} served seq {} under stale term {term} (current {current}) and the repair was accepted",
                by.raw(),
                seq.raw()
            ),
        }
    }
}

// ---------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------

/// Redundant repair copies tolerated per `(receiver, sequence)` before
/// the analyzer flags them.
pub const DUPLICATE_BOUND: u64 = 3;

/// Grace period before an unsettled statistical-ACK packet near
/// end-of-run counts as stalled.
pub const SETTLE_SLACK_NANOS: u64 = 10_000_000_000;

/// Largest `GapDetected` span expanded into per-seq timelines; wider
/// spans are truncated (and counted in the report).
pub const MAX_GAP_SPAN: u64 = 4096;

/// Correlation and anomaly tunables of the [`OnlineAnalyzer`] (and so
/// of [`analyze`]). The defaults match the paper's parameters
/// (`h_max` = 32 s).
#[derive(Debug, Clone)]
pub struct AnalyzeConfig {
    /// `h_max` for the heartbeat-silence detector; `None` disables it.
    /// The detector allows 1.5× slack over this.
    pub h_max_nanos: Option<u64>,
    /// Per-sequence bound on primary-bound NACK packets for the
    /// implosion detector.
    /// `None` derives `secondaries + 2` from announced roles (and
    /// disables the detector when no secondaries exist — central
    /// logging *is* the implosion baseline being measured).
    pub nack_fan_in_bound: Option<u64>,
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        AnalyzeConfig {
            h_max_nanos: Some(32_000_000_000),
            nack_fan_in_bound: None,
        }
    }
}

/// Resident-state accounting for an analysis pass: how much live
/// correlation state the [`OnlineAnalyzer`] held at its peak, and what
/// (if anything) it had to shed to stay within budget — the first-class
/// metric the `trace_doctor --mem-budget` CI gate asserts on. Through
/// [`analyze`] it also counts what materializing the capture cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// `true` when the records were folded in arrival order; `false`
    /// when [`analyze`] materialized and sorted them first.
    pub streamed: bool,
    /// Most `(host, seq)` timelines open at once.
    pub peak_live_timelines: u64,
    /// Approximate peak resident bytes of the analyzer's state (through
    /// [`analyze`], plus the materialized record vector).
    pub peak_resident_bytes: u64,
    /// Open timelines force-evicted by the live-timeline cap (fidelity
    /// was truncated, but no anomaly is implied).
    pub force_evicted: u64,
    /// Open timelines evicted by the age-out horizon (each also raises
    /// an unrecovered-gap anomaly).
    pub aged_out: u64,
    /// Records that arrived with a timestamp below their predecessor's.
    /// [`analyze`] sorted them before correlating; an arrival-order
    /// fold did not, so a nonzero count there flags caution.
    pub out_of_order: u64,
}

/// The full forensic result of an [`OnlineAnalyzer`] fold.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Every closed (and, at end-of-run, still-open) timeline, in
    /// close order.
    pub timelines: Vec<RecoveryTimeline>,
    /// Timelines that ended in recovery.
    pub recovered: usize,
    /// Timelines the receiver abandoned.
    pub abandoned: usize,
    /// Timelines still open at end-of-run.
    pub unrecovered: usize,
    /// Loss-to-detection latency distribution.
    pub detection: HistogramSnapshot,
    /// Detection-to-first-NACK latency distribution.
    pub request: HistogramSnapshot,
    /// NACK-to-serve latency distribution.
    pub serve: HistogramSnapshot,
    /// Serve-to-repair latency distribution.
    pub return_leg: HistogramSnapshot,
    /// End-to-end recovery latency distribution (matches the
    /// receivers' `recovery_latency` histogram).
    pub total: HistogramSnapshot,
    /// Recovered-timeline count per repair source label.
    pub sources: BTreeMap<&'static str, u64>,
    /// Redundant repair copies observed (`repair_duplicate` events).
    pub duplicate_repairs: u64,
    /// Highest per-sequence NACK fan-in observed at the primary
    /// (site-local NACKs absorbed by secondaries are excluded).
    pub max_nack_fan_in: u64,
    /// Recovered timelines whose stage timestamps telescope exactly to
    /// the reported end-to-end latency.
    pub telescoping: usize,
    /// `GapDetected` spans wider than the configured cap (their tails
    /// were not expanded into timelines).
    pub truncated_gap_spans: u64,
    /// Packets from fenced (deposed) primaries that machines rejected —
    /// informational: each one is the fencing mechanism *working*.
    pub fenced_rejects: u64,
    /// Detected protocol-health violations.
    pub anomalies: Vec<Anomaly>,
    /// Resident-state accounting (peak live timelines/bytes, evictions).
    pub stream: StreamStats,
}

impl RecoveryReport {
    /// `true` when no anomaly was detected.
    pub fn is_clean(&self) -> bool {
        self.anomalies.is_empty()
    }

    /// Renders the report as a human-readable summary (slowest
    /// recoveries, stage histograms, source breakdown, anomalies).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "recovery timelines: {} ({} recovered, {} abandoned, {} unrecovered)",
            self.timelines.len(),
            self.recovered,
            self.abandoned,
            self.unrecovered
        );
        let _ = writeln!(
            s,
            "stage consistency: {}/{} recovered timelines telescope exactly",
            self.telescoping, self.recovered
        );
        for (name, h) in [
            ("detection", &self.detection),
            ("request", &self.request),
            ("serve", &self.serve),
            ("return", &self.return_leg),
            ("total", &self.total),
        ] {
            if h.count() > 0 {
                let _ = writeln!(
                    s,
                    "  stage {name:<10} n={:<5} mean={:.1?} p95={:.1?} max={:.1?}",
                    h.count(),
                    h.mean(),
                    h.percentile(0.95),
                    h.max()
                );
            }
        }
        if !self.sources.is_empty() {
            let _ = writeln!(s, "repair sources:");
            for (src, n) in &self.sources {
                let _ = writeln!(s, "  {src:<14} {n:>8}");
            }
        }
        let _ = writeln!(
            s,
            "duplicate repairs: {}; max NACK fan-in per seq: {}",
            self.duplicate_repairs, self.max_nack_fan_in
        );
        if self.fenced_rejects > 0 {
            let _ = writeln!(
                s,
                "fenced rejects: {} stale-primary packets dropped",
                self.fenced_rejects
            );
        }
        let _ = writeln!(
            s,
            "resident state ({}): peak {} live timelines, ~{:.1} KiB",
            if self.stream.streamed {
                "streamed"
            } else {
                "batch"
            },
            self.stream.peak_live_timelines,
            self.stream.peak_resident_bytes as f64 / 1024.0
        );
        if self.stream.force_evicted > 0 {
            let _ = writeln!(
                s,
                "note: {} open timelines force-evicted by the live-timeline cap",
                self.stream.force_evicted
            );
        }
        if self.stream.aged_out > 0 {
            let _ = writeln!(
                s,
                "note: {} open timelines aged out past the horizon",
                self.stream.aged_out
            );
        }
        if self.stream.out_of_order > 0 {
            let _ = writeln!(
                s,
                "note: {} records arrived out of timestamp order",
                self.stream.out_of_order
            );
        }
        if self.truncated_gap_spans > 0 {
            let _ = writeln!(
                s,
                "note: {} gap spans exceeded the expansion cap and were truncated",
                self.truncated_gap_spans
            );
        }
        let mut slowest: Vec<&RecoveryTimeline> = self
            .timelines
            .iter()
            .filter(|t| t.outcome == RecoveryOutcome::Recovered)
            .collect();
        slowest.sort_by_key(|t| std::cmp::Reverse(t.recovery_latency_nanos.unwrap_or(0)));
        if !slowest.is_empty() {
            let _ = writeln!(s, "slowest recoveries:");
            for t in slowest.iter().take(5) {
                let _ = writeln!(s, "  {}", t.render());
            }
        }
        if self.anomalies.is_empty() {
            let _ = writeln!(s, "anomalies: none");
        } else {
            let _ = writeln!(s, "anomalies ({}):", self.anomalies.len());
            for a in &self.anomalies {
                let _ = writeln!(s, "  {}", a.describe());
            }
        }
        s
    }

    /// Machine-readable JSON summary (hand-rolled; no serde).
    pub fn to_json(&self) -> String {
        fn stage(s: &mut String, name: &str, h: &HistogramSnapshot) {
            let _ = write!(
                s,
                "\"{name}\":{{\"count\":{},\"mean_ns\":{},\"p95_ns\":{},\"max_ns\":{}}}",
                h.count(),
                h.mean().as_nanos(),
                h.percentile(0.95).as_nanos(),
                h.max().as_nanos()
            );
        }
        let mut s = String::with_capacity(512);
        let _ = write!(
            s,
            "{{\"timelines\":{},\"recovered\":{},\"abandoned\":{},\"unrecovered\":{},\"telescoping\":{},",
            self.timelines.len(),
            self.recovered,
            self.abandoned,
            self.unrecovered,
            self.telescoping
        );
        s.push_str("\"stages\":{");
        for (i, (name, h)) in [
            ("detection", &self.detection),
            ("request", &self.request),
            ("serve", &self.serve),
            ("return", &self.return_leg),
            ("total", &self.total),
        ]
        .into_iter()
        .enumerate()
        {
            if i > 0 {
                s.push(',');
            }
            stage(&mut s, name, h);
        }
        s.push_str("},\"sources\":{");
        for (i, (src, n)) in self.sources.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{src}\":{n}");
        }
        let _ = write!(
            s,
            "}},\"duplicate_repairs\":{},\"max_nack_fan_in\":{},\"truncated_gap_spans\":{},\"fenced_rejects\":{},",
            self.duplicate_repairs, self.max_nack_fan_in, self.truncated_gap_spans, self.fenced_rejects
        );
        let _ = write!(
            s,
            "\"stream\":{{\"streamed\":{},\"peak_live_timelines\":{},\"peak_resident_bytes\":{},\
             \"force_evicted\":{},\"aged_out\":{},\"out_of_order\":{}}},",
            self.stream.streamed,
            self.stream.peak_live_timelines,
            self.stream.peak_resident_bytes,
            self.stream.force_evicted,
            self.stream.aged_out,
            self.stream.out_of_order
        );
        s.push_str("\"anomalies\":[");
        for (i, a) in self.anomalies.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&anomaly_json(a));
        }
        let _ = write!(s, "],\"clean\":{}}}", self.is_clean());
        s
    }
}

/// Escapes `s` for use inside a JSON string.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One anomaly as `{"kind":…,"detail":…}`, the object every report and
/// admin route writes for it.
pub(crate) fn anomaly_json(a: &Anomaly) -> String {
    format!(
        "{{\"kind\":\"{}\",\"detail\":\"{}\"}}",
        a.kind(),
        json_escape(&a.describe())
    )
}

/// Correlates a capture held in memory: counts the out-of-order pairs,
/// stable-sorts by timestamp (so multi-thread live collections and
/// concatenated replay files work), and folds the records through an
/// [`OnlineAnalyzer`] that never evicts and never samples — every
/// timeline is retained and every percentile is exact, whatever the
/// capture's size.
pub fn analyze(records: &[TraceRecord], cfg: &AnalyzeConfig) -> RecoveryReport {
    let out_of_order = records
        .windows(2)
        .filter(|w| w[1].at_nanos < w[0].at_nanos)
        .count() as u64;
    let mut recs: Vec<&TraceRecord> = records.iter().collect();
    recs.sort_by_key(|r| r.at_nanos);
    let mut analyzer = OnlineAnalyzer::new(OnlineConfig {
        analyze: cfg.clone(),
        max_live_timelines: None,
        horizon_nanos: None,
        stage_reservoir: usize::MAX,
        timeline_reservoir: usize::MAX,
    });
    for r in recs {
        analyzer.push_record(r);
    }
    let mut report = analyzer.finish();
    report.stream.streamed = false;
    report.stream.out_of_order = out_of_order;
    // The record vector and the sorted-ref index the caller and this
    // function held on top of the analyzer's own state.
    report.stream.peak_resident_bytes +=
        records.len() as u64 * (std::mem::size_of::<TraceRecord>() as u64 + 8);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Tracer, EVENT_KEYS};
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

    fn happy_path() -> Vec<TraceRecord> {
        vec![
            rec(0, SENDER, ProtocolEvent::RoleAnnounced { role: "sender" }),
            rec(
                0,
                PRIMARY,
                ProtocolEvent::RoleAnnounced {
                    role: "logger_primary",
                },
            ),
            rec(0, RX, ProtocolEvent::RoleAnnounced { role: "receiver" }),
            rec(
                10,
                SENDER,
                ProtocolEvent::DataSent {
                    seq: Seq(1),
                    epoch: EpochId(0),
                },
            ),
            rec(
                20,
                SENDER,
                ProtocolEvent::DataSent {
                    seq: Seq(2),
                    epoch: EpochId(0),
                },
            ),
            // seq 1 lost; gap detected when seq 2 arrives.
            rec(
                25,
                RX,
                ProtocolEvent::GapDetected {
                    first: Seq(1),
                    last: Seq(1),
                },
            ),
            rec(
                55,
                RX,
                ProtocolEvent::NackSent {
                    target: PRIMARY,
                    packets: 1,
                    first: Seq(1),
                    last: Seq(1),
                },
            ),
            rec(
                60,
                PRIMARY,
                ProtocolEvent::NackReceived {
                    from: RX,
                    packets: 1,
                },
            ),
            rec(
                60,
                PRIMARY,
                ProtocolEvent::RetransServed {
                    seq: Seq(1),
                    multicast: false,
                    to: RX,
                },
            ),
            rec(
                65,
                RX,
                ProtocolEvent::RepairReceived {
                    seq: Seq(1),
                    from: PRIMARY,
                    kind: "retrans",
                },
            ),
            rec(
                65,
                RX,
                ProtocolEvent::Recovered {
                    seq: Seq(1),
                    latency_nanos: 40 * 1_000_000,
                },
            ),
        ]
    }

    #[test]
    fn happy_path_timeline_is_exact_and_clean() {
        let report = analyze(&happy_path(), &AnalyzeConfig::default());
        assert!(report.is_clean(), "{:?}", report.anomalies);
        assert_eq!(report.recovered, 1);
        assert_eq!(report.unrecovered, 0);
        let t = &report.timelines[0];
        assert_eq!(t.host, RX);
        assert_eq!(t.seq, Seq(1));
        assert_eq!(t.sent_at_nanos, Some(10 * 1_000_000));
        assert_eq!(t.detection_nanos(), Some(15 * 1_000_000));
        assert_eq!(t.request_nanos(), Some(30 * 1_000_000));
        assert_eq!(t.serve_nanos(), Some(5 * 1_000_000));
        assert_eq!(t.return_nanos(), Some(5 * 1_000_000));
        assert_eq!(t.source, RepairSource::Primary);
        assert_eq!(t.served_by, Some(PRIMARY));
        assert!(t.stages_telescope());
        assert_eq!(report.telescoping, 1);
        assert_eq!(report.sources.get("primary"), Some(&1));
        assert_eq!(report.max_nack_fan_in, 1);
        let json = report.to_json();
        assert!(json.contains("\"clean\":true"));
        assert!(json.contains("\"primary\":1"));
        assert!(report.render().contains("repair sources"));
    }

    #[test]
    fn unrecovered_gap_is_flagged() {
        let mut records = happy_path();
        records.truncate(records.len() - 2); // drop repair + recovered
        let report = analyze(&records, &AnalyzeConfig::default());
        assert_eq!(report.unrecovered, 1);
        assert_eq!(report.anomalies.len(), 1);
        assert_eq!(report.anomalies[0].kind(), "unrecovered_gap");
        assert!(!report.is_clean());
        assert!(report.to_json().contains("\"clean\":false"));
    }

    #[test]
    fn nack_implosion_detected_above_bound() {
        let mut records = happy_path();
        // 40 distinct hosts each NACK seq 1: far above any site bound.
        for i in 0..40u64 {
            records.push(rec(
                30 + i,
                HostId(100 + i),
                ProtocolEvent::NackSent {
                    target: PRIMARY,
                    packets: 1,
                    first: Seq(1),
                    last: Seq(1),
                },
            ));
        }
        let cfg = AnalyzeConfig {
            nack_fan_in_bound: Some(5),
            ..AnalyzeConfig::default()
        };
        let report = analyze(&records, &cfg);
        assert!(report
            .anomalies
            .iter()
            .any(|a| a.kind() == "nack_implosion"));
        assert_eq!(report.max_nack_fan_in, 41);
    }

    #[test]
    fn duplicate_repairs_and_heartbeat_silence_detected() {
        let mut records = happy_path();
        for _ in 0..5 {
            records.push(rec(
                70,
                RX,
                ProtocolEvent::RepairDuplicate {
                    seq: Seq(1),
                    from: PRIMARY,
                },
            ));
        }
        // Sender silent from t=20ms until t=200s.
        records.push(rec(200_000, RX, ProtocolEvent::FreshnessLost));
        let report = analyze(&records, &AnalyzeConfig::default());
        assert_eq!(report.duplicate_repairs, 5);
        assert!(report
            .anomalies
            .iter()
            .any(|a| a.kind() == "excess_duplicate_repairs"));
        assert!(report
            .anomalies
            .iter()
            .any(|a| a.kind() == "heartbeat_silence"));
    }

    #[test]
    fn stalled_settlement_detected_only_in_active_epochs() {
        let mut records = happy_path();
        records.push(rec(
            5,
            SENDER,
            ProtocolEvent::EpochActive {
                epoch: EpochId(0),
                ackers: 2,
            },
        ));
        records.push(rec(100_000, RX, ProtocolEvent::FreshnessLost));
        let cfg = AnalyzeConfig {
            h_max_nanos: None,
            ..AnalyzeConfig::default()
        };
        let report = analyze(&records, &cfg);
        // Both sent packets are in epoch 0 (now active) and unsettled.
        assert_eq!(
            report
                .anomalies
                .iter()
                .filter(|a| a.kind() == "stalled_settlement")
                .count(),
            2
        );
        // Settling them clears the anomaly.
        records.push(rec(
            90,
            SENDER,
            ProtocolEvent::Settled {
                seq: Seq(1),
                complete: true,
            },
        ));
        records.push(rec(
            90,
            SENDER,
            ProtocolEvent::Settled {
                seq: Seq(2),
                complete: false,
            },
        ));
        let report = analyze(&records, &cfg);
        assert!(report.is_clean(), "{:?}", report.anomalies);
    }

    #[test]
    fn split_brain_serve_detected_and_fenced_rejects_counted() {
        let mut records = happy_path();
        // Term 2 elects a new leader; the old primary keeps serving
        // under its stale belief. A *rejected* stale serve is clean.
        let new_leader = HostId(3);
        records.push(rec(
            70,
            SENDER,
            ProtocolEvent::TermElected {
                term: 2,
                leader: new_leader,
            },
        ));
        records.push(rec(
            80,
            PRIMARY,
            ProtocolEvent::AuthorityServe {
                seq: Seq(9),
                term: 1,
            },
        ));
        records.push(rec(
            85,
            RX,
            ProtocolEvent::StaleTermFenced {
                from: PRIMARY,
                term: 2,
            },
        ));
        let report = analyze(&records, &AnalyzeConfig::default());
        assert_eq!(report.fenced_rejects, 1);
        assert!(report.is_clean(), "{:?}", report.anomalies);
        assert!(report.to_json().contains("\"fenced_rejects\":1"));

        // A receiver accepting the stale serve is split-brain.
        records.push(rec(
            90,
            HostId(41),
            ProtocolEvent::RepairReceived {
                seq: Seq(9),
                from: PRIMARY,
                kind: "retrans",
            },
        ));
        let report = analyze(&records, &AnalyzeConfig::default());
        assert!(report
            .anomalies
            .iter()
            .any(|a| a.kind() == "split_brain_serve"));

        // Two leaders announced for one term is flagged outright.
        records.push(rec(
            95,
            SENDER,
            ProtocolEvent::TermElected {
                term: 2,
                leader: PRIMARY,
            },
        ));
        let report = analyze(&records, &AnalyzeConfig::default());
        assert!(report.anomalies.iter().any(|a| a.kind() == "term_conflict"));
    }

    #[test]
    fn remulticast_repairs_attributed() {
        let records = vec![
            rec(0, SENDER, ProtocolEvent::RoleAnnounced { role: "sender" }),
            rec(
                10,
                SENDER,
                ProtocolEvent::DataSent {
                    seq: Seq(1),
                    epoch: EpochId(0),
                },
            ),
            rec(
                25,
                RX,
                ProtocolEvent::GapDetected {
                    first: Seq(1),
                    last: Seq(1),
                },
            ),
            rec(
                40,
                SENDER,
                ProtocolEvent::Remulticast {
                    seq: Seq(1),
                    missing: 1,
                },
            ),
            rec(
                45,
                RX,
                ProtocolEvent::RepairReceived {
                    seq: Seq(1),
                    from: SENDER,
                    kind: "data",
                },
            ),
            rec(
                45,
                RX,
                ProtocolEvent::Recovered {
                    seq: Seq(1),
                    latency_nanos: 20_000_000,
                },
            ),
        ];
        let cfg = AnalyzeConfig {
            h_max_nanos: None,
            ..AnalyzeConfig::default()
        };
        let report = analyze(&records, &cfg);
        assert_eq!(report.sources.get("remulticast"), Some(&1));
        assert!(report.is_clean(), "{:?}", report.anomalies);
    }

    /// One sample per key, each field at its boundary: `u32::MAX` in
    /// every `u32`-wide field, `u64::MAX` in every `u64`-wide one.
    fn every_key() -> Vec<ProtocolEvent> {
        const S: Seq = Seq(u32::MAX);
        const E: EpochId = EpochId(u32::MAX);
        const N: u32 = u32::MAX;
        const H: HostId = HostId(u64::MAX);
        vec![
            ProtocolEvent::DataSent { seq: S, epoch: E },
            ProtocolEvent::HeartbeatSent {
                seq: S,
                hb_index: N,
            },
            ProtocolEvent::GapDetected { first: S, last: S },
            ProtocolEvent::NackSent {
                target: H,
                packets: N,
                first: S,
                last: S,
            },
            ProtocolEvent::NackReceived {
                from: H,
                packets: N,
            },
            ProtocolEvent::RetransServed {
                seq: S,
                multicast: false,
                to: H,
            },
            ProtocolEvent::RetransServed {
                seq: S,
                multicast: true,
                to: H,
            },
            ProtocolEvent::Remulticast { seq: S, missing: N },
            ProtocolEvent::AckerSelected {
                epoch: E,
                p_ack: 0.125,
            },
            ProtocolEvent::AckerVolunteered { epoch: E },
            ProtocolEvent::EpochActive {
                epoch: E,
                ackers: N,
            },
            ProtocolEvent::Settled {
                seq: S,
                complete: true,
            },
            ProtocolEvent::Settled {
                seq: S,
                complete: false,
            },
            ProtocolEvent::TWaitUpdated {
                t_wait_nanos: u64::MAX,
            },
            ProtocolEvent::Recovered {
                seq: S,
                latency_nanos: u64::MAX,
            },
            ProtocolEvent::RecoveryAbandoned { seq: S },
            ProtocolEvent::RepairReceived {
                seq: S,
                from: H,
                kind: "retrans",
            },
            ProtocolEvent::RepairDuplicate { seq: S, from: H },
            ProtocolEvent::FreshnessLost,
            ProtocolEvent::FreshnessRestored,
            ProtocolEvent::BufferReleased { up_to: S },
            ProtocolEvent::PacketLogged { seq: S },
            ProtocolEvent::PrimaryUnresponsive { primary: H },
            ProtocolEvent::FailoverPromoted { new_primary: H },
            ProtocolEvent::TermElected { term: N, leader: H },
            ProtocolEvent::StaleTermFenced { from: H, term: N },
            ProtocolEvent::AuthorityServe { seq: S, term: N },
            ProtocolEvent::RoleAnnounced {
                role: "logger_secondary",
            },
            ProtocolEvent::NetPacket {
                kind: "repl-update",
                multicast: false,
                copies: N,
            },
            ProtocolEvent::NetPacket {
                kind: "data",
                multicast: true,
                copies: N,
            },
        ]
    }

    #[test]
    fn json_lines_round_trip_through_the_parser() {
        let mut keys = EVENT_KEYS.to_vec();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), EVENT_KEYS.len(), "EVENT_KEYS has a duplicate");
        let mut sampled: Vec<&str> = every_key().iter().map(ProtocolEvent::key).collect();
        sampled.sort_unstable();
        assert_eq!(sampled, keys, "the samples must hit every key exactly once");
        for ev in every_key() {
            assert_eq!(EVENT_KEYS[ev.key_index()], ev.key(), "{ev:?}");
            let line = ev.to_json(u64::MAX, HostId(u64::MAX));
            let parsed =
                parse_json_line(&line).unwrap_or_else(|| panic!("line failed to parse: {line}"));
            assert_eq!(parsed.at_nanos, u64::MAX);
            assert_eq!(parsed.host, HostId(u64::MAX));
            assert_eq!(parsed.event, ev, "round-trip mismatch for {line}");
        }
        // A label outside its field's vocabulary interns to "other".
        let line = ProtocolEvent::RoleAnnounced { role: "auditor" }.to_json(5, RX);
        assert_eq!(
            parse_json_line(&line).map(|r| r.event),
            Some(ProtocolEvent::RoleAnnounced { role: "other" })
        );
        let line = ProtocolEvent::FreshnessLost
            .to_json(5, RX)
            .replace("freshness_lost", "no_such_event");
        assert_eq!(parse_json_line(&line), None, "unknown key: {line}");
        let (records, skipped) = parse_json_lines("\n{\"bad\n\n");
        assert!(records.is_empty());
        assert_eq!(skipped, 1);
    }

    /// Outside input: a field wider than its wire type is a malformed
    /// line, not a different sequence number, and a `p_ack` that is not
    /// a probability is malformed too.
    #[test]
    fn fields_that_overflow_u32_are_skipped_not_truncated() {
        // Every u32-wide field of the samples holds u32::MAX: patch each
        // in turn to 2^32.
        let mut patched = 0;
        for ev in every_key() {
            let line = ev.to_json(5, SENDER);
            for (at, max) in line.match_indices(":4294967295") {
                let wide = format!("{}:4294967296{}", &line[..at], &line[at + max.len()..]);
                assert_eq!(parse_json_line(&wide), None, "{wide}");
                patched += 1;
            }
        }
        assert_eq!(patched, 32, "one patch per u32-wide field of every key");
        for p_ack in ["NaN", "inf", "-1.5"] {
            let line = format!(
                "{{\"at_ns\":1,\"host\":1,\"event\":\"acker_selected\",\"epoch\":1,\"p_ack\":{p_ack}}}"
            );
            assert_eq!(parse_json_line(&line), None, "{line}");
        }
        // A whole-capture parse counts an overflowing line as skipped.
        let good = ProtocolEvent::DataSent {
            seq: Seq(1),
            epoch: EpochId(0),
        }
        .to_json(5, SENDER);
        let wide = good.replace("\"seq\":1", "\"seq\":4294967297");
        let (records, skipped) = parse_json_lines(&format!("{good}\n{wide}\n"));
        assert_eq!((records.len(), skipped), (1, 1));
    }

    #[test]
    fn collector_and_fanout_sinks_cooperate() {
        let collector = Arc::new(CollectorSink::default());
        let metrics = Arc::new(crate::MetricsRegistry::default());
        let fan = FanoutSink::new(vec![collector.clone(), metrics.clone()]);
        let t = Tracer::to(Arc::new(fan)).with_host(RX);
        t.emit(5, || ProtocolEvent::FreshnessLost);
        assert_eq!(collector.len(), 1);
        assert!(!collector.is_empty());
        assert_eq!(metrics.counter("freshness_lost"), 1);
        let taken = collector.take();
        assert_eq!(taken[0].host, RX);
        assert!(collector.is_empty());
    }
}
