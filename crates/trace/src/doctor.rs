//! The live doctor: incremental streaming forensics plus a hand-rolled
//! HTTP admin surface.
//!
//! The batch `trace_doctor` replay answers "what went wrong" after the
//! run; a million-receiver deployment needs to know *while it is
//! happening*. This module runs the streaming correlator
//! ([`OnlineAnalyzer`]) as a long-lived sidecar next to live endpoint
//! threads and turns its one-shot `finish()` into a stream of
//! **incremental reports**:
//!
//! * [`DoctorSink`] is the non-blocking [`TraceSink`] the endpoints
//!   write into: a bounded MPSC channel fed with `try_send`. When the
//!   doctor falls behind, events are **dropped and counted, never
//!   queued against the recv loop** — observability must not
//!   back-pressure the protocol.
//! * [`DoctorSidecar`] owns the analyzer on its own thread, drains the
//!   channel, and every tick emits a [`ReportDelta`]: the diff of the
//!   analyzer's *committed basis* ([`ReportBasis`]) since the previous
//!   tick — new anomalies, stage-histogram count deltas, repair-source
//!   deltas — plus point-in-time gauges (live timelines, resident
//!   bytes, channel drops).
//! * [`AdminServer`] exposes it over HTTP/1.0 on a plain
//!   `TcpListener` (the build image cannot reach crates.io, so no
//!   hyper/axum — one thread, request-line routing, JSON/text bodies):
//!   `GET /stats`, `/timelines/live`, `/anomalies/tail?n=`,
//!   `/deltas/last`, `/mem` and `/healthz` (non-200 while the rolling
//!   anomaly window holds unrecovered gaps or stalled settlements).
//!
//! **Delta algebra.** The committed basis is coordinate-wise monotone
//! over the stream: `finish()` only ever *adds* the still-open
//! timelines (as unrecovered gaps) and the end-of-stream detector
//! anomalies on top of it — it never rewrites a stage histogram, a
//! repair-source count, or an already-committed anomaly. Two pinned
//! consequences, tested here and in the bench property suite:
//!
//! 1. committed anomalies are always a *prefix* of the final report's
//!    anomaly vector, so "new since last tick" is a simple suffix;
//! 2. the fold of all deltas (including the terminal one emitted at
//!    [`DoctorSidecar::finish`]) equals the one-shot batch `analyze`
//!    report field-for-field on a quiescent, time-ordered capture.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lbrm_wire::HostId;

use crate::analyze::{anomaly_json, json_escape, Anomaly, RecoveryReport};
use crate::online::{LiveGap, OnlineAnalyzer, OnlineConfig};
use crate::{lock, MetricsRegistry, ProtocolEvent, TraceSink};

/// Stage labels, in the order [`ReportBasis::stage_counts`] uses.
pub const STAGE_LABELS: [&str; 5] = ["detection", "request", "serve", "return", "total"];

// ---------------------------------------------------------------------
// Delta algebra
// ---------------------------------------------------------------------

/// The committed, coordinate-wise monotone slice of an analysis — the
/// coordinates a later record (or `finish()`) can only ever increase or
/// append to. Point-in-time gauges (live timelines, resident bytes)
/// and environment-dependent peaks are deliberately *not* part of the
/// basis: they do not fold.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReportBasis {
    /// Timelines that closed in recovery.
    pub recovered: u64,
    /// Timelines the receiver abandoned.
    pub abandoned: u64,
    /// Timelines closed as unrecovered (horizon age-outs mid-stream;
    /// plus everything still open once `finish()` runs).
    pub unrecovered: u64,
    /// Recovered timelines whose stages telescope exactly.
    pub telescoping: u64,
    /// Redundant repair copies observed.
    pub duplicate_repairs: u64,
    /// Highest per-sequence NACK fan-in at the primary so far.
    pub max_nack_fan_in: u64,
    /// `GapDetected` spans truncated by the span cap.
    pub truncated_gap_spans: u64,
    /// Per-stage histogram sample counts, [`STAGE_LABELS`] order.
    pub stage_counts: [u64; 5],
    /// Per-stage histogram maxima in nanoseconds, [`STAGE_LABELS`]
    /// order.
    pub stage_max_nanos: [u64; 5],
    /// Recovered-timeline count per repair-source label.
    pub sources: BTreeMap<&'static str, u64>,
    /// Committed anomalies, in report order (always a prefix of the
    /// final report's anomaly vector).
    pub anomalies: Vec<Anomaly>,
    /// Open timelines force-evicted by the live-timeline cap.
    pub force_evicted: u64,
    /// Open timelines closed by the age-out horizon.
    pub aged_out: u64,
    /// Records that arrived below their predecessor's timestamp.
    pub out_of_order: u64,
}

impl ReportBasis {
    /// The basis of a finished [`RecoveryReport`] — what the fold of
    /// all deltas must equal once the terminal delta is included.
    pub fn of_report(r: &RecoveryReport) -> Self {
        ReportBasis {
            recovered: r.recovered as u64,
            abandoned: r.abandoned as u64,
            unrecovered: r.unrecovered as u64,
            telescoping: r.telescoping as u64,
            duplicate_repairs: r.duplicate_repairs,
            max_nack_fan_in: r.max_nack_fan_in,
            truncated_gap_spans: r.truncated_gap_spans,
            stage_counts: [
                r.detection.count() as u64,
                r.request.count() as u64,
                r.serve.count() as u64,
                r.return_leg.count() as u64,
                r.total.count() as u64,
            ],
            stage_max_nanos: [
                r.detection.max().as_nanos() as u64,
                r.request.max().as_nanos() as u64,
                r.serve.max().as_nanos() as u64,
                r.return_leg.max().as_nanos() as u64,
                r.total.max().as_nanos() as u64,
            ],
            sources: r.sources.clone(),
            anomalies: r.anomalies.clone(),
            force_evicted: r.stream.force_evicted,
            aged_out: r.stream.aged_out,
            out_of_order: r.stream.out_of_order,
        }
    }
}

/// One incremental report: the basis diff since the previous tick plus
/// point-in-time gauges. Counter fields are **deltas** (fold by sum),
/// `*_max*` fields are **running maxima** (fold by max), gauges fold by
/// last-write-wins.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportDelta {
    /// Tick index, 0-based; each sidecar emits a strictly increasing
    /// sequence ending with the terminal delta.
    pub tick: u64,
    /// `true` for the delta emitted by `finish()` — it carries the
    /// still-open timelines and end-of-stream detector anomalies.
    pub terminal: bool,
    /// Records consumed since the previous tick.
    pub records: u64,
    /// Newest stream timestamp seen (gauge, nanoseconds).
    pub stream_end_nanos: u64,
    /// Newly recovered timelines.
    pub recovered: u64,
    /// Newly abandoned timelines.
    pub abandoned: u64,
    /// Newly unrecovered timelines.
    pub unrecovered: u64,
    /// Newly telescoping recoveries.
    pub telescoping: u64,
    /// New redundant repair copies.
    pub duplicate_repairs: u64,
    /// Newly truncated gap spans.
    pub truncated_gap_spans: u64,
    /// Newly force-evicted open timelines.
    pub force_evicted: u64,
    /// Newly aged-out open timelines.
    pub aged_out: u64,
    /// New out-of-order records.
    pub out_of_order: u64,
    /// Running maximum NACK fan-in (fold by max).
    pub max_nack_fan_in: u64,
    /// Per-stage new sample counts, [`STAGE_LABELS`] order.
    pub stage_counts: [u64; 5],
    /// Per-stage running maxima in nanoseconds (fold by max).
    pub stage_max_nanos: [u64; 5],
    /// Repair-source deltas — only labels that grew this tick.
    pub sources: BTreeMap<&'static str, u64>,
    /// Anomalies committed since the previous tick, in report order.
    pub new_anomalies: Vec<Anomaly>,
    /// Currently open timelines (gauge; 0 in the terminal delta).
    pub live_timelines: u64,
    /// Approximate resident analyzer bytes (gauge; 0 in the terminal
    /// delta).
    pub resident_bytes: u64,
    /// Peak open timelines so far (fold by max).
    pub peak_live_timelines: u64,
    /// Peak resident bytes so far (fold by max).
    pub peak_resident_bytes: u64,
    /// Cumulative events dropped at the [`DoctorSink`] (gauge).
    pub dropped_events: u64,
}

impl ReportDelta {
    /// Flat JSON rendering (what `/deltas/last` serves).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push('{');
        s.push_str(&format!(
            "\"tick\":{},\"terminal\":{},\"records\":{},\"stream_end_ns\":{}",
            self.tick, self.terminal, self.records, self.stream_end_nanos
        ));
        s.push_str(&format!(
            ",\"recovered\":{},\"abandoned\":{},\"unrecovered\":{},\"telescoping\":{}",
            self.recovered, self.abandoned, self.unrecovered, self.telescoping
        ));
        s.push_str(&format!(
            ",\"duplicate_repairs\":{},\"truncated_gap_spans\":{},\"force_evicted\":{},\"aged_out\":{},\"out_of_order\":{}",
            self.duplicate_repairs,
            self.truncated_gap_spans,
            self.force_evicted,
            self.aged_out,
            self.out_of_order
        ));
        s.push_str(&format!(",\"max_nack_fan_in\":{}", self.max_nack_fan_in));
        s.push_str(",\"stages\":{");
        for (i, label) in STAGE_LABELS.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\"{label}\":{{\"count\":{},\"max_ns\":{}}}",
                self.stage_counts[i], self.stage_max_nanos[i]
            ));
        }
        s.push_str("},\"sources\":{");
        for (i, (k, v)) in self.sources.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{k}\":{v}"));
        }
        s.push_str("},\"new_anomalies\":[");
        for (i, a) in self.new_anomalies.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&anomaly_json(a));
        }
        s.push(']');
        s.push_str(&format!(
            ",\"live_timelines\":{},\"resident_bytes\":{},\"peak_live_timelines\":{},\"peak_resident_bytes\":{},\"dropped_events\":{}",
            self.live_timelines,
            self.resident_bytes,
            self.peak_live_timelines,
            self.peak_resident_bytes,
            self.dropped_events
        ));
        s.push('}');
        s
    }
}

/// Computes [`ReportDelta`]s between successive basis snapshots.
#[derive(Debug, Default)]
pub struct DeltaTracker {
    prev: ReportBasis,
    prev_records: u64,
    ticks: u64,
}

struct TickGauges {
    live: u64,
    resident: u64,
    peak_live: u64,
    peak_bytes: u64,
    end_nanos: u64,
    dropped: u64,
}

impl DeltaTracker {
    /// A tracker with an empty previous basis.
    pub fn new() -> Self {
        DeltaTracker::default()
    }

    /// Deltas emitted so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The most recent basis snapshot (what the next delta diffs
    /// against).
    pub fn basis(&self) -> &ReportBasis {
        &self.prev
    }

    /// Emits the delta between the previous tick and the analyzer's
    /// current committed basis.
    pub fn delta_from(&mut self, a: &OnlineAnalyzer, dropped: u64) -> ReportDelta {
        let cur = a.basis();
        let g = TickGauges {
            live: a.live_timelines() as u64,
            resident: a.approx_resident_bytes(),
            peak_live: a.peak_live_timelines(),
            peak_bytes: a.peak_resident_bytes(),
            end_nanos: a.end_nanos(),
            dropped,
        };
        self.advance(cur, a.records(), g, false)
    }

    /// Emits the terminal delta against a finished report: the
    /// still-open timelines (now unrecovered) and the end-of-stream
    /// detector anomalies.
    pub fn terminal(
        &mut self,
        report: &RecoveryReport,
        records: u64,
        end_nanos: u64,
        dropped: u64,
    ) -> ReportDelta {
        let cur = ReportBasis::of_report(report);
        let g = TickGauges {
            live: 0,
            resident: 0,
            peak_live: report.stream.peak_live_timelines,
            peak_bytes: report.stream.peak_resident_bytes,
            end_nanos,
            dropped,
        };
        self.advance(cur, records, g, true)
    }

    fn advance(
        &mut self,
        cur: ReportBasis,
        records: u64,
        g: TickGauges,
        terminal: bool,
    ) -> ReportDelta {
        let prev = &self.prev;
        let mut stage_counts = [0u64; 5];
        for (i, c) in stage_counts.iter_mut().enumerate() {
            *c = cur.stage_counts[i].saturating_sub(prev.stage_counts[i]);
        }
        let mut sources = BTreeMap::new();
        for (&k, &v) in &cur.sources {
            let d = v.saturating_sub(prev.sources.get(k).copied().unwrap_or(0));
            if d > 0 {
                sources.insert(k, d);
            }
        }
        // Committed anomalies are a prefix of the current vector; the
        // suffix is what's new. `get` guards the (impossible by
        // contract) shrink case rather than panicking in a monitor.
        let new_anomalies = cur
            .anomalies
            .get(prev.anomalies.len()..)
            .unwrap_or(&[])
            .to_vec();
        let delta = ReportDelta {
            tick: self.ticks,
            terminal,
            records: records.saturating_sub(self.prev_records),
            stream_end_nanos: g.end_nanos,
            recovered: cur.recovered.saturating_sub(prev.recovered),
            abandoned: cur.abandoned.saturating_sub(prev.abandoned),
            unrecovered: cur.unrecovered.saturating_sub(prev.unrecovered),
            telescoping: cur.telescoping.saturating_sub(prev.telescoping),
            duplicate_repairs: cur.duplicate_repairs.saturating_sub(prev.duplicate_repairs),
            truncated_gap_spans: cur
                .truncated_gap_spans
                .saturating_sub(prev.truncated_gap_spans),
            force_evicted: cur.force_evicted.saturating_sub(prev.force_evicted),
            aged_out: cur.aged_out.saturating_sub(prev.aged_out),
            out_of_order: cur.out_of_order.saturating_sub(prev.out_of_order),
            max_nack_fan_in: cur.max_nack_fan_in,
            stage_counts,
            stage_max_nanos: cur.stage_max_nanos,
            sources,
            new_anomalies,
            live_timelines: g.live,
            resident_bytes: g.resident,
            peak_live_timelines: g.peak_live,
            peak_resident_bytes: g.peak_bytes,
            dropped_events: g.dropped,
        };
        self.prev = cur;
        self.prev_records = records;
        self.ticks += 1;
        delta
    }
}

/// The running fold of a delta sequence. After the terminal delta,
/// [`DeltaFold::basis`] equals [`ReportBasis::of_report`] of the final
/// report — the pinned delta-algebra contract.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaFold {
    /// Folded basis (sums of deltas, maxes of running maxima).
    pub basis: ReportBasis,
    /// Total records across the folded deltas.
    pub records: u64,
    /// Deltas folded in.
    pub deltas: u64,
    /// Latest cumulative drop-counter gauge.
    pub dropped_events: u64,
    /// Peak open timelines across the folded deltas.
    pub peak_live_timelines: u64,
    /// Peak resident bytes across the folded deltas.
    pub peak_resident_bytes: u64,
}

impl DeltaFold {
    /// Folds one more delta in (deltas must be applied in tick order).
    pub fn push(&mut self, d: &ReportDelta) {
        let b = &mut self.basis;
        b.recovered += d.recovered;
        b.abandoned += d.abandoned;
        b.unrecovered += d.unrecovered;
        b.telescoping += d.telescoping;
        b.duplicate_repairs += d.duplicate_repairs;
        b.max_nack_fan_in = b.max_nack_fan_in.max(d.max_nack_fan_in);
        b.truncated_gap_spans += d.truncated_gap_spans;
        for i in 0..STAGE_LABELS.len() {
            b.stage_counts[i] += d.stage_counts[i];
            b.stage_max_nanos[i] = b.stage_max_nanos[i].max(d.stage_max_nanos[i]);
        }
        for (&k, &v) in &d.sources {
            *b.sources.entry(k).or_insert(0) += v;
        }
        b.anomalies.extend(d.new_anomalies.iter().cloned());
        b.force_evicted += d.force_evicted;
        b.aged_out += d.aged_out;
        b.out_of_order += d.out_of_order;
        self.records += d.records;
        self.deltas += 1;
        self.dropped_events = d.dropped_events;
        self.peak_live_timelines = self.peak_live_timelines.max(d.peak_live_timelines);
        self.peak_resident_bytes = self.peak_resident_bytes.max(d.peak_resident_bytes);
    }
}

/// Folds a delta sequence (in tick order) into a [`DeltaFold`].
pub fn fold_deltas<'a>(deltas: impl IntoIterator<Item = &'a ReportDelta>) -> DeltaFold {
    let mut fold = DeltaFold::default();
    for d in deltas {
        fold.push(d);
    }
    fold
}

// ---------------------------------------------------------------------
// The non-blocking sink
// ---------------------------------------------------------------------

type DoctorMsg = (u64, HostId, ProtocolEvent);

/// The [`TraceSink`] live endpoints write into: `try_send` onto a
/// bounded channel. A full channel (or a finished doctor) **drops the
/// event and counts it** — the recv loop never blocks on forensics.
#[derive(Debug)]
pub struct DoctorSink {
    tx: SyncSender<DoctorMsg>,
    dropped: AtomicU64,
    closed: AtomicBool,
}

impl DoctorSink {
    fn new(tx: SyncSender<DoctorMsg>) -> Self {
        DoctorSink {
            tx,
            dropped: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        }
    }

    /// Events dropped because the channel was full (or the doctor
    /// already finished).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Relaxed);
    }
}

impl TraceSink for DoctorSink {
    fn record(&self, at_nanos: u64, host: HostId, event: &ProtocolEvent) {
        if self.closed.load(Ordering::Relaxed) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        match self.tx.try_send((at_nanos, host, event.clone())) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The sidecar
// ---------------------------------------------------------------------

/// Tunables for the [`DoctorSidecar`].
#[derive(Debug, Clone)]
pub struct DoctorConfig {
    /// Streaming-analyzer tunables (cap/horizon/reservoirs).
    pub online: OnlineConfig,
    /// Delta cadence.
    pub tick: Duration,
    /// Bounded event-channel capacity; overflow drops (counted).
    pub channel_capacity: usize,
    /// Rolling anomaly window, in ticks, for `/healthz`.
    pub window_ticks: u64,
    /// Grace before a still-open gap in the provisional snapshot makes
    /// `/healthz` unhealthy (stream-time nanoseconds since detection).
    pub unrecovered_grace_nanos: u64,
    /// Oldest live timelines listed by `/timelines/live`.
    pub live_sample: usize,
    /// Retain every emitted delta for [`DoctorSidecar::finish`] (tests
    /// and audits; a long-lived monitor should leave this off).
    pub keep_deltas: bool,
}

impl Default for DoctorConfig {
    fn default() -> Self {
        DoctorConfig {
            online: OnlineConfig::default(),
            tick: Duration::from_millis(200),
            channel_capacity: 8192,
            window_ticks: 25,
            unrecovered_grace_nanos: 2_000_000_000,
            live_sample: 32,
            keep_deltas: false,
        }
    }
}

/// `/healthz` verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Health {
    /// `false` while the rolling window holds unrecovered gaps or the
    /// provisional snapshot shows overdue gaps / stalled settlements.
    pub healthy: bool,
    /// Human-readable reasons when unhealthy.
    pub reasons: Vec<String>,
}

impl Default for Health {
    fn default() -> Self {
        Health {
            healthy: true,
            reasons: Vec::new(),
        }
    }
}

#[derive(Debug, Default)]
struct SharedState {
    ticks: u64,
    finished: bool,
    records: u64,
    end_nanos: u64,
    last_delta: Option<ReportDelta>,
    fold: DeltaFold,
    live_count: u64,
    live_oldest: Vec<LiveGap>,
    resident_bytes: u64,
    peak_live: u64,
    peak_bytes: u64,
    snapshot_anomalies: Vec<Anomaly>,
    recent: VecDeque<(u64, Anomaly)>,
    health: Health,
    deltas: Vec<ReportDelta>,
    final_report: Option<RecoveryReport>,
}

type Probe = Box<dyn Fn() + Send>;

struct Inner {
    cfg: DoctorConfig,
    started: Instant,
    sink: Arc<DoctorSink>,
    state: Mutex<SharedState>,
    registries: Mutex<Vec<(String, Arc<MetricsRegistry>)>>,
    probes: Mutex<Vec<Probe>>,
}

/// A cloneable read handle onto the sidecar's published state — what
/// the [`AdminServer`] routes answer from.
#[derive(Clone)]
pub struct DoctorHandle {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for DoctorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DoctorHandle").finish()
    }
}

/// The live doctor: owns an [`OnlineAnalyzer`] on its own thread,
/// drains the [`DoctorSink`] channel, ticks out [`ReportDelta`]s, and
/// publishes rolling state for the admin surface.
#[derive(Debug)]
pub struct DoctorSidecar {
    inner: Arc<Inner>,
    stop: Arc<AtomicBool>,
    worker: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DoctorInner").finish()
    }
}

/// Everything a finished sidecar hands back.
#[derive(Debug)]
pub struct DoctorFinish {
    /// The final one-shot report (identical to what a batch replay of
    /// the same stream would produce, per the fidelity contract).
    pub report: RecoveryReport,
    /// Every emitted delta, terminal included (empty unless
    /// [`DoctorConfig::keep_deltas`]).
    pub deltas: Vec<ReportDelta>,
    /// The running fold of all emitted deltas.
    pub fold: DeltaFold,
    /// Records the analyzer consumed.
    pub records: u64,
    /// Events dropped at the sink.
    pub dropped_events: u64,
}

impl DoctorSidecar {
    /// Spawns the sidecar thread.
    pub fn spawn(cfg: DoctorConfig) -> DoctorSidecar {
        let (tx, rx) = mpsc::sync_channel(cfg.channel_capacity.max(1));
        let sink = Arc::new(DoctorSink::new(tx));
        let inner = Arc::new(Inner {
            cfg: cfg.clone(),
            started: Instant::now(),
            sink,
            state: Mutex::new(SharedState::default()),
            registries: Mutex::new(Vec::new()),
            probes: Mutex::new(Vec::new()),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let worker = {
            let inner = inner.clone();
            let stop = stop.clone();
            std::thread::Builder::new()
                .name("lbrm-doctor".into())
                .spawn(move || worker_loop(inner, rx, stop))
                .expect("spawn doctor thread")
        };
        DoctorSidecar {
            inner,
            stop,
            worker: Some(worker),
        }
    }

    /// The non-blocking sink to attach to endpoint tracers.
    pub fn sink(&self) -> Arc<DoctorSink> {
        self.inner.sink.clone()
    }

    /// A read handle for the admin surface (or direct inspection).
    pub fn handle(&self) -> DoctorHandle {
        DoctorHandle {
            inner: self.inner.clone(),
        }
    }

    /// Registers a [`MetricsRegistry`] under `name`; its counters and
    /// gauges appear in `/stats` under `"net"`.
    pub fn register_registry(&self, name: &str, registry: Arc<MetricsRegistry>) {
        lock(&self.inner.registries).push((name.to_owned(), registry));
    }

    /// Registers a probe run at every tick *before* the delta is
    /// computed — e.g. copying a transport's `RecvCounters` into a
    /// registered registry's gauges.
    pub fn register_probe(&self, probe: impl Fn() + Send + 'static) {
        lock(&self.inner.probes).push(Box::new(probe));
    }

    /// Events dropped at the sink so far.
    pub fn dropped(&self) -> u64 {
        self.inner.sink.dropped()
    }

    /// Ticks emitted so far.
    pub fn ticks(&self) -> u64 {
        lock(&self.inner.state).ticks
    }

    /// Stops the doctor: closes the sink, drains the channel, emits the
    /// terminal delta, and returns the final report plus the delta
    /// audit trail.
    pub fn finish(mut self) -> DoctorFinish {
        self.shutdown();
        let mut st = lock(&self.inner.state);
        DoctorFinish {
            report: st.final_report.take().expect("worker published the report"),
            deltas: std::mem::take(&mut st.deltas),
            fold: st.fold.clone(),
            records: st.records,
            dropped_events: self.inner.sink.dropped(),
        }
    }

    fn shutdown(&mut self) {
        if let Some(worker) = self.worker.take() {
            self.inner.sink.close();
            self.stop.store(true, Ordering::Relaxed);
            worker.join().expect("doctor thread panicked");
        }
    }
}

impl Drop for DoctorSidecar {
    fn drop(&mut self) {
        if let Some(worker) = self.worker.take() {
            self.inner.sink.close();
            self.stop.store(true, Ordering::Relaxed);
            let _ = worker.join();
        }
    }
}

fn worker_loop(inner: Arc<Inner>, rx: Receiver<DoctorMsg>, stop: Arc<AtomicBool>) {
    let mut analyzer = OnlineAnalyzer::new(inner.cfg.online.clone());
    let mut tracker = DeltaTracker::new();
    let tick = inner.cfg.tick.max(Duration::from_millis(1));
    let mut next_tick = Instant::now() + tick;
    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        if Instant::now() >= next_tick {
            run_tick(&inner, &mut analyzer, &mut tracker);
            next_tick = Instant::now() + tick;
        }
        // Cap the wait so a stop request is honored promptly even with
        // a long tick.
        let wait = next_tick
            .saturating_duration_since(Instant::now())
            .min(Duration::from_millis(50));
        match rx.recv_timeout(wait) {
            Ok((at, host, ev)) => {
                analyzer.push(at, host, &ev);
                // Drain a burst without a clock check per event.
                for _ in 0..512 {
                    match rx.try_recv() {
                        Ok((at, host, ev)) => analyzer.push(at, host, &ev),
                        Err(_) => break,
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // The sink is closed: drain what is already queued, then finalize.
    while let Ok((at, host, ev)) = rx.try_recv() {
        analyzer.push(at, host, &ev);
    }
    let records = analyzer.records();
    let end_nanos = analyzer.end_nanos();
    let report = analyzer.finish();
    let delta = tracker.terminal(&report, records, end_nanos, inner.sink.dropped());
    let mut st = lock(&inner.state);
    let tick_idx = delta.tick;
    for a in &delta.new_anomalies {
        st.recent.push_back((tick_idx, a.clone()));
    }
    st.fold.push(&delta);
    if inner.cfg.keep_deltas {
        st.deltas.push(delta.clone());
    }
    st.ticks = tick_idx + 1;
    st.records = records;
    st.end_nanos = end_nanos;
    st.live_count = 0;
    st.live_oldest.clear();
    st.resident_bytes = 0;
    st.peak_live = report.stream.peak_live_timelines;
    st.peak_bytes = report.stream.peak_resident_bytes;
    st.snapshot_anomalies = report.anomalies.clone();
    st.health = compute_health(
        &inner.cfg,
        &st.fold,
        &st.recent,
        &st.snapshot_anomalies,
        end_nanos,
        tick_idx,
    );
    st.last_delta = Some(delta);
    st.final_report = Some(report);
    st.finished = true;
}

fn run_tick(inner: &Inner, analyzer: &mut OnlineAnalyzer, tracker: &mut DeltaTracker) {
    for p in lock(&inner.probes).iter() {
        p();
    }
    let delta = tracker.delta_from(analyzer, inner.sink.dropped());
    // Provisional snapshot: still-open timelines show up as unrecovered
    // gaps here (display + health only — they never enter a delta until
    // they actually commit).
    let snapshot = analyzer.clone().finish();
    let live_oldest = analyzer.live_oldest(inner.cfg.live_sample);
    let live_count = analyzer.live_timelines() as u64;
    let resident = analyzer.approx_resident_bytes();
    let end_nanos = analyzer.end_nanos();
    let records = analyzer.records();

    let mut st = lock(&inner.state);
    let tick_idx = delta.tick;
    for a in &delta.new_anomalies {
        st.recent.push_back((tick_idx, a.clone()));
    }
    let window = inner.cfg.window_ticks;
    while st
        .recent
        .front()
        .is_some_and(|(t, _)| tick_idx.saturating_sub(*t) >= window)
    {
        st.recent.pop_front();
    }
    st.fold.push(&delta);
    if inner.cfg.keep_deltas {
        st.deltas.push(delta.clone());
    }
    st.ticks = tick_idx + 1;
    st.records = records;
    st.end_nanos = end_nanos;
    st.live_count = live_count;
    st.live_oldest = live_oldest;
    st.resident_bytes = resident;
    st.peak_live = analyzer.peak_live_timelines();
    st.peak_bytes = analyzer.peak_resident_bytes();
    st.snapshot_anomalies = snapshot.anomalies;
    st.health = compute_health(
        &inner.cfg,
        &st.fold,
        &st.recent,
        &st.snapshot_anomalies,
        end_nanos,
        tick_idx,
    );
    st.last_delta = Some(delta);
}

fn compute_health(
    cfg: &DoctorConfig,
    fold: &DeltaFold,
    recent: &VecDeque<(u64, Anomaly)>,
    snapshot_anomalies: &[Anomaly],
    end_nanos: u64,
    _tick: u64,
) -> Health {
    let mut reasons = Vec::new();
    let recent_gaps = recent
        .iter()
        .filter(|(_, a)| matches!(a, Anomaly::UnrecoveredGap { .. }))
        .count();
    if recent_gaps > 0 {
        reasons.push(format!(
            "{recent_gaps} unrecovered gap(s) committed in the last {} tick(s)",
            cfg.window_ticks
        ));
    }
    let recent_stalls = recent
        .iter()
        .filter(|(_, a)| matches!(a, Anomaly::StalledSettlement { .. }))
        .count();
    if recent_stalls > 0 {
        reasons.push(format!(
            "{recent_stalls} stalled settlement(s) committed in the last {} tick(s)",
            cfg.window_ticks
        ));
    }
    // Provisional-only anomalies (the suffix past the committed prefix)
    // come from still-open timelines and the end-of-stream detectors
    // run on the snapshot clone.
    let committed = fold.basis.anomalies.len();
    let mut overdue_gaps = 0usize;
    let mut provisional_stalls = 0usize;
    for a in snapshot_anomalies.get(committed..).unwrap_or(&[]) {
        match a {
            Anomaly::UnrecoveredGap {
                detected_at_nanos, ..
            } if detected_at_nanos.saturating_add(cfg.unrecovered_grace_nanos) < end_nanos => {
                overdue_gaps += 1;
            }
            Anomaly::StalledSettlement { .. } => provisional_stalls += 1,
            _ => {}
        }
    }
    if overdue_gaps > 0 {
        reasons.push(format!(
            "{overdue_gaps} open gap(s) older than the {:.1}s grace",
            cfg.unrecovered_grace_nanos as f64 / 1e9
        ));
    }
    if provisional_stalls > 0 {
        reasons.push(format!(
            "{provisional_stalls} settlement(s) currently stalled"
        ));
    }
    Health {
        healthy: reasons.is_empty(),
        reasons,
    }
}

// ---------------------------------------------------------------------
// Route bodies (shared by the admin server and direct inspection)
// ---------------------------------------------------------------------

impl DoctorHandle {
    /// Current `/healthz` verdict.
    pub fn health(&self) -> Health {
        lock(&self.inner.state).health.clone()
    }

    /// The most recent delta, if any tick has fired yet.
    pub fn last_delta(&self) -> Option<ReportDelta> {
        lock(&self.inner.state).last_delta.clone()
    }

    /// The running fold of every delta emitted so far.
    pub fn fold(&self) -> DeltaFold {
        lock(&self.inner.state).fold.clone()
    }

    /// Ticks emitted so far.
    pub fn ticks(&self) -> u64 {
        lock(&self.inner.state).ticks
    }

    /// Cumulative sink drop counter.
    pub fn dropped(&self) -> u64 {
        self.inner.sink.dropped()
    }

    /// `GET /stats`: committed fold counters, gauges, health, and every
    /// registered [`MetricsRegistry`]'s counters and gauges.
    pub fn stats_json(&self) -> String {
        // Refresh probe-fed gauges so a scrape never reads stale
        // transport counters (ticks also run them).
        for p in lock(&self.inner.probes).iter() {
            p();
        }
        let st = lock(&self.inner.state);
        let b = &st.fold.basis;
        let mut s = String::with_capacity(1024);
        s.push('{');
        s.push_str(&format!(
            "\"uptime_ms\":{},\"ticks\":{},\"finished\":{},\"records\":{},\"dropped_events\":{}",
            self.inner.started.elapsed().as_millis(),
            st.ticks,
            st.finished,
            st.records,
            self.inner.sink.dropped()
        ));
        s.push_str(&format!(
            ",\"stream_end_ns\":{},\"live_timelines\":{},\"peak_live_timelines\":{},\"resident_bytes\":{},\"peak_resident_bytes\":{}",
            st.end_nanos, st.live_count, st.peak_live, st.resident_bytes, st.peak_bytes
        ));
        s.push_str(&format!(
            ",\"recovered\":{},\"abandoned\":{},\"unrecovered\":{},\"duplicate_repairs\":{},\"max_nack_fan_in\":{},\"anomalies\":{},\"recent_anomalies\":{}",
            b.recovered,
            b.abandoned,
            b.unrecovered,
            b.duplicate_repairs,
            b.max_nack_fan_in,
            b.anomalies.len(),
            st.recent.len()
        ));
        s.push_str(&format!(",\"healthy\":{}", st.health.healthy));
        s.push_str(",\"net\":{");
        let regs = lock(&self.inner.registries);
        for (i, (name, reg)) in regs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{{\"counters\":{{", json_escape(name)));
            for (j, (k, v)) in reg.counters().iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!("\"{k}\":{v}"));
            }
            s.push_str("},\"gauges\":{");
            for (j, (k, v)) in reg.gauges().iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!("\"{}\":{v}", json_escape(k)));
            }
            s.push_str("}}");
        }
        s.push_str("}}");
        s
    }

    /// `GET /timelines/live`: count plus the oldest open recoveries.
    pub fn timelines_json(&self) -> String {
        let st = lock(&self.inner.state);
        let mut s = String::with_capacity(256);
        s.push_str(&format!(
            "{{\"count\":{},\"listed\":{},\"oldest\":[",
            st.live_count,
            st.live_oldest.len()
        ));
        for (i, g) in st.live_oldest.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"host\":{},\"seq\":{},\"detected_at_ns\":{},\"age_ns\":{},\"nacks_sent\":{},\"served\":{},\"repaired\":{}}}",
                g.host.raw(),
                g.seq.raw(),
                g.detected_at_nanos,
                st.end_nanos.saturating_sub(g.detected_at_nanos),
                g.nacks_sent,
                g.served,
                g.repaired
            ));
        }
        s.push_str("]}");
        s
    }

    /// `GET /anomalies/tail?n=`: the last `n` anomalies of the current
    /// provisional snapshot, in batch-report order.
    pub fn anomalies_tail_json(&self, n: usize) -> String {
        let st = lock(&self.inner.state);
        let all = &st.snapshot_anomalies;
        let start = all.len().saturating_sub(n);
        let mut s = String::with_capacity(256);
        s.push_str(&format!("{{\"total\":{},\"tail\":[", all.len()));
        for (i, a) in all[start..].iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&anomaly_json(a));
        }
        s.push_str("]}");
        s
    }

    /// `GET /deltas/last`: the most recent delta, or `null` before the
    /// first tick.
    pub fn deltas_last_json(&self) -> String {
        match self.last_delta() {
            Some(d) => d.to_json(),
            None => "null".into(),
        }
    }

    /// `GET /mem`: resident-state gauges against the configured
    /// budgets.
    pub fn mem_json(&self) -> String {
        let st = lock(&self.inner.state);
        let online = &self.inner.cfg.online;
        let cap = match online.max_live_timelines {
            Some(c) => c.to_string(),
            None => "null".into(),
        };
        let horizon = match online.horizon_nanos {
            Some(h) => h.to_string(),
            None => "null".into(),
        };
        format!(
            "{{\"resident_bytes\":{},\"peak_resident_bytes\":{},\"live_timelines\":{},\"peak_live_timelines\":{},\"max_live_timelines\":{cap},\"horizon_ns\":{horizon},\"channel_capacity\":{},\"dropped_events\":{}}}",
            st.resident_bytes,
            st.peak_bytes,
            st.live_count,
            st.peak_live,
            self.inner.cfg.channel_capacity,
            self.inner.sink.dropped()
        )
    }

    /// `GET /healthz` body and status: `(200, "ok")` or a 503 with
    /// reasons.
    pub fn healthz(&self) -> (u16, String) {
        let h = self.health();
        if h.healthy {
            (200, "ok\n".into())
        } else {
            let reasons: Vec<String> = h
                .reasons
                .iter()
                .map(|r| format!("\"{}\"", json_escape(r)))
                .collect();
            (
                503,
                format!("{{\"healthy\":false,\"reasons\":[{}]}}", reasons.join(",")),
            )
        }
    }
}

// ---------------------------------------------------------------------
// The admin server
// ---------------------------------------------------------------------

struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
}

fn json_response(status: u16, body: String) -> Response {
    Response {
        status,
        content_type: "application/json",
        body,
    }
}

fn route(handle: &DoctorHandle, method: &str, path: &str, query: &str) -> Response {
    if method != "GET" {
        return json_response(405, "{\"error\":\"method not allowed\"}".into());
    }
    match path {
        "/stats" => json_response(200, handle.stats_json()),
        "/timelines/live" => json_response(200, handle.timelines_json()),
        "/anomalies/tail" => {
            let mut n = 16usize;
            for pair in query.split('&').filter(|p| !p.is_empty()) {
                let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
                if k == "n" {
                    match v.parse::<usize>() {
                        Ok(parsed) => n = parsed,
                        Err(_) => {
                            return json_response(
                                400,
                                "{\"error\":\"n must be a non-negative integer\"}".into(),
                            );
                        }
                    }
                }
            }
            json_response(200, handle.anomalies_tail_json(n))
        }
        "/deltas/last" => json_response(200, handle.deltas_last_json()),
        "/mem" => json_response(200, handle.mem_json()),
        "/healthz" => {
            let (status, body) = handle.healthz();
            if status == 200 {
                Response {
                    status,
                    content_type: "text/plain",
                    body,
                }
            } else {
                json_response(status, body)
            }
        }
        _ => json_response(404, "{\"error\":\"not found\"}".into()),
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

fn serve_connection(stream: &mut TcpStream, handle: &DoctorHandle) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers (bounded) so well-behaved clients see the response.
    let mut header = String::new();
    for _ in 0..64 {
        header.clear();
        if reader.read_line(&mut header)? == 0 || header == "\r\n" || header == "\n" {
            break;
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("/");
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let resp = route(handle, method, path, query);
    let head = format!(
        "HTTP/1.0 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        status_text(resp.status),
        resp.content_type,
        resp.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(resp.body.as_bytes())?;
    stream.flush()
}

/// The hand-rolled HTTP/1.0 admin server: one thread, one connection at
/// a time, request-line + path routing over a [`DoctorHandle`].
#[derive(Debug)]
pub struct AdminServer {
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl AdminServer {
    /// Binds and starts serving. Pass `127.0.0.1:0` to let the OS pick
    /// a port (see [`local_addr`](Self::local_addr)).
    pub fn bind(addr: impl ToSocketAddrs, handle: DoctorHandle) -> std::io::Result<AdminServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = stop.clone();
            std::thread::Builder::new()
                .name("lbrm-admin".into())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        match listener.accept() {
                            Ok((mut conn, _)) => {
                                // One connection at a time; per-request
                                // I/O errors only drop that connection.
                                conn.set_nonblocking(false).ok();
                                let _ = serve_connection(&mut conn, &handle);
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(20));
                            }
                            Err(_) => std::thread::sleep(Duration::from_millis(20)),
                        }
                    }
                })
                .expect("spawn admin thread")
        };
        Ok(AdminServer {
            local,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Stops the accept loop and joins the thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze, AnalyzeConfig, TraceRecord};
    use lbrm_wire::{EpochId, Seq};
    use std::io::Read as _;

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

    /// Every third packet lost and recovered; packet `lost_forever`
    /// (if within range) never recovers.
    fn stream(packets: u32, lost_forever: Option<u32>) -> Vec<TraceRecord> {
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
            let lost = i % 3 == 0 || Some(i) == lost_forever;
            if lost {
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
                if Some(i) == lost_forever {
                    continue;
                }
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

    #[test]
    fn fold_of_deltas_plus_terminal_equals_batch() {
        let records = stream(30, Some(7));
        let cfg = AnalyzeConfig {
            h_max_nanos: None,
            ..AnalyzeConfig::default()
        };
        let batch = analyze(&records, &cfg);

        let mut analyzer = OnlineAnalyzer::new(OnlineConfig {
            analyze: cfg,
            ..OnlineConfig::default()
        });
        let mut tracker = DeltaTracker::new();
        let mut deltas = Vec::new();
        for (i, r) in records.iter().enumerate() {
            analyzer.push_record(r);
            // Tick at awkward boundaries, including mid-recovery.
            if i % 7 == 3 {
                deltas.push(tracker.delta_from(&analyzer, 0));
            }
        }
        let n = analyzer.records();
        let end = analyzer.end_nanos();
        let report = analyzer.finish();
        deltas.push(tracker.terminal(&report, n, end, 0));

        let fold = fold_deltas(&deltas);
        assert_eq!(fold.basis, ReportBasis::of_report(&batch));
        assert_eq!(fold.records, records.len() as u64);
        // The per-tick deltas alone never contain provisional gaps:
        // only the terminal delta commits the still-open timeline.
        let pre_terminal_unrecovered: u64 = deltas
            .iter()
            .filter(|d| !d.terminal)
            .map(|d| d.unrecovered)
            .sum();
        assert_eq!(pre_terminal_unrecovered, 0);
    }

    #[test]
    fn committed_anomalies_are_a_prefix_of_the_final_report() {
        let records = stream(24, Some(6));
        let cfg = OnlineConfig {
            analyze: AnalyzeConfig {
                h_max_nanos: None,
                ..AnalyzeConfig::default()
            },
            horizon_nanos: Some(500 * 1_000_000),
            ..OnlineConfig::default()
        };
        let mut analyzer = OnlineAnalyzer::new(cfg);
        let mut mid_committed = Vec::new();
        for (i, r) in records.iter().enumerate() {
            analyzer.push_record(r);
            if i == records.len() / 2 {
                mid_committed = analyzer.basis().anomalies;
            }
        }
        let committed = analyzer.basis().anomalies;
        let report = analyzer.finish();
        assert!(report.anomalies.len() >= committed.len());
        assert_eq!(&report.anomalies[..committed.len()], &committed[..]);
        assert_eq!(&committed[..mid_committed.len()], &mid_committed[..]);
        // The horizon actually aged the lost packet out mid-stream.
        assert!(!committed.is_empty());
    }

    #[test]
    fn sink_drops_and_counts_when_the_channel_is_full() {
        let (tx, rx) = mpsc::sync_channel(2);
        let sink = DoctorSink::new(tx);
        for i in 0..5u32 {
            sink.record(
                u64::from(i),
                RX,
                &ProtocolEvent::Recovered {
                    seq: Seq(i),
                    latency_nanos: 1,
                },
            );
        }
        assert_eq!(sink.dropped(), 3);
        drop(rx);
        sink.record(9, RX, &ProtocolEvent::FreshnessLost);
        assert_eq!(sink.dropped(), 4);
    }

    fn http_get(addr: SocketAddr, target: &str) -> (u16, String) {
        let mut conn = TcpStream::connect(addr).expect("connect admin");
        conn.write_all(format!("GET {target} HTTP/1.0\r\nHost: test\r\n\r\n").as_bytes())
            .unwrap();
        let mut raw = String::new();
        conn.read_to_string(&mut raw).unwrap();
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_owned())
            .unwrap_or_default();
        (status, body)
    }

    #[test]
    fn admin_routes_answer_with_documented_statuses() {
        let sidecar = DoctorSidecar::spawn(DoctorConfig {
            tick: Duration::from_millis(5),
            keep_deltas: true,
            online: OnlineConfig {
                analyze: AnalyzeConfig {
                    h_max_nanos: None,
                    ..AnalyzeConfig::default()
                },
                ..OnlineConfig::default()
            },
            ..DoctorConfig::default()
        });
        let server = AdminServer::bind("127.0.0.1:0", sidecar.handle()).expect("bind admin");
        let addr = server.local_addr();

        let sink = sidecar.sink();
        for r in stream(12, None) {
            sink.record(r.at_nanos, r.host, &r.event);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while sidecar.ticks() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(sidecar.ticks() > 0, "doctor never ticked");

        let (status, body) = http_get(addr, "/stats");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"records\":"), "{body}");
        assert!(body.contains("\"dropped_events\":0"), "{body}");

        let (status, body) = http_get(addr, "/timelines/live");
        assert_eq!(status, 200);
        assert!(body.contains("\"oldest\":["), "{body}");

        let (status, body) = http_get(addr, "/anomalies/tail?n=5");
        assert_eq!(status, 200);
        assert!(body.contains("\"tail\":["), "{body}");
        let (status, _) = http_get(addr, "/anomalies/tail?n=bogus");
        assert_eq!(status, 400);

        let (status, body) = http_get(addr, "/deltas/last");
        assert_eq!(status, 200);
        assert!(body.contains("\"tick\":"), "{body}");

        let (status, body) = http_get(addr, "/mem");
        assert_eq!(status, 200);
        assert!(body.contains("\"resident_bytes\":"), "{body}");

        let (status, body) = http_get(addr, "/healthz");
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, "ok\n");

        let (status, _) = http_get(addr, "/nope");
        assert_eq!(status, 404);

        server.shutdown();
        let done = sidecar.finish();
        assert_eq!(done.records, stream(12, None).len() as u64);
        assert_eq!(done.dropped_events, 0);
        assert_eq!(done.fold.basis, ReportBasis::of_report(&done.report));
        assert!(!done.deltas.is_empty());
        assert!(done.deltas.last().unwrap().terminal);
    }

    #[test]
    fn healthz_turns_unhealthy_on_an_overdue_open_gap() {
        let sidecar = DoctorSidecar::spawn(DoctorConfig {
            tick: Duration::from_millis(5),
            unrecovered_grace_nanos: 100 * 1_000_000,
            online: OnlineConfig {
                analyze: AnalyzeConfig {
                    h_max_nanos: None,
                    ..AnalyzeConfig::default()
                },
                ..OnlineConfig::default()
            },
            ..DoctorConfig::default()
        });
        let sink = sidecar.sink();
        sink.record(0, RX, &ProtocolEvent::RoleAnnounced { role: "receiver" });
        sink.record(
            1_000_000,
            RX,
            &ProtocolEvent::GapDetected {
                first: Seq(1),
                last: Seq(1),
            },
        );
        // Stream time advances a full second past the 100ms grace.
        sink.record(1_000_000_000, RX, &ProtocolEvent::FreshnessLost);
        let handle = sidecar.handle();
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.health().healthy && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let h = handle.health();
        assert!(!h.healthy, "expected overdue gap to flag health");
        assert!(h.reasons.iter().any(|r| r.contains("open gap")), "{h:?}");
        let (status, body) = handle.healthz();
        assert_eq!(status, 503);
        assert!(body.contains("\"healthy\":false"), "{body}");
        drop(sidecar);
    }

    #[test]
    fn delta_json_is_flat_and_labelled() {
        let mut analyzer = OnlineAnalyzer::new(OnlineConfig::default());
        let mut tracker = DeltaTracker::new();
        for r in stream(6, None) {
            analyzer.push_record(&r);
        }
        let d = tracker.delta_from(&analyzer, 3);
        let json = d.to_json();
        for needle in [
            "\"tick\":0",
            "\"terminal\":false",
            "\"stages\":{\"detection\":",
            "\"sources\":{",
            "\"new_anomalies\":[",
            "\"dropped_events\":3",
        ] {
            assert!(json.contains(needle), "{needle} missing in {json}");
        }
    }
}
