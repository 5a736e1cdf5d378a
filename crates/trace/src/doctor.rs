//! The live doctor: incremental streaming forensics plus a hand-rolled
//! HTTP admin surface.
//!
//! The batch `trace_doctor` replay answers "what went wrong" after the
//! run; a million-receiver deployment needs to know *while it is
//! happening*. This module runs the streaming correlator
//! ([`OnlineAnalyzer`]) as a long-lived sidecar next to live endpoint
//! threads and publishes the analyzer's state at every tick:
//!
//! * [`DoctorSink`] is the non-blocking [`TraceSink`] the endpoints
//!   write into: a bounded MPSC channel fed with `try_send`. When the
//!   doctor falls behind, events are **dropped and counted, never
//!   queued against the recv loop** — observability must not
//!   back-pressure the protocol.
//! * [`DoctorSidecar`] owns the analyzer on its own thread, drains the
//!   channel, and every tick publishes a snapshot read straight from
//!   the analyzer: its committed counters, the anomalies committed
//!   since the previous tick (the `/healthz` window), a provisional
//!   report in which still-open timelines show as unrecovered gaps, and
//!   point-in-time gauges (live timelines, resident bytes, channel
//!   drops).
//! * [`AdminServer`] exposes it over HTTP/1.0 on a plain
//!   `TcpListener` (the build image cannot reach crates.io, so no
//!   hyper/axum — one thread, request-line routing, JSON/text bodies):
//!   `GET /stats`, `/timelines/live`, `/anomalies/tail?n=`, `/mem` and
//!   `/healthz` (non-200 while the rolling anomaly window holds
//!   unrecovered gaps or stalled settlements).
//!
//! **Committed vs provisional.** `finish()` only ever *adds* to what
//! the analyzer has committed: it closes the still-open timelines as
//! unrecovered gaps and appends the end-of-stream detector anomalies,
//! but never rewrites a count or an already-committed anomaly. So
//! [`OnlineAnalyzer::committed_anomalies`] is always a prefix of the
//! final report's anomaly list, and "committed since the last tick" is
//! the suffix past the length seen then.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lbrm_wire::HostId;

use crate::analyze::{Anomaly, RecoveryReport};
use crate::json;
use crate::online::{LiveGap, OnlineAnalyzer, OnlineConfig};
use crate::{lock, MetricsRegistry, ProtocolEvent, TraceSink};

/// Rolling anomaly window, in ticks, for `/healthz`.
const WINDOW_TICKS: u64 = 25;

/// Oldest live timelines listed by `/timelines/live`.
const LIVE_SAMPLE: usize = 32;

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
    /// Publish cadence.
    pub tick: Duration,
    /// Bounded event-channel capacity; overflow drops (counted).
    pub channel_capacity: usize,
    /// Grace before a still-open gap in the provisional snapshot makes
    /// `/healthz` unhealthy (stream-time nanoseconds since detection).
    pub unrecovered_grace_nanos: u64,
}

impl Default for DoctorConfig {
    fn default() -> Self {
        DoctorConfig {
            online: OnlineConfig::default(),
            tick: Duration::from_millis(200),
            channel_capacity: 8192,
            unrecovered_grace_nanos: 2_000_000_000,
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
    // The analyzer's committed counters as of the last tick (the final
    // report's once finished).
    recovered: u64,
    abandoned: u64,
    unrecovered: u64,
    duplicate_repairs: u64,
    max_nack_fan_in: u64,
    /// Committed anomalies: the length of the prefix of
    /// `snapshot_anomalies` that can no longer change.
    committed: usize,
    live_count: u64,
    live_oldest: Vec<LiveGap>,
    resident_bytes: u64,
    peak_live: u64,
    peak_bytes: u64,
    snapshot_anomalies: Vec<Anomaly>,
    recent: VecDeque<(u64, Anomaly)>,
    health: Health,
    final_report: Option<RecoveryReport>,
}

impl SharedState {
    /// Publishes one tick, after its gauges are set: `snapshot` is the
    /// provisional report (the final one at the end) and `committed`
    /// the prefix of its anomalies that can no longer change.
    fn publish(&mut self, cfg: &DoctorConfig, committed: &[Anomaly], snapshot: &RecoveryReport) {
        let tick = self.ticks;
        // What committed since the last tick is a suffix. `get` guards
        // the (impossible by contract) shrink rather than panicking in a
        // monitor.
        for a in committed.get(self.committed..).unwrap_or(&[]) {
            self.recent.push_back((tick, a.clone()));
        }
        while self
            .recent
            .front()
            .is_some_and(|(t, _)| tick - t >= WINDOW_TICKS)
        {
            self.recent.pop_front();
        }
        self.ticks = tick + 1;
        self.committed = committed.len();
        self.recovered = snapshot.recovered as u64;
        self.abandoned = snapshot.abandoned as u64;
        // The snapshot closes every still-open timeline as unrecovered;
        // only the ones the analyzer has closed itself are committed.
        self.unrecovered = (snapshot.unrecovered as u64).saturating_sub(self.live_count);
        self.duplicate_repairs = snapshot.duplicate_repairs;
        self.max_nack_fan_in = snapshot.max_nack_fan_in;
        self.snapshot_anomalies = snapshot.anomalies.clone();
        self.health = compute_health(
            cfg,
            &self.recent,
            self.snapshot_anomalies.get(self.committed..).unwrap_or(&[]),
            self.end_nanos,
        );
    }
}

struct Inner {
    cfg: DoctorConfig,
    started: Instant,
    sink: Arc<DoctorSink>,
    state: Mutex<SharedState>,
    registries: Mutex<Vec<(String, Arc<MetricsRegistry>)>>,
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
/// drains the [`DoctorSink`] channel, and publishes the analyzer's
/// state every tick for the admin surface.
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
    /// gauges (read in place at each scrape) appear in `/stats` under
    /// `"net"`.
    pub fn register_registry(&self, name: &str, registry: Arc<MetricsRegistry>) {
        lock(&self.inner.registries).push((name.to_owned(), registry));
    }

    /// Events dropped at the sink so far.
    pub fn dropped(&self) -> u64 {
        self.inner.sink.dropped()
    }

    /// Ticks published so far.
    pub fn ticks(&self) -> u64 {
        lock(&self.inner.state).ticks
    }

    /// Stops the doctor: closes the sink, drains the channel, publishes
    /// the final report, and returns it.
    pub fn finish(mut self) -> DoctorFinish {
        self.stop_and_join().expect("doctor thread panicked");
        let mut st = lock(&self.inner.state);
        DoctorFinish {
            report: st.final_report.take().expect("worker published the report"),
            records: st.records,
            dropped_events: self.inner.sink.dropped(),
        }
    }

    fn stop_and_join(&mut self) -> std::thread::Result<()> {
        match self.worker.take() {
            Some(worker) => {
                self.inner.sink.close();
                self.stop.store(true, Ordering::Relaxed);
                worker.join()
            }
            None => Ok(()),
        }
    }
}

impl Drop for DoctorSidecar {
    fn drop(&mut self) {
        let _ = self.stop_and_join();
    }
}

fn worker_loop(inner: Arc<Inner>, rx: Receiver<DoctorMsg>, stop: Arc<AtomicBool>) {
    let mut analyzer = OnlineAnalyzer::new(inner.cfg.online.clone());
    let tick = inner.cfg.tick.max(Duration::from_millis(1));
    let mut next_tick = Instant::now() + tick;
    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        if Instant::now() >= next_tick {
            run_tick(&inner, &analyzer);
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
    let mut st = lock(&inner.state);
    st.records = records;
    st.end_nanos = end_nanos;
    st.live_count = 0;
    st.live_oldest.clear();
    st.resident_bytes = 0;
    st.peak_live = report.stream.peak_live_timelines;
    st.peak_bytes = report.stream.peak_resident_bytes;
    st.publish(&inner.cfg, &report.anomalies, &report);
    st.final_report = Some(report);
    st.finished = true;
}

fn run_tick(inner: &Inner, analyzer: &OnlineAnalyzer) {
    // Provisional snapshot: still-open timelines show up as unrecovered
    // gaps here (display and health only — the counters and the health
    // window take only what the analyzer has committed).
    let snapshot = analyzer.clone().finish();
    let live_oldest = analyzer.live_oldest(LIVE_SAMPLE);

    let mut st = lock(&inner.state);
    st.records = analyzer.records();
    st.end_nanos = analyzer.end_nanos();
    st.live_count = analyzer.live_timelines() as u64;
    st.live_oldest = live_oldest;
    st.resident_bytes = analyzer.approx_resident_bytes();
    st.peak_live = analyzer.peak_live_timelines();
    st.peak_bytes = analyzer.peak_resident_bytes();
    st.publish(&inner.cfg, analyzer.committed_anomalies(), &snapshot);
}

/// The `/healthz` verdict from the rolling window of committed
/// anomalies and the provisional-only ones (`provisional`: from
/// still-open timelines and the end-of-stream detectors run on the
/// snapshot clone).
fn compute_health(
    cfg: &DoctorConfig,
    recent: &VecDeque<(u64, Anomaly)>,
    provisional: &[Anomaly],
    end_nanos: u64,
) -> Health {
    let mut reasons = Vec::new();
    let recent_gaps = recent
        .iter()
        .filter(|(_, a)| matches!(a, Anomaly::UnrecoveredGap { .. }))
        .count();
    if recent_gaps > 0 {
        reasons.push(format!(
            "{recent_gaps} unrecovered gap(s) committed in the last {WINDOW_TICKS} tick(s)"
        ));
    }
    let recent_stalls = recent
        .iter()
        .filter(|(_, a)| matches!(a, Anomaly::StalledSettlement { .. }))
        .count();
    if recent_stalls > 0 {
        reasons.push(format!(
            "{recent_stalls} stalled settlement(s) committed in the last {WINDOW_TICKS} tick(s)"
        ));
    }
    let mut overdue_gaps = 0usize;
    let mut provisional_stalls = 0usize;
    for a in provisional {
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

    /// Ticks published so far.
    pub fn ticks(&self) -> u64 {
        lock(&self.inner.state).ticks
    }

    /// Cumulative sink drop counter.
    pub fn dropped(&self) -> u64 {
        self.inner.sink.dropped()
    }

    /// `GET /stats`: the analyzer's committed counters as of the last
    /// tick, gauges, health, and every registered [`MetricsRegistry`]'s
    /// counters and gauges.
    pub fn stats_json(&self) -> String {
        let st = lock(&self.inner.state);
        let regs = lock(&self.inner.registries);
        json::object(|o| {
            o.field("uptime_ms", self.inner.started.elapsed().as_millis())
                .field("ticks", st.ticks)
                .field("finished", st.finished)
                .field("records", st.records)
                .field("dropped_events", self.inner.sink.dropped())
                .field("stream_end_ns", st.end_nanos)
                .field("live_timelines", st.live_count)
                .field("peak_live_timelines", st.peak_live)
                .field("resident_bytes", st.resident_bytes)
                .field("peak_resident_bytes", st.peak_bytes)
                .field("recovered", st.recovered)
                .field("abandoned", st.abandoned)
                .field("unrecovered", st.unrecovered)
                .field("duplicate_repairs", st.duplicate_repairs)
                .field("max_nack_fan_in", st.max_nack_fan_in)
                .field("anomalies", st.committed)
                .field("recent_anomalies", st.recent.len())
                .field("healthy", st.health.healthy)
                .object("net", |o| {
                    for (name, reg) in regs.iter() {
                        o.object(name, |o| {
                            o.field("counters", reg.counters())
                                .field("gauges", reg.gauges());
                        });
                    }
                });
        })
    }

    /// `GET /timelines/live`: count plus the oldest open recoveries.
    pub fn timelines_json(&self) -> String {
        let st = lock(&self.inner.state);
        let oldest: Vec<_> = st
            .live_oldest
            .iter()
            .map(|g| {
                json::fields(|o| {
                    o.field("host", g.host.raw())
                        .field("seq", g.seq.raw())
                        .field("detected_at_ns", g.detected_at_nanos)
                        .field("age_ns", st.end_nanos.saturating_sub(g.detected_at_nanos))
                        .field("nacks_sent", g.nacks_sent)
                        .field("served", g.served)
                        .field("repaired", g.repaired);
                })
            })
            .collect();
        json::object(|o| {
            o.field("count", st.live_count)
                .field("listed", oldest.len())
                .field("oldest", oldest.as_slice());
        })
    }

    /// `GET /anomalies/tail?n=`: the last `n` anomalies of the current
    /// provisional snapshot, in batch-report order.
    pub fn anomalies_tail_json(&self, n: usize) -> String {
        let st = lock(&self.inner.state);
        let all = &st.snapshot_anomalies;
        json::object(|o| {
            o.field("total", all.len())
                .field("tail", &all[all.len().saturating_sub(n)..]);
        })
    }

    /// `GET /mem`: resident-state gauges against the configured
    /// budgets.
    pub fn mem_json(&self) -> String {
        let st = lock(&self.inner.state);
        let cfg = &self.inner.cfg;
        json::object(|o| {
            o.field("resident_bytes", st.resident_bytes)
                .field("peak_resident_bytes", st.peak_bytes)
                .field("live_timelines", st.live_count)
                .field("peak_live_timelines", st.peak_live)
                .field("max_live_timelines", cfg.online.max_live_timelines)
                .field("horizon_ns", cfg.online.horizon_nanos)
                .field("channel_capacity", cfg.channel_capacity)
                .field("dropped_events", self.inner.sink.dropped());
        })
    }

    /// `GET /healthz` body and status: `(200, "ok")` or a 503 with
    /// reasons.
    pub fn healthz(&self) -> (u16, String) {
        let h = self.health();
        if h.healthy {
            (200, "ok\n".into())
        } else {
            (
                503,
                json::object(|o| {
                    o.field("healthy", false)
                        .field("reasons", h.reasons.as_slice());
                }),
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

fn error_response(status: u16, error: &str) -> Response {
    json_response(
        status,
        json::object(|o| {
            o.field("error", error);
        }),
    )
}

fn route(handle: &DoctorHandle, method: &str, path: &str, query: &str) -> Response {
    if method != "GET" {
        return error_response(405, "method not allowed");
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
                            return error_response(400, "n must be a non-negative integer");
                        }
                    }
                }
            }
            json_response(200, handle.anomalies_tail_json(n))
        }
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
        _ => error_response(404, "not found"),
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

/// Longest request or header line the admin server reads. The bytes
/// come from outside the program, so a longer line is answered 400
/// rather than buffered.
const MAX_LINE: usize = 8 * 1024;

/// Reads one line into `line` (cleared first), at most [`MAX_LINE`]
/// bytes of it; `false` when the line runs past the cap.
fn read_line_capped(reader: &mut impl BufRead, line: &mut String) -> std::io::Result<bool> {
    line.clear();
    let n = reader.take(MAX_LINE as u64).read_line(line)?;
    Ok(n < MAX_LINE || line.ends_with('\n'))
}

fn serve_connection(stream: &mut TcpStream, handle: &DoctorHandle) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    let mut fits = read_line_capped(&mut reader, &mut request_line)?;
    // Drain headers (bounded) so well-behaved clients see the response.
    let mut header = String::new();
    for _ in 0..64 {
        if !fits {
            break;
        }
        fits = read_line_capped(&mut reader, &mut header)?;
        if matches!(header.as_str(), "" | "\n" | "\r\n") {
            break;
        }
    }
    let resp = if fits {
        let mut parts = request_line.split_whitespace();
        let method = parts.next().unwrap_or("");
        let target = parts.next().unwrap_or("/");
        let (path, query) = target.split_once('?').unwrap_or((target, ""));
        route(handle, method, path, query)
    } else {
        error_response(400, "line too long")
    };
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
    use crate::analyze::{AnalyzeConfig, TraceRecord};
    use lbrm_wire::{EpochId, Seq};

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
                mid_committed = analyzer.committed_anomalies().to_vec();
            }
        }
        let committed = analyzer.committed_anomalies().to_vec();
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

        let (status, body) = http_get(addr, "/mem");
        assert_eq!(status, 200);
        assert!(body.contains("\"resident_bytes\":"), "{body}");

        let (status, body) = http_get(addr, "/healthz");
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, "ok\n");

        let (status, _) = http_get(addr, "/nope");
        assert_eq!(status, 404);

        let done = sidecar.finish();
        assert_eq!(done.records, stream(12, None).len() as u64);
        assert_eq!(done.dropped_events, 0);
        assert_eq!(done.report.recovered, 4);
        // The admin surface outlives the sidecar and serves the final
        // report's counters.
        let (status, body) = http_get(addr, "/stats");
        assert_eq!(status, 200);
        assert!(body.contains("\"finished\":true"), "{body}");
        assert!(body.contains("\"recovered\":4,"), "{body}");
        server.shutdown();
    }

    /// Every admin body byte for byte, on a stream whose seq 5 is never
    /// repaired (so `finish()` commits an unrecovered gap and `/healthz`
    /// is 503), with a registry whose names need escaping; plus
    /// `/timelines/live` while that gap is still open.
    #[test]
    fn admin_bodies_are_pinned() {
        use crate::{GaugeTable, Gauges};
        static ROWS: GaugeTable = GaugeTable {
            root: "net",
            rows: &["sent", "bytes"],
            hide_zero: false,
        };
        let finished = |online: OnlineConfig| {
            let sidecar = DoctorSidecar::spawn(DoctorConfig {
                tick: Duration::from_secs(3600),
                online,
                ..DoctorConfig::default()
            });
            let registry = Arc::new(MetricsRegistry::default());
            let gauges = Arc::new(Gauges::new(&ROWS));
            gauges.set(0, 7);
            registry.attach("rx \"1\"\t", gauges);
            sidecar.register_registry("live\\1", Arc::clone(&registry));
            let sink = sidecar.sink();
            for r in stream(12, Some(5)) {
                sink.record(r.at_nanos, r.host, &r.event);
                registry.record(r.at_nanos, r.host, &r.event);
            }
            let handle = sidecar.handle();
            sidecar.finish();
            handle
        };
        let body = |h: &DoctorHandle, path: &str, query: &str| {
            let resp = route(h, "GET", path, query);
            (resp.status, resp.body)
        };

        let h = finished(OnlineConfig::default());
        let (status, stats) = body(&h, "/stats", "");
        assert_eq!(status, 200);
        let (uptime, stats) = stats.split_once(',').expect("uptime first");
        assert!(uptime.starts_with("{\"uptime_ms\":"), "{uptime}");
        assert_eq!(
            stats,
            r#""ticks":1,"finished":true,"records":37,"dropped_events":0,"stream_end_ns":1240000000,"live_timelines":0,"peak_live_timelines":2,"resident_bytes":0,"peak_resident_bytes":5284,"recovered":4,"abandoned":0,"unrecovered":1,"duplicate_repairs":0,"max_nack_fan_in":1,"anomalies":1,"recent_anomalies":1,"healthy":false,"net":{"live\\1":{"counters":{"data_sent":12,"gap_detected":5,"nack_sent":5,"recovered":4,"repair_received":4,"retrans_served_unicast":4,"role_announced":3},"gauges":{"net.rx \"1\"\t.bytes":0,"net.rx \"1\"\t.sent":7}}}}"#
        );
        assert_eq!(
            body(&h, "/timelines/live", ""),
            (200, r#"{"count":0,"listed":0,"oldest":[]}"#.into())
        );
        assert_eq!(
            body(&h, "/anomalies/tail", "n=4"),
            (
                200,
                r#"{"total":1,"tail":[{"kind":"unrecovered_gap","detail":"unrecovered gap: host 40 seq 5 detected at 510.000ms never filled"}]}"#.into()
            )
        );
        assert_eq!(
            body(&h, "/mem", ""),
            (
                200,
                r#"{"resident_bytes":0,"peak_resident_bytes":5284,"live_timelines":0,"peak_live_timelines":2,"max_live_timelines":null,"horizon_ns":null,"channel_capacity":8192,"dropped_events":0}"#.into()
            )
        );
        assert_eq!(
            body(&h, "/healthz", ""),
            (
                503,
                r#"{"healthy":false,"reasons":["1 unrecovered gap(s) committed in the last 25 tick(s)"]}"#.into()
            )
        );
        assert_eq!(
            body(&h, "/nope", ""),
            (404, r#"{"error":"not found"}"#.into())
        );
        assert_eq!(
            body(&h, "/anomalies/tail", "n=x"),
            (
                400,
                r#"{"error":"n must be a non-negative integer"}"#.into()
            )
        );
        assert_eq!(
            route(&h, "POST", "/stats", "").body,
            r#"{"error":"method not allowed"}"#
        );

        let h = finished(OnlineConfig {
            max_live_timelines: Some(64),
            horizon_nanos: Some(5_000_000_000),
            ..OnlineConfig::default()
        });
        assert_eq!(
            body(&h, "/mem", ""),
            (
                200,
                r#"{"resident_bytes":0,"peak_resident_bytes":5284,"live_timelines":0,"peak_live_timelines":2,"max_live_timelines":64,"horizon_ns":5000000000,"channel_capacity":8192,"dropped_events":0}"#.into()
            )
        );

        // In flight: one tick published from an analyzer holding the
        // open gap.
        let sidecar = DoctorSidecar::spawn(DoctorConfig {
            tick: Duration::from_secs(3600),
            ..DoctorConfig::default()
        });
        let mut analyzer = OnlineAnalyzer::new(OnlineConfig::default());
        for r in stream(12, Some(5)) {
            analyzer.push_record(&r);
        }
        run_tick(&sidecar.inner, &analyzer);
        assert_eq!(
            body(&sidecar.handle(), "/timelines/live", ""),
            (
                200,
                r#"{"count":1,"listed":1,"oldest":[{"host":40,"seq":5,"detected_at_ns":510000000,"age_ns":730000000,"nacks_sent":1,"served":false,"repaired":false}]}"#.into()
            )
        );
    }

    /// Outside input: a request line that never ends is cut off at the
    /// line cap and answered (or dropped) at once, not buffered until
    /// the read timeout; the server then goes on serving.
    #[test]
    fn an_endless_request_line_is_refused_and_the_server_keeps_serving() {
        let sidecar = DoctorSidecar::spawn(DoctorConfig::default());
        let server = AdminServer::bind("127.0.0.1:0", sidecar.handle()).expect("bind admin");
        let addr = server.local_addr();

        let started = Instant::now();
        let mut conn = TcpStream::connect(addr).expect("connect admin");
        // The server may answer and close before all of it is written.
        let _ = conn.write_all(&vec![b'A'; 1 << 20]);
        let mut raw = Vec::new();
        let _ = conn.read_to_end(&mut raw);
        assert!(
            raw.is_empty() || raw.starts_with(b"HTTP/1.0 400 "),
            "{}",
            String::from_utf8_lossy(&raw)
        );
        // Well inside the 2 s read timeout: the cap ended the read.
        assert!(started.elapsed() < Duration::from_millis(1500));

        let (status, body) = http_get(addr, "/stats");
        assert_eq!(status, 200, "{body}");
        server.shutdown();
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

    /// A gap the horizon ages out is a *committed* unrecovered gap: it
    /// holds `/healthz` at 503 for the rolling window, then drops out.
    #[test]
    fn healthz_holds_a_committed_gap_for_the_window_then_clears() {
        let sidecar = DoctorSidecar::spawn(DoctorConfig {
            tick: Duration::from_millis(5),
            online: OnlineConfig {
                analyze: AnalyzeConfig {
                    h_max_nanos: None,
                    ..AnalyzeConfig::default()
                },
                horizon_nanos: Some(100 * 1_000_000),
                ..OnlineConfig::default()
            },
            ..DoctorConfig::default()
        });
        let server = AdminServer::bind("127.0.0.1:0", sidecar.handle()).expect("bind admin");
        let addr = server.local_addr();
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
        // Stream time moves a second on: the horizon closes the gap.
        sink.record(1_000_000_000, RX, &ProtocolEvent::FreshnessLost);

        let deadline = Instant::now() + Duration::from_secs(5);
        let (mut status, mut body) = http_get(addr, "/healthz");
        while status == 200 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
            (status, body) = http_get(addr, "/healthz");
        }
        assert_eq!(status, 503, "{body}");
        assert!(
            body.contains("1 unrecovered gap(s) committed in the last 25 tick(s)"),
            "{body}"
        );
        let seen_at = sidecar.ticks();

        let deadline = Instant::now() + Duration::from_secs(5);
        while sidecar.ticks() < seen_at + 25 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(sidecar.ticks() >= seen_at + 25, "doctor stopped ticking");
        let (status, body) = http_get(addr, "/healthz");
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, "ok\n");

        server.shutdown();
        let done = sidecar.finish();
        assert_eq!(done.report.unrecovered, 1);
        assert_eq!(done.report.stream.aged_out, 1);
    }
}
