//! Protocol observability for LBRM (re-exported as `lbrm_core::trace`).
//!
//! The paper's entire evaluation (Figures 4–8, Tables 1–3) is built on
//! *counting protocol events*: heartbeats, NACKs, retransmissions,
//! re-multicasts, recovery latencies. This crate gives every protocol
//! machine one uniform way to report those events:
//!
//! * [`ProtocolEvent`] — the event taxonomy, one variant per observable
//!   protocol action (data/heartbeat transmission, gap detection, NACKs,
//!   unicast/multicast repairs, statistical-ACK epochs and settlements,
//!   failover, plus network-level copies from the simulator).
//! * [`TraceSink`] — the pluggable consumer trait; [`JsonLinesSink`]
//!   captures to any writer, and [`MetricsRegistry`] is a sink that
//!   counts events per key and aggregates recovery-latency / `t_wait`
//!   histograms.
//! * [`Tracer`] — the handle machines hold. A disabled tracer is a
//!   single `Option` test on the hot path and never constructs the
//!   event. Every tracer carries the emitting [`HostId`] so downstream
//!   analysis can correlate events causally across machines.
//! * [`analyze`] — recovery forensics: correlates a recorded event
//!   stream into per-`(host, seq)` recovery timelines, per-stage
//!   latency histograms, a repair-source breakdown, and anomaly
//!   detections (see [`analyze::RecoveryReport`]).
//! * [`OnlineAnalyzer`] — the streaming flavour of the same forensics:
//!   one record at a time in bounded memory (evict-on-close, optional
//!   age-out horizon and live-timeline cap, [`StreamingHistogram`]
//!   stage folding), with its own peak resident state reported in
//!   [`analyze::StreamStats`]. [`OnlineAnalyzerSink`] plugs it straight
//!   into a live run.
//!
//! Timestamps cross the API as raw nanoseconds (`at_nanos`) so the same
//! events work under both the protocol clock (`lbrm_core::time::Time`)
//! and the simulator clock (`lbrm_sim::time::SimTime`), which are both
//! nanosecond counters.
//!
//! ```
//! use std::sync::Arc;
//! use lbrm_trace::{MetricsRegistry, ProtocolEvent, Tracer};
//! use lbrm_wire::Seq;
//!
//! let metrics = Arc::new(MetricsRegistry::default());
//! let tracer = Tracer::to(metrics.clone());
//! tracer.emit(0, || ProtocolEvent::GapDetected { first: Seq(3), last: Seq(5) });
//! assert_eq!(metrics.counter("gap_detected"), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use lbrm_wire::{EpochId, HostId, Seq};

pub mod analyze;
pub mod doctor;
mod metrics;
mod online;
mod sink;

pub use analyze::{CollectorSink, FanoutSink, SerialFanoutSink, TraceRecord};
pub use doctor::{
    fold_deltas, AdminServer, DeltaFold, DeltaTracker, DoctorConfig, DoctorSidecar, DoctorSink,
    ReportBasis, ReportDelta,
};
pub use metrics::{
    Histogram, HistogramSnapshot, MetricsRegistry, StreamingHistogram, STREAM_HIST_BUCKETS,
};
pub use online::{LiveGap, OnlineAnalyzer, OnlineAnalyzerSink, OnlineConfig};
pub use sink::JsonLinesSink;

/// Locks `m`, shrugging off poisoning: every mutex in this crate guards
/// telemetry (counters, histograms, a writer, the correlator's fold), so
/// one tracer thread that panicked mid-update must not turn into a panic
/// in every endpoint and the admin surface that share the sink.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One observable protocol action.
///
/// Variants carry only small `Copy` data so events are cheap to build
/// and compare; payload bytes never enter the trace stream.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ProtocolEvent {
    /// The source multicast an original data packet.
    DataSent {
        /// Sequence number.
        seq: Seq,
        /// Statistical-ACK epoch stamped on the packet.
        epoch: EpochId,
    },
    /// The source multicast a heartbeat (§2.1.2 variable scheme or the
    /// fixed baseline).
    HeartbeatSent {
        /// Highest sequence the heartbeat advertises.
        seq: Seq,
        /// Position in the heartbeat run since the last data packet.
        hb_index: u32,
    },
    /// A receiver or logger observed a sequence gap.
    GapDetected {
        /// First missing sequence.
        first: Seq,
        /// Last missing sequence.
        last: Seq,
    },
    /// A NACK packet left for `target` requesting `packets` sequences.
    NackSent {
        /// Host the retransmission request goes to.
        target: HostId,
        /// Number of sequences requested in this packet.
        packets: u32,
        /// Lowest sequence requested (correlation anchor).
        first: Seq,
        /// Highest sequence requested.
        last: Seq,
    },
    /// A NACK packet arrived at a host able to serve it.
    NackReceived {
        /// Requesting host.
        from: HostId,
        /// Number of sequences requested.
        packets: u32,
    },
    /// A logged packet was retransmitted to a requester (§2.2.1: unicast
    /// for isolated loss, site-scoped multicast for correlated loss).
    RetransServed {
        /// The retransmitted sequence.
        seq: Seq,
        /// `true` for a site-scoped multicast repair.
        multicast: bool,
        /// The requester being answered (for a multicast repair, the
        /// requester whose NACK triggered it).
        to: HostId,
    },
    /// The statistical-ACK engine re-multicast a packet after missing
    /// ACK coverage at `t_wait` (§2.3.2).
    Remulticast {
        /// The re-sent sequence.
        seq: Seq,
        /// ACKs still missing at the deadline.
        missing: u32,
    },
    /// The source multicast an Acker Selection Packet (§2.3.1).
    AckerSelected {
        /// Epoch being selected for.
        epoch: EpochId,
        /// Advertised volunteer probability.
        p_ack: f64,
    },
    /// A logger volunteered as Designated Acker.
    AckerVolunteered {
        /// Epoch volunteered for.
        epoch: EpochId,
    },
    /// A selection matured: newly sent data carries `epoch`.
    EpochActive {
        /// The activated epoch.
        epoch: EpochId,
        /// Number of Designated Ackers.
        ackers: u32,
    },
    /// ACK bookkeeping for a packet closed.
    Settled {
        /// The settled sequence.
        seq: Seq,
        /// `true` if every expected ACK arrived.
        complete: bool,
    },
    /// The `t_wait` EWMA absorbed a new sample (§2.3.2).
    TWaitUpdated {
        /// The new window, in nanoseconds.
        t_wait_nanos: u64,
    },
    /// Consecutive incomplete settlements suggest congestion (§5).
    CongestionSuspected {
        /// Length of the incomplete streak.
        streak: u32,
    },
    /// A receiver completed recovery of a lost packet.
    Recovered {
        /// The recovered sequence.
        seq: Seq,
        /// Loss-detection-to-recovery latency, in nanoseconds.
        latency_nanos: u64,
    },
    /// A receiver gave up recovering a sequence.
    RecoveryAbandoned {
        /// The abandoned sequence.
        seq: Seq,
    },
    /// The packet that actually filled a tracked gap arrived — the
    /// terminal wire-level event of a recovery timeline. Emitted just
    /// before [`ProtocolEvent::Recovered`] with the carrier identified.
    RepairReceived {
        /// The repaired sequence.
        seq: Seq,
        /// Host the repair arrived from.
        from: HostId,
        /// Carrier kind: `"retrans"`, `"data"` (late original or
        /// statistical-ACK re-multicast), or `"heartbeat"` (§7
        /// repeat-payload fill).
        kind: &'static str,
    },
    /// A retransmission arrived for a sequence already held — a
    /// redundant repair (duplicate-repair accounting, §2.3).
    RepairDuplicate {
        /// The already-held sequence.
        seq: Seq,
        /// Host the redundant copy arrived from.
        from: HostId,
    },
    /// A receiver fell behind the freshness horizon.
    FreshnessLost,
    /// A receiver caught back up to the freshness horizon.
    FreshnessRestored,
    /// The sender released its transmit buffer through `up_to` after log
    /// acknowledgement (§2.2.2).
    BufferReleased {
        /// Highest released sequence.
        up_to: Seq,
    },
    /// A logging server added a packet to its log.
    PacketLogged {
        /// The logged sequence.
        seq: Seq,
    },
    /// The primary logging server stopped answering (§2.2.3).
    PrimaryUnresponsive {
        /// The unresponsive primary.
        primary: HostId,
    },
    /// A replica was promoted to primary (§2.2.3).
    FailoverPromoted {
        /// The new primary.
        new_primary: HostId,
    },
    /// A quorum elected `leader` as primary for `term` (§2.2.3
    /// hardening). Emitted by the election proposer when the decision is
    /// announced.
    TermElected {
        /// The elected term.
        term: u32,
        /// Primary logger for the term.
        leader: HostId,
    },
    /// A packet from a fenced (deposed) primary was rejected. `term` is
    /// the rejecting machine's current term.
    StaleTermFenced {
        /// The deposed host whose packet was dropped.
        from: HostId,
        /// The rejecting machine's current term.
        term: u32,
    },
    /// A logger served a repair while believing itself primary, tagged
    /// with the term it believes current — the forensics layer
    /// cross-checks these against [`ProtocolEvent::TermElected`] to
    /// detect a stale primary whose repairs were *accepted* (split-brain
    /// double-serve).
    AuthorityServe {
        /// The served sequence.
        seq: Seq,
        /// Term the serving logger believes current.
        term: u32,
    },
    /// A machine announced its protocol role at startup, so a replayed
    /// trace is self-contained for repair-source attribution.
    RoleAnnounced {
        /// `"sender"`, `"receiver"`, `"logger_primary"`,
        /// `"logger_secondary"`, or `"logger_replica"`.
        role: &'static str,
    },
    /// The simulated network carried one send call (world-level view).
    NetPacket {
        /// Packet kind label (same labels as the sim's `NetStats`).
        kind: &'static str,
        /// `true` for multicast sends.
        multicast: bool,
        /// Copies actually delivered (after loss and scoping).
        copies: u32,
    },
}

impl ProtocolEvent {
    /// Stable counter key for this event; distinguishes the variants the
    /// paper's evaluation counts separately (unicast vs multicast
    /// repairs, complete vs incomplete settlements).
    pub fn key(&self) -> &'static str {
        match self {
            ProtocolEvent::DataSent { .. } => "data_sent",
            ProtocolEvent::HeartbeatSent { .. } => "heartbeat_sent",
            ProtocolEvent::GapDetected { .. } => "gap_detected",
            ProtocolEvent::NackSent { .. } => "nack_sent",
            ProtocolEvent::NackReceived { .. } => "nack_received",
            ProtocolEvent::RetransServed {
                multicast: false, ..
            } => "retrans_served_unicast",
            ProtocolEvent::RetransServed {
                multicast: true, ..
            } => "retrans_served_multicast",
            ProtocolEvent::Remulticast { .. } => "remulticast",
            ProtocolEvent::AckerSelected { .. } => "acker_selected",
            ProtocolEvent::AckerVolunteered { .. } => "acker_volunteered",
            ProtocolEvent::EpochActive { .. } => "epoch_active",
            ProtocolEvent::Settled { complete: true, .. } => "settled_complete",
            ProtocolEvent::Settled {
                complete: false, ..
            } => "settled_incomplete",
            ProtocolEvent::TWaitUpdated { .. } => "t_wait_updated",
            ProtocolEvent::CongestionSuspected { .. } => "congestion_suspected",
            ProtocolEvent::Recovered { .. } => "recovered",
            ProtocolEvent::RecoveryAbandoned { .. } => "recovery_abandoned",
            ProtocolEvent::RepairReceived { .. } => "repair_received",
            ProtocolEvent::RepairDuplicate { .. } => "repair_duplicate",
            ProtocolEvent::FreshnessLost => "freshness_lost",
            ProtocolEvent::FreshnessRestored => "freshness_restored",
            ProtocolEvent::BufferReleased { .. } => "buffer_released",
            ProtocolEvent::PacketLogged { .. } => "packet_logged",
            ProtocolEvent::PrimaryUnresponsive { .. } => "primary_unresponsive",
            ProtocolEvent::FailoverPromoted { .. } => "failover_promoted",
            ProtocolEvent::TermElected { .. } => "term_elected",
            ProtocolEvent::StaleTermFenced { .. } => "stale_term_fenced",
            ProtocolEvent::AuthorityServe { .. } => "authority_serve",
            ProtocolEvent::RoleAnnounced { .. } => "role_announced",
            ProtocolEvent::NetPacket {
                multicast: false, ..
            } => "net_unicast",
            ProtocolEvent::NetPacket {
                multicast: true, ..
            } => "net_multicast",
        }
    }

    /// Renders the event as one JSON object (used by [`JsonLinesSink`];
    /// hand-rolled because the build environment has no serde). `host`
    /// is the emitting host's tracer tag.
    pub fn to_json(&self, at_nanos: u64, host: HostId) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "{{\"at_ns\":{at_nanos},\"host\":{},\"event\":\"{}\"",
            host.raw(),
            self.key()
        );
        match self {
            ProtocolEvent::DataSent { seq, epoch } => {
                let _ = write!(s, ",\"seq\":{},\"epoch\":{}", seq.raw(), epoch.raw());
            }
            ProtocolEvent::HeartbeatSent { seq, hb_index } => {
                let _ = write!(s, ",\"seq\":{},\"hb_index\":{hb_index}", seq.raw());
            }
            ProtocolEvent::GapDetected { first, last } => {
                let _ = write!(s, ",\"first\":{},\"last\":{}", first.raw(), last.raw());
            }
            ProtocolEvent::NackSent {
                target,
                packets,
                first,
                last,
            } => {
                let _ = write!(
                    s,
                    ",\"target\":{},\"packets\":{packets},\"first\":{},\"last\":{}",
                    target.raw(),
                    first.raw(),
                    last.raw()
                );
            }
            ProtocolEvent::NackReceived { from, packets } => {
                let _ = write!(s, ",\"from\":{},\"packets\":{packets}", from.raw());
            }
            ProtocolEvent::RetransServed { seq, to, .. } => {
                let _ = write!(s, ",\"seq\":{},\"to\":{}", seq.raw(), to.raw());
            }
            ProtocolEvent::RecoveryAbandoned { seq } | ProtocolEvent::PacketLogged { seq } => {
                let _ = write!(s, ",\"seq\":{}", seq.raw());
            }
            ProtocolEvent::RepairReceived { seq, from, kind } => {
                let _ = write!(
                    s,
                    ",\"seq\":{},\"from\":{},\"kind\":\"{kind}\"",
                    seq.raw(),
                    from.raw()
                );
            }
            ProtocolEvent::RepairDuplicate { seq, from } => {
                let _ = write!(s, ",\"seq\":{},\"from\":{}", seq.raw(), from.raw());
            }
            ProtocolEvent::RoleAnnounced { role } => {
                let _ = write!(s, ",\"role\":\"{role}\"");
            }
            ProtocolEvent::Remulticast { seq, missing } => {
                let _ = write!(s, ",\"seq\":{},\"missing\":{missing}", seq.raw());
            }
            ProtocolEvent::AckerSelected { epoch, p_ack } => {
                let _ = write!(s, ",\"epoch\":{},\"p_ack\":{p_ack}", epoch.raw());
            }
            ProtocolEvent::AckerVolunteered { epoch } => {
                let _ = write!(s, ",\"epoch\":{}", epoch.raw());
            }
            ProtocolEvent::EpochActive { epoch, ackers } => {
                let _ = write!(s, ",\"epoch\":{},\"ackers\":{ackers}", epoch.raw());
            }
            ProtocolEvent::Settled { seq, .. } => {
                let _ = write!(s, ",\"seq\":{}", seq.raw());
            }
            ProtocolEvent::TWaitUpdated { t_wait_nanos } => {
                let _ = write!(s, ",\"t_wait_ns\":{t_wait_nanos}");
            }
            ProtocolEvent::CongestionSuspected { streak } => {
                let _ = write!(s, ",\"streak\":{streak}");
            }
            ProtocolEvent::Recovered { seq, latency_nanos } => {
                let _ = write!(s, ",\"seq\":{},\"latency_ns\":{latency_nanos}", seq.raw());
            }
            ProtocolEvent::FreshnessLost | ProtocolEvent::FreshnessRestored => {}
            ProtocolEvent::BufferReleased { up_to } => {
                let _ = write!(s, ",\"up_to\":{}", up_to.raw());
            }
            ProtocolEvent::PrimaryUnresponsive { primary } => {
                let _ = write!(s, ",\"primary\":{}", primary.raw());
            }
            ProtocolEvent::FailoverPromoted { new_primary } => {
                let _ = write!(s, ",\"new_primary\":{}", new_primary.raw());
            }
            ProtocolEvent::TermElected { term, leader } => {
                let _ = write!(s, ",\"term\":{term},\"leader\":{}", leader.raw());
            }
            ProtocolEvent::StaleTermFenced { from, term } => {
                let _ = write!(s, ",\"from\":{},\"term\":{term}", from.raw());
            }
            ProtocolEvent::AuthorityServe { seq, term } => {
                let _ = write!(s, ",\"seq\":{},\"term\":{term}", seq.raw());
            }
            ProtocolEvent::NetPacket { kind, copies, .. } => {
                let _ = write!(s, ",\"kind\":\"{kind}\",\"copies\":{copies}");
            }
        }
        s.push('}');
        s
    }
}

/// Consumes protocol events. Implementations must tolerate concurrent
/// calls (`&self`); aggregate internally with atomics or a mutex.
pub trait TraceSink: Send + Sync {
    /// Records one event at `at_nanos` on the emitting clock. `host` is
    /// the emitting host's tracer tag ([`Tracer::UNTAGGED`] when the
    /// tracer was never given a host).
    fn record(&self, at_nanos: u64, host: HostId, event: &ProtocolEvent);
}

/// The handle protocol machines hold.
///
/// Cloning is cheap (an `Arc` bump or nothing). The default is
/// [`disabled`](Tracer::disabled): one `Option` test per emission site
/// and the event closure is never even invoked. A tracer carries the
/// [`HostId`] of the machine it is attached to (see
/// [`with_host`](Tracer::with_host)) so every record is correlatable.
#[derive(Clone)]
pub struct Tracer {
    sink: Option<Arc<dyn TraceSink>>,
    host: HostId,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("host", &self.host)
            .finish()
    }
}

impl Tracer {
    /// The host tag of a tracer that was never assigned one.
    pub const UNTAGGED: HostId = HostId(u64::MAX);

    /// A tracer that drops everything without constructing events.
    pub const fn disabled() -> Self {
        Tracer {
            sink: None,
            host: Tracer::UNTAGGED,
        }
    }

    /// A tracer feeding `sink`, not yet tagged with a host.
    pub fn to(sink: Arc<dyn TraceSink>) -> Self {
        Tracer {
            sink: Some(sink),
            host: Tracer::UNTAGGED,
        }
    }

    /// The same tracer tagged as emitting from `host`. Machines call
    /// this in `set_tracer` with their configured host id.
    pub fn with_host(mut self, host: HostId) -> Self {
        self.host = host;
        self
    }

    /// The host tag records are attributed to.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// The sink this tracer feeds, if any — lets a harness re-route an
    /// already-built tracer through a wrapper sink (e.g. the sim world's
    /// deterministic trace multiplexer).
    pub fn sink(&self) -> Option<Arc<dyn TraceSink>> {
        self.sink.clone()
    }

    /// `true` if events reach a sink.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits the event built by `make` — only called when a sink is
    /// attached, so disabled tracing never pays for event construction.
    #[inline]
    pub fn emit(&self, at_nanos: u64, make: impl FnOnce() -> ProtocolEvent) {
        if let Some(sink) = &self.sink {
            sink.record(at_nanos, self.host, &make());
        }
    }

    /// Like [`emit`](Tracer::emit) but attributes the record to `host`
    /// instead of the tracer's tag — for shared tracers (the sim world)
    /// emitting on behalf of many hosts.
    #[inline]
    pub fn emit_from(&self, at_nanos: u64, host: HostId, make: impl FnOnce() -> ProtocolEvent) {
        if let Some(sink) = &self.sink {
            sink.record(at_nanos, host, &make());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_never_builds_events() {
        let t = Tracer::disabled();
        let mut built = false;
        t.emit(0, || {
            built = true;
            ProtocolEvent::FreshnessLost
        });
        assert!(!built);
        assert!(!t.is_enabled());
    }

    #[test]
    fn keys_distinguish_repair_paths_and_settlement_outcomes() {
        assert_eq!(
            ProtocolEvent::RetransServed {
                seq: Seq(1),
                multicast: false,
                to: HostId(4),
            }
            .key(),
            "retrans_served_unicast"
        );
        assert_eq!(
            ProtocolEvent::RetransServed {
                seq: Seq(1),
                multicast: true,
                to: HostId(4),
            }
            .key(),
            "retrans_served_multicast"
        );
        assert_eq!(
            ProtocolEvent::Settled {
                seq: Seq(1),
                complete: true
            }
            .key(),
            "settled_complete"
        );
        assert_eq!(
            ProtocolEvent::Settled {
                seq: Seq(1),
                complete: false
            }
            .key(),
            "settled_incomplete"
        );
    }

    #[test]
    fn json_lines_are_well_formed() {
        let line = ProtocolEvent::Recovered {
            seq: Seq(7),
            latency_nanos: 42,
        }
        .to_json(1000, HostId(3));
        assert_eq!(
            line,
            "{\"at_ns\":1000,\"host\":3,\"event\":\"recovered\",\"seq\":7,\"latency_ns\":42}"
        );
        let line = ProtocolEvent::NetPacket {
            kind: "data",
            multicast: true,
            copies: 9,
        }
        .to_json(5, HostId(1));
        assert_eq!(
            line,
            "{\"at_ns\":5,\"host\":1,\"event\":\"net_multicast\",\"kind\":\"data\",\"copies\":9}"
        );
        let line = ProtocolEvent::RepairReceived {
            seq: Seq(4),
            from: HostId(200),
            kind: "retrans",
        }
        .to_json(7, HostId(400));
        assert_eq!(
            line,
            "{\"at_ns\":7,\"host\":400,\"event\":\"repair_received\",\"seq\":4,\"from\":200,\"kind\":\"retrans\"}"
        );
    }

    #[test]
    fn tracer_tags_records_with_its_host() {
        let sink = Arc::new(crate::CollectorSink::default());
        let t = Tracer::to(sink.clone()).with_host(HostId(42));
        t.emit(10, || ProtocolEvent::FreshnessLost);
        t.emit_from(11, HostId(7), || ProtocolEvent::FreshnessRestored);
        let recs = sink.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].host, HostId(42));
        assert_eq!(recs[1].host, HostId(7));
        assert_eq!(Tracer::to(sink).host(), Tracer::UNTAGGED);
    }
}
