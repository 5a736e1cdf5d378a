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
//!   failover, plus network-level copies from the simulator). Each
//!   variant is one row of a table that also generates its key
//!   ([`EVENT_KEYS`]), its JSON line and the JSONL parser's arm for it.
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
//! Timestamps cross the API as raw nanoseconds (`at_nanos`).
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

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use lbrm_wire::codec::PACKET_KINDS;
use lbrm_wire::{EpochId, HostId, Seq};

use analyze::FieldVal;

pub mod analyze;
pub mod doctor;
mod metrics;
mod online;
mod sink;

pub use analyze::{CollectorSink, FanoutSink, TraceRecord};
pub use doctor::{AdminServer, DoctorConfig, DoctorSidecar, DoctorSink};
pub use metrics::{
    GaugeTable, Gauges, Histogram, HistogramSnapshot, MetricsRegistry, StreamingHistogram,
    STREAM_HIST_BUCKETS,
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

/// One event field type: how it is written into a JSON line and read
/// back from one. An event's JSON follows from its field types, as a
/// packet's wire layout follows from the codec's `Field` types.
trait JsonField: Sized {
    /// Appends `,"name":value`.
    fn write(&self, name: &str, out: &mut String);
    /// Reads the field called `name` (a label interns into `vocab`);
    /// `None` makes the line malformed.
    fn read(line: &Line<'_>, name: &str, vocab: &[&'static str]) -> Option<Self>;
}

/// A parsed JSON line, as an event's fields read it.
struct Line<'a> {
    fields: &'a BTreeMap<String, FieldVal>,
    /// The line's key is the `flag ?` branch of its row's key column.
    flag: bool,
}

/// Integer fields, written as the raw integer. Read back, a value must
/// fit the raw type: `seq` 2^32 + 1 is a malformed line, not seq 1.
/// Row: `Type: raw-type |value| raw-integer`.
macro_rules! int_fields {
    ($($t:ty: $raw_ty:ty |$v:ident| $raw:expr;)*) => {$(
        impl JsonField for $t {
            fn write(&self, name: &str, out: &mut String) {
                let $v = *self;
                let _ = write!(out, ",\"{name}\":{}", $raw);
            }
            fn read(line: &Line<'_>, name: &str, _: &[&'static str]) -> Option<Self> {
                let n = line.fields.get(name)?.as_u64()?;
                <$raw_ty>::try_from(n).ok().map(Self::from)
            }
        }
    )*};
}

int_fields! {
    u32: u32 |v| v;
    u64: u64 |v| v;
    Seq: u32 |v| v.0;
    EpochId: u32 |v| v.0;
    HostId: u64 |v| v.0;
}

/// The one `f64`, `AckerSelected::p_ack`, is a probability: like the
/// wire decoder, the parser refuses NaN, the infinities and anything
/// outside `[0, 1]`.
impl JsonField for f64 {
    fn write(&self, name: &str, out: &mut String) {
        let _ = write!(out, ",\"{name}\":{self}");
    }
    fn read(line: &Line<'_>, name: &str, _: &[&'static str]) -> Option<Self> {
        let p = line.fields.get(name)?.as_f64()?;
        (0.0..=1.0).contains(&p).then_some(p)
    }
}

/// A label, written quoted. Read back, it interns into the row's
/// vocabulary (`= VOCAB`); a label outside it becomes `"other"`.
impl JsonField for &'static str {
    fn write(&self, name: &str, out: &mut String) {
        let _ = write!(out, ",\"{name}\":\"{self}\"");
    }
    fn read(line: &Line<'_>, name: &str, vocab: &[&'static str]) -> Option<Self> {
        let s = line.fields.get(name)?.as_str()?;
        Some(vocab.iter().find(|v| **v == s).copied().unwrap_or("other"))
    }
}

/// A `bool` is its row's key discriminant (`flag ? "key_if_true" :
/// "key_if_false"`): the key carries it, so it is never written as a field.
impl JsonField for bool {
    fn write(&self, _: &str, _: &mut String) {}
    fn read(line: &Line<'_>, _: &str, _: &[&'static str]) -> Option<Self> {
        Some(line.flag)
    }
}

/// The carriers a repair can arrive as.
const REPAIR_CARRIERS: &[&str] = &["retrans", "data"];

/// The roles machines announce.
const ROLES: &[&str] = &[
    "sender",
    "receiver",
    "logger_primary",
    "logger_secondary",
    "logger_replica",
];

/// A row's optional column: the row's value when it has one, else the
/// default.
macro_rules! column {
    ($default:expr, $given:expr) => {
        $given
    };
    ($default:expr) => {
        $default
    };
}

/// The [`EVENT_KEYS`] slot of `key`, for `key_index` to fold at compile
/// time: a key missing from the table fails the build.
const fn key_slot(key: &str) -> usize {
    let mut slot = 0;
    while !same_bytes(EVENT_KEYS[slot].as_bytes(), key.as_bytes()) {
        slot += 1;
    }
    slot
}

/// `a == b`, in a `const fn`.
const fn same_bytes(a: &[u8], b: &[u8]) -> bool {
    let mut i = 0;
    while i < a.len() && i < b.len() && a[i] == b[i] {
        i += 1;
    }
    i == a.len() && i == b.len()
}

/// Generates the event API from one row per variant,
/// `Variant: "key" { field: Type, ... }`: the enum, [`EVENT_KEYS`],
/// `key`, `key_index`, `to_json` and the JSONL parser's per-variant arms.
///
/// * The key column is one key, or `flag ? "key_if_true" :
///   "key_if_false"` where `flag` is the variant's `bool` field.
/// * `as "name"` renames a field in JSON.
/// * `= VOCAB` names the labels a `&'static str` field interns into.
///
/// JSON writes a variant's fields in row order.
macro_rules! events {
    (
        $(#[$meta:meta])*
        pub enum ProtocolEvent {$(
            $(#[$vmeta:meta])*
            $variant:ident: $($flag:ident ? $key_true:literal :)? $key:literal $({$(
                $(#[$fmeta:meta])*
                $field:ident: $ty:ty $(as $json:literal)? $(= $vocab:ident)?
            ),* $(,)?})?
        ),* $(,)?}
    ) => {
        $(#[$meta])*
        pub enum ProtocolEvent {$(
            $(#[$vmeta])*
            $variant $({$($(#[$fmeta])* $field: $ty),*})?,
        )*}

        /// Every [`ProtocolEvent::key`], once each, in table order.
        pub const EVENT_KEYS: &[&str] = &[$($($key_true,)? $key,)*];

        impl ProtocolEvent {
            /// Stable counter key for this event; distinguishes the variants the
            /// paper's evaluation counts separately (unicast vs multicast
            /// repairs, complete vs incomplete settlements).
            pub fn key(&self) -> &'static str {
                match self {
                    $(Self::$variant { $($flag,)? .. } => $(if *$flag { $key_true } else)? { $key })*
                }
            }

            /// This event's index into [`EVENT_KEYS`]: a dense key for
            /// per-key counters, so counting an event compares no string.
            pub fn key_index(&self) -> usize {
                match self {
                    $(Self::$variant { $($flag,)? .. } => {
                        $(if *$flag { const { key_slot($key_true) } } else)?
                        { const { key_slot($key) } }
                    })*
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
                    $(Self::$variant $({$($field),*})? => {$($(
                        JsonField::write($field, column!(stringify!($field) $(, $json)?), &mut s);
                    )*)?})*
                }
                s.push('}');
                s
            }

            /// The event a parsed JSON line holds; `None` for an unknown
            /// key or a missing or malformed field.
            pub(crate) fn from_json_fields(fields: &BTreeMap<String, FieldVal>) -> Option<Self> {
                let key = fields.get("event")?.as_str()?;
                let line = Line {
                    fields,
                    flag: [$($($key_true,)?)*].contains(&key),
                };
                Some(match key {
                    $($($key_true |)? $key => Self::$variant $({$($field: JsonField::read(
                        &line,
                        column!(stringify!($field) $(, $json)?),
                        column!(&[] $(, $vocab)?),
                    )?),*})?,)*
                    _ => return None,
                })
            }
        }
    };
}

events! {
    /// One observable protocol action.
    ///
    /// Variants carry only small `Copy` data so events are cheap to build
    /// and compare; payload bytes never enter the trace stream.
    #[derive(Debug, Clone, PartialEq)]
    #[non_exhaustive]
    pub enum ProtocolEvent {
        /// The source multicast an original data packet.
        DataSent: "data_sent" {
            /// Sequence number.
            seq: Seq,
            /// Statistical-ACK epoch stamped on the packet.
            epoch: EpochId,
        },
        /// The source multicast a heartbeat (§2.1.2 variable scheme or the
        /// fixed baseline).
        HeartbeatSent: "heartbeat_sent" {
            /// Highest sequence the heartbeat advertises.
            seq: Seq,
            /// Position in the heartbeat run since the last data packet.
            hb_index: u32,
        },
        /// A receiver or logger observed a sequence gap.
        GapDetected: "gap_detected" {
            /// First missing sequence.
            first: Seq,
            /// Last missing sequence.
            last: Seq,
        },
        /// A NACK packet left for `target` requesting `packets` sequences.
        NackSent: "nack_sent" {
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
        NackReceived: "nack_received" {
            /// Requesting host.
            from: HostId,
            /// Number of sequences requested.
            packets: u32,
        },
        /// A logged packet was retransmitted to a requester (§2.2.1: unicast
        /// for isolated loss, site-scoped multicast for correlated loss).
        RetransServed: multicast ? "retrans_served_multicast" : "retrans_served_unicast" {
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
        Remulticast: "remulticast" {
            /// The re-sent sequence.
            seq: Seq,
            /// ACKs still missing at the deadline.
            missing: u32,
        },
        /// The source multicast an Acker Selection Packet (§2.3.1).
        AckerSelected: "acker_selected" {
            /// Epoch being selected for.
            epoch: EpochId,
            /// Advertised volunteer probability.
            p_ack: f64,
        },
        /// A logger volunteered as Designated Acker.
        AckerVolunteered: "acker_volunteered" {
            /// Epoch volunteered for.
            epoch: EpochId,
        },
        /// A selection matured: newly sent data carries `epoch`.
        EpochActive: "epoch_active" {
            /// The activated epoch.
            epoch: EpochId,
            /// Number of Designated Ackers.
            ackers: u32,
        },
        /// ACK bookkeeping for a packet closed.
        Settled: complete ? "settled_complete" : "settled_incomplete" {
            /// The settled sequence.
            seq: Seq,
            /// `true` if every expected ACK arrived.
            complete: bool,
        },
        /// The `t_wait` EWMA absorbed a new sample (§2.3.2).
        TWaitUpdated: "t_wait_updated" {
            /// The new window, in nanoseconds.
            t_wait_nanos: u64 as "t_wait_ns",
        },
        /// A receiver completed recovery of a lost packet.
        Recovered: "recovered" {
            /// The recovered sequence.
            seq: Seq,
            /// Loss-detection-to-recovery latency, in nanoseconds.
            latency_nanos: u64 as "latency_ns",
        },
        /// A receiver gave up recovering a sequence.
        RecoveryAbandoned: "recovery_abandoned" {
            /// The abandoned sequence.
            seq: Seq,
        },
        /// The packet that actually filled a tracked gap arrived — the
        /// terminal wire-level event of a recovery timeline. Emitted just
        /// before [`ProtocolEvent::Recovered`] with the carrier identified.
        RepairReceived: "repair_received" {
            /// The repaired sequence.
            seq: Seq,
            /// Host the repair arrived from.
            from: HostId,
            /// Carrier kind: `"retrans"`, or `"data"` (late original or
            /// statistical-ACK re-multicast).
            kind: &'static str = REPAIR_CARRIERS,
        },
        /// A retransmission arrived for a sequence already held — a
        /// redundant repair (duplicate-repair accounting, §2.3).
        RepairDuplicate: "repair_duplicate" {
            /// The already-held sequence.
            seq: Seq,
            /// Host the redundant copy arrived from.
            from: HostId,
        },
        /// A receiver fell behind the freshness horizon.
        FreshnessLost: "freshness_lost",
        /// A receiver caught back up to the freshness horizon.
        FreshnessRestored: "freshness_restored",
        /// The sender released its transmit buffer through `up_to` after log
        /// acknowledgement (§2.2.2).
        BufferReleased: "buffer_released" {
            /// Highest released sequence.
            up_to: Seq,
        },
        /// A logging server added a packet to its log.
        PacketLogged: "packet_logged" {
            /// The logged sequence.
            seq: Seq,
        },
        /// The primary logging server stopped answering (§2.2.3).
        PrimaryUnresponsive: "primary_unresponsive" {
            /// The unresponsive primary.
            primary: HostId,
        },
        /// A replica was promoted to primary (§2.2.3).
        FailoverPromoted: "failover_promoted" {
            /// The new primary.
            new_primary: HostId,
        },
        /// A quorum elected `leader` as primary for `term` (§2.2.3
        /// hardening). Emitted by the election proposer when the decision is
        /// announced.
        TermElected: "term_elected" {
            /// The elected term.
            term: u32,
            /// Primary logger for the term.
            leader: HostId,
        },
        /// A packet from a fenced (deposed) primary was rejected. `term` is
        /// the rejecting machine's current term.
        StaleTermFenced: "stale_term_fenced" {
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
        AuthorityServe: "authority_serve" {
            /// The served sequence.
            seq: Seq,
            /// Term the serving logger believes current.
            term: u32,
        },
        /// A machine announced its protocol role at startup, so a replayed
        /// trace is self-contained for repair-source attribution.
        RoleAnnounced: "role_announced" {
            /// `"sender"`, `"receiver"`, `"logger_primary"`,
            /// `"logger_secondary"`, or `"logger_replica"`.
            role: &'static str = ROLES,
        },
        /// The simulated network carried one send call (world-level view).
        NetPacket: multicast ? "net_multicast" : "net_unicast" {
            /// Packet kind label (same labels as the sim's `NetStats`).
            kind: &'static str = PACKET_KINDS,
            /// `true` for multicast sends.
            multicast: bool,
            /// Copies actually delivered (after loss and scoping).
            copies: u32,
        },
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
