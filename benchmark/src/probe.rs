//! Measurement from outside: generic wrappers over the public
//! `Machine`, `Transport`, `Actor` and `TraceSink` traits that time each
//! call into a layer and feed one shared [`Recorder`].
//!
//! This is the only file coupled to those trait signatures. Nothing here
//! changes what the wrapped value does: every call is forwarded with its
//! arguments untouched and its outputs are only read.

use std::cell::RefCell;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use lbrm_core::machine::{Action, Actions, Machine, Notice};
use lbrm_core::time::Time;
use lbrm_core::trace::{ProtocolEvent, TraceSink, Tracer};
use lbrm_net::Transport;
use lbrm_sim::world::{Actor, Ctx};
use lbrm_wire::{GroupId, HostId, Packet, TtlScope};

/// The one clock of the process. Endpoints are given the same origin
/// (`Endpoint::set_origin(epoch())`), so the `now` a machine is handed
/// and a stamp taken here are directly comparable.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// The kernel thread id of the caller (for per-thread CPU accounting).
pub fn thread_id() -> u64 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .unwrap_or(0)
}

/// What a span timed: one call into one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Kind {
    /// `World::run_until`, the root of a simulated repetition.
    SimRun,
    /// One `Actor` callback (`MachineActor`: harness code + machine).
    Actor,
    SenderCall,
    LoggerIngest,
    LoggerNack,
    LoggerOther,
    ReceiverCall,
    /// One `TraceSink::record`.
    Sink,
    /// One `Transport::send_*`.
    NetSend,
    /// One `Transport::recv_timeout`.
    NetRecv,
}

impl Kind {
    pub const ALL: [Kind; 10] = [
        Kind::SimRun,
        Kind::Actor,
        Kind::SenderCall,
        Kind::LoggerIngest,
        Kind::LoggerNack,
        Kind::LoggerOther,
        Kind::ReceiverCall,
        Kind::Sink,
        Kind::NetSend,
        Kind::NetRecv,
    ];
    /// Every call into a protocol machine.
    pub const MACHINES: [Kind; 5] = [
        Kind::SenderCall,
        Kind::ReceiverCall,
        Kind::LoggerIngest,
        Kind::LoggerNack,
        Kind::LoggerOther,
    ];

    pub fn layer_and_name(self) -> (&'static str, &'static str) {
        match self {
            Kind::SimRun => ("sim", "run_until"),
            Kind::Actor => ("harness", "actor"),
            Kind::SenderCall => ("core", "sender"),
            Kind::LoggerIngest => ("core", "logger.ingest"),
            Kind::LoggerNack => ("core", "logger.nack"),
            Kind::LoggerOther => ("core", "logger.other"),
            Kind::ReceiverCall => ("core", "receiver"),
            Kind::Sink => ("trace", "sink"),
            Kind::NetSend => ("net", "send"),
            Kind::NetRecv => ("net", "recv_timeout"),
        }
    }
}

/// Plain event counts taken at the same boundaries as the spans.
#[derive(Debug, Clone, Copy)]
#[repr(usize)]
pub enum Counter {
    /// Actions emitted by machine calls.
    Actions,
    /// NACK packets receivers emitted.
    ReceiverNacks,
    /// Sequence numbers receivers reported lost.
    ReceiverLosses,
    /// Repairs that delivered nothing (the packet was already there).
    DupRepairs,
    /// `Retrans` packets loggers emitted.
    LoggerRetrans,
    /// `recv_timeout` calls that returned no packet.
    RecvEmpty,
    /// Packets delivered to simulated actors.
    ActorPackets,
}

const COUNTERS: usize = 7;

#[derive(Default)]
struct KindStats {
    calls: AtomicU64,
    total_ns: AtomicU64,
    child_ns: AtomicU64,
}

/// Totals of one span kind. `self_ns` is the time not covered by child
/// spans (spans nested inside it on the same thread).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl KindTotals {
    pub fn ns_per_call(&self) -> f64 {
        self.total_ns as f64 / self.calls.max(1) as f64
    }
}

/// One retained span. Spans of one publish, repair or simulated event
/// share `id`; `parent` is the `uid` of the enclosing span (0 = none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub uid: u64,
    pub parent: u64,
    pub kind: Kind,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

thread_local! {
    /// Open spans of this thread: (uid, nanoseconds covered by children).
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Per-sequence time stamps of the live stages, one slot per seq (and
/// per receiver where the stage happens at a receiver). Zero = unset;
/// the first writer wins so retries never move a stamp.
pub struct Stamps {
    receivers: usize,
    cap: usize,
    /// When the sender's loop picked the publish up.
    pub cmd: Vec<AtomicU64>,
    /// `[receiver][seq]`: fresh data reached the receiver machine.
    pub rx_machine: Vec<AtomicU64>,
    /// Repair path, `[receiver][seq]`.
    pub detect: Vec<AtomicU64>,
    pub nack_tx: Vec<AtomicU64>,
    pub logger_rx: Vec<AtomicU64>,
    pub retrans_tx: Vec<AtomicU64>,
    pub rx_retrans: Vec<AtomicU64>,
}

fn slots(n: usize) -> Vec<AtomicU64> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

impl Stamps {
    fn new(receivers: usize, cap: usize) -> Stamps {
        Stamps {
            receivers,
            cap,
            cmd: slots(cap),
            rx_machine: slots(receivers * cap),
            detect: slots(receivers * cap),
            nack_tx: slots(receivers * cap),
            logger_rx: slots(receivers * cap),
            retrans_tx: slots(receivers * cap),
            rx_retrans: slots(receivers * cap),
        }
    }

    pub fn set(slot: &[AtomicU64], idx: usize, at: u64) {
        if let Some(s) = slot.get(idx) {
            let _ = s.compare_exchange(0, at.max(1), Relaxed, Relaxed);
        }
    }

    pub fn get(slot: &[AtomicU64], idx: usize) -> Option<u64> {
        slot.get(idx).map(|s| s.load(Relaxed)).filter(|v| *v != 0)
    }

    /// Slot index of `(receiver, seq)`; out-of-range pairs map past the
    /// end, where `set`/`get` ignore them.
    pub fn at(&self, receiver: usize, seq: u32) -> usize {
        if receiver >= self.receivers || seq as usize >= self.cap {
            return usize::MAX;
        }
        receiver * self.cap + seq as usize
    }
}

/// Shared sink of everything the wrappers observe.
pub struct Recorder {
    kinds: [KindStats; Kind::ALL.len()],
    counters: [AtomicU64; COUNTERS],
    next_uid: AtomicU64,
    span_cap: usize,
    span_len: AtomicUsize,
    spans: Mutex<Vec<Span>>,
    packet_cap: usize,
    packet_len: AtomicUsize,
    packets: Mutex<Vec<Packet>>,
    /// Receiver hosts in index order, so stamps can be keyed by index.
    receiver_hosts: Mutex<Vec<HostId>>,
    /// Kernel thread ids of the endpoint threads (machine callers).
    endpoint_tids: Mutex<Vec<u64>>,
    pub stamps: Stamps,
}

impl Recorder {
    /// Retains at most `span_cap` spans and `packet_cap` packets in
    /// full; totals and counters always cover everything. `seq_cap`
    /// bounds the sequence numbers the live stamps can hold.
    pub fn new(
        span_cap: usize,
        packet_cap: usize,
        receivers: usize,
        seq_cap: usize,
    ) -> Arc<Recorder> {
        epoch();
        Arc::new(Recorder {
            kinds: Default::default(),
            counters: Default::default(),
            next_uid: AtomicU64::new(1),
            span_cap,
            span_len: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
            packet_cap,
            packet_len: AtomicUsize::new(0),
            packets: Mutex::new(Vec::new()),
            receiver_hosts: Mutex::new(Vec::new()),
            endpoint_tids: Mutex::new(Vec::new()),
            stamps: Stamps::new(receivers, seq_cap),
        })
    }

    /// Times `f` as one span of `kind`, nested under whatever span is
    /// open on this thread.
    pub fn span<R>(&self, kind: Kind, id: u64, f: impl FnOnce() -> R) -> R {
        let uid = self.next_uid.fetch_add(1, Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let parent = o.last().map_or(0, |p| p.0);
            o.push((uid, 0));
            parent
        });
        let start_ns = now_ns();
        let r = f();
        let end_ns = now_ns();
        let dur = end_ns - start_ns;
        let child_ns = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let (_, child_ns) = o.pop().expect("span stack is balanced");
            if let Some(p) = o.last_mut() {
                p.1 += dur;
            }
            child_ns
        });
        let k = &self.kinds[kind as usize];
        k.calls.fetch_add(1, Relaxed);
        k.total_ns.fetch_add(dur, Relaxed);
        k.child_ns.fetch_add(child_ns.min(dur), Relaxed);
        if self.span_len.load(Relaxed) < self.span_cap {
            self.span_len.fetch_add(1, Relaxed);
            self.spans.lock().expect("span log").push(Span {
                uid,
                parent,
                kind,
                id,
                start_ns,
                end_ns,
            });
        }
        r
    }

    pub fn totals(&self, kind: Kind) -> KindTotals {
        let k = &self.kinds[kind as usize];
        let total_ns = k.total_ns.load(Relaxed);
        KindTotals {
            calls: k.calls.load(Relaxed),
            total_ns,
            self_ns: total_ns - k.child_ns.load(Relaxed),
        }
    }

    /// Sum over several kinds.
    pub fn totals_of(&self, kinds: &[Kind]) -> KindTotals {
        kinds.iter().fold(KindTotals::default(), |a, k| {
            let t = self.totals(*k);
            KindTotals {
                calls: a.calls + t.calls,
                total_ns: a.total_ns + t.total_ns,
                self_ns: a.self_ns + t.self_ns,
            }
        })
    }

    pub fn count(&self, c: Counter, n: u64) {
        self.counters[c as usize].fetch_add(n, Relaxed);
    }

    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Relaxed)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log").clone()
    }

    /// Reservoir-samples the packets crossing a boundary (Algorithm R),
    /// so the retained mix represents the whole run, not its start.
    fn keep_packet(&self, p: &Packet) {
        let seen = self.packet_len.fetch_add(1, Relaxed);
        if seen < self.packet_cap {
            self.packets.lock().expect("packet log").push(p.clone());
            return;
        }
        // splitmix of the arrival index: cheap, and independent of what
        // the packet is.
        let mut z = (seen as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let slot = ((z ^ (z >> 31)) % (seen as u64 + 1)) as usize;
        if slot < self.packet_cap {
            if let Some(kept) = self.packets.lock().expect("packet log").get_mut(slot) {
                *kept = p.clone();
            }
        }
    }

    /// The packet mix seen at the transport (or actor) boundary.
    pub fn packets(&self) -> Vec<Packet> {
        self.packets.lock().expect("packet log").clone()
    }

    pub fn set_receiver_hosts(&self, hosts: Vec<HostId>) {
        *self.receiver_hosts.lock().expect("receiver hosts") = hosts;
    }

    fn receiver_index(&self, host: HostId) -> usize {
        self.receiver_hosts
            .lock()
            .expect("receiver hosts")
            .iter()
            .position(|h| *h == host)
            .unwrap_or(usize::MAX)
    }

    pub fn endpoint_tids(&self) -> Vec<u64> {
        self.endpoint_tids.lock().expect("tids").clone()
    }
}

/// Which machine a [`TimedMachine`] wraps; for a receiver, its index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Sender,
    Logger,
    Receiver(usize),
}

/// A `Machine` that times every call into the machine it wraps.
pub struct TimedMachine<M> {
    inner: M,
    role: Role,
    rec: Arc<Recorder>,
    tid_noted: bool,
}

impl<M: Machine> TimedMachine<M> {
    pub fn new(inner: M, role: Role, rec: Arc<Recorder>) -> Self {
        TimedMachine {
            inner,
            role,
            rec,
            tid_noted: false,
        }
    }

    pub fn inner(&self) -> &M {
        &self.inner
    }

    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// Times an application call against the wrapped machine — what a
    /// driver's command closure does (`Sender::send`).
    pub fn call(&mut self, now: Time, out: &mut Actions, f: impl FnOnce(&mut M, &mut Actions)) {
        let before = out.len();
        let kind = self.kind_for(None);
        let (rec, inner) = (&self.rec, &mut self.inner);
        rec.span(kind, 0, || f(inner, out));
        self.account(now, false, &out[before..]);
    }

    fn kind_for(&self, packet: Option<&Packet>) -> Kind {
        match (self.role, packet) {
            (Role::Sender, _) => Kind::SenderCall,
            (Role::Receiver(_), _) => Kind::ReceiverCall,
            (Role::Logger, Some(Packet::Data { .. })) => Kind::LoggerIngest,
            (Role::Logger, Some(Packet::Nack { .. })) => Kind::LoggerNack,
            (Role::Logger, _) => Kind::LoggerOther,
        }
    }

    /// Reads (never edits) the actions one call appended.
    fn account(&self, now: Time, packet_was_retrans: bool, new: &[Action]) {
        let rec = &self.rec;
        rec.count(Counter::Actions, new.len() as u64);
        let mut delivered = false;
        for a in new {
            match (self.role, a) {
                (
                    Role::Receiver(_),
                    Action::Unicast {
                        packet: Packet::Nack { .. },
                        ..
                    },
                ) => {
                    rec.count(Counter::ReceiverNacks, 1);
                }
                (Role::Receiver(r), Action::Notice(Notice::LossDetected { first, last, .. })) => {
                    let n = last.distance_from(*first) + 1;
                    rec.count(Counter::ReceiverLosses, u64::from(n));
                    for seq in first.iter_to(*last).take(64) {
                        Stamps::set(&rec.stamps.detect, rec.stamps.at(r, seq.raw()), now.nanos());
                    }
                }
                (Role::Receiver(_), Action::Deliver(_)) => delivered = true,
                (
                    Role::Logger,
                    Action::Unicast {
                        packet: Packet::Retrans { .. },
                        ..
                    },
                )
                | (
                    Role::Logger,
                    Action::Multicast {
                        packet: Packet::Retrans { .. },
                        ..
                    },
                ) => {
                    rec.count(Counter::LoggerRetrans, 1);
                }
                _ => {}
            }
        }
        if packet_was_retrans && !delivered && matches!(self.role, Role::Receiver(_)) {
            rec.count(Counter::DupRepairs, 1);
        }
    }

    fn note_thread(&mut self) {
        if !self.tid_noted {
            self.tid_noted = true;
            let tid = thread_id();
            let mut tids = self.rec.endpoint_tids.lock().expect("tids");
            if !tids.contains(&tid) {
                tids.push(tid);
            }
        }
    }
}

impl<M: Machine> Machine for TimedMachine<M> {
    fn on_start(&mut self, now: Time, out: &mut Actions) {
        self.note_thread();
        let before = out.len();
        let kind = self.kind_for(None);
        let (rec, inner) = (&self.rec, &mut self.inner);
        rec.span(kind, 0, || inner.on_start(now, out));
        self.account(now, false, &out[before..]);
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer);
    }

    fn on_packet(&mut self, now: Time, from: HostId, packet: Packet, out: &mut Actions) {
        let kind = self.kind_for(Some(&packet));
        let rec = &self.rec;
        let st = &rec.stamps;
        let mut id = 0;
        let mut was_retrans = false;
        match (self.role, &packet) {
            (Role::Receiver(r), Packet::Data { seq, .. }) => {
                id = u64::from(seq.raw());
                Stamps::set(&st.rx_machine, st.at(r, seq.raw()), now.nanos());
            }
            (Role::Receiver(r), Packet::Retrans { seq, .. }) => {
                id = u64::from(seq.raw());
                was_retrans = true;
                Stamps::set(&st.rx_retrans, st.at(r, seq.raw()), now.nanos());
            }
            (
                Role::Logger,
                Packet::Nack {
                    requester, ranges, ..
                },
            ) => {
                let r = rec.receiver_index(*requester);
                for seq in ranges.iter().flat_map(|rg| rg.iter()).take(64) {
                    id = u64::from(seq.raw());
                    Stamps::set(&st.logger_rx, st.at(r, seq.raw()), now.nanos());
                }
            }
            (Role::Logger, Packet::Data { seq, .. }) => id = u64::from(seq.raw()),
            _ => {}
        }
        let before = out.len();
        let inner = &mut self.inner;
        rec.span(kind, id, || inner.on_packet(now, from, packet, out));
        self.account(now, was_retrans, &out[before..]);
    }

    fn poll(&mut self, now: Time, out: &mut Actions) {
        let before = out.len();
        let kind = self.kind_for(None);
        let (rec, inner) = (&self.rec, &mut self.inner);
        rec.span(kind, 0, || inner.poll(now, out));
        self.account(now, false, &out[before..]);
    }

    fn next_deadline(&self) -> Option<Time> {
        self.inner.next_deadline()
    }
}

/// A `Transport` that times sends and receive waits, keeps a sample of
/// the packets crossing it, and stamps the repair stages it can see.
pub struct TimedTransport<T> {
    inner: T,
    role: Role,
    rec: Arc<Recorder>,
}

impl<T: Transport> TimedTransport<T> {
    pub fn new(inner: T, role: Role, rec: Arc<Recorder>) -> Self {
        TimedTransport { inner, role, rec }
    }

    fn on_send(&self, to: Option<HostId>, packets: &[Packet]) -> u64 {
        let st = &self.rec.stamps;
        let at = now_ns();
        let mut id = 0;
        for p in packets {
            self.rec.keep_packet(p);
            match (self.role, p) {
                (Role::Receiver(r), Packet::Nack { ranges, .. }) => {
                    for seq in ranges.iter().flat_map(|rg| rg.iter()).take(64) {
                        id = u64::from(seq.raw());
                        Stamps::set(&st.nack_tx, st.at(r, seq.raw()), at);
                    }
                }
                (Role::Logger, Packet::Retrans { seq, .. }) => {
                    id = u64::from(seq.raw());
                    if let Some(to) = to {
                        let r = self.rec.receiver_index(to);
                        Stamps::set(&st.retrans_tx, st.at(r, seq.raw()), at);
                    }
                }
                (_, Packet::Data { seq, .. }) => id = u64::from(seq.raw()),
                _ => {}
            }
        }
        id
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn local_host(&self) -> HostId {
        self.inner.local_host()
    }

    fn send_unicast(&mut self, to: HostId, packet: &Packet) -> io::Result<()> {
        let id = self.on_send(Some(to), std::slice::from_ref(packet));
        let (rec, inner) = (&self.rec, &mut self.inner);
        rec.span(Kind::NetSend, id, || inner.send_unicast(to, packet))
    }

    fn send_multicast(&mut self, scope: TtlScope, packet: &Packet) -> io::Result<()> {
        let id = self.on_send(None, std::slice::from_ref(packet));
        let (rec, inner) = (&self.rec, &mut self.inner);
        rec.span(Kind::NetSend, id, || inner.send_multicast(scope, packet))
    }

    fn send_unicast_bundle(&mut self, to: HostId, packets: &[Packet]) -> io::Result<()> {
        let id = self.on_send(Some(to), packets);
        let (rec, inner) = (&self.rec, &mut self.inner);
        rec.span(Kind::NetSend, id, || inner.send_unicast_bundle(to, packets))
    }

    fn send_multicast_bundle(&mut self, scope: TtlScope, packets: &[Packet]) -> io::Result<()> {
        let id = self.on_send(None, packets);
        let (rec, inner) = (&self.rec, &mut self.inner);
        rec.span(Kind::NetSend, id, || {
            inner.send_multicast_bundle(scope, packets)
        })
    }

    fn send_unicast_fanout(&mut self, dests: &[HostId], packet: &Packet) -> io::Result<()> {
        let id = self.on_send(None, std::slice::from_ref(packet));
        let (rec, inner) = (&self.rec, &mut self.inner);
        rec.span(Kind::NetSend, id, || {
            inner.send_unicast_fanout(dests, packet)
        })
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<(HostId, Packet)>> {
        let (rec, inner) = (&self.rec, &mut self.inner);
        let got = rec.span(Kind::NetRecv, 0, || inner.recv_timeout(timeout))?;
        if got.is_none() {
            rec.count(Counter::RecvEmpty, 1);
        }
        Ok(got)
    }

    fn join(&mut self, group: GroupId) -> io::Result<()> {
        self.inner.join(group)
    }

    fn leave(&mut self, group: GroupId) -> io::Result<()> {
        self.inner.leave(group)
    }
}

/// An `Actor` that times every callback of the actor it wraps. The span
/// id is the index of the simulated event.
pub struct TimedActor<A> {
    inner: A,
    rec: Arc<Recorder>,
    events: Arc<AtomicU64>,
}

impl<A: Actor> TimedActor<A> {
    /// `events` is shared by every actor of one world, so span ids count
    /// that world's events in dispatch order.
    pub fn new(inner: A, rec: Arc<Recorder>, events: Arc<AtomicU64>) -> Self {
        TimedActor { inner, rec, events }
    }

    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<A: Actor> Actor for TimedActor<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let (rec, inner) = (&self.rec, &mut self.inner);
        rec.span(Kind::Actor, 0, || inner.on_start(ctx));
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: HostId, packet: Packet) {
        let id = self.events.fetch_add(1, Relaxed) + 1;
        self.rec.count(Counter::ActorPackets, 1);
        self.rec.keep_packet(&packet);
        let (rec, inner) = (&self.rec, &mut self.inner);
        rec.span(Kind::Actor, id, || inner.on_packet(ctx, from, packet));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let id = self.events.fetch_add(1, Relaxed) + 1;
        let (rec, inner) = (&self.rec, &mut self.inner);
        rec.span(Kind::Actor, id, || inner.on_timer(ctx, token));
    }
}

/// A `TraceSink` that times every record it forwards.
pub struct TimedSink<S> {
    inner: Arc<S>,
    rec: Arc<Recorder>,
}

impl<S: TraceSink> TimedSink<S> {
    pub fn new(inner: Arc<S>, rec: Arc<Recorder>) -> Self {
        TimedSink { inner, rec }
    }
}

impl<S: TraceSink> TraceSink for TimedSink<S> {
    fn record(&self, at_nanos: u64, host: HostId, event: &ProtocolEvent) {
        self.rec
            .span(Kind::Sink, 0, || self.inner.record(at_nanos, host, event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use lbrm_core::logger::{Logger, LoggerConfig};
    use lbrm_wire::{EpochId, Seq, SeqRange, SourceId};

    const GROUP: GroupId = GroupId(1);
    const SRC: SourceId = SourceId(1);
    const LOG: HostId = HostId(2);
    const SRC_HOST: HostId = HostId(1);
    const RX: HostId = HostId(9);

    /// Self time of every span: its duration minus the part its direct
    /// children cover — the definition the recorder's incremental
    /// bookkeeping must agree with.
    fn self_times(spans: &[Span]) -> Vec<(u64, u64)> {
        spans
            .iter()
            .map(|s| {
                let covered: u64 = spans
                    .iter()
                    .filter(|c| c.parent == s.uid)
                    .map(|c| c.end_ns - c.start_ns)
                    .sum();
                (s.uid, (s.end_ns - s.start_ns).saturating_sub(covered))
            })
            .collect()
    }

    fn script() -> Vec<(HostId, Packet)> {
        let mut s = Vec::new();
        for seq in 1..=40u32 {
            s.push((
                SRC_HOST,
                Packet::Data {
                    group: GROUP,
                    source: SRC,
                    seq: Seq(seq),
                    epoch: EpochId(0),
                    payload: gen::payload(3, seq),
                },
            ));
        }
        let nack = |first: u32, last: u32| Packet::Nack {
            group: GROUP,
            source: SRC,
            requester: RX,
            ranges: vec![SeqRange {
                first: Seq(first),
                last: Seq(last),
            }],
        };
        // Held singles, a span, a span running past the log, a repeat.
        for (a, b) in [(5, 5), (7, 22), (38, 44), (5, 5), (1, 40)] {
            s.push((RX, nack(a, b)));
        }
        s
    }

    /// The wrapper forwards every call and never touches the actions.
    #[test]
    fn timed_machine_is_pass_through() {
        let cfg = || LoggerConfig::primary(GROUP, SRC, LOG, SRC_HOST);
        let mut bare = Logger::new(cfg());
        let rec = Recorder::new(64, 64, 1, 64);
        rec.set_receiver_hosts(vec![RX]);
        let mut timed = TimedMachine::new(Logger::new(cfg()), Role::Logger, rec.clone());
        let (mut a, mut b) = (Actions::new(), Actions::new());
        bare.on_start(Time::ZERO, &mut a);
        timed.on_start(Time::ZERO, &mut b);
        for (i, (from, p)) in script().into_iter().enumerate() {
            let now = Time::from_millis(1 + i as u64);
            bare.on_packet(now, from, p.clone(), &mut a);
            timed.on_packet(now, from, p, &mut b);
            bare.poll(now, &mut a);
            timed.poll(now, &mut b);
            assert_eq!(bare.next_deadline(), timed.next_deadline());
        }
        assert_eq!(a, b);
        assert!(a.len() > 40, "script must exercise acks and repairs");
        assert_eq!(rec.totals(Kind::LoggerIngest).calls, 40);
        assert_eq!(rec.totals(Kind::LoggerNack).calls, 5);
        // 1 + 16 + 3 + 1 + 40 held sequences were served.
        assert_eq!(rec.counter(Counter::LoggerRetrans), 61);
        assert_eq!(rec.counter(Counter::Actions), a.len() as u64);
        // The NACK for seq 5 from receiver 0 was stamped on arrival.
        assert!(Stamps::get(&rec.stamps.logger_rx, rec.stamps.at(0, 5)).is_some());
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let span = |uid, parent, start_ns, end_ns| Span {
            uid,
            parent,
            kind: Kind::Actor,
            id: 0,
            start_ns,
            end_ns,
        };
        // 1 [0,100] ⊃ 2 [10,40] ⊃ 3 [15,25]; 1 ⊃ 4 [50,70].
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 2, 15, 25),
            span(4, 1, 50, 70),
        ];
        assert_eq!(self_times(&spans), vec![(1, 50), (2, 20), (3, 10), (4, 20)]);
    }

    /// The incremental bookkeeping agrees with the definition.
    #[test]
    fn recorder_nests_spans_on_one_thread() {
        let rec = Recorder::new(16, 0, 0, 0);
        rec.span(Kind::Actor, 7, || {
            rec.span(Kind::ReceiverCall, 7, || {
                rec.span(Kind::Sink, 0, || std::hint::black_box(1));
            });
            rec.span(Kind::Sink, 0, || std::hint::black_box(2));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        let actor = spans.iter().find(|s| s.kind == Kind::Actor).unwrap();
        let machine = spans.iter().find(|s| s.kind == Kind::ReceiverCall).unwrap();
        assert_eq!(actor.parent, 0);
        assert_eq!(machine.parent, actor.uid);
        let sink_parents: Vec<u64> = spans
            .iter()
            .filter(|s| s.kind == Kind::Sink)
            .map(|s| s.parent)
            .collect();
        assert_eq!(sink_parents, vec![machine.uid, actor.uid]);
        let by_def: u64 = self_times(&spans)
            .iter()
            .filter(|(uid, _)| *uid == actor.uid)
            .map(|(_, ns)| *ns)
            .sum();
        assert_eq!(rec.totals(Kind::Actor).self_ns, by_def);
        assert_eq!(rec.totals(Kind::Sink).calls, 2);
    }

    #[test]
    fn span_log_is_capped_but_totals_are_not() {
        let rec = Recorder::new(3, 0, 0, 0);
        for _ in 0..10 {
            rec.span(Kind::Sink, 0, || ());
        }
        assert_eq!(rec.spans().len(), 3);
        assert_eq!(rec.totals(Kind::Sink).calls, 10);
    }
}
