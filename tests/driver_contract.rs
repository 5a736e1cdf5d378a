//! Two substrates, one protocol.
//!
//! First, one machine: the same recording machine runs as
//! `MachineActor`s in a two-host `World` and as `Endpoint`s on a `Hub`;
//! both hold a core `Driver`, so each host must see the same inputs and
//! emit the same actions on either substrate.
//!
//! Host A makes three scripted calls. Each unicasts a `Data` packet to
//! B, which delivers it and replies with a `Data` packet of its own that
//! A delivers. Over the hub, each call is posted only after A delivered
//! the previous reply. Timestamps are dropped, and so are polls that
//! emitted nothing: the endpoint polls on every loop turn, the simulator
//! only when a deadline or a call asks. What is left, each host's
//! ordered `(input, actions)` record, must be equal on both substrates.
//!
//! Then, one group: a `GroupPlan` runs as `DisScenario` in a `World` and
//! as endpoints on a `Hub`, with the same scripted receive losses (which
//! receiver loses which data packet) applied on each substrate by a
//! wrapper local to this file. Each receiver's `(seq, recovered)`
//! deliveries, the recovery counters of every role and the forensic
//! verdict must be equal on both.
//!
//! Last, one hand-built group on the hub: a receiver configured as
//! `lbrm recv` configures one, listening before the sender starts, must
//! recover the stream's first packet when it loses it.

use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use lbrm::core::logger::{Logger, LoggerConfig, LoggerRole};
use lbrm::core::machine::{Action, Actions, Delivery, Machine, Notice};
use lbrm::core::receiver::{Receiver, ReceiverConfig};
use lbrm::core::sender::{Sender, SenderConfig};
use lbrm::core::time::Time;
use lbrm::core::trace::analyze::{analyze, AnalyzeConfig, CollectorSink, RecoveryReport};
use lbrm::core::trace::{FanoutSink, MetricsRegistry, TraceSink, Tracer};
use lbrm::harness::{DisScenario, DisScenarioConfig, GroupPlan, MachineActor, Role};
use lbrm::net::{Endpoint, EndpointEvent, Hub, Transport, Waker};
use lbrm::sim::time::SimTime;
use lbrm::sim::topology::{SiteParams, TopologyBuilder};
use lbrm::sim::world::{Actor, Ctx, World};
use lbrm::wire::{EpochId, GroupId, HostId, Packet, Seq, SourceId, TtlScope};

const GROUP: GroupId = GroupId(1);
const CALLS: u32 = 3;

/// An input as the machine saw it, without its timestamp.
#[derive(Debug, Clone, PartialEq)]
enum Seen {
    Start,
    Packet { from: HostId, packet: Packet },
    Poll,
    Call(u32),
}

/// One host's inputs in order, each with the actions it emitted.
type Log = Vec<(Seen, Vec<Action>)>;
type Record = Arc<Mutex<Log>>;

/// Writes each input it sees, with the actions that input emitted, to a
/// shared record. A data packet is delivered, and answered with a data
/// packet of the same sequence number when `replies`. Call `n` sends
/// data packet `n` to the peer and leaves its next poll one notice to
/// emit, so "a call is followed by poll" shows in the record too.
struct Recording {
    source: SourceId,
    peer: HostId,
    replies: bool,
    owed: Option<u32>,
    record: Record,
}

impl Recording {
    fn new(source: u64, peer: HostId, replies: bool) -> (Self, Record) {
        let record = Record::default();
        let machine = Recording {
            source: SourceId(source),
            peer,
            replies,
            owed: None,
            record: Arc::clone(&record),
        };
        (machine, record)
    }

    fn note(&self, seen: Seen, emitted: &[Action]) {
        self.record.lock().unwrap().push((seen, emitted.to_vec()));
    }

    fn data(&self, seq: u32) -> Packet {
        Packet::Data {
            group: GROUP,
            source: self.source,
            seq: Seq(seq),
            epoch: EpochId(0),
            payload: Bytes::from(format!("{}:{seq}", self.source.0)),
        }
    }

    fn call(&mut self, n: u32, out: &mut Actions) {
        let before = out.len();
        out.push(Action::Unicast {
            to: self.peer,
            packet: self.data(n),
        });
        self.owed = Some(n);
        self.note(Seen::Call(n), &out[before..]);
    }
}

impl Machine for Recording {
    fn on_start(&mut self, _now: Time, out: &mut Actions) {
        // The whole buffer: the driver queued the start-up joins first.
        self.note(Seen::Start, out);
    }

    fn on_packet(&mut self, _now: Time, from: HostId, packet: Packet, out: &mut Actions) {
        let before = out.len();
        if let Packet::Data { seq, payload, .. } = &packet {
            out.push(Action::Deliver(Delivery {
                seq: *seq,
                payload: payload.clone(),
                recovered: false,
            }));
            if self.replies {
                out.push(Action::Unicast {
                    to: from,
                    packet: self.data(seq.raw()),
                });
            }
        }
        self.note(Seen::Packet { from, packet }, &out[before..]);
    }

    fn poll(&mut self, _now: Time, out: &mut Actions) {
        if let Some(n) = self.owed.take() {
            let before = out.len();
            out.push(Action::Notice(Notice::BufferReleased { up_to: Seq(n) }));
            self.note(Seen::Poll, &out[before..]);
        }
    }

    fn next_deadline(&self) -> Option<Time> {
        None
    }
}

fn taken(record: &Record) -> Log {
    std::mem::take(&mut *record.lock().unwrap())
}

/// Runs the exchange in a two-host world; returns the host ids and
/// their records.
fn in_the_simulator() -> ([HostId; 2], [Log; 2]) {
    let mut b = TopologyBuilder::new();
    let site = b.site(SiteParams::default());
    let (a, bh) = (b.host(site), b.host(site));
    let mut world = World::new(b.build(), 1);
    let (ma, ra) = Recording::new(1, bh, false);
    let (mb, rb) = Recording::new(2, a, true);
    let mut actor = MachineActor::new(ma, vec![GROUP]);
    for n in 1..=CALLS {
        actor.schedule(
            SimTime::from_secs(n.into()),
            move |m: &mut Recording, _, out| m.call(n, out),
        );
    }
    world.add_actor(a, actor);
    world.add_actor(bh, MachineActor::new(mb, vec![GROUP]));
    world.run_until(SimTime::from_secs(10));
    ([a, bh], [taken(&ra), taken(&rb)])
}

/// Runs the same exchange as endpoints on a hub.
fn on_the_hub([a, b]: [HostId; 2]) -> [Log; 2] {
    let hub = Hub::new();
    let (ma, ra) = Recording::new(1, b, false);
    let (mb, rb) = Recording::new(2, a, true);
    let (ep, mut handle_a) = Endpoint::new(ma, hub.attach(a), vec![GROUP]);
    let task_a = ep.spawn();
    let (ep, handle_b) = Endpoint::new(mb, hub.attach(b), vec![GROUP]);
    let task_b = ep.spawn();
    for n in 1..=CALLS {
        handle_a
            .call(move |m: &mut Recording, _, out| m.call(n, out))
            .unwrap();
        loop {
            match handle_a.event_timeout(Duration::from_secs(5)) {
                Some(EndpointEvent::Delivery(d)) => {
                    assert_eq!(d.seq, Seq(n), "B's reply to call {n}");
                    break;
                }
                Some(EndpointEvent::Notice(_)) => {}
                None => panic!("no reply to call {n}"),
            }
        }
    }
    drop((handle_a, handle_b));
    for task in [task_a, task_b] {
        task.join().unwrap().unwrap();
    }
    [taken(&ra), taken(&rb)]
}

#[test]
fn one_machine_records_the_same_inputs_and_actions_on_both_substrates() {
    let (hosts, sim) = in_the_simulator();
    let hub = on_the_hub(hosts);
    let [a, b] = &sim;
    assert_eq!(a.len(), 1 + 3 * CALLS as usize, "{a:#?}");
    assert_eq!(b.len(), 1 + CALLS as usize, "{b:#?}");
    assert_eq!(a[0], (Seen::Start, vec![Action::Join(GROUP)]));
    for (host, (sim, hub)) in hosts.iter().zip(sim.iter().zip(&hub)) {
        assert_eq!(sim, hub, "host {host}");
    }
}

/// Data packets the conformance group publishes.
const PACKETS: u32 = 8;
/// Gap between publishes in the simulator: longer than a recovery,
/// shorter than the sender's first heartbeat interval (250 ms), so a
/// lost packet is detected by the next one and repaired before the one
/// after.
const SPACING_MS: u64 = 150;
/// Which receiver (in plan order) loses which data packets on receive.
/// Two lose the stream's first packets, which a plan's receivers recover
/// back to its origin. None loses the last packet, and no loss is still
/// undetected while another receiver's is being repaired, except behind
/// a shared loss of seq 1: a hub publish that waited that long could let
/// a heartbeat reveal the loss before the next packet does.
const LOSSES: [&[u32]; 3] = [&[1], &[1, 2], &[4, 5, 7]];
/// Counters each role's registry must agree on across substrates.
const RECOVERY_KEYS: [&str; 8] = [
    "gap_detected",
    "nack_sent",
    "nack_received",
    "retrans_served_unicast",
    "retrans_served_multicast",
    "recovered",
    "repair_received",
    "repair_duplicate",
];

fn group_config(secondary_loggers: bool) -> DisScenarioConfig {
    DisScenarioConfig {
        sites: 1,
        receivers_per_site: LOSSES.len(),
        secondary_loggers,
        seed: 40,
        ..DisScenarioConfig::default()
    }
}

/// The data packets `host` loses on receive.
fn lost_at(plan: &GroupPlan, host: HostId) -> &'static [u32] {
    let receivers = plan.receivers.iter().flatten();
    receivers
        .zip(LOSSES)
        .find(|(&rx, _)| rx == host)
        .map_or(&[], |(_, lost)| lost)
}

fn loses(lost: &[u32], packet: &Packet) -> bool {
    matches!(packet, Packet::Data { seq, .. } if lost.contains(&seq.raw()))
}

/// The simulator's wrapper: a receiver actor that never sees the data
/// packets it loses.
struct DeafActor {
    inner: MachineActor<Receiver>,
    lost: &'static [u32],
}

impl Actor for DeafActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.on_start(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: HostId, packet: Packet) {
        if !loses(self.lost, &packet) {
            self.inner.on_packet(ctx, from, packet);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.inner.on_timer(ctx, token);
    }
}

/// The endpoints' wrapper: a transport that never hands over the data
/// packets its host loses. A swallowed packet ends the wait early, which
/// the endpoint treats like any other empty wait.
struct DeafTransport<T> {
    inner: T,
    lost: &'static [u32],
}

impl<T: Transport> Transport for DeafTransport<T> {
    fn local_host(&self) -> HostId {
        self.inner.local_host()
    }

    fn send_unicast(&mut self, to: HostId, packet: &Packet) -> io::Result<()> {
        self.inner.send_unicast(to, packet)
    }

    fn send_multicast(&mut self, scope: TtlScope, packet: &Packet) -> io::Result<()> {
        self.inner.send_multicast(scope, packet)
    }

    fn send_unicast_bundle(&mut self, to: HostId, packets: &[Packet]) -> io::Result<()> {
        self.inner.send_unicast_bundle(to, packets)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<(HostId, Packet)>> {
        Ok(self
            .inner
            .recv_timeout(timeout)?
            .filter(|(_, packet)| !loses(self.lost, packet)))
    }

    fn waker(&self) -> Option<Waker> {
        self.inner.waker()
    }

    fn join(&mut self, group: GroupId) -> io::Result<()> {
        self.inner.join(group)
    }

    fn leave(&mut self, group: GroupId) -> io::Result<()> {
        self.inner.leave(group)
    }
}

/// What one substrate's run of the group observed.
#[derive(Debug)]
struct Observed {
    /// Each receiver's `(seq, recovered)` deliveries, in plan order.
    deliveries: Vec<Vec<(u32, bool)>>,
    /// `RECOVERY_KEYS` per role registry: sender, primary and replicas,
    /// secondaries, receivers.
    counters: Vec<Vec<u64>>,
    report: RecoveryReport,
}

fn counters(registries: &[Arc<MetricsRegistry>; 4]) -> Vec<Vec<u64>> {
    registries
        .iter()
        .map(|r| RECOVERY_KEYS.iter().map(|k| r.counter(k)).collect())
        .collect()
}

/// The role registry `role` traces into, as `DisScenario` assigns them.
fn registry_of(role: &Role) -> usize {
    match role {
        Role::Sender(_) => 0,
        Role::Logger(c) if c.role == LoggerRole::Secondary => 2,
        Role::Logger(_) => 1,
        Role::Receiver(_) => 3,
    }
}

/// Runs the group in the simulator; returns its plan and observations.
fn group_in_the_simulator(config: DisScenarioConfig) -> (GroupPlan, Observed) {
    let collector = Arc::new(CollectorSink::default());
    let mut sc =
        DisScenario::build_with_sink(config, Some(collector.clone() as Arc<dyn TraceSink>));
    let receiver_sink: Arc<dyn TraceSink> = Arc::new(FanoutSink::new(vec![
        sc.receiver_metrics.clone() as Arc<dyn TraceSink>,
        collector.clone(),
    ]));
    for role in sc.plan.roles() {
        if let Role::Receiver(c) = role {
            let (host, lost) = (c.host, lost_at(&sc.plan, c.host));
            let mut inner = MachineActor::new(Receiver::new(c), vec![sc.group]);
            inner.set_tracer(Tracer::to(receiver_sink.clone()));
            sc.world.add_actor(host, DeafActor { inner, lost });
        }
    }
    for seq in 1..=PACKETS {
        let at = SimTime::from_millis(1_000 + SPACING_MS * u64::from(seq - 1));
        sc.send_at(at, format!("update-{seq}"));
    }
    sc.world.run_until(SimTime::from_secs(10));
    let deliveries = sc
        .all_receivers()
        .iter()
        .map(|&rx| {
            let actor = sc.world.actor::<DeafActor>(rx);
            let got = actor.inner.deliveries.iter();
            got.map(|(_, d)| (d.seq.raw(), d.recovered)).collect()
        })
        .collect();
    let registries = [
        sc.sender_metrics.clone(),
        sc.primary_metrics.clone(),
        sc.secondary_metrics.clone(),
        sc.receiver_metrics.clone(),
    ];
    let observed = Observed {
        deliveries,
        counters: counters(&registries),
        report: analyze(&collector.take(), &AnalyzeConfig::default()),
    };
    (sc.plan, observed)
}

/// Runs the same plan as endpoints on a hub.
fn group_on_the_hub(plan: &GroupPlan) -> Observed {
    let hub = Hub::new();
    let collector = Arc::new(CollectorSink::default());
    let registries: [Arc<MetricsRegistry>; 4] = Default::default();
    let mut group = plan.spawn(
        |role| DeafTransport {
            inner: hub.attach(role.host()),
            lost: lost_at(plan, role.host()),
        },
        |role| {
            Tracer::to(Arc::new(FanoutSink::new(vec![
                registries[registry_of(role)].clone() as Arc<dyn TraceSink>,
                collector.clone(),
            ])))
        },
        Instant::now(),
    );
    // Publish once every member has joined, as the simulator's members
    // all join at time zero.
    let members = plan.roles().filter(|r| !r.groups().is_empty()).count();
    while hub.group_size(DisScenario::GROUP) < members {
        std::thread::sleep(Duration::from_millis(5));
    }
    // Lockstep, so wall-clock jitter cannot reorder what the simulator
    // orders by its spacing: each publish waits until every receiver
    // delivered all it can so far (its trailing lost packets stay
    // undetected until the next one arrives).
    let mut deliveries = vec![Vec::new(); group.receivers.len()];
    for seq in 1..=PACKETS {
        let payload = Bytes::from(format!("update-{seq}"));
        group
            .sender
            .call(move |s: &mut Sender, now, out| s.send(now, payload, out))
            .unwrap();
        for ((host, handle), got) in group.receivers.iter_mut().zip(&mut deliveries) {
            let lost = lost_at(plan, *host);
            let due = (1..=seq).rev().find(|s| !lost.contains(s)).unwrap_or(0);
            while got.len() < due as usize {
                match handle.event_timeout(Duration::from_secs(5)) {
                    Some(EndpointEvent::Delivery(d)) => got.push((d.seq.raw(), d.recovered)),
                    Some(EndpointEvent::Notice(_)) => {}
                    None => panic!("receiver {host} stalled after {got:?}"),
                }
            }
        }
    }
    // Let trailing settlement traces land, as the simulator runs on
    // past the last recovery.
    std::thread::sleep(Duration::from_millis(500));
    drop((group.sender, group.loggers, group.receivers));
    for thread in group.threads {
        thread.join().unwrap().unwrap();
    }
    Observed {
        deliveries,
        counters: counters(&registries),
        report: analyze(&collector.take(), &AnalyzeConfig::default()),
    }
}

fn assert_same_protocol(config: DisScenarioConfig) {
    let (plan, sim) = group_in_the_simulator(config);
    let hub = group_on_the_hub(&plan);
    for (i, lost) in LOSSES.iter().enumerate() {
        let recovered: Vec<u32> = sim.deliveries[i]
            .iter()
            .filter(|(_, r)| *r)
            .map(|(seq, _)| *seq)
            .collect();
        assert_eq!(recovered, *lost, "receiver {i} recovers what it lost");
    }
    assert_eq!(
        sim.deliveries, hub.deliveries,
        "(seq, recovered) per receiver"
    );
    assert_eq!(sim.counters, hub.counters, "{RECOVERY_KEYS:?} per role");
    for report in [&sim.report, &hub.report] {
        assert!(report.is_clean(), "{:?}", report.anomalies);
    }
    let verdict = |r: &RecoveryReport| {
        (
            r.recovered,
            r.abandoned,
            r.unrecovered,
            r.sources.clone(),
            r.duplicate_repairs,
        )
    };
    assert_eq!(
        verdict(&sim.report),
        verdict(&hub.report),
        "forensic verdict"
    );
}

#[test]
fn one_centralized_group_runs_the_same_protocol_on_both_substrates() {
    assert_same_protocol(group_config(false));
}

#[test]
fn one_site_with_a_secondary_logger_runs_the_same_protocol_on_both_substrates() {
    assert_same_protocol(group_config(true));
}

#[test]
fn a_receiver_started_before_the_sender_recovers_the_first_packet() {
    let (source, src_host, primary, listener) = (SourceId(3), HostId(1), HostId(2), HostId(3));
    let hub = Hub::new();
    let logger = Logger::new(LoggerConfig::primary(GROUP, source, primary, src_host));
    let (ep, logger_handle) = Endpoint::new(logger, hub.attach(primary), vec![GROUP]);
    let logger_task = ep.spawn();
    // Configured as `lbrm recv` configures one.
    let cfg = ReceiverConfig::new(GROUP, source, listener, primary, vec![primary]);
    let deaf = DeafTransport {
        inner: hub.attach(listener),
        lost: &[1],
    };
    let (ep, mut rx_handle) = Endpoint::new(Receiver::new(cfg), deaf, vec![GROUP]);
    let rx_task = ep.spawn();
    while hub.group_size(GROUP) < 2 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let sender = Sender::new(SenderConfig::new(GROUP, source, src_host, primary));
    let (ep, sender_handle) = Endpoint::new(sender, hub.attach(src_host), vec![]);
    let sender_task = ep.spawn();
    for n in 1..=2 {
        let payload = Bytes::from(format!("update-{n}"));
        sender_handle
            .call(move |s: &mut Sender, now, out| s.send(now, payload, out))
            .unwrap();
    }
    let mut got = Vec::new();
    while got.len() < 2 {
        match rx_handle.event_timeout(Duration::from_secs(2)) {
            Some(EndpointEvent::Delivery(d)) => got.push((d.seq.raw(), d.recovered)),
            Some(EndpointEvent::Notice(_)) => {}
            None => break,
        }
    }
    drop((sender_handle, logger_handle, rx_handle));
    for task in [sender_task, logger_task, rx_task] {
        task.join().unwrap().unwrap();
    }
    assert_eq!(got, vec![(2, false), (1, true)]);
}
