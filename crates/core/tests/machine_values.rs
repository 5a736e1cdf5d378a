//! Machines as values: every LBRM role is `Clone`, and its
//! `state_digest` names its protocol state.
//!
//! For each role a seeded run is cloned mid-way: the clone, fed the same
//! inputs, must act byte for byte like the original and keep an equal
//! digest, and a different packet fed to one copy must move its digest.
//! Equal digests must also mean equal behaviour: wherever an input
//! leaves the digest as it was, the machines from before and after it
//! must act alike on what follows, so a state field the digest leaves
//! out shows up as a failure.
//!
//! The receiver and logger runs go on past one whole request budget,
//! with a `PrimaryIs` and a `TermAnnounce` part-way through it, so the
//! rule covers retargets, budget restarts and abandonment. Two receivers
//! that differ only in the budget they have spent cover the budget
//! count, which no single input moves on its own.
//!
//! The same seeded runs check `Machine::poll`'s contract, which lets the
//! `Driver` skip a timer with nothing due: before `next_deadline()` (or
//! when it is `None`), a poll emits nothing, traces nothing and changes
//! no state.

use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use lbrm_core::baseline::srm::{SrmConfig, SrmMember};
use lbrm_core::discovery::{DiscoveryClient, DiscoveryConfig};
use lbrm_core::logger::{Logger, LoggerConfig};
use lbrm_core::receiver::{Receiver, ReceiverConfig};
use lbrm_core::sender::{Sender, SenderConfig};
use lbrm_core::statack::StatAckConfig;
use lbrm_core::trace::{ProtocolEvent, TraceSink};
use lbrm_core::{Actions, Machine, Time, Tracer};
use lbrm_wire::packet::SeqRange;
use lbrm_wire::{EpochId, GroupId, HostId, Packet, Seq, SourceId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const GROUP: GroupId = GroupId(1);
const SRC: SourceId = SourceId(10);
const SRC_HOST: HostId = HostId(100);
const PRIMARY: HostId = HostId(200);
const REPLICA: HostId = HostId(201);
const SECONDARY: HostId = HostId(300);
const RX: HostId = HostId(400);

/// A role under test: a cloneable machine with a digest and, for the
/// sender, an application publish.
trait Role: Machine + Clone {
    fn digest(&self) -> u64;
    fn publish(&mut self, _now: Time, _payload: Bytes, _out: &mut Actions) {}
}

impl Role for Sender {
    fn digest(&self) -> u64 {
        self.state_digest()
    }
    fn publish(&mut self, now: Time, payload: Bytes, out: &mut Actions) {
        self.send(now, payload, out);
    }
}

impl Role for Receiver {
    fn digest(&self) -> u64 {
        self.state_digest()
    }
}

impl Role for Logger {
    fn digest(&self) -> u64 {
        self.state_digest()
    }
}

/// One scripted input.
#[derive(Clone, Debug)]
enum Step {
    Packet(HostId, Packet),
    Timer,
    Publish(Bytes),
}

type Script = Vec<(Time, Step)>;

/// Feeds one step and renders what the machine did: its actions and its
/// next deadline.
fn feed<M: Role>(m: &mut M, now: Time, step: &Step) -> String {
    let mut out = Actions::new();
    match step.clone() {
        Step::Packet(from, packet) => m.on_packet(now, from, packet, &mut out),
        Step::Timer => m.poll(now, &mut out),
        Step::Publish(payload) => {
            m.publish(now, payload, &mut out);
            m.poll(now, &mut out);
        }
    }
    format!("{out:?} next={:?}", m.next_deadline())
}

fn run<M: Role>(m: &mut M, script: &[(Time, Step)]) -> Vec<String> {
    script.iter().map(|(t, s)| feed(m, *t, s)).collect()
}

fn started<M: Role>(fresh: &impl Fn() -> M) -> M {
    let mut m = fresh();
    m.on_start(Time::ZERO, &mut Actions::new());
    m
}

/// The value contract for the machine `fresh` builds:
/// - two machines fed `warmup` have equal digests;
/// - a clone taken after `warmup` replays `future` byte for byte, with
///   equal digests after every step;
/// - the first of `divergent`, fed at the last warmup instant to one
///   copy only, moves the digest;
/// - whenever one step of the run, or one of `divergent`, leaves the
///   digest as it was, the copies from before and after it act alike on
///   the rest of the run: a state field the digest left out would show
///   here.
fn assert_machine_is_a_value<M: Role>(
    fresh: impl Fn() -> M,
    warmup: &[(Time, Step)],
    future: &[(Time, Step)],
    divergent: &[Step],
) {
    let mut m = started(&fresh);
    let mut other = started(&fresh);
    assert_eq!(run(&mut m, warmup), run(&mut other, warmup));
    assert_eq!(m.digest(), other.digest());

    let mut original = m.clone();
    let mut twin = m.clone();
    for (at, step) in future {
        let want = feed(&mut original, *at, step);
        assert_eq!(feed(&mut twin, *at, step), want, "{step:?} at {at:?}");
        assert_eq!(twin.digest(), original.digest(), "{step:?} at {at:?}");
    }

    let t0 = warmup.last().expect("a warmup").0;
    for (i, step) in divergent.iter().enumerate() {
        let mut changed = m.clone();
        feed(&mut changed, t0, step);
        assert!(
            i > 0 || changed.digest() != m.digest(),
            "{step:?} must move the digest"
        );
        assert_equal_digests_act_alike(&changed, &m, future, &format!("after {step:?}"));
    }

    let script: Script = warmup.iter().chain(future).cloned().collect();
    let mut m = started(&fresh);
    for (k, (at, step)) in script.iter().enumerate() {
        let before = m.clone();
        feed(&mut m, *at, step);
        let label = format!("before and after {step:?} at {at:?}");
        assert_equal_digests_act_alike(&before, &m, &script[k + 1..], &label);
    }
}

/// Equal digests mean equal behaviour: when `a` and `b` have equal
/// digests, copies of them act alike on `rest`.
fn assert_equal_digests_act_alike<M: Role>(a: &M, b: &M, rest: &[(Time, Step)], label: &str) {
    if a.digest() == b.digest() {
        assert_eq!(
            run(&mut a.clone(), rest),
            run(&mut b.clone(), rest),
            "equal digests {label}, yet the copies act differently"
        );
    }
}

fn data(seq: u32, payload: &'static str) -> Packet {
    Packet::Data {
        group: GROUP,
        source: SRC,
        seq: Seq(seq),
        epoch: EpochId(0),
        payload: Bytes::from_static(payload.as_bytes()),
    }
}

fn heartbeat(seq: u32, hb_index: u32) -> Packet {
    Packet::Heartbeat {
        group: GROUP,
        source: SRC,
        seq: Seq(seq),
        epoch: EpochId(0),
        hb_index,
        payload: Bytes::new(),
    }
}

fn retrans(seq: u32) -> Packet {
    Packet::Retrans {
        group: GROUP,
        source: SRC,
        seq: Seq(seq),
        payload: Bytes::from_static(b"repair"),
    }
}

fn nack(requester: HostId, first: u32, last: u32) -> Packet {
    Packet::Nack {
        group: GROUP,
        source: SRC,
        requester,
        ranges: vec![SeqRange {
            first: Seq(first),
            last: Seq(last),
        }],
    }
}

fn log_ack(primary_seq: u32, replica_seq: u32) -> Packet {
    Packet::LogAck {
        group: GROUP,
        source: SRC,
        primary_seq: Seq(primary_seq),
        replica_seq: Seq(replica_seq),
    }
}

fn term_announce(term: u32, leader: HostId) -> Packet {
    Packet::TermAnnounce {
        group: GROUP,
        source: SRC,
        term,
        leader,
    }
}

fn primary_is(primary: HostId) -> Packet {
    Packet::PrimaryIs {
        group: GROUP,
        source: SRC,
        primary,
    }
}

/// Polls every 20 ms up to 3 s, then every 100 ms up to `to` ms, with
/// `extra` interleaved.
fn polls_until(to: u64, extra: Vec<(u64, Step)>) -> Script {
    let mut script = with_polls(600, 3_000, 20, extra);
    script.extend(with_polls(3_000, to, 100, Vec::new()));
    script
}

/// Milliseconds of the last step of `script` that sent a NACK, fed to
/// a fresh started machine.
fn last_nack_ms<M: Role>(fresh: impl Fn() -> M, script: &[(Time, Step)]) -> u64 {
    let mut m = started(&fresh);
    let outputs = run(&mut m, script);
    let nacked = script
        .iter()
        .zip(&outputs)
        .rposition(|(_, o)| o.contains("Nack {"));
    nacked.map_or(0, |k| script[k].0.nanos() / 1_000_000)
}

/// Timer polls every `step` ms over `[from, to)` ms, interleaved with
/// `extra` at their own millisecond instants.
fn with_polls(from: u64, to: u64, step: u64, extra: Vec<(u64, Step)>) -> Script {
    let mut script: Script = (from..to)
        .step_by(step as usize)
        .map(|t| (t, Step::Timer))
        .chain(extra)
        .map(|(t, step)| (Time::from_millis(t), step))
        .collect();
    script.sort_by_key(|(t, _)| *t);
    script
}

/// One role's seeded run: a warmup, the future a clone replays, and the
/// divergent steps the value contract feeds one copy.
struct Case {
    warmup: Script,
    future: Script,
    divergent: Vec<Step>,
}

impl Case {
    /// Warmup and future in order: the whole run.
    fn script(&self) -> Script {
        self.warmup.iter().chain(&self.future).cloned().collect()
    }
}

fn sender() -> Sender {
    let mut config = SenderConfig::new(GROUP, SRC, SRC_HOST, PRIMARY);
    config.replicas = vec![REPLICA];
    config.statack = Some(StatAckConfig::default());
    Sender::new(config)
}

fn sender_case() -> Case {
    let mut rng = SmallRng::seed_from_u64(0x5e4d);
    let mut warmup = Script::new();
    let mut sent = 0u32;
    for t in (0..600).step_by(10) {
        let at = Time::from_millis(t);
        match rng.random_range(0u32..4) {
            0 | 1 => {
                warmup.push((at, Step::Publish(Bytes::from(vec![t as u8; 4]))));
                sent += 1;
            }
            2 if sent > 2 => {
                let acked = sent - rng.random_range(0u32..3);
                let packet = log_ack(acked, acked - rng.random_range(0u32..2));
                warmup.push((at, Step::Packet(PRIMARY, packet)));
            }
            _ => warmup.push((at, Step::Timer)),
        }
    }
    let future = with_polls(
        600,
        4_000,
        50,
        vec![
            (1_010, Step::Publish(Bytes::from_static(b"late"))),
            (1_020, Step::Packet(PRIMARY, log_ack(sent + 1, sent))),
        ],
    );
    let divergent = vec![
        Step::Packet(PRIMARY, log_ack(sent, sent)),
        Step::Publish(Bytes::from_static(b"extra")),
        Step::Packet(SECONDARY, term_announce(1, REPLICA)),
        Step::Packet(
            SECONDARY,
            Packet::AckerVolunteer {
                group: GROUP,
                source: SRC,
                epoch: EpochId(1),
                logger: SECONDARY,
            },
        ),
        Step::Packet(
            SECONDARY,
            Packet::PacketAck {
                group: GROUP,
                source: SRC,
                epoch: EpochId(0),
                seq: Seq(sent),
                logger: SECONDARY,
            },
        ),
        Step::Timer,
    ];
    Case {
        warmup,
        future,
        divergent,
    }
}

fn receiver() -> Receiver {
    Receiver::new(ReceiverConfig::new(
        GROUP,
        SRC,
        RX,
        SRC_HOST,
        vec![SECONDARY, PRIMARY],
    ))
}

fn receiver_case() -> Case {
    let mut rng = SmallRng::seed_from_u64(0x4ec5);
    let mut warmup = Script::new();
    let mut head = 0u32;
    for t in (0..600).step_by(10) {
        let at = Time::from_millis(t);
        match rng.random_range(0u32..6) {
            0..=2 => {
                head += 1;
                // One in four data packets is lost.
                if rng.random_range(0u32..4) != 0 {
                    warmup.push((at, Step::Packet(SRC_HOST, data(head, "payload"))));
                }
            }
            3 if head > 0 => {
                let hb = heartbeat(head, rng.random_range(0u32..3));
                warmup.push((at, Step::Packet(SRC_HOST, hb)));
            }
            4 if head > 1 => {
                let seq = rng.random_range(1..head);
                warmup.push((at, Step::Packet(SECONDARY, retrans(seq))));
            }
            _ => warmup.push((at, Step::Timer)),
        }
    }
    let last = warmup.last().unwrap().0;
    warmup.push((last, Step::Packet(SRC_HOST, data(head + 1, "payload"))));
    // Mid-budget: the primary named again (no news), then a new one,
    // then a term for it; a whole budget later every recovery is given
    // up.
    let future = polls_until(
        RECEIVER_UNTIL_MS,
        vec![
            (1_500, Step::Packet(SRC_HOST, heartbeat(head + 1, 2))),
            (1_800, Step::Packet(SRC_HOST, primary_is(PRIMARY))),
            (2_500, Step::Packet(SRC_HOST, data(head + 3, "payload"))),
            (2_600, Step::Packet(SRC_HOST, primary_is(REPLICA))),
            (3_400, Step::Packet(SRC_HOST, term_announce(1, REPLICA))),
        ],
    );
    let divergent = vec![
        Step::Packet(SRC_HOST, data(head + 2, "payload")),
        Step::Packet(SRC_HOST, heartbeat(head + 1, 3)),
        Step::Packet(SECONDARY, retrans(head)),
        Step::Packet(SRC_HOST, data(head + 1, "payload")),
        Step::Packet(SECONDARY, term_announce(1, SECONDARY)),
        Step::Packet(
            SRC_HOST,
            Packet::PrimaryIs {
                group: GROUP,
                source: SRC,
                primary: REPLICA,
            },
        ),
        Step::Timer,
    ];
    Case {
        warmup,
        future,
        divergent,
    }
}

/// The three logger roles: a primary with a replica, that replica, and
/// a site secondary. One replicates, one is replicated to, and the last
/// fetches from its parent and re-multicasts repairs.
fn logger_configs() -> [(LoggerConfig, u64); 3] {
    let mut primary = LoggerConfig::primary(GROUP, SRC, PRIMARY, SRC_HOST);
    primary.replicas = vec![REPLICA];
    let replica = LoggerConfig::replica(GROUP, SRC, REPLICA, PRIMARY, SRC_HOST);
    let secondary = LoggerConfig::secondary(GROUP, SRC, SECONDARY, PRIMARY, SRC_HOST);
    [(primary, 0x1066), (replica, 0x1068), (secondary, 0x1067)]
}

fn logger_case(seed: u64) -> Case {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut warmup = Script::new();
    let mut head = 0u32;
    for t in (0..600).step_by(10) {
        let at = Time::from_millis(t);
        match rng.random_range(0u32..7) {
            0..=2 => {
                head += 1;
                if rng.random_range(0u32..4) != 0 {
                    warmup.push((at, Step::Packet(SRC_HOST, data(head, "logged"))));
                }
            }
            3 if head > 1 => {
                let first = rng.random_range(1..head);
                let requester = HostId(RX.raw() + rng.random_range(0u64..3));
                let packet = nack(requester, first, first + 1);
                warmup.push((at, Step::Packet(requester, packet)));
            }
            4 if head > 0 => {
                let seq = rng.random_range(0..head + 1);
                let ack = Packet::ReplAck {
                    group: GROUP,
                    source: SRC,
                    seq: Seq(seq),
                };
                warmup.push((at, Step::Packet(REPLICA, ack)));
            }
            5 if head > 1 => {
                let seq = rng.random_range(1..head);
                warmup.push((at, Step::Packet(PRIMARY, retrans(seq))));
            }
            _ => warmup.push((at, Step::Timer)),
        }
    }
    // Mid-budget: a new parent, then a term for it; a whole budget
    // later every fetch is given up.
    let future = polls_until(
        LOGGER_UNTIL_MS,
        vec![
            (650, Step::Packet(RX, nack(RX, 1, head))),
            (800, Step::Packet(SRC_HOST, data(head + 2, "logged"))),
            (4_000, Step::Packet(SRC_HOST, primary_is(REPLICA))),
            (6_000, Step::Packet(SRC_HOST, term_announce(1, REPLICA))),
        ],
    );
    let divergent = vec![
        Step::Packet(SRC_HOST, data(head + 1, "logged")),
        Step::Packet(RX, nack(RX, 1, 2)),
        Step::Packet(
            REPLICA,
            Packet::ReplAck {
                group: GROUP,
                source: SRC,
                seq: Seq(head),
            },
        ),
        Step::Packet(
            SRC_HOST,
            Packet::AckerSelect {
                group: GROUP,
                source: SRC,
                epoch: EpochId(1),
                p_ack: 0.5,
            },
        ),
        Step::Packet(SRC_HOST, term_announce(1, REPLICA)),
        Step::Packet(
            SRC_HOST,
            Packet::ElectPrepare {
                group: GROUP,
                source: SRC,
                term: 2,
                candidate: SRC_HOST,
            },
        ),
        Step::Timer,
    ];
    Case {
        warmup,
        future,
        divergent,
    }
}

#[test]
fn a_sender_is_a_value() {
    let case = sender_case();
    assert_machine_is_a_value(sender, &case.warmup, &case.future, &case.divergent);
}

/// Receiver runs end here: 14 NACKs at 400 ms after the term at 3.4 s,
/// and slack.
const RECEIVER_UNTIL_MS: u64 = 10_000;

/// Logger runs end here: 24 fetches at 500 ms after the term at 6 s,
/// and slack.
const LOGGER_UNTIL_MS: u64 = 19_000;

#[test]
fn a_receiver_is_a_value() {
    let case = receiver_case();
    assert_machine_is_a_value(receiver, &case.warmup, &case.future, &case.divergent);
    // The run outlasts the budget: every recovery it opened was asked
    // for and given up before the end.
    let mut r = started(&receiver);
    run(&mut r, &case.script());
    assert_eq!(r.outstanding_recoveries(), 0);
    assert!(last_nack_ms(receiver, &case.script()) < RECEIVER_UNTIL_MS - 1_000);
}

/// Feeds `m` a poll at each of its deadlines until it has sent `nacks`
/// NACKs; returns the instant of the last.
fn poll_until_nacks(m: &mut Receiver, nacks: usize) -> Time {
    let mut sent = 0;
    loop {
        let at = m.next_deadline().expect("a recovery is open");
        if feed(m, at, &Step::Timer).contains("Nack {") {
            sent += 1;
            if sent == nacks {
                return at;
            }
        }
    }
}

/// Every input that spends request budget also moves a request's due
/// time, its rung count or the term, so no step of the runs above shows
/// a digest blind to the budget. Here the budget is the only difference:
/// two receivers have sent 4 and 5 NACKs for one loss, both on the top
/// rung, and a `PrimaryIs` naming the primary they already ask restarts
/// both requests' rung counts and due times, but not their budgets.
#[test]
fn a_spent_budget_moves_the_receiver_digest() {
    let mut four = started(&receiver);
    feed(
        &mut four,
        Time::ZERO,
        &Step::Packet(SRC_HOST, data(1, "payload")),
    );
    let lost = Step::Packet(SRC_HOST, data(3, "payload"));
    feed(&mut four, Time::from_millis(10), &lost);
    let mut five = four.clone();
    poll_until_nacks(&mut four, 4);
    let at = poll_until_nacks(&mut five, 5);
    // Nothing else fell due in between: the copies differ only in the
    // one request's NACK.
    assert_eq!(four.next_deadline(), Some(at));
    let primary = Step::Packet(SRC_HOST, primary_is(PRIMARY));
    feed(&mut four, at, &primary);
    feed(&mut five, at, &primary);

    let from = at.nanos() / 1_000_000 + 1;
    let rest = with_polls(from, RECEIVER_UNTIL_MS, 100, Vec::new());
    assert_ne!(
        run(&mut four.clone(), &rest),
        run(&mut five.clone(), &rest),
        "the fifth NACK must bring the abandonment forward"
    );
    assert_equal_digests_act_alike(&four, &five, &rest, "after 4 and 5 NACKs");
}

/// A primary with a replica, then a site secondary: one replicates, the
/// other fetches from its parent and re-multicasts repairs.
#[test]
fn a_logger_is_a_value() {
    let [primary, _, secondary] = logger_configs();
    for (config, seed) in [primary, secondary] {
        let case = logger_case(seed);
        let fresh = || Logger::new(config.clone());
        assert_machine_is_a_value(fresh, &case.warmup, &case.future, &case.divergent);
        // The run outlasts the fetch budget: fetching stops before it ends.
        let last = last_nack_ms(fresh, &case.script());
        assert!((6_000..LOGGER_UNTIL_MS - 1_000).contains(&last), "{last}");
    }
}

/// Counts the trace records it is handed.
#[derive(Default)]
struct Counted(AtomicU64);

impl TraceSink for Counted {
    fn record(&self, _at_nanos: u64, _host: HostId, _event: &ProtocolEvent) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// `Machine::poll`'s contract along a run: after every step of `script`
/// (fed by `step`), a clone polled at a seeded instant before the
/// machine's next deadline, or within 10 s when it has none, emits no
/// action and no trace record and keeps `state` as it was.
fn assert_idle_polls_do_nothing<M: Machine + Clone, K: PartialEq + Debug>(
    mut m: M,
    script: &[(Time, Step)],
    step: impl Fn(&mut M, Time, &Step),
    state: impl Fn(&M) -> K,
    seed: u64,
) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut checked = 0;
    m.on_start(Time::ZERO, &mut Actions::new());
    let mut now = Time::ZERO;
    for next in std::iter::once(None).chain(script.iter().map(Some)) {
        if let Some((t, s)) = next {
            now = *t;
            step(&mut m, now, s);
        }
        let end = m.next_deadline().unwrap_or(now + Duration::from_secs(10));
        if end <= now {
            continue; // work is due: a poll here may act
        }
        let at_poll = Time::from_nanos(rng.random_range(now.nanos()..end.nanos()));
        let mut idle = m.clone();
        let records = Arc::new(Counted::default());
        idle.set_tracer(Tracer::to(records.clone()));
        let mut out = Actions::new();
        idle.poll(at_poll, &mut out);
        let label = format!("a poll at {at_poll:?} (now {now:?}, deadline {end:?})");
        assert!(out.is_empty(), "{label} emitted {out:?}");
        assert_eq!(records.0.load(Ordering::Relaxed), 0, "{label} traced");
        assert_eq!(state(&idle), state(&m), "{label} changed the state");
        checked += 1;
    }
    assert!(
        checked > script.len() / 2,
        "only {checked} idle instants checked"
    );
}

/// Feeds a role one scripted step.
fn step_role<M: Role>(m: &mut M, now: Time, step: &Step) {
    feed(m, now, step);
}

/// Feeds a digest-less machine one packet or poll.
fn step_packets<M: Machine>(m: &mut M, now: Time, step: &Step) {
    let mut out = Actions::new();
    match step.clone() {
        Step::Packet(from, packet) => m.on_packet(now, from, packet, &mut out),
        Step::Timer => m.poll(now, &mut out),
        Step::Publish(_) => unreachable!("no application publishes here"),
    }
}

#[test]
fn a_poll_with_nothing_due_does_nothing() {
    assert_idle_polls_do_nothing(
        sender(),
        &sender_case().script(),
        step_role,
        Sender::state_digest,
        1,
    );
    assert_idle_polls_do_nothing(
        receiver(),
        &receiver_case().script(),
        step_role,
        Receiver::state_digest,
        2,
    );
    for (config, seed) in logger_configs() {
        assert_idle_polls_do_nothing(
            Logger::new(config),
            &logger_case(seed).script(),
            step_role,
            Logger::state_digest,
            seed,
        );
    }
}

/// The same contract for the two machines without a digest: the SRM
/// baseline member and the discovery client keep their next deadline.
#[test]
fn a_poll_with_nothing_due_does_nothing_without_a_digest() {
    let mut rng = SmallRng::seed_from_u64(0x5141);
    let mut script = Script::new();
    let mut head = 0u32;
    for t in (0..3_000).step_by(10) {
        let at = Time::from_millis(t);
        let peer = HostId(RX.raw() + 1 + rng.random_range(0u64..3));
        match rng.random_range(0u32..8) {
            0..=2 => {
                head += 1;
                // One in three data packets is lost.
                if rng.random_range(0u32..3) != 0 {
                    script.push((at, Step::Packet(SRC_HOST, data(head, "srm"))));
                }
            }
            3 if head > 0 => {
                let session = Packet::SrmSession {
                    group: GROUP,
                    member: peer,
                    last_seq: Seq(head),
                };
                script.push((at, Step::Packet(peer, session)));
            }
            4 if head > 1 => {
                let first = rng.random_range(1..head);
                let srm_nack = Packet::SrmNack {
                    group: GROUP,
                    source: SRC,
                    requester: peer,
                    ranges: vec![SeqRange::single(Seq(first))],
                };
                script.push((at, Step::Packet(peer, srm_nack)));
            }
            5 if head > 1 => {
                let repair = Packet::SrmRepair {
                    group: GROUP,
                    source: SRC,
                    seq: Seq(rng.random_range(1..head)),
                    responder: peer,
                    payload: Bytes::from_static(b"srm"),
                };
                script.push((at, Step::Packet(peer, repair)));
            }
            _ => script.push((at, Step::Timer)),
        }
    }
    let member = SrmMember::new(SrmConfig::new(GROUP, RX, SRC, SRC_HOST));
    assert_idle_polls_do_nothing(member, &script, step_packets, SrmMember::next_deadline, 3);

    // Discovery: polls walk the search through its scopes; a reply
    // with a stale nonce is ignored, as any reply is once it ends.
    let mut config = DiscoveryConfig::new(GROUP, RX);
    config.retry_after = Some(Duration::from_millis(700));
    let reply = Packet::DiscoveryReply {
        group: GROUP,
        nonce: 7,
        logger: SECONDARY,
        level: 1,
    };
    let script = with_polls(
        0,
        4_000,
        30,
        vec![
            (130, Step::Packet(SECONDARY, reply.clone())),
            (1_250, Step::Packet(SECONDARY, reply)),
        ],
    );
    assert_idle_polls_do_nothing(
        DiscoveryClient::new(config),
        &script,
        step_packets,
        DiscoveryClient::next_deadline,
        4,
    );
}
