//! Late joiners: a receiver whose first contact comes mid-stream owes
//! itself everything before it, as far as its reliability mode says,
//! pulls that history from the logging hierarchy (the §4 cache / audit
//! pattern), and asks for nothing that predates the stream.

use std::sync::Arc;

use lbrm::harness::MachineActor;
use lbrm::sim::time::SimTime;
use lbrm::sim::topology::{SiteParams, TopologyBuilder};
use lbrm::sim::world::World;
use lbrm_core::logger::{Logger, LoggerConfig};
use lbrm_core::receiver::{Receiver, ReceiverConfig, ReliabilityMode};
use lbrm_core::sender::{Sender, SenderConfig};
use lbrm_core::trace::analyze::{analyze, AnalyzeConfig};
use lbrm_core::trace::{CollectorSink, ProtocolEvent, Tracer};
use lbrm_wire::{GroupId, SourceId};

const GROUP: GroupId = GroupId(1);
const SRC: SourceId = SourceId(1);

#[test]
fn late_joiner_backfills_recent_history() {
    let mut b = TopologyBuilder::new();
    let hq = b.site(SiteParams::distant());
    let src_host = b.host(hq);
    let log_host = b.host(hq);
    let site = b.site(SiteParams::distant());
    let joiner = b.host(site);
    let mut world = World::new(b.build(), 71);

    world.add_actor(
        log_host,
        MachineActor::new(
            Logger::new(LoggerConfig::primary(GROUP, SRC, log_host, src_host)),
            vec![GROUP],
        ),
    );
    let mut cfg = ReceiverConfig::new(GROUP, SRC, joiner, src_host, vec![log_host]);
    cfg.mode = ReliabilityMode::Window(5);
    let collector = Arc::new(CollectorSink::default());
    let mut rx = MachineActor::new(Receiver::new(cfg), vec![GROUP]);
    rx.set_tracer(Tracer::to(collector.clone()));
    world.add_actor(joiner, rx);

    let mut sender = MachineActor::new(
        Sender::new(SenderConfig::new(GROUP, SRC, src_host, log_host)),
        vec![],
    );
    for i in 0..8u64 {
        let payload = bytes::Bytes::from(format!("u{i}"));
        sender.schedule(
            SimTime::from_secs(1 + i),
            move |s: &mut Sender, now, out| {
                s.send(now, payload.clone(), out);
            },
        );
    }
    world.add_actor(src_host, sender);

    // The joiner is offline for packets #1..#6 and comes up before #7.
    // (Crashing before the world starts suppresses the actor's on_start,
    // so join the group on its behalf.)
    world.join(joiner, GROUP);
    world.crash(joiner);
    world.run_until(SimTime::from_millis(6_500));
    world.revive(joiner);
    world.run_until(SimTime::from_secs(30));

    let a = world.actor::<MachineActor<Receiver>>(joiner);
    let mut seqs: Vec<(u32, bool)> = a
        .deliveries
        .iter()
        .map(|(_, d)| (d.seq.raw(), d.recovered))
        .collect();
    seqs.sort();
    // First contact is the heartbeat announcing #6 (at t ≈ 6.75 s): the
    // joiner recovers the window of 5 ending there, #2..#6, gives up #1,
    // then hears #7 and #8 live.
    assert_eq!(
        seqs,
        vec![
            (2, true),
            (3, true),
            (4, true),
            (5, true),
            (6, true),
            (7, false),
            (8, false)
        ],
        "{seqs:?}"
    );
    // Giving #1 up is on the trace: the forensic verdict sees an
    // abandonment, not a gap left open.
    let report = analyze(&collector.take(), &AnalyzeConfig::default());
    assert!(report.is_clean(), "{:?}", report.anomalies);
    assert_eq!((report.abandoned, report.unrecovered), (1, 0));
    assert_eq!(a.machine().stats().abandoned, 1);
}

#[test]
fn backfill_past_stream_origin_gives_up_cleanly() {
    // The joiner owes itself all history, but the stream only ever had
    // 2 packets: reaching back stops at the stream's origin, so the
    // joiner never asks for a sequence that was not sent, and nothing
    // loops forever.
    let mut b = TopologyBuilder::new();
    let hq = b.site(SiteParams::distant());
    let src_host = b.host(hq);
    let log_host = b.host(hq);
    let site = b.site(SiteParams::distant());
    let joiner = b.host(site);
    let mut world = World::new(b.build(), 73);

    world.add_actor(
        log_host,
        MachineActor::new(
            Logger::new(LoggerConfig::primary(GROUP, SRC, log_host, src_host)),
            vec![GROUP],
        ),
    );
    let cfg = ReceiverConfig::new(GROUP, SRC, joiner, src_host, vec![log_host]);
    let collector = Arc::new(CollectorSink::default());
    let mut rx = MachineActor::new(Receiver::new(cfg), vec![GROUP]);
    rx.set_tracer(Tracer::to(collector.clone()));
    world.add_actor(joiner, rx);

    let mut sender = MachineActor::new(
        Sender::new(SenderConfig::new(GROUP, SRC, src_host, log_host)),
        vec![],
    );
    for i in 0..2u64 {
        let payload = bytes::Bytes::from(format!("u{i}"));
        sender.schedule(
            SimTime::from_secs(1 + i),
            move |s: &mut Sender, now, out| {
                s.send(now, payload.clone(), out);
            },
        );
    }
    world.add_actor(src_host, sender);

    // Joiner misses #1, hears #2 (its first), reaches back to #1.
    world.join(joiner, GROUP);
    world.crash(joiner);
    world.run_until(SimTime::from_millis(1_500));
    world.revive(joiner);
    world.run_until(SimTime::from_secs(60));

    let a = world.actor::<MachineActor<Receiver>>(joiner);
    let mut seqs: Vec<u32> = a.deliveries.iter().map(|(_, d)| d.seq.raw()).collect();
    seqs.sort();
    assert_eq!(
        seqs,
        vec![1, 2],
        "real history recovered, phantom history not"
    );
    assert_eq!(
        a.machine().outstanding_recoveries(),
        0,
        "no immortal recoveries"
    );
    let nacked: Vec<(u32, u32)> = collector
        .take()
        .iter()
        .filter_map(|r| match r.event {
            ProtocolEvent::NackSent { first, last, .. } => Some((first.raw(), last.raw())),
            _ => None,
        })
        .collect();
    assert!(!nacked.is_empty(), "#1 was recovered by NACK");
    assert!(
        nacked.iter().all(|&(first, _)| first >= 1),
        "no NACK names a pre-origin sequence: {nacked:?}"
    );
    assert_eq!(a.machine().stats().abandoned, 0, "nothing to abandon");
}

#[test]
fn a_receiver_listening_before_the_stream_recovers_its_first_packet() {
    // Configured as `lbrm recv` configures one: the primary is its only
    // recovery target and where it asks for the primary.
    let mut b = TopologyBuilder::new();
    let hq = b.site(SiteParams::distant());
    let src_host = b.host(hq);
    let log_host = b.host(hq);
    let site = b.site(SiteParams::distant());
    let listener = b.host(site);
    let mut world = World::new(b.build(), 79);

    world.add_actor(
        log_host,
        MachineActor::new(
            Logger::new(LoggerConfig::primary(GROUP, SRC, log_host, src_host)),
            vec![GROUP],
        ),
    );
    let cfg = ReceiverConfig::new(GROUP, SRC, listener, log_host, vec![log_host]);
    world.add_actor(listener, MachineActor::new(Receiver::new(cfg), vec![GROUP]));

    let mut sender = MachineActor::new(
        Sender::new(SenderConfig::new(GROUP, SRC, src_host, log_host)),
        vec![],
    );
    for i in 0..5u64 {
        let payload = bytes::Bytes::from(format!("u{i}"));
        sender.schedule(
            SimTime::from_millis(1_000 + 50 * i),
            move |s: &mut Sender, now, out| {
                s.send(now, payload.clone(), out);
            },
        );
    }
    world.add_actor(src_host, sender);

    // Joined from the start, but down while #1 goes by: its first
    // contact is #2.
    world.run_until(SimTime::from_millis(900));
    world.crash(listener);
    world.run_until(SimTime::from_millis(1_060));
    world.revive(listener);
    world.run_until(SimTime::from_secs(10));

    let a = world.actor::<MachineActor<Receiver>>(listener);
    let mut seqs: Vec<(u32, bool)> = a
        .deliveries
        .iter()
        .map(|(_, d)| (d.seq.raw(), d.recovered))
        .collect();
    seqs.sort();
    assert_eq!(
        seqs,
        vec![(1, true), (2, false), (3, false), (4, false), (5, false)],
        "{seqs:?}"
    );
}
