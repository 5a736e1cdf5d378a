//! Late joiners: a receiver that subscribes mid-stream backfills recent
//! history from the logging hierarchy (the §4 cache / audit pattern),
//! and asks for nothing that predates the stream.

use std::sync::Arc;

use lbrm::harness::MachineActor;
use lbrm::sim::time::SimTime;
use lbrm::sim::topology::{SiteParams, TopologyBuilder};
use lbrm::sim::world::World;
use lbrm_core::logger::{Logger, LoggerConfig};
use lbrm_core::receiver::{Receiver, ReceiverConfig};
use lbrm_core::sender::{Sender, SenderConfig};
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
    cfg.backfill = 4;
    world.add_actor(joiner, MachineActor::new(Receiver::new(cfg), vec![GROUP]));

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
    // joiner recovers #6 plus a backfill window of 4 predecessors, then
    // hears #7 and #8 live.
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
}

#[test]
fn backfill_past_stream_origin_gives_up_cleanly() {
    // Joiner wants 10 packets of history but the stream only ever had 2:
    // the window stops at the stream's origin, so the joiner never asks
    // for a sequence that was not sent, and nothing loops forever.
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
    let mut cfg = ReceiverConfig::new(GROUP, SRC, joiner, src_host, vec![log_host]);
    cfg.backfill = 10;
    cfg.max_recovery_attempts = 3;
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

    // Joiner misses #1, hears #2 (its first), wants 10 predecessors.
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
