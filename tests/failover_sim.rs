//! Primary-logger failure and recovery (§2.2.3), end to end.
//!
//! The source replicates its log through the primary to two replicas.
//! Mid-stream the primary crashes. The source notices its LogAcks
//! stopped, polls the replicas' log state, promotes the most up-to-date
//! one, and brings it current from its own buffer; secondaries re-home
//! via `LocatePrimary`. A later packet lost at every site must then be
//! recovered *through the promoted replica*.

use std::sync::Arc;
use std::time::Duration;

use lbrm::harness::{DisScenario, DisScenarioConfig, MachineActor};
use lbrm::sim::loss::LossModel;
use lbrm::sim::time::SimTime;
use lbrm::sim::topology::SiteParams;
use lbrm_core::logger::{Logger, LoggerRole};
use lbrm_core::machine::Notice;
use lbrm_core::receiver::Receiver;
use lbrm_core::sender::Sender;
use lbrm_wire::{HostId, Seq};

#[test]
fn replica_promotion_and_recovery_through_new_primary() {
    // Packet #4 (t = 20 s) is lost on every site's inbound tail circuit,
    // *after* the primary has failed.
    let outage = LossModel::outage(SimTime::from_secs(20), Duration::from_millis(100));
    let mut sc = DisScenario::build(DisScenarioConfig {
        sites: 3,
        receivers_per_site: 2,
        replicas: 2,
        site_params: SiteParams {
            tail_in_loss: outage,
            ..SiteParams::distant()
        },
        site_params_for: None::<Arc<dyn Fn(usize) -> SiteParams>>,
        seed: 13,
        ..DisScenarioConfig::default()
    });
    sc.send_at(SimTime::from_secs(2), "one");
    sc.send_at(SimTime::from_secs(4), "two");
    sc.send_at(SimTime::from_secs(12), "three"); // sent while primary is dead
    sc.send_at(SimTime::from_secs(20), "four"); // lost at every site

    // Let the first two packets replicate, then kill the primary.
    sc.world.run_until(SimTime::from_secs(6));
    for &r in &sc.plan.replicas {
        let log = sc.world.actor::<MachineActor<Logger>>(r);
        assert!(
            log.machine().has(Seq(1)) && log.machine().has(Seq(2)),
            "replication lagging"
        );
    }
    sc.world.crash(sc.plan.primary);
    sc.world.run_until(SimTime::from_secs(60));

    // The source promoted a replica.
    let sender = sc.world.actor::<MachineActor<Sender>>(sc.plan.src_host);
    let promoted = sender.notices.iter().find_map(|(_, n)| match n {
        Notice::Promoted { new_primary } => Some(*new_primary),
        _ => None,
    });
    let new_primary = promoted.expect("a replica must be promoted");
    assert!(sc.plan.replicas.contains(&new_primary));
    assert_eq!(sender.machine().primary(), new_primary);
    assert_eq!(
        sender.machine().buffered(),
        0,
        "new primary must ack the stream"
    );

    // The promoted replica acts as primary and holds the full log.
    let log = sc.world.actor::<MachineActor<Logger>>(new_primary);
    assert_eq!(log.machine().role(), LoggerRole::Primary);
    for seq in 1..=4u32 {
        assert!(log.machine().has(Seq(seq)), "new primary missing #{seq}");
    }

    // Every receiver ended complete — #4's recovery flowed through the
    // secondaries to the *new* primary.
    assert_eq!(sc.completeness(&[1, 2, 3, 4]), 1.0);
    let recovered: u64 = sc
        .all_receivers()
        .iter()
        .map(|&rx| {
            sc.world
                .actor::<MachineActor<Receiver>>(rx)
                .machine()
                .stats()
                .recovered
        })
        .sum();
    assert!(
        recovered >= 6,
        "all six receivers should have recovered #4, got {recovered}"
    );

    // Secondaries re-homed their parent pointer.
    for &sec in &sc.plan.secondaries {
        let l = sc.world.actor::<MachineActor<Logger>>(sec);
        assert_eq!(
            l.machine().parent(),
            new_primary,
            "secondary {sec} not re-homed"
        );
    }
}

/// Without replicas the source keeps retrying the dead primary and
/// reports it unresponsive, but the stream itself (multicast) continues.
#[test]
fn primary_loss_without_replicas_degrades_gracefully() {
    let mut sc = DisScenario::build(DisScenarioConfig {
        sites: 2,
        receivers_per_site: 2,
        replicas: 0,
        seed: 5,
        ..DisScenarioConfig::default()
    });
    sc.send_at(SimTime::from_secs(2), "one");
    sc.send_at(SimTime::from_secs(8), "two");
    sc.world.run_until(SimTime::from_secs(4));
    sc.world.crash(sc.plan.primary);
    sc.world.run_until(SimTime::from_secs(40));

    let sender = sc.world.actor::<MachineActor<Sender>>(sc.plan.src_host);
    assert!(sender
        .notices
        .iter()
        .any(|(_, n)| matches!(n, Notice::PrimaryUnresponsive { .. })));
    // #2 was sent after the crash: never log-acked, so retained.
    assert_eq!(sender.machine().buffered(), 1);
    // But dissemination is unaffected.
    assert_eq!(sc.completeness(&[1, 2]), 1.0);
}

/// A packet the source has released is held by every election quorum.
/// Replicas 1 and 2 are cut off while replica 0 alone keeps acking; then
/// the primary and replica 0 crash together and the cut heals, so the
/// election can only be won by replica 1 or 2. A receiver that was down
/// meanwhile recovers the stream through the winner — which it can only
/// do if the source released nothing that the winner's quorum lacked.
#[test]
fn released_packets_survive_an_election_without_the_acking_replica() {
    let mut sc = DisScenario::build(DisScenarioConfig {
        sites: 2,
        receivers_per_site: 2,
        secondary_loggers: false,
        replicas: 3,
        seed: 1,
        ..DisScenarioConfig::default()
    });
    let sends: u32 = 20;
    for i in 0..sends {
        sc.send_at(
            SimTime::from_millis(1_000 + 250 * u64::from(i)),
            format!("update-{i}"),
        );
    }
    let replicas = sc.plan.replicas.clone();
    let deaf = sc.plan.receivers[0][0];

    sc.world.run_until(SimTime::from_millis(1_400));
    sc.world.partition(&replicas[1..]);
    sc.world.crash(deaf);
    sc.world.run_until(SimTime::from_millis(3_100));
    sc.world.revive(deaf);
    sc.world.crash(sc.plan.primary);
    sc.world.crash(replicas[0]);
    sc.world.heal();
    sc.world.run_until(SimTime::from_secs(60));

    let sender = sc.world.actor::<MachineActor<Sender>>(sc.plan.src_host);
    let promoted: Vec<HostId> = sender
        .notices
        .iter()
        .filter_map(|(_, n)| match n {
            Notice::Promoted { new_primary } => Some(*new_primary),
            _ => None,
        })
        .collect();
    assert!(
        matches!(promoted[..], [p] if replicas[1..].contains(&p)),
        "one election, won by a replica that was cut off: {promoted:?}"
    );
    // The winner counts its own log among the three replicas, so the
    // surviving pair is a quorum and the source releases every packet.
    assert_eq!(sender.machine().buffered(), 0, "the source's buffer drains");
    let expect: Vec<u32> = (1..=sends).collect();
    let mut got = sc.delivered(deaf);
    got.sort_unstable();
    assert_eq!(got, expect, "the revived receiver recovers every seq");
    assert_eq!(sc.completeness(&expect), 1.0);
}
