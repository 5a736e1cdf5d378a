//! Cross-crate integration for the trace/observability layer: on a
//! seeded lossy DIS run, the per-role [`MetricsRegistry`] aggregates
//! must agree with the simulator's wire-level [`NetStats`] and with the
//! machines' own bookkeeping — the trace layer is a view, not a second
//! truth.

use lbrm::harness::{DisScenario, DisScenarioConfig, MachineActor};
use lbrm::sim::loss::LossModel;
use lbrm::sim::stats::SegmentClass;
use lbrm::sim::time::SimTime;
use lbrm::sim::topology::SiteParams;
use lbrm_core::machine::Notice;
use lbrm_core::receiver::Receiver;

const SENDS: u64 = 20;

fn lossy_run() -> DisScenario {
    // Loss on receiver-site inbound tails only: the sender's egress path
    // is lossless, so every multicast send crosses its tail circuit
    // exactly once and the wire counts are exact mirrors of the
    // sender-side trace counters.
    let site_params = SiteParams {
        tail_in_loss: LossModel::rate(0.08),
        ..SiteParams::distant()
    };
    let mut sc = DisScenario::build(DisScenarioConfig {
        sites: 6,
        receivers_per_site: 4,
        site_params,
        receiver_nack_delay: std::time::Duration::from_millis(5),
        seed: 4242,
        ..DisScenarioConfig::default()
    });
    for i in 0..SENDS {
        sc.send_at(SimTime::from_millis(1_000 + 400 * i), format!("update-{i}"));
    }
    sc.world.run_until(SimTime::from_secs(60));
    sc
}

#[test]
fn trace_counters_match_wire_stats_and_machine_bookkeeping() {
    let sc = lossy_run();
    let expect: Vec<u32> = (1..=SENDS as u32).collect();
    assert_eq!(sc.completeness(&expect), 1.0, "run must end complete");

    // Sender trace vs wire: every data multicast and every heartbeat
    // crossed the source site's (lossless) outbound tail exactly once.
    let stats = sc.world.stats();
    assert_eq!(sc.sender_metrics.counter("data_sent"), SENDS);
    assert_eq!(
        sc.sender_metrics.counter("data_sent"),
        stats.class_kind(SegmentClass::TailOut, "data").carried,
        "each data multicast crosses the source tail once"
    );
    assert_eq!(
        sc.sender_metrics.counter("heartbeat_sent"),
        stats.class_kind(SegmentClass::TailOut, "heartbeat").carried,
        "each heartbeat crosses the source tail once"
    );

    // Primary trace vs its log: the (lossless-path) primary logged every
    // data packet exactly once.
    assert_eq!(sc.primary_metrics.counter("packet_logged"), SENDS);

    // Receiver trace vs receiver stats and notices.
    let mut losses = 0u64;
    let mut recovered_notices = 0u64;
    for rx in sc.all_receivers() {
        let a = sc.world.actor::<MachineActor<Receiver>>(rx);
        losses += a.machine().stats().losses_detected;
        recovered_notices += a
            .notices
            .iter()
            .filter(|(_, n)| matches!(n, Notice::Recovered { .. }))
            .count() as u64;
    }
    // Receiver NACKs on the wire: every NACK crosses a LAN; one that
    // leaves its site (a secondary asking the primary) crosses its own
    // LAN, both tails and the far LAN, so subtracting one tail crossing
    // each for the two extra LANs leaves the receivers' site-local NACKs.
    let nack = |class| stats.class_kind(class, "nack").carried;
    let nacks_sent =
        nack(SegmentClass::Lan) - nack(SegmentClass::TailOut) - nack(SegmentClass::TailIn);
    assert!(losses > 0, "the lossy run should have exercised recovery");
    assert_eq!(sc.receiver_metrics.counter("gap_detected"), losses);
    assert_eq!(sc.receiver_metrics.counter("recovered"), recovered_notices);
    assert_eq!(sc.receiver_metrics.counter("nack_sent"), nacks_sent);
    assert_eq!(
        sc.receiver_metrics.recovery_latency().count() as u64,
        sc.receiver_metrics.counter("recovered"),
        "every Recovered event feeds the latency histogram"
    );

    // Secondary trace: receivers NACK their site secondary over the
    // lossless LAN, so every NACK sent is a NACK received (receivers
    // only fall back to the primary if the secondary stays silent, which
    // a complete run rules out). One site-multicast repair can cover
    // many receivers, so serves need not reach the recovered count —
    // but some repair traffic must exist.
    assert_eq!(sc.secondary_metrics.counter("nack_received"), nacks_sent);
    let served = sc.secondary_metrics.counter("retrans_served_unicast")
        + sc.secondary_metrics.counter("retrans_served_multicast");
    assert!(served > 0, "repairs must have been served");

    // Network registry: the world-level NetPacket events saw at least
    // the sender's multicasts plus the repair unicasts.
    assert!(sc.net_metrics.counter("net_multicast") >= SENDS);
    assert!(sc.net_metrics.counter("net_unicast") >= nacks_sent);
}

#[test]
fn trace_registries_are_deterministic_in_seed() {
    let counters = |sc: &DisScenario| {
        (
            sc.sender_metrics.counters(),
            sc.receiver_metrics.counters(),
            sc.secondary_metrics.counters(),
            sc.net_metrics.counters(),
        )
    };
    let a = lossy_run();
    let b = lossy_run();
    assert_eq!(counters(&a), counters(&b), "same seed, same trace");
}
