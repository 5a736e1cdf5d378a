//! Cross-crate integration: the full DIS scenario under sustained random
//! loss, plus determinism.

use std::sync::Arc;

use lbrm::harness::{DisScenario, DisScenarioConfig, MachineActor};
use lbrm::sim::loss::LossModel;
use lbrm::sim::time::SimTime;
use lbrm::sim::topology::SiteParams;
use lbrm_core::receiver::Receiver;

/// 8 sites × 5 receivers with 5% loss on every tail circuit in both
/// directions and 1% on the WAN: every update is still delivered to
/// every receiver.
#[test]
fn lossy_world_reaches_full_completeness() {
    let site_params = SiteParams {
        tail_in_loss: LossModel::rate(0.05),
        tail_out_loss: LossModel::rate(0.05),
        ..SiteParams::distant()
    };
    let mut sc = DisScenario::build(DisScenarioConfig {
        sites: 8,
        receivers_per_site: 5,
        site_params,
        wan_loss: LossModel::rate(0.01),
        seed: 77,
        ..DisScenarioConfig::default()
    });
    let expect: Vec<u32> = (1..=10).collect();
    for i in 0..10u64 {
        sc.send_at(SimTime::from_secs(2 + 3 * i), format!("update-{i}"));
    }
    sc.world.run_until(SimTime::from_secs(120));
    assert_eq!(
        sc.completeness(&expect),
        1.0,
        "every receiver must hold every update"
    );

    // Some loss definitely happened and was repaired.
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
        recovered > 0,
        "the lossy run should have exercised recovery"
    );

    // The sender's buffer drained: the primary logged everything.
    let sender = sc
        .world
        .actor::<MachineActor<lbrm_core::sender::Sender>>(sc.plan.src_host);
    assert_eq!(sender.machine().buffered(), 0);
}

/// The same seed reproduces the identical packet-level outcome; a
/// different seed differs (the loss pattern is random).
#[test]
fn simulation_is_deterministic_in_seed() {
    let run = |seed: u64| {
        let site_params = SiteParams {
            tail_in_loss: LossModel::rate(0.2),
            ..SiteParams::distant()
        };
        let mut sc = DisScenario::build(DisScenarioConfig {
            sites: 4,
            receivers_per_site: 3,
            site_params: site_params.clone(),
            site_params_for: None::<Arc<dyn Fn(usize) -> SiteParams>>,
            seed,
            ..DisScenarioConfig::default()
        });
        for i in 0..5u64 {
            sc.send_at(SimTime::from_secs(1 + 2 * i), format!("u{i}"));
        }
        sc.world.run_until(SimTime::from_secs(60));
        // Full per-receiver delivery trace (seq + recovered flags).
        sc.all_receivers()
            .iter()
            .map(|&rx| {
                sc.world
                    .actor::<MachineActor<Receiver>>(rx)
                    .deliveries
                    .iter()
                    .map(|(at, d)| (at.nanos(), d.seq.raw(), d.recovered))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(42), run(42), "same seed, same world");
    assert_ne!(
        run(42),
        run(43),
        "different seed should differ under 20% loss"
    );
}

/// Receiver-reliability: a `Window(0)` receiver keeps up without ever
/// NACKing, while RecoverAll receivers in the same group do recover.
#[test]
fn reliability_modes_coexist() {
    use lbrm_core::receiver::ReliabilityMode;
    let site_params = SiteParams {
        tail_in_loss: LossModel::rate(0.25),
        ..SiteParams::distant()
    };
    let mut sc = DisScenario::build(DisScenarioConfig {
        sites: 2,
        receivers_per_site: 4,
        mode: ReliabilityMode::Window(0),
        site_params,
        seed: 9,
        ..DisScenarioConfig::default()
    });
    for i in 0..8u64 {
        sc.send_at(SimTime::from_secs(1 + i), format!("u{i}"));
    }
    sc.world.run_until(SimTime::from_secs(60));
    let mut abandoned_total = 0;
    for rx in sc.all_receivers() {
        let stats = sc
            .world
            .actor::<MachineActor<Receiver>>(rx)
            .machine()
            .stats();
        assert_eq!(stats.recovered, 0, "Window(0) must not recover");
        abandoned_total += stats.abandoned;
    }
    assert!(
        abandoned_total > 0,
        "25% loss must have produced abandoned packets"
    );
    // No receiver NACK ever left a site (secondaries still maintain
    // their logs upstream, but receiver-reliability means receivers
    // choose not to pull).
    for rx in sc.all_receivers() {
        assert_eq!(
            sc.world
                .actor::<MachineActor<Receiver>>(rx)
                .machine()
                .outstanding_recoveries(),
            0
        );
    }
}
