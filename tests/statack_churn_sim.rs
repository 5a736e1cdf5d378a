//! Statistical acknowledgement under churn, over the full stack: the
//! sender's `N_sl` estimate follows secondary loggers leaving the group
//! (§2.3.3), and epochs keep rolling.

use std::time::Duration;

use lbrm::harness::{DisScenario, DisScenarioConfig, MachineActor};
use lbrm::sim::time::SimTime;
use lbrm_core::machine::Notice;
use lbrm_core::sender::Sender;
use lbrm_core::statack::StatAckConfig;

#[test]
fn nsl_estimate_follows_logger_departures() {
    let mut sc = DisScenario::build(DisScenarioConfig {
        sites: 24,
        receivers_per_site: 1,
        statack: Some(StatAckConfig {
            k: 8,
            nsl_initial: 24.0,
            epoch_interval: Duration::from_secs(2),
            ..StatAckConfig::default()
        }),
        seed: 47,
        ..DisScenarioConfig::default()
    });
    // Keep the stream alive so heartbeats + epochs have context.
    for i in 0..20u64 {
        sc.send_at(SimTime::from_secs(1 + 3 * i), format!("u{i}"));
    }

    // First half of the run: all 24 secondaries alive.
    sc.world.run_until(SimTime::from_secs(30));
    // Two thirds of the loggers die.
    for &sec in sc.plan.secondaries.iter().skip(8) {
        sc.world.crash(sec);
    }
    sc.world.run_until(SimTime::from_secs(90));

    let sender = sc.world.actor::<MachineActor<Sender>>(sc.plan.src_host);
    let epochs: Vec<(SimTime, f64, usize)> = sender
        .notices
        .iter()
        .filter_map(|(at, n)| match n {
            Notice::EpochStarted {
                nsl_estimate,
                ackers,
                ..
            } => Some((*at, *nsl_estimate, *ackers)),
            _ => None,
        })
        .collect();
    assert!(
        epochs.len() >= 15,
        "expected many epochs, got {}",
        epochs.len()
    );

    // Estimate while everyone was alive: near 24.
    let before: Vec<f64> = epochs
        .iter()
        .filter(|(at, _, _)| *at < SimTime::from_secs(30))
        .map(|(_, e, _)| *e)
        .collect();
    let mean_before = before.iter().sum::<f64>() / before.len() as f64;
    assert!(
        (mean_before - 24.0).abs() < 8.0,
        "pre-churn estimate {mean_before} should be near 24"
    );

    // Estimate at the end: tracking toward 8 survivors.
    let last = epochs.last().unwrap().1;
    assert!(
        last < 16.0,
        "post-churn estimate {last} should have fallen toward 8"
    );
    assert!(last >= 4.0, "post-churn estimate {last} imploded");
}

#[test]
fn bolot_probing_bootstraps_unknown_group_size() {
    use lbrm_core::estimate::BolotConfig;
    // The sender has no idea how many loggers exist (initial guess: 2,
    // truth: 40). Bolot probing via escalating Acker Selections finds
    // the real size before normal epochs begin.
    let mut sc = DisScenario::build(DisScenarioConfig {
        sites: 40,
        receivers_per_site: 1,
        statack: Some(StatAckConfig {
            k: 8,
            nsl_initial: 2.0,
            epoch_interval: Duration::from_secs(2),
            initial_probe: Some(BolotConfig {
                initial_p: 0.05,
                escalation: 4.0,
                min_responses: 6,
                rounds_to_average: 2,
            }),
        }),
        seed: 61,
        ..DisScenarioConfig::default()
    });
    for i in 0..10u64 {
        sc.send_at(SimTime::from_secs(1 + 3 * i), format!("u{i}"));
    }
    sc.world.run_until(SimTime::from_secs(60));

    let sender = sc.world.actor::<MachineActor<Sender>>(sc.plan.src_host);
    let last_estimate = sender
        .notices
        .iter()
        .filter_map(|(_, n)| match n {
            Notice::EpochStarted { nsl_estimate, .. } => Some(*nsl_estimate),
            _ => None,
        })
        .next_back()
        .expect("epochs ran");
    assert!(
        (last_estimate - 40.0).abs() < 15.0,
        "probing should land near 40, got {last_estimate}"
    );
}

#[test]
fn acker_epochs_survive_total_acker_loss() {
    // Every Designated Acker dies mid-epoch; the ackerless epoch must
    // not wedge the sender: selection retries and data keeps flowing.
    let mut sc = DisScenario::build(DisScenarioConfig {
        sites: 6,
        receivers_per_site: 1,
        statack: Some(StatAckConfig {
            k: 6,
            nsl_initial: 6.0,
            epoch_interval: Duration::from_secs(5),
            ..StatAckConfig::default()
        }),
        seed: 53,
        ..DisScenarioConfig::default()
    });
    for i in 0..10u64 {
        sc.send_at(SimTime::from_secs(1 + 2 * i), format!("u{i}"));
    }
    sc.world.run_until(SimTime::from_secs(3));
    for &sec in &sc.plan.secondaries.clone() {
        sc.world.crash(sec);
    }
    sc.world.run_until(SimTime::from_secs(12));
    for &sec in &sc.plan.secondaries.clone() {
        sc.world.revive(sec);
    }
    sc.world.run_until(SimTime::from_secs(60));

    // All data was delivered to the receivers regardless.
    let expect: Vec<u32> = (1..=10).collect();
    assert_eq!(sc.completeness(&expect), 1.0);

    // And epochs resumed with live ackers after the revival.
    let sender = sc.world.actor::<MachineActor<Sender>>(sc.plan.src_host);
    let revived_epoch = sender.notices.iter().any(|(at, n)| {
        *at > SimTime::from_secs(13)
            && matches!(n, Notice::EpochStarted { ackers, .. } if *ackers > 0)
    });
    assert!(revived_epoch, "epochs must recover after ackers return");
}
