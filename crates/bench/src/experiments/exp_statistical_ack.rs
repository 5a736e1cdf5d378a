//! **§2.3 / Figure 8 / §2.3.4** — statistical acknowledgement prevents
//! NACK implosion after loss on the sender's outgoing tail circuit.
//!
//! A data packet dies on the source site's tail-out, so *every* site
//! misses it. With statistical acking, missing Designated-Acker ACKs at
//! `t_wait` trigger an immediate re-multicast that repairs the whole
//! group before anyone NACKs; without it, every site's secondary logger
//! independently requests a retransmission from the primary.

use std::sync::Arc;
use std::time::Duration;

use lbrm::harness::{DisScenario, DisScenarioConfig, MachineActor};
use lbrm_core::machine::Notice;
use lbrm_core::sender::Sender;
use lbrm_core::statack::StatAckConfig;
use lbrm_sim::loss::LossModel;
use lbrm_sim::stats::SegmentClass;
use lbrm_sim::time::SimTime;
use lbrm_sim::topology::SiteParams;

use crate::report::Table;

/// Outcome of one run.
#[derive(Debug, Clone)]
pub struct StatAckOutcome {
    /// NACKs that crossed the WAN to the primary.
    pub wan_nacks: u64,
    /// Sender-issued statistical re-multicasts.
    pub remulticasts: u64,
    /// Designated Ackers in the active epoch.
    pub ackers: usize,
    /// Receiver completeness for all three packets.
    pub completeness: f64,
}

/// Runs the tail-out-loss scenario with or without statistical acking.
pub fn run_variant(sites: usize, statack: bool, seed: u64) -> StatAckOutcome {
    // Packet #2 (t = 5 s) dies on the source's outgoing tail circuit.
    let source_site = SiteParams {
        tail_out_loss: LossModel::outage(SimTime::from_secs(5), Duration::from_millis(50)),
        ..SiteParams::distant()
    };
    let mut sc = DisScenario::build(DisScenarioConfig {
        sites,
        receivers_per_site: 2,
        secondary_loggers: true,
        statack: statack.then(|| StatAckConfig {
            k: 10,
            nsl_initial: sites as f64,
            epoch_interval: Duration::from_secs(300),
            ..StatAckConfig::default()
        }),
        source_site_params: source_site,
        site_params: SiteParams::distant(),
        site_params_for: None::<Arc<dyn Fn(usize) -> SiteParams>>,
        seed,
        ..DisScenarioConfig::default()
    });
    sc.send_at(SimTime::from_secs(2), "one");
    sc.send_at(SimTime::from_secs(5), "two"); // lost leaving the source
    sc.send_at(SimTime::from_secs(9), "three");
    sc.world.run_until(SimTime::from_secs(30));

    let sender = sc.world.actor::<MachineActor<Sender>>(sc.plan.src_host);
    let remulticasts = sender
        .notices
        .iter()
        .filter(|(_, n)| matches!(n, Notice::StatAckRemulticast { .. }))
        .count() as u64;
    let ackers = sender
        .notices
        .iter()
        .rev()
        .find_map(|(_, n)| match n {
            Notice::EpochStarted { ackers, .. } => Some(*ackers),
            _ => None,
        })
        .unwrap_or(0);
    StatAckOutcome {
        wan_nacks: sc
            .world
            .stats()
            .class_kind(SegmentClass::Wan, "nack")
            .carried,
        remulticasts,
        ackers,
        completeness: sc.completeness(&[1, 2, 3]),
    }
}

/// Runs the experiment.
pub fn run() -> String {
    let sites = 50;
    let with = run_variant(sites, true, 31);
    let without = run_variant(sites, false, 31);

    let mut out = String::new();
    out.push_str(&format!(
        "§2.3: loss of one packet on the sender's tail circuit, {sites} sites\n\n"
    ));
    let mut t = Table::new(&["metric", "statistical ack ON", "OFF"]);
    t.row(&[
        "Designated Ackers".into(),
        format!("{}", with.ackers),
        "-".into(),
    ]);
    t.row(&[
        "sender re-multicasts".into(),
        format!("{}", with.remulticasts),
        format!("{}", without.remulticasts),
    ]);
    t.row(&[
        "NACKs crossing the WAN".into(),
        format!("{}", with.wan_nacks),
        format!("{}", without.wan_nacks),
    ]);
    t.row(&[
        "completeness".into(),
        format!("{:.3}", with.completeness),
        format!("{:.3}", without.completeness),
    ]);
    out.push_str(&t.render());
    out.push_str(
        "\nShape (paper §2.3.4): widespread loss is detected within one\n\
         t_wait of the transmission and repaired by a single re-multicast,\n\
         preventing the per-site NACK implosion the OFF column shows.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statack_suppresses_nack_implosion() {
        let with = run_variant(12, true, 3);
        let without = run_variant(12, false, 3);
        assert_eq!(with.completeness, 1.0);
        assert_eq!(without.completeness, 1.0);
        assert!(with.remulticasts >= 1, "{with:?}");
        assert!(with.ackers > 0, "{with:?}");
        // Without statack every site NACKs the primary; with it, almost
        // nobody does.
        assert!(without.wan_nacks >= 10, "{without:?}");
        assert!(
            with.wan_nacks * 4 <= without.wan_nacks,
            "with {} vs without {}",
            with.wan_nacks,
            without.wan_nacks
        );
    }
}
