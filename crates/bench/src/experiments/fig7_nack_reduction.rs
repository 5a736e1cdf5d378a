//! **Figure 7 / §2.2.2** — retransmission requests under centralized vs
//! distributed logging.
//!
//! The paper's scenario: a data packet is lost on every site's inbound
//! tail circuit (Figure 1's congestion pattern), so all 20 receivers at
//! each of the 50 sites miss it. Centralized recovery sends one NACK per
//! *receiver* across the tail circuit and WAN to the primary logger
//! (20/site, 1,000 total); distributed logging collapses that to one
//! NACK per *site* (the secondary logger's), a 20× reduction, and the
//! primary's load drops identically.

use std::sync::Arc;
use std::time::Duration;

use lbrm::harness::{DisScenario, DisScenarioConfig};
use lbrm_core::trace::analyze::{analyze, AnalyzeConfig};
use lbrm_core::trace::CollectorSink;
use lbrm_sim::loss::LossModel;
use lbrm_sim::stats::SegmentClass;
use lbrm_sim::time::SimTime;
use lbrm_sim::topology::SiteParams;

use crate::report::Table;

/// Results of one run.
#[derive(Debug, Clone, Copy)]
pub struct NackCounts {
    /// NACK requests arriving at the primary logger — the paper's
    /// headline metric, read from the primary's trace registry.
    pub primary_nacks: u64,
    /// Retransmissions the primary served, from the same registry.
    pub primary_retrans: u64,
    /// NACKs carried by the WAN backbone (wire-level cross-check).
    pub wan_nacks: u64,
    /// NACKs crossing any tail circuit outbound.
    pub tail_out_nacks: u64,
    /// Retransmissions carried by the WAN.
    pub wan_retrans: u64,
    /// Fraction of receivers that ended complete.
    pub completeness: f64,
}

/// Runs the scenario with or without secondary loggers and returns the
/// NACK accounting.
pub fn run_variant(sites: usize, receivers: usize, distributed: bool, seed: u64) -> NackCounts {
    // Packet #2 (sent at t = 5 s) is lost on every receiver site's
    // inbound tail circuit.
    let outage = LossModel::outage(SimTime::from_secs(5), Duration::from_millis(100));
    let site_params = SiteParams {
        tail_in_loss: outage,
        ..SiteParams::distant()
    };
    let forensics = Arc::new(CollectorSink::default());
    let mut sc = DisScenario::build_with_sink(
        DisScenarioConfig {
            sites,
            receivers_per_site: receivers,
            secondary_loggers: distributed,
            site_params,
            site_params_for: None::<Arc<dyn Fn(usize) -> SiteParams>>,
            seed,
            ..DisScenarioConfig::default()
        },
        Some(forensics.clone()),
    );
    sc.send_at(SimTime::from_secs(1), "update-1");
    sc.send_at(SimTime::from_secs(5), "update-2"); // lost at every site
    sc.send_at(SimTime::from_secs(9), "update-3");
    sc.world.run_until(SimTime::from_secs(30));

    let stats = sc.world.stats();

    // Self-audit: the analyzer must agree that every receiver's gap
    // closed, and (distributed) that per-seq requests at the primary
    // stayed within the one-per-site bound.
    let report = analyze(&forensics.take(), &AnalyzeConfig::default());
    assert!(report.is_clean(), "forensics: {:?}", report.anomalies);
    assert_eq!(report.unrecovered, 0, "unrecovered gaps in trace");

    NackCounts {
        primary_nacks: sc.primary_metrics.counter("nack_received"),
        primary_retrans: sc.primary_metrics.counter("retrans_served_unicast")
            + sc.primary_metrics.counter("retrans_served_multicast"),
        wan_nacks: stats.class_kind(SegmentClass::Wan, "nack").carried,
        tail_out_nacks: stats.class_kind(SegmentClass::TailOut, "nack").carried,
        wan_retrans: stats.class_kind(SegmentClass::Wan, "retrans").carried,
        completeness: sc.completeness(&[1, 2, 3]),
    }
}

/// Runs the experiment.
pub fn run() -> String {
    let sites = 50;
    let receivers = 20;
    let central = run_variant(sites, receivers, false, 11);
    let dist = run_variant(sites, receivers, true, 11);

    let mut out = String::new();
    out.push_str(&format!(
        "Figure 7: retransmission requests after a packet is lost on every\n\
         site's tail circuit ({sites} sites x {receivers} receivers = {} subscribers)\n\n",
        sites * receivers
    ));
    let mut t = Table::new(&["metric", "centralized (a)", "distributed (b)", "paper"]);
    t.row(&[
        "NACK requests at the primary".into(),
        format!("{}", central.primary_nacks),
        format!("{}", dist.primary_nacks),
        format!("{} vs {}", sites * receivers, sites),
    ]);
    t.row(&[
        "retransmissions it served".into(),
        format!("{}", central.primary_retrans),
        format!("{}", dist.primary_retrans),
        "per-receiver vs per-site".into(),
    ]);
    t.row(&[
        "NACKs crossing the WAN".into(),
        format!("{}", central.wan_nacks),
        format!("{}", dist.wan_nacks),
        format!("{} vs {}", sites * receivers, sites),
    ]);
    t.row(&[
        "NACKs per site's tail circuit".into(),
        format!("{:.1}", central.tail_out_nacks as f64 / sites as f64),
        format!("{:.1}", dist.tail_out_nacks as f64 / sites as f64),
        format!("{receivers} vs 1"),
    ]);
    t.row(&[
        "retransmissions on the WAN".into(),
        format!("{}", central.wan_retrans),
        format!("{}", dist.wan_retrans),
        "per-receiver vs per-site".into(),
    ]);
    t.row(&[
        "delivery completeness".into(),
        format!("{:.3}", central.completeness),
        format!("{:.3}", dist.completeness),
        "1.0 both".into(),
    ]);
    out.push_str(&t.render());
    let reduction = central.primary_nacks as f64 / dist.primary_nacks.max(1) as f64;
    out.push_str(&format!(
        "\nNACK reduction at the primary: {reduction:.1}x (paper: {receivers}x — \
         \"from 20 per site to 1\")\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributed_reduces_wan_nacks_by_receiver_factor() {
        // Scaled-down 6 sites × 5 receivers for test time.
        let central = run_variant(6, 5, false, 3);
        let dist = run_variant(6, 5, true, 3);
        assert_eq!(central.completeness, 1.0);
        assert_eq!(dist.completeness, 1.0);
        assert!(central.primary_nacks >= 30, "centralized {central:?}");
        assert!(dist.primary_nacks <= 6 + 2, "distributed {dist:?}");
        let reduction = central.primary_nacks as f64 / dist.primary_nacks as f64;
        assert!(reduction >= 3.5, "reduction {reduction}");
        // The trace counters and the wire-level stats tell one story:
        // every NACK the primary saw crossed the WAN (lossless on the
        // NACK path in this scenario).
        assert_eq!(central.primary_nacks, central.wan_nacks, "{central:?}");
        assert!(
            central.primary_retrans >= central.primary_nacks,
            "{central:?}"
        );
    }
}
