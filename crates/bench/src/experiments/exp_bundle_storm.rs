//! **§5 / bundling** — datagram reduction from PDU bundling under a
//! seeded NACK storm.
//!
//! The scenario stages the traffic pattern bundling exists for: a burst
//! of same-tick entity updates is multicast while every receiver site's
//! inbound tail circuit is down, so when the next packet lands each
//! receiver NACKs the whole gap and the logger answers with a
//! contiguous run of retransmissions to that requester — all at one
//! simulated instant, all to one destination. The simulator's
//! [`BundleMeter`](lbrm_sim::stats::BundleMeter) folds both framing
//! ledgers over the one run, so it yields the datagram count that is
//! sent (one per MTU-bounded frame) beside the unbundled counterfactual
//! (one per packet), and the headline metric is their ratio on the
//! repair path.

use std::sync::Arc;
use std::time::Duration;

use lbrm::harness::{DisScenario, DisScenarioConfig};
use lbrm_core::trace::analyze::{analyze, AnalyzeConfig};
use lbrm_core::trace::CollectorSink;
use lbrm_sim::loss::LossModel;
use lbrm_sim::stats::BundleStats;
use lbrm_sim::time::SimTime;
use lbrm_sim::topology::SiteParams;

use crate::report::Table;

/// Updates multicast inside the outage window (the storm's gap width).
const BURST: u64 = 24;

/// One storm run's accounting.
#[derive(Debug, Clone)]
pub struct StormCounts {
    /// Both framing ledgers for every host's outbound stream.
    pub bundle: BundleStats,
    /// Fraction of receivers that ended complete.
    pub completeness: f64,
}

impl StormCounts {
    /// Datagram reduction (`packets / frames`) for one packet kind.
    pub fn reduction(&self, kind: &str) -> f64 {
        let k = &self.bundle.per_kind[kind];
        k.packets as f64 / k.frames.max(1) as f64
    }
}

/// Runs the storm: `BURST` same-tick updates are lost on every site's
/// tail circuit, receivers gap-NACK on the next delivery, and loggers
/// serve the spans as contiguous repair runs.
pub fn run_storm(sites: usize, receivers: usize, seed: u64) -> StormCounts {
    // The outage swallows the burst at t = 5 s on every receiver site.
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
            // Centralized recovery concentrates the storm on the
            // primary — the worst case the bundled repair path serves.
            secondary_loggers: false,
            site_params,
            seed,
            ..DisScenarioConfig::default()
        },
        Some(forensics.clone()),
    );
    sc.send_at(SimTime::from_secs(1), "warmup");
    for i in 0..BURST {
        // One simulation tick's worth of entity-state updates, all
        // inside the outage window.
        sc.send_at(SimTime::from_secs(5), format!("burst-{i}"));
    }
    sc.send_at(SimTime::from_secs(9), "gap-closer");
    sc.world.run_until(SimTime::from_secs(30));

    // Self-audit: the storm must actually have been recovered.
    let report = analyze(&forensics.take(), &AnalyzeConfig::default());
    assert!(report.is_clean(), "forensics: {:?}", report.anomalies);
    assert_eq!(report.unrecovered, 0, "unrecovered gaps in trace");

    let expect: Vec<u32> = (1..=BURST as u32 + 2).collect();
    StormCounts {
        bundle: sc.world.bundle_stats(),
        completeness: sc.completeness(&expect),
    }
}

/// Runs the experiment.
pub fn run() -> String {
    let (sites, receivers) = (20, 10);
    let storm = run_storm(sites, receivers, 17);

    let mut out = String::new();
    out.push_str(&format!(
        "PDU bundling under a NACK storm: {BURST} same-tick updates lost on\n\
         every site's tail circuit ({sites} sites x {receivers} receivers), recovered\n\
         through gap NACKs served as contiguous repair runs.\n\n\
         Datagrams per packet kind: the unbundled counterfactual (one per\n\
         packet) vs what is sent (one per MTU-bounded frame), from one run:\n\n"
    ));
    let mut t = Table::new(&["kind", "packets (unbundled)", "frames (sent)", "reduction"]);
    for (kind, k) in &storm.bundle.per_kind {
        t.row(&[
            (*kind).into(),
            format!("{}", k.packets),
            format!("{}", k.frames),
            format!("{:.1}x", k.packets as f64 / k.frames.max(1) as f64),
        ]);
    }
    t.row(&[
        "total".into(),
        format!("{}", storm.bundle.packets),
        format!("{}", storm.bundle.frames),
        format!(
            "{:.1}x",
            storm.bundle.packets as f64 / storm.bundle.frames.max(1) as f64
        ),
    ]);
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nRepair-path datagram reduction: {:.1}x \
         (retransmissions coalesced into MTU-full bundles)\n\
         Wire bytes: {} unbundled vs {} bundled \
         ({:.1}% framing delta)\n\
         Delivery completeness: {:.3}\n",
        storm.reduction("retrans"),
        storm.bundle.bytes_unbundled,
        storm.bundle.bytes_bundled,
        100.0 * (storm.bundle.bytes_bundled as f64 - storm.bundle.bytes_unbundled as f64)
            / storm.bundle.bytes_unbundled as f64,
        storm.completeness,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_repairs_bundle_at_least_3x() {
        // Scaled-down 6 sites × 5 receivers for test time.
        let storm = run_storm(6, 5, 17);
        assert_eq!(storm.completeness, 1.0, "{storm:?}");
        let retrans = &storm.bundle.per_kind["retrans"];
        assert!(
            retrans.packets >= BURST * 6,
            "storm too small to be meaningful: {retrans:?}"
        );
        let reduction = storm.reduction("retrans");
        assert!(
            reduction >= 3.0,
            "bundled repair serving must cut retrans datagrams >= 3x, \
             got {reduction:.2}x ({retrans:?})"
        );
        // Framing never inflates bytes beyond the per-frame header and
        // per-entry prefixes.
        assert!(
            storm.bundle.bytes_bundled
                <= storm.bundle.bytes_unbundled
                    + 8 * storm.bundle.frames
                    + 2 * storm.bundle.packets,
            "{:?}",
            storm.bundle
        );
    }
}
