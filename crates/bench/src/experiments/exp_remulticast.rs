//! **§2.2.1 ablation** — the secondary logger's unicast-vs-re-multicast
//! decision.
//!
//! "A secondary logging server may decide to re-multicast a packet,
//! rather than sending point-to-point retransmissions, if it decides
//! that a significant number of clients have lost the packet." With `m`
//! of `n` site receivers missing a packet, unicast repair costs `m` LAN
//! transmissions; a site-scoped re-multicast costs one. This ablation
//! sweeps the number of victims against the decision threshold and
//! counts repair decisions via the secondary's trace registry
//! (`retrans_served_unicast` / `retrans_served_multicast`).

use std::time::Duration;

use lbrm::harness::{DisScenario, DisScenarioConfig};
use lbrm_sim::stats::SegmentClass;
use lbrm_sim::time::SimTime;
use lbrm_sim::topology::SiteParams;

use crate::report::Table;

/// One run: `victims` of the site's receivers miss a packet; returns
/// (repair transmissions by the secondary, of which site multicasts).
pub fn run_once(victims: usize, seed: u64) -> (u64, u64) {
    let mut sc = DisScenario::build(DisScenarioConfig {
        sites: 1,
        receivers_per_site: 12,
        site_params: SiteParams::distant(),
        receiver_nack_delay: Duration::from_millis(5),
        seed,
        ..DisScenarioConfig::default()
    });
    sc.send_at(SimTime::from_secs(1), "one");
    sc.send_at(SimTime::from_secs(5), "two");
    sc.send_at(SimTime::from_secs(9), "three");

    let targets: Vec<_> = sc.plan.receivers[0].iter().copied().take(victims).collect();
    sc.world.run_until(SimTime::from_millis(4_900));
    for &v in &targets {
        sc.world.crash(v);
    }
    sc.world.run_until(SimTime::from_millis(5_500));
    for &v in &targets {
        sc.world.revive(v);
    }
    sc.world.run_until(SimTime::from_secs(30));
    assert_eq!(sc.completeness(&[1, 2, 3]), 1.0);

    // The lone secondary is the only machine feeding this registry, so
    // its serve decisions are exactly the retrans_served_* counters.
    let unicasts = sc.secondary_metrics.counter("retrans_served_unicast");
    let multicasts = sc.secondary_metrics.counter("retrans_served_multicast");
    let _ = SegmentClass::Lan;
    (unicasts + multicasts, multicasts)
}

/// Runs the experiment.
pub fn run() -> String {
    let mut out = String::new();
    out.push_str(
        "§2.2.1 ablation: unicast vs site-scoped re-multicast repair\n\
         (1 site, 12 receivers, threshold = 3 distinct requesters)\n\n",
    );
    let mut t = Table::new(&["victims", "repair transmissions", "of which multicast"]);
    for victims in [1usize, 2, 3, 6, 12] {
        let (tx, rem) = run_once(victims, 41);
        t.row(&[format!("{victims}"), format!("{tx}"), format!("{rem}")]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nBelow the threshold each victim costs one unicast; at or above it\n\
         the secondary answers everyone with a single site-scoped multicast,\n\
         so repair transmissions plateau regardless of victim count.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_switches_to_multicast() {
        let (_, rem1) = run_once(1, 3);
        assert_eq!(rem1, 0, "one victim: unicast repair");
        let (_, rem6) = run_once(6, 3);
        assert!(rem6 >= 1, "six victims: site re-multicast expected");
    }

    #[test]
    fn repair_transmissions_plateau_above_threshold() {
        let (tx2, rem2) = run_once(2, 5);
        assert_eq!((tx2, rem2), (2, 0), "two victims: two unicasts");
        let (tx12, rem12) = run_once(12, 5);
        assert!(rem12 >= 1);
        assert!(
            tx12 <= 4,
            "12 victims must cost ~threshold transmissions, got {tx12}"
        );
    }
}
