//! The §7 multi-level logging hierarchy: regional loggers between site
//! secondaries and the primary further concentrate NACK traffic.

use std::sync::Arc;
use std::time::Duration;

use lbrm::harness::{DisScenario, DisScenarioConfig};
use lbrm::sim::loss::LossModel;
use lbrm::sim::stats::SegmentClass;
use lbrm::sim::time::SimTime;
use lbrm::sim::topology::SiteParams;

/// Runs the everyone-loses-a-packet scenario and returns the number of
/// NACKs that reached the primary's site (its tail-in crossings).
fn nacks_at_primary(levels: u8, seed: u64) -> (u64, f64) {
    let outage = LossModel::outage(SimTime::from_secs(5), Duration::from_millis(100));
    let mut sc = DisScenario::build(DisScenarioConfig {
        sites: 12,
        receivers_per_site: 3,
        secondary_loggers: levels >= 2,
        regional_fanout: (levels >= 3).then_some(4),
        site_params: SiteParams {
            tail_in_loss: outage,
            ..SiteParams::distant()
        },
        site_params_for: None::<Arc<dyn Fn(usize) -> SiteParams>>,
        seed,
        ..DisScenarioConfig::default()
    });
    sc.send_at(SimTime::from_secs(1), "one");
    sc.send_at(SimTime::from_secs(5), "two"); // lost at every site
    sc.send_at(SimTime::from_secs(9), "three");
    sc.world.run_until(SimTime::from_secs(40));

    let source_site = sc.world.topology().site_of(sc.plan.primary);
    let nacks = sc
        .world
        .stats()
        .site_tail(source_site, SegmentClass::TailIn, "nack")
        .carried;
    let completeness = sc.completeness(&[1, 2, 3]);
    (nacks, completeness)
}

#[test]
fn each_hierarchy_level_concentrates_primary_load() {
    let (centralized, c1) = nacks_at_primary(1, 19);
    let (two_level, c2) = nacks_at_primary(2, 19);
    let (three_level, c3) = nacks_at_primary(3, 19);

    assert_eq!(c1, 1.0);
    assert_eq!(c2, 1.0);
    assert_eq!(c3, 1.0);

    // 12 sites × 3 receivers: 36 NACKs centralized, 12 with site
    // secondaries, 3 with regional loggers (fanout 4).
    assert_eq!(centralized, 36, "one NACK per receiver");
    assert_eq!(two_level, 12, "one NACK per site");
    assert_eq!(three_level, 3, "one NACK per region");
}

#[test]
fn regional_hierarchy_recovers_through_all_levels() {
    // The regional logger itself missed the packet (its site's tail was
    // down): receiver → site secondary → regional → primary, four levels
    // of store-and-forward recovery.
    let (nacks, completeness) = nacks_at_primary(3, 23);
    assert_eq!(completeness, 1.0);
    assert!(nacks >= 1);
}
