//! **§7 ablation** — "a multi-level hierarchy of logging servers may be
//! used to further reduce NACK bandwidth in large groups."
//!
//! The everyone-loses-a-packet scenario of Figure 7, at one, two, and
//! three hierarchy levels: requests reaching the primary shrink from
//! one per *receiver* to one per *site* to one per *region*.

use std::sync::Arc;
use std::time::Duration;

use lbrm::harness::{DisScenario, DisScenarioConfig};
use lbrm_sim::loss::LossModel;
use lbrm_sim::stats::SegmentClass;
use lbrm_sim::time::SimTime;
use lbrm_sim::topology::SiteParams;

use crate::report::Table;

/// NACKs reaching the primary's site, and completeness, for a hierarchy
/// of `levels` (1 = centralized, 2 = site secondaries, 3 = + regionals).
pub fn run_level(
    sites: usize,
    receivers: usize,
    fanout: usize,
    levels: u8,
    seed: u64,
) -> (u64, f64) {
    let outage = LossModel::outage(SimTime::from_secs(5), Duration::from_millis(100));
    let mut sc = DisScenario::build(DisScenarioConfig {
        sites,
        receivers_per_site: receivers,
        secondary_loggers: levels >= 2,
        regional_fanout: (levels >= 3).then_some(fanout),
        site_params: SiteParams {
            tail_in_loss: outage,
            ..SiteParams::distant()
        },
        site_params_for: None::<Arc<dyn Fn(usize) -> SiteParams>>,
        seed,
        ..DisScenarioConfig::default()
    });
    sc.send_at(SimTime::from_secs(1), "one");
    sc.send_at(SimTime::from_secs(5), "two");
    sc.send_at(SimTime::from_secs(9), "three");
    sc.world.run_until(SimTime::from_secs(40));
    let source_site = sc.world.topology().site_of(sc.plan.primary);
    let nacks = sc
        .world
        .stats()
        .site_tail(source_site, SegmentClass::TailIn, "nack")
        .carried;
    (nacks, sc.completeness(&[1, 2, 3]))
}

/// Runs the experiment.
pub fn run() -> String {
    let (sites, receivers, fanout) = (48, 20, 8);
    let mut out = String::new();
    out.push_str(&format!(
        "§7 ablation: logging hierarchy depth vs primary NACK load\n\
         ({sites} sites x {receivers} receivers, regional fanout {fanout}, one packet lost\n\
         on every site's tail circuit)\n\n"
    ));
    let mut t = Table::new(&["hierarchy", "NACKs at primary", "complete"]);
    for (levels, label) in [
        (1u8, "1-level (centralized)"),
        (2, "2-level (paper)"),
        (3, "3-level (+regional)"),
    ] {
        let (nacks, completeness) = run_level(sites, receivers, fanout, levels, 29);
        t.row(&[
            label.into(),
            format!("{nacks}"),
            format!("{completeness:.3}"),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nEach level divides primary load by its fan-in: {} → {} → {}.\n",
        sites * receivers,
        sites,
        sites / fanout
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_divide_primary_load() {
        let (l1, c1) = run_level(8, 4, 4, 1, 3);
        let (l2, c2) = run_level(8, 4, 4, 2, 3);
        let (l3, c3) = run_level(8, 4, 4, 3, 3);
        assert_eq!((c1, c2, c3), (1.0, 1.0, 1.0));
        assert_eq!(l1, 32);
        assert_eq!(l2, 8);
        assert_eq!(l3, 2);
    }
}
