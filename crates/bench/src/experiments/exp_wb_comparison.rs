//! **§6** — LBRM vs *wb*-style (SRM) recovery.
//!
//! Two claims are measured on identical topologies and loss patterns:
//!
//! 1. **Recovery latency**: LBRM recovers in about one RTT to the
//!    nearest logger holding the packet; wb delays requests and repairs
//!    proportionally to the RTT to the *source* (≈3×RTT for the last
//!    receiver).
//! 2. **The crying baby**: one receiver behind a bad link loses packet
//!    after packet. Under LBRM its repairs are unicast/site-scoped; under
//!    wb every loss multicasts a request and a repair to the whole
//!    group.

use std::time::Duration;

use lbrm::harness::{DisScenario, DisScenarioConfig, MachineActor, SrmScenario, SrmScenarioConfig};
use lbrm_sim::stats::SegmentClass;
use lbrm_sim::time::SimTime;
use lbrm_sim::topology::SiteParams;
use lbrm_wire::HostId;

use crate::report::{fmt_dur, mean, Table};

/// Result of one crying-baby run.
#[derive(Debug, Clone)]
pub struct BabyOutcome {
    /// Mean recovery latency at the baby.
    pub baby_recovery: Duration,
    /// Repair requests carried by the WAN.
    pub wan_requests: u64,
    /// Repairs carried by the WAN.
    pub wan_repairs: u64,
    /// Overhead packets (requests + repairs) *delivered to innocent
    /// members* — the paper's "all members must contend with" cost.
    pub innocent_overhead: u64,
}

const SENDS: u64 = 8;

fn crash_windows(world_len: &mut Vec<(SimTime, SimTime)>) {
    for i in 0..SENDS {
        let t = SimTime::from_secs(2 + i);
        world_len.push((
            SimTime::from_nanos(t.nanos() - 50_000_000),
            SimTime::from_nanos(t.nanos() + 300_000_000),
        ));
    }
}

/// Drives a world through the crash windows for one victim host.
fn run_with_crashes<W>(world: &mut W, victim: HostId, crash: impl Fn(&mut W, HostId, bool))
where
    W: RunUntil,
{
    let mut windows = Vec::new();
    crash_windows(&mut windows);
    for (start, end) in windows {
        world.run_to(start);
        crash(world, victim, true);
        world.run_to(end);
        crash(world, victim, false);
    }
    world.run_to(SimTime::from_secs(40));
}

/// Minimal world-advancing abstraction over both scenario types.
pub trait RunUntil {
    /// Advances virtual time to `t`.
    fn run_to(&mut self, t: SimTime);
}

impl RunUntil for DisScenario {
    fn run_to(&mut self, t: SimTime) {
        self.world.run_until(t);
    }
}

impl RunUntil for SrmScenario {
    fn run_to(&mut self, t: SimTime) {
        self.world.run_until(t);
    }
}

/// LBRM crying-baby run.
pub fn run_lbrm(sites: usize, receivers: usize, seed: u64) -> BabyOutcome {
    let mut sc = DisScenario::build(DisScenarioConfig {
        sites,
        receivers_per_site: receivers,
        receiver_nack_delay: Duration::from_millis(5),
        site_params: SiteParams::distant(),
        seed,
        ..DisScenarioConfig::default()
    });
    for i in 0..SENDS {
        sc.send_at(SimTime::from_secs(2 + i), format!("update-{i}"));
    }
    let baby = sc.plan.receivers[0][0];
    run_with_crashes(&mut sc, baby, |w, h, down| {
        if down {
            w.world.crash(h)
        } else {
            w.world.revive(h)
        }
    });
    let lat = sc.recovery_latencies(baby);
    let stats = sc.world.stats();
    // Innocent members receive zero recovery traffic under LBRM when
    // repairs are unicast; count any multicast recovery they did see.
    let innocent = stats.class_kind(SegmentClass::Wan, "retrans").carried
        + stats.class_kind(SegmentClass::Wan, "nack").carried;
    BabyOutcome {
        baby_recovery: mean(&lat),
        wan_requests: stats.class_kind(SegmentClass::Wan, "nack").carried,
        wan_repairs: stats.class_kind(SegmentClass::Wan, "retrans").carried,
        innocent_overhead: innocent,
    }
}

/// SRM crying-baby run.
pub fn run_srm(sites: usize, receivers: usize, seed: u64) -> BabyOutcome {
    let mut sc = SrmScenario::build(SrmScenarioConfig {
        sites,
        receivers_per_site: receivers,
        site_params: SiteParams::distant(),
        seed,
    });
    for i in 0..SENDS {
        sc.send_at(SimTime::from_secs(2 + i), format!("update-{i}"));
    }
    let baby = sc.members[0][0];
    run_with_crashes(&mut sc, baby, |w, h, down| {
        if down {
            w.world.crash(h)
        } else {
            w.world.revive(h)
        }
    });
    let lat: Vec<Duration> = {
        let a = sc
            .world
            .actor::<MachineActor<lbrm_core::baseline::srm::SrmMember>>(baby);
        a.notices
            .iter()
            .filter_map(|(_, n)| match n {
                lbrm_core::machine::Notice::Recovered { after, .. } => Some(*after),
                _ => None,
            })
            .collect()
    };
    let stats = sc.world.stats();
    let wan_requests = stats.class_kind(SegmentClass::Wan, "srm-nack").carried;
    let wan_repairs = stats.class_kind(SegmentClass::Wan, "srm-repair").carried;
    // Every multicast request/repair lands on every member's LAN.
    let innocent = stats.class_kind(SegmentClass::Lan, "srm-nack").carried
        + stats.class_kind(SegmentClass::Lan, "srm-repair").carried;
    BabyOutcome {
        baby_recovery: mean(&lat),
        wan_requests,
        wan_repairs,
        innocent_overhead: innocent,
    }
}

/// Runs the experiment.
pub fn run() -> String {
    let (sites, receivers) = (10, 4);
    let lbrm = run_lbrm(sites, receivers, 17);
    let srm = run_srm(sites, receivers, 17);

    let mut out = String::new();
    out.push_str(&format!(
        "§6: LBRM vs wb-style recovery — crying baby behind a bad link\n\
         ({sites} sites x {receivers} members, {SENDS} data packets all lost by the baby)\n\n"
    ));
    let mut t = Table::new(&["metric", "LBRM", "wb-style (SRM)"]);
    t.row(&[
        "baby mean recovery latency".into(),
        fmt_dur(lbrm.baby_recovery),
        fmt_dur(srm.baby_recovery),
    ]);
    t.row(&[
        "repair requests on the WAN".into(),
        format!("{}", lbrm.wan_requests),
        format!("{}", srm.wan_requests),
    ]);
    t.row(&[
        "repairs on the WAN".into(),
        format!("{}", lbrm.wan_repairs),
        format!("{}", srm.wan_repairs),
    ]);
    t.row(&[
        "recovery packets hitting innocents".into(),
        format!("{}", lbrm.innocent_overhead),
        format!("{}", srm.innocent_overhead),
    ]);
    out.push_str(&t.render());
    out.push_str(
        "\nShape (paper): LBRM repairs locally — zero group-wide recovery\n\
         traffic and ~local-RTT latency; wb multicasts a request and at\n\
         least one repair to everyone for every loss, and the requester\n\
         waits timers proportional to the RTT to the source (~3x RTT).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lbrm_confines_recovery_and_is_faster() {
        let lbrm = run_lbrm(4, 3, 2);
        let srm = run_srm(4, 3, 2);
        assert!(lbrm.baby_recovery > Duration::ZERO);
        assert!(srm.baby_recovery > Duration::ZERO);
        // The crying baby's losses stay local under LBRM.
        assert_eq!(lbrm.innocent_overhead, 0, "{lbrm:?}");
        assert!(srm.innocent_overhead > 10, "{srm:?}");
        // And recovery is meaningfully faster than wb's timer-based scheme.
        assert!(
            lbrm.baby_recovery * 2 < srm.baby_recovery,
            "LBRM {:?} vs SRM {:?}",
            lbrm.baby_recovery,
            srm.baby_recovery
        );
    }
}
