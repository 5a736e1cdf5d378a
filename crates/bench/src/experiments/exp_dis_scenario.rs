//! **§2.1.2 DIS scenario** — the headline packet-budget computation:
//! 100,000 dynamic entities and 100,000 terrain entities.
//!
//! Fixed heartbeats at the ¼-second freshness requirement cost 400,000
//! packets/s for terrain alone — 4/5 of the whole simulation's traffic;
//! the variable heartbeat cuts terrain overhead by ~53× at the observed
//! once-per-two-minutes terrain update rate. The analytic budget is
//! cross-checked by simulating a sample of terrain entities and scaling.

use bytes::Bytes;
use lbrm::harness::MachineActor;
use lbrm_core::heartbeat::{analysis, HeartbeatConfig};
use lbrm_core::sender::{Sender, SenderConfig};
use lbrm_sim::stats::SegmentClass;
use lbrm_sim::time::SimTime;
use lbrm_sim::topology::{SiteParams, TopologyBuilder};
use lbrm_sim::world::World;
use lbrm_wire::{GroupId, HostId, SourceId};

use crate::report::Table;

/// Number of entities in the paper's STOW-scale scenario.
pub const DYNAMIC_ENTITIES: u64 = 100_000;
/// Terrain entities.
pub const TERRAIN_ENTITIES: u64 = 100_000;
/// Mean interval between terrain updates (s).
pub const TERRAIN_DT: f64 = 120.0;
/// Dynamic entities send one packet per second on average.
pub const DYNAMIC_RATE: f64 = 1.0;

/// Simulates `n` terrain entities running `heartbeat` for `secs` seconds
/// and returns the measured per-entity heartbeat rate.
pub fn sampled_rate(n: u64, secs: u64, heartbeat: HeartbeatConfig, seed: u64) -> f64 {
    let mut b = TopologyBuilder::new();
    let site = b.site(SiteParams::default());
    let hosts: Vec<HostId> = (0..n).map(|_| b.host(site)).collect();
    let sink = b.host(site);
    let mut world = World::new(b.build(), seed);
    for (i, &h) in hosts.iter().enumerate() {
        let group = GroupId(i as u32 + 1);
        let mut cfg = SenderConfig::new(group, SourceId(i as u64), h, sink);
        cfg.heartbeat = heartbeat;
        let mut actor = MachineActor::new(Sender::new(cfg), vec![]);
        // Each entity updates once, at a staggered time, then idles —
        // the terrain pattern (updates every ~2 min; we observe one
        // inter-update window per entity).
        let at = SimTime::from_millis(500 + (i as u64 * 37) % 1000);
        actor.schedule(at, |s: &mut Sender, now, out| {
            s.send(now, Bytes::from_static(b"terrain"), out);
        });
        world.add_actor(h, actor);
        world.join(sink, group);
    }
    world.run_until(SimTime::from_secs(secs));
    let heartbeats = world
        .stats()
        .class_kind(SegmentClass::Lan, "heartbeat")
        .carried as f64;
    heartbeats / n as f64 / (secs as f64 - 1.0)
}

/// Runs the experiment.
pub fn run() -> String {
    let cfg = HeartbeatConfig::default();
    let fixed_rate = analysis::fixed_rate(TERRAIN_DT, 0.25);
    let var_rate = analysis::variable_rate(TERRAIN_DT, &cfg);
    let fixed_total = fixed_rate * TERRAIN_ENTITIES as f64;
    let var_total = var_rate * TERRAIN_ENTITIES as f64;
    let dynamic_total = DYNAMIC_RATE * DYNAMIC_ENTITIES as f64;

    let mut out = String::new();
    out.push_str(
        "§2.1.2 DIS scenario: 100,000 dynamic + 100,000 terrain entities\n\
         (terrain updates every ~120 s, ¼ s freshness requirement)\n\n",
    );
    let mut t = Table::new(&["traffic class", "pkt/s", "share of total"]);
    let total_fixed = fixed_total + dynamic_total;
    t.row(&[
        "dynamic entities (1 pkt/s each)".into(),
        format!("{dynamic_total:.0}"),
        format!("{:.0}%", 100.0 * dynamic_total / total_fixed),
    ]);
    t.row(&[
        "terrain, FIXED heartbeat".into(),
        format!("{fixed_total:.0}"),
        format!("{:.0}%", 100.0 * fixed_total / total_fixed),
    ]);
    t.row(&[
        "terrain, VARIABLE heartbeat".into(),
        format!("{var_total:.0}"),
        format!(
            "{:.1}% (of fixed-scheme total)",
            100.0 * var_total / total_fixed
        ),
    ]);
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nPaper: fixed heartbeats are 400,000 pkt/s — 4/5 of the 500,000\n\
         pkt/s simulation; the variable scheme cuts terrain heartbeats by\n\
         {:.1}x to ~{:.0} pkt/s.\n",
        fixed_total / var_total,
        var_total
    ));

    // Simulation cross-check on a sample of entities over one window.
    let fixed = HeartbeatConfig {
        backoff: 1.0,
        ..cfg
    };
    let sample_fixed = sampled_rate(40, 120, fixed, 5);
    let sample_var = sampled_rate(40, 120, cfg, 5);
    out.push_str(&format!(
        "\nSimulated sample (40 entities, 120 s window): fixed {:.3} pkt/s/entity,\n\
         variable {:.3} pkt/s/entity → scaled to 100k entities: {:.0} vs {:.0} pkt/s.\n",
        sample_fixed,
        sample_var,
        sample_fixed * TERRAIN_ENTITIES as f64,
        sample_var * TERRAIN_ENTITIES as f64,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_budget_matches_paper() {
        let cfg = HeartbeatConfig::default();
        let fixed_total = analysis::fixed_rate(TERRAIN_DT, 0.25) * TERRAIN_ENTITIES as f64;
        // Paper: ~400,000 pkt/s for terrain under fixed heartbeats.
        assert!((fixed_total - 400_000.0).abs() < 2_000.0, "{fixed_total}");
        let var_total = analysis::variable_rate(TERRAIN_DT, &cfg) * TERRAIN_ENTITIES as f64;
        assert!(var_total < 10_000.0, "{var_total}");
    }

    #[test]
    fn sampled_rates_track_analysis() {
        let var_cfg = HeartbeatConfig::default();
        let fixed_cfg = HeartbeatConfig {
            backoff: 1.0,
            ..var_cfg
        };
        let fixed = sampled_rate(10, 120, fixed_cfg, 1);
        assert!((fixed - 4.0).abs() < 0.5, "fixed sample {fixed}");
        let var = sampled_rate(10, 120, var_cfg, 1);
        assert!(var < 0.2, "variable sample {var}");
    }
}
