//! **Figure 4** — Fixed and variable heartbeat overhead rates as a
//! function of the inter-data-packet interval `dt`
//! (`h_min = 0.25 s`, `h_max = 32 s`, backoff = 2).
//!
//! Closed-form schedule counts, cross-checked against packets actually
//! emitted by a [`Sender`] running in the simulator.

use bytes::Bytes;
use lbrm::harness::MachineActor;
use lbrm_core::heartbeat::{analysis, HeartbeatConfig};
use lbrm_core::sender::{Sender, SenderConfig};
use lbrm_sim::stats::SegmentClass;
use lbrm_sim::time::SimTime;
use lbrm_sim::topology::{SiteParams, TopologyBuilder};
use lbrm_sim::world::World;
use lbrm_wire::{GroupId, SourceId};

use crate::report::Table;

/// Counts heartbeats a simulated sender running `cfg` emits with data
/// every `dt` seconds over `n_intervals` intervals; returns the
/// per-interval rate. `backoff: 1.0` is the fixed baseline.
pub fn simulated_rate(dt: f64, cfg: HeartbeatConfig) -> f64 {
    let mut b = TopologyBuilder::new();
    let site = b.site(SiteParams::default());
    let src = b.host(site);
    let log = b.host(site);
    let rx = b.host(site);
    let mut world = World::new(b.build(), 4);
    let mut sender_cfg = SenderConfig::new(GroupId(1), SourceId(1), src, log);
    sender_cfg.heartbeat = cfg;
    let mut actor = MachineActor::new(Sender::new(sender_cfg), vec![]);
    let n_intervals = 8u64.max((200.0 / dt) as u64).min(200);
    for i in 0..=n_intervals {
        let at = SimTime::from_secs_f64(1.0 + i as f64 * dt);
        actor.schedule(at, |s: &mut Sender, now, out| {
            s.send(now, Bytes::from_static(b"x"), out);
        });
    }
    world.add_actor(src, actor);
    // A silent member so multicast traffic crosses the (lossless) LAN and
    // is counted; the logger host absorbs unicast handoffs.
    world.join(rx, GroupId(1));
    world.join(log, GroupId(1));
    world.run_until(SimTime::from_secs_f64(1.0 + n_intervals as f64 * dt));
    let heartbeats = world
        .stats()
        .class_kind(SegmentClass::Lan, "heartbeat")
        .carried as f64;
    // Each multicast reaches two LAN members → two LAN crossings per send.
    heartbeats / 2.0 / (n_intervals as f64 * dt)
}

/// Runs the experiment and renders the Figure-4 series.
pub fn run() -> String {
    let cfg = HeartbeatConfig::default();
    let mut out = String::new();
    out.push_str("Figure 4: heartbeat overhead rate vs inter-data interval dt\n");
    out.push_str("(h_min = 0.25 s, h_max = 32 s, backoff = 2)\n\n");
    let mut t = Table::new(&[
        "dt (s)",
        "fixed (pkt/s)",
        "variable (pkt/s)",
        "sim variable (pkt/s)",
    ]);
    let dts = vec![
        0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 1000.0,
    ];
    // Each dt point is an independent simulation; sweep them in parallel
    // and render rows serially so the report is byte-identical either way.
    let rows = crate::parallel::par_map(dts, |dt| {
        let fixed = analysis::fixed_rate(dt, 0.25);
        let variable = analysis::variable_rate(dt, &cfg);
        let sim = simulated_rate(dt, cfg);
        (dt, fixed, variable, sim)
    });
    for (dt, fixed, variable, sim) in rows {
        t.row(&[
            format!("{dt}"),
            format!("{fixed:.4}"),
            format!("{variable:.4}"),
            format!("{sim:.4}"),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nAsymptotes: fixed → 1/h_min = {:.3}/s, variable → 1/h_max = {:.5}/s\n",
        4.0,
        1.0 / 32.0
    ));
    out.push_str("Paper shape: fixed stays ≈4 pkt/s as dt grows; variable falls toward 1/h_max.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_agrees_with_analysis_at_dt_120() {
        let cfg = HeartbeatConfig::default();
        let analytic = analysis::variable_rate(120.0, &cfg);
        let sim = simulated_rate(120.0, cfg);
        let rel = (sim - analytic).abs() / analytic;
        assert!(rel < 0.15, "sim {sim} vs analytic {analytic}");
    }

    #[test]
    fn fixed_sim_rate_near_4_per_sec() {
        let cfg = HeartbeatConfig {
            backoff: 1.0,
            ..HeartbeatConfig::default()
        };
        let sim = simulated_rate(60.0, cfg);
        assert!((sim - 4.0).abs() < 0.2, "{sim}");
    }

    #[test]
    fn report_renders() {
        let r = run();
        assert!(r.contains("Figure 4"));
        assert!(r.contains("120"));
    }
}
