//! DIS dynamic terrain (§1): the destroyed bridge.
//!
//! A bridge entity is static for a long time, then destroyed mid-
//! exercise. Tank simulators at three sites keep a [`TerrainView`]; one
//! site is behind a congested tail circuit and misses the destruction
//! update. The variable heartbeat reveals the loss within a fraction of
//! a second, the site's secondary logger repairs it, and no tank drives
//! onto the dead bridge.
//!
//! ```sh
//! cargo run --example terrain_dis
//! ```

use std::sync::Arc;
use std::time::Duration;

use lbrm::apps::terrain::{EntityState, TerrainEntity, TerrainView};
use lbrm::core::receiver::Receiver;
use lbrm::core::sender::Sender;
use lbrm::harness::{call_at, DisScenario, DisScenarioConfig, MachineActor};
use lbrm::sim::loss::LossModel;
use lbrm::sim::time::SimTime;
use lbrm::sim::topology::SiteParams;
use lbrm::sim::world::World;
use lbrm::wire::HostId;

const BRIDGE: u64 = 4242;

fn main() {
    // Three sites, each with a secondary logger and one tank.
    let mut sc = DisScenario::build(DisScenarioConfig {
        sites: 3,
        receivers_per_site: 1,
        // Site 1 is congested exactly when the bridge blows up.
        site_params_for: Some(Arc::new(|site| match site {
            1 => SiteParams {
                tail_in_loss: LossModel::outage(
                    SimTime::from_millis(59_900),
                    Duration::from_millis(400),
                ),
                ..SiteParams::distant()
            },
            _ => SiteParams::distant(),
        })),
        ..DisScenarioConfig::default()
    });
    let tanks = sc.all_receivers();

    // The bridge: intact at t = 10 s (initial announcement), destroyed
    // at t = 60 s.
    for (at, state) in [(10, EntityState::Intact), (60, EntityState::Destroyed)] {
        call_at(
            &mut sc.world,
            sc.plan.src_host,
            SimTime::from_secs(at),
            move |s: &mut Sender, now, out| {
                TerrainEntity::new(BRIDGE).transition(s, now, state, out);
            },
        );
    }
    let world = &mut sc.world;

    // Probe each tank's view as the exercise unfolds.
    let mut report = Vec::new();
    for probe_at in [30u64, 61, 62, 75] {
        world.run_until(SimTime::from_secs(probe_at));
        let mut row = format!("t = {probe_at:>3} s:");
        for (i, &tank) in tanks.iter().enumerate() {
            let view = tank_view(world, tank);
            let passable = view.passable(BRIDGE);
            row.push_str(&format!(
                "  site{} tank: {:<9} cross? {}",
                i,
                format!("{:?}", view.state(BRIDGE).unwrap_or(EntityState::Intact)),
                if passable { "yes" } else { "NO " }
            ));
        }
        report.push(row);
    }

    println!("DIS dynamic terrain: the bridge at entity id {BRIDGE}\n");
    println!("(bridge destroyed at t = 60 s; site1's tail circuit congested 59.9–60.3 s)\n");
    for r in report {
        println!("{r}");
    }

    // How did site1's tank learn the truth?
    let a = world.actor::<MachineActor<Receiver>>(tanks[1]);
    println!("\nsite1 tank event log:");
    for (at, n) in &a.notices {
        println!("  {at}  {n:?}");
    }
    let recovered = a.deliveries.iter().filter(|(_, d)| d.recovered).count();
    println!(
        "\nsite1 recovered {recovered} update(s) from its local logging server —\n\
         no tank ever decided to cross a destroyed bridge."
    );
}

/// Rebuilds a tank's terrain view from its delivery/notice log.
fn tank_view(world: &World, tank: HostId) -> TerrainView {
    let a = world.actor::<MachineActor<Receiver>>(tank);
    let mut view = TerrainView::new();
    view.load(BRIDGE);
    for (_, d) in &a.deliveries {
        view.on_delivery(d);
    }
    // Replay freshness state up to now.
    for (_, n) in &a.notices {
        view.on_notice(n);
    }
    view
}
