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

use std::time::Duration;

use lbrm::apps::terrain::{EntityState, TerrainEntity, TerrainView};
use lbrm::core::logger::{Logger, LoggerConfig};
use lbrm::core::receiver::{Receiver, ReceiverConfig};
use lbrm::core::sender::{Sender, SenderConfig};
use lbrm::harness::MachineActor;
use lbrm::sim::loss::LossModel;
use lbrm::sim::time::SimTime;
use lbrm::sim::topology::{SiteParams, TopologyBuilder};
use lbrm::sim::world::World;
use lbrm::wire::{GroupId, HostId, SourceId};

const BRIDGE: u64 = 4242;

fn main() {
    let group = GroupId(7);
    let source = SourceId(BRIDGE);

    let mut b = TopologyBuilder::new();
    let hq = b.site(SiteParams::distant());
    let src_host = b.host(hq);
    let primary = b.host(hq);

    let mut sites = Vec::new();
    for i in 0..3 {
        let params = if i == 1 {
            // Site 1 is congested exactly when the bridge blows up.
            SiteParams {
                tail_in_loss: LossModel::outage(
                    SimTime::from_millis(59_900),
                    Duration::from_millis(400),
                ),
                ..SiteParams::distant()
            }
        } else {
            SiteParams::distant()
        };
        let site = b.site(params);
        let sec = b.host(site);
        let tank = b.host(site);
        sites.push((site, sec, tank));
    }
    let mut world = World::new(b.build(), 1995);

    world.add_actor(
        primary,
        MachineActor::new(
            Logger::new(LoggerConfig::primary(group, source, primary, src_host)),
            vec![group],
        ),
    );
    for &(_, sec, tank) in &sites {
        world.add_actor(
            sec,
            MachineActor::new(
                Logger::new(LoggerConfig::secondary(
                    group, source, sec, primary, src_host,
                )),
                vec![group],
            ),
        );
        world.add_actor(
            tank,
            MachineActor::new(
                Receiver::new(ReceiverConfig::new(
                    group,
                    source,
                    tank,
                    src_host,
                    vec![sec, primary],
                )),
                vec![group],
            ),
        );
    }

    // The bridge: intact at t = 10 s (initial announcement), destroyed
    // at t = 60 s.
    let mut sender = MachineActor::new(
        Sender::new(SenderConfig::new(group, source, src_host, primary)),
        vec![],
    );
    sender.schedule(SimTime::from_secs(10), |s: &mut Sender, now, out| {
        let mut bridge = TerrainEntity::new(BRIDGE);
        bridge.transition(s, now, EntityState::Intact, out);
    });
    sender.schedule(SimTime::from_secs(60), |s: &mut Sender, now, out| {
        let mut bridge = TerrainEntity::new(BRIDGE);
        bridge.transition(s, now, EntityState::Destroyed, out);
    });
    world.add_actor(src_host, sender);

    // Probe each tank's view as the exercise unfolds.
    let mut report = Vec::new();
    for probe_at in [30u64, 61, 62, 75] {
        world.run_until(SimTime::from_secs(probe_at));
        let mut row = format!("t = {probe_at:>3} s:");
        for (i, &(_, _, tank)) in sites.iter().enumerate() {
            let view = tank_view(&world, tank);
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
    let (_, _, tank1) = sites[1];
    let a = world.actor::<MachineActor<Receiver>>(tank1);
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
