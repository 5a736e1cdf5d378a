//! Quickstart: a complete LBRM session in the deterministic simulator.
//!
//! One low-rate source (think: a bridge in a DIS exercise), a primary
//! logging server beside it, and two remote sites — each with a
//! secondary logging server and three receivers. One site's tail
//! circuit drops an update; watch the receivers detect the loss via the
//! variable heartbeat and recover it from their *local* logger, without
//! flooding the WAN.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use std::sync::Arc;
use std::time::Duration;

use lbrm::core::machine::Notice;
use lbrm::core::receiver::Receiver;
use lbrm::harness::{DisScenario, DisScenarioConfig, MachineActor};
use lbrm::sim::loss::LossModel;
use lbrm::sim::time::SimTime;
use lbrm::sim::topology::SiteParams;

fn main() {
    // ---- the group: source site + two receiver sites --------------------
    // The harness places the sender and primary at the source site and a
    // secondary logger plus three receivers at each receiver site;
    // receivers recover from their site's secondary, then the primary.
    let mut sc = DisScenario::build(DisScenarioConfig {
        sites: 2,
        receivers_per_site: 3,
        // Site B's inbound tail circuit is down 4.95 s – 5.25 s: it will
        // lose the second update (sent at t = 5 s).
        site_params_for: Some(Arc::new(|site| match site {
            1 => SiteParams {
                tail_in_loss: LossModel::outage(
                    SimTime::from_millis(4_950),
                    Duration::from_millis(300),
                ),
                ..SiteParams::distant()
            },
            _ => SiteParams::distant(),
        })),
        seed: 2026,
        ..DisScenarioConfig::default()
    });

    // ---- the source: three updates, seconds apart -----------------------
    for (i, at) in [1u64, 5, 9].iter().enumerate() {
        sc.send_at(SimTime::from_secs(*at), format!("terrain-update-{}", i + 1));
    }

    // ---- run -------------------------------------------------------------
    sc.world.run_until(SimTime::from_secs(20));
    let world = &sc.world;

    // ---- report ----------------------------------------------------------
    println!(
        "LBRM quickstart — 1 source, 1 primary logger, 2 sites x (1 secondary + 3 receivers)\n"
    );
    for rx in sc.all_receivers() {
        let a = world.actor::<MachineActor<Receiver>>(rx);
        let site = world.topology().site_of(rx);
        print!("receiver {rx} ({site}): delivered [");
        for (i, (_, d)) in a.deliveries.iter().enumerate() {
            if i > 0 {
                print!(", ");
            }
            print!("#{}{}", d.seq.raw(), if d.recovered { "*" } else { "" });
        }
        println!("]   (* = recovered via logger)");
        for (at, n) in &a.notices {
            match n {
                Notice::LossDetected {
                    first,
                    last,
                    signal,
                } => println!(
                    "    {at}  loss detected: #{}..#{} via {signal:?}",
                    first.raw(),
                    last.raw()
                ),
                Notice::Recovered { seq, after } => {
                    println!("    {at}  recovered #{} after {after:?}", seq.raw())
                }
                _ => {}
            }
        }
    }
    let wan_nacks = world
        .stats()
        .class_kind(lbrm::sim::SegmentClass::Wan, "nack")
        .carried;
    println!(
        "\nNACKs that crossed the WAN: {wan_nacks} — site B's secondary sent one;\n\
         its three receivers all recovered locally (distributed logging at work)."
    );
}
