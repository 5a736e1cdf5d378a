//! LBRM over real UDP multicast on the loopback interface.
//!
//! Three processes-worth of endpoints in one binary: a sender, a primary
//! logging server, and a receiver, each with its own sockets, exchanging
//! genuine multicast datagrams on `239.195.0.1`. Environments without
//! multicast support print a note and exit cleanly.
//!
//! ```sh
//! cargo run --example udp_multicast
//! ```

use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lbrm::core::sender::Sender;
use lbrm::core::trace::Tracer;
use lbrm::harness::{DisScenario, DisScenarioConfig, GroupPlan};
use lbrm::net::{addr_of, EndpointEvent, GroupMap, Transport, UdpTransport};

fn main() {
    let port = 49_195;
    let mut transports = Vec::new();
    for _ in 0..3 {
        match UdpTransport::bind(Ipv4Addr::LOCALHOST, GroupMap::new(port)) {
            Ok(t) => transports.push(t),
            Err(e) => {
                return println!("UDP unavailable here ({e}); try `cargo run --example quickstart`")
            }
        }
    }
    let group = DisScenario::GROUP;
    if let Err(e) = transports[0]
        .join(group)
        .and_then(|()| transports[0].leave(group))
    {
        return println!("multicast join failed ({e}); try `cargo run --example quickstart`");
    }

    // One sender, one primary logger and one receiver, placed on the
    // sockets' addresses.
    let config = DisScenarioConfig {
        sites: 1,
        receivers_per_site: 1,
        secondary_loggers: false,
        ..DisScenarioConfig::default()
    };
    let mut hosts = transports.iter().map(Transport::local_host);
    let plan = GroupPlan::place(&config, |_| hosts.next().expect("three sockets"));
    println!("sender   at {}", addr_of(plan.src_host));
    println!("logger   at {}", addr_of(plan.primary));
    println!("receiver at {}", addr_of(plan.receivers[0][0]));
    println!("group    at 239.195.0.1:{port}\n");

    let mut endpoints = plan.spawn(
        |role| {
            let at = transports
                .iter()
                .position(|t| t.local_host() == role.host());
            transports.swap_remove(at.expect("a socket per host"))
        },
        |_| Tracer::disabled(),
        Instant::now(),
    );
    let (sender, receiver) = (&endpoints.sender, &mut endpoints.receivers[0].1);

    std::thread::sleep(Duration::from_millis(100));
    for (i, text) in [
        "the bridge stands",
        "the bridge is DESTROYED",
        "rubble cleared",
    ]
    .iter()
    .enumerate()
    {
        let payload = Bytes::from(text.to_string());
        sender
            .call(move |s: &mut Sender, now, out| s.send(now, payload.clone(), out))
            .expect("sender endpoint");
        println!("published #{}: {text}", i + 1);
        std::thread::sleep(Duration::from_millis(300));
    }

    let mut got = 0;
    while got < 3 {
        match receiver.event_timeout(Duration::from_secs(5)) {
            Some(EndpointEvent::Delivery(d)) => {
                got += 1;
                println!(
                    "received  #{} ({}): {}",
                    d.seq.raw(),
                    if d.recovered {
                        "recovered"
                    } else {
                        "multicast"
                    },
                    String::from_utf8_lossy(&d.payload)
                );
            }
            Some(EndpointEvent::Notice(n)) => println!("notice: {n:?}"),
            None => {
                println!("(no more events — multicast routing may be restricted here)");
                break;
            }
        }
    }
    println!("\ndone: real UDP multicast with LBRM sequencing, heartbeats and logging.");
}
