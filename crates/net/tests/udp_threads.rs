//! A UDP endpoint is one thread: the one `Endpoint::spawn` starts. The
//! transport under it starts none.
//!
//! This file holds a single test on purpose: it counts the threads of
//! its own process, so it must not share that process with sibling
//! tests coming and going.

use std::net::Ipv4Addr;

use lbrm_core::machine::{Actions, Machine};
use lbrm_core::time::Time;
use lbrm_net::{Endpoint, GroupMap, Transport, UdpTransport};
use lbrm_wire::{GroupId, HostId, Packet};

const GROUP: GroupId = GroupId(7);

/// A machine with nothing to do: its endpoint just waits.
struct Idle;

impl Machine for Idle {
    fn on_packet(&mut self, _: Time, _: HostId, _: Packet, _: &mut Actions) {}
    fn poll(&mut self, _: Time, _: &mut Actions) {}
    fn next_deadline(&self) -> Option<Time> {
        None
    }
}

fn threads() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/task").ok()?.count())
}

#[test]
fn four_udp_endpoints_are_four_threads() {
    let Some(before) = threads() else {
        eprintln!("skipping: no /proc/self/task here");
        return;
    };
    let mut running = Vec::new();
    for _ in 0..4 {
        let joined = UdpTransport::bind(Ipv4Addr::LOCALHOST, GroupMap::new(49_449))
            .and_then(|mut t| t.join(GROUP).map(|()| t));
        let transport = match joined {
            Ok(t) => t,
            Err(e) => {
                eprintln!("skipping: UDP multicast unavailable: {e}");
                return;
            }
        };
        let (endpoint, handle) = Endpoint::new(Idle, transport, vec![GROUP]);
        running.push((endpoint.spawn(), handle));
    }
    assert_eq!(threads(), Some(before + 4), "one thread per endpoint");

    for (task, handle) in running {
        drop(handle);
        task.join().unwrap().unwrap();
    }
    // A joined thread can linger in /proc for a moment while the kernel
    // reaps it.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while threads() != Some(before) && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(threads(), Some(before), "and none left behind");
}
