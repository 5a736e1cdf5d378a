//! One machine, two substrates. The same recording machine runs as
//! `MachineActor`s in a two-host `World` and as `Endpoint`s on a `Hub`;
//! both hold a core `Driver`, so each host must see the same inputs and
//! emit the same actions on either substrate.
//!
//! Host A makes three scripted calls. Each unicasts a `Data` packet to
//! B, which delivers it and replies with a `Data` packet of its own that
//! A delivers. Over the hub, each call is posted only after A delivered
//! the previous reply. Timestamps are dropped, and so are polls that
//! emitted nothing: the endpoint polls on every loop turn, the simulator
//! only when a deadline or a call asks. What is left, each host's
//! ordered `(input, actions)` record, must be equal on both substrates.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use lbrm::core::machine::{Action, Actions, Delivery, Machine, Notice};
use lbrm::core::time::Time;
use lbrm::harness::MachineActor;
use lbrm::net::{Endpoint, EndpointEvent, Hub};
use lbrm::sim::time::SimTime;
use lbrm::sim::topology::{SiteParams, TopologyBuilder};
use lbrm::sim::world::World;
use lbrm::wire::{EpochId, GroupId, HostId, Packet, Seq, SourceId};

const GROUP: GroupId = GroupId(1);
const CALLS: u32 = 3;

/// An input as the machine saw it, without its timestamp.
#[derive(Debug, Clone, PartialEq)]
enum Seen {
    Start,
    Packet { from: HostId, packet: Packet },
    Poll,
    Call(u32),
}

/// One host's inputs in order, each with the actions it emitted.
type Log = Vec<(Seen, Vec<Action>)>;
type Record = Arc<Mutex<Log>>;

/// Writes each input it sees, with the actions that input emitted, to a
/// shared record. A data packet is delivered, and answered with a data
/// packet of the same sequence number when `replies`. Call `n` sends
/// data packet `n` to the peer and leaves its next poll one notice to
/// emit, so "a call is followed by poll" shows in the record too.
struct Recording {
    source: SourceId,
    peer: HostId,
    replies: bool,
    owed: Option<u32>,
    record: Record,
}

impl Recording {
    fn new(source: u64, peer: HostId, replies: bool) -> (Self, Record) {
        let record = Record::default();
        let machine = Recording {
            source: SourceId(source),
            peer,
            replies,
            owed: None,
            record: Arc::clone(&record),
        };
        (machine, record)
    }

    fn note(&self, seen: Seen, emitted: &[Action]) {
        self.record.lock().unwrap().push((seen, emitted.to_vec()));
    }

    fn data(&self, seq: u32) -> Packet {
        Packet::Data {
            group: GROUP,
            source: self.source,
            seq: Seq(seq),
            epoch: EpochId(0),
            payload: Bytes::from(format!("{}:{seq}", self.source.0)),
        }
    }

    fn call(&mut self, n: u32, out: &mut Actions) {
        let before = out.len();
        out.push(Action::Unicast {
            to: self.peer,
            packet: self.data(n),
        });
        self.owed = Some(n);
        self.note(Seen::Call(n), &out[before..]);
    }
}

impl Machine for Recording {
    fn on_start(&mut self, _now: Time, out: &mut Actions) {
        // The whole buffer: the driver queued the start-up joins first.
        self.note(Seen::Start, out);
    }

    fn on_packet(&mut self, _now: Time, from: HostId, packet: Packet, out: &mut Actions) {
        let before = out.len();
        if let Packet::Data { seq, payload, .. } = &packet {
            out.push(Action::Deliver(Delivery {
                seq: *seq,
                payload: payload.clone(),
                recovered: false,
            }));
            if self.replies {
                out.push(Action::Unicast {
                    to: from,
                    packet: self.data(seq.raw()),
                });
            }
        }
        self.note(Seen::Packet { from, packet }, &out[before..]);
    }

    fn poll(&mut self, _now: Time, out: &mut Actions) {
        if let Some(n) = self.owed.take() {
            let before = out.len();
            out.push(Action::Notice(Notice::BufferReleased { up_to: Seq(n) }));
            self.note(Seen::Poll, &out[before..]);
        }
    }

    fn next_deadline(&self) -> Option<Time> {
        None
    }
}

fn taken(record: &Record) -> Log {
    std::mem::take(&mut *record.lock().unwrap())
}

/// Runs the exchange in a two-host world; returns the host ids and
/// their records.
fn in_the_simulator() -> ([HostId; 2], [Log; 2]) {
    let mut b = TopologyBuilder::new();
    let site = b.site(SiteParams::default());
    let (a, bh) = (b.host(site), b.host(site));
    let mut world = World::new(b.build(), 1);
    let (ma, ra) = Recording::new(1, bh, false);
    let (mb, rb) = Recording::new(2, a, true);
    let mut actor = MachineActor::new(ma, vec![GROUP]);
    for n in 1..=CALLS {
        actor.schedule(
            SimTime::from_secs(n.into()),
            move |m: &mut Recording, _, out| m.call(n, out),
        );
    }
    world.add_actor(a, actor);
    world.add_actor(bh, MachineActor::new(mb, vec![GROUP]));
    world.run_until(SimTime::from_secs(10));
    ([a, bh], [taken(&ra), taken(&rb)])
}

/// Runs the same exchange as endpoints on a hub.
fn on_the_hub([a, b]: [HostId; 2]) -> [Log; 2] {
    let hub = Hub::new();
    let (ma, ra) = Recording::new(1, b, false);
    let (mb, rb) = Recording::new(2, a, true);
    let (ep, mut handle_a) = Endpoint::new(ma, hub.attach(a), vec![GROUP]);
    let task_a = ep.spawn();
    let (ep, handle_b) = Endpoint::new(mb, hub.attach(b), vec![GROUP]);
    let task_b = ep.spawn();
    for n in 1..=CALLS {
        handle_a
            .call(move |m: &mut Recording, _, out| m.call(n, out))
            .unwrap();
        loop {
            match handle_a.event_timeout(Duration::from_secs(5)) {
                Some(EndpointEvent::Delivery(d)) => {
                    assert_eq!(d.seq, Seq(n), "B's reply to call {n}");
                    break;
                }
                Some(EndpointEvent::Notice(_)) => {}
                None => panic!("no reply to call {n}"),
            }
        }
    }
    drop((handle_a, handle_b));
    for task in [task_a, task_b] {
        task.join().unwrap().unwrap();
    }
    [taken(&ra), taken(&rb)]
}

#[test]
fn one_machine_records_the_same_inputs_and_actions_on_both_substrates() {
    let (hosts, sim) = in_the_simulator();
    let hub = on_the_hub(hosts);
    let [a, b] = &sim;
    assert_eq!(a.len(), 1 + 3 * CALLS as usize, "{a:#?}");
    assert_eq!(b.len(), 1 + CALLS as usize, "{b:#?}");
    assert_eq!(a[0], (Seen::Start, vec![Action::Join(GROUP)]));
    for (host, (sim, hub)) in hosts.iter().zip(sim.iter().zip(&hub)) {
        assert_eq!(sim, hub, "host {host}");
    }
}
