//! The [`MachineActor`] adapter: any [`lbrm_core::Machine`] becomes an
//! [`lbrm_sim::Actor`].
//!
//! The machine lives in a [`Driver`]; the adapter only translates:
//!
//! * simulator start / packets / timers / scripted calls → driver
//!   [`Input`]s,
//! * drained [`Action`]s → simulator sends, joins, and local logs,
//! * [`Machine::next_deadline`] → a simulator poll timer, armed after
//!   every event when the deadline moved earlier or the armed one has
//!   passed. An armed timer is never cancelled, so one whose deadline
//!   has since moved later still fires: the driver then sees nothing
//!   due and skips the machine (see [`Input::Timer`]).
//!
//! Deliveries and notices are accumulated with their virtual timestamps
//! so experiments can mine them after the run. Application behaviour
//! (e.g. "publish a terrain update at t = 10 s") is injected with
//! [`MachineActor::schedule`]. What the machines send is counted once,
//! by the simulator's wire statistics.

use lbrm_core::machine::{Action, Actions, Call, Delivery, Driver, Input, Machine, Notice};
use lbrm_core::time::Time;
use lbrm_sim::time::SimTime;
use lbrm_sim::world::{Actor, Ctx};
use lbrm_wire::{GroupId, HostId, Packet};

/// Schedules an application call against the machine on `host` at `at`,
/// whether or not the world has started (double arming is harmless: the
/// call slot is consumed exactly once).
pub fn call_at<M: Machine + Send + 'static>(
    world: &mut lbrm_sim::world::World,
    host: HostId,
    at: SimTime,
    call: impl FnOnce(&mut M, Time, &mut Actions) + Send + 'static,
) {
    let token = world.actor_mut::<MachineActor<M>>(host).schedule(at, call);
    world.schedule_timer(host, at, token);
}

const POLL_TOKEN: u64 = 0;

/// Wraps a protocol machine as a simulator actor.
pub struct MachineActor<M: Machine> {
    driver: Driver<M>,
    /// Scheduled application calls, by firing time. Token = index + 1.
    script: Vec<(SimTime, Option<Call<M>>)>,
    /// Earliest armed poll timer, to avoid flooding the queue.
    armed: Option<Time>,
    /// Deliveries observed, with arrival time.
    pub deliveries: Vec<(SimTime, Delivery)>,
    /// Notices observed, with emission time.
    pub notices: Vec<(SimTime, Notice)>,
}

impl<M: Machine + 'static> MachineActor<M> {
    /// Wraps `machine`, joining `groups` when the simulation starts.
    pub fn new(machine: M, groups: Vec<GroupId>) -> Self {
        MachineActor {
            driver: Driver::new(machine, groups),
            script: Vec::new(),
            armed: None,
            deliveries: Vec::new(),
            notices: Vec::new(),
        }
    }

    /// Schedules an application call at virtual time `at`; returns the
    /// timer token backing it. Before the world starts this is all you
    /// need (the actor arms its script at `on_start`); once the world is
    /// running, also arm the token via
    /// [`World::schedule_timer`](lbrm_sim::world::World::schedule_timer)
    /// — or use [`call_at`], which does both.
    pub fn schedule(
        &mut self,
        at: SimTime,
        call: impl FnOnce(&mut M, Time, &mut Actions) + Send + 'static,
    ) -> u64 {
        self.script.push((at, Some(Box::new(call))));
        self.script.len() as u64
    }

    /// Installs a protocol-event tracer on the wrapped machine (a no-op
    /// for machines that don't emit [`lbrm_core::trace::ProtocolEvent`]s).
    pub fn set_tracer(&mut self, tracer: lbrm_core::trace::Tracer) {
        self.driver.machine_mut().set_tracer(tracer);
    }

    /// The wrapped machine.
    pub fn machine(&self) -> &M {
        self.driver.machine()
    }

    /// Feeds `input` to the driver, carries out what it drains in
    /// order, and re-arms the poll timer.
    #[inline(always)]
    fn run(&mut self, ctx: &mut Ctx<'_>, input: Input<M>) {
        let now = ctx.now();
        self.driver.input(now, input);
        for action in self.driver.drain() {
            match action {
                Action::Unicast { to, packet } => ctx.send_unicast(to, packet),
                Action::Multicast { scope, packet } => ctx.send_multicast(scope, packet),
                Action::Deliver(d) => self.deliveries.push((now, d)),
                Action::Notice(n) => self.notices.push((now, n)),
                Action::Join(g) => ctx.join(g),
            }
        }
        if let Some(d) = self.driver.machine().next_deadline() {
            if self.armed.is_none_or(|a| d < a || a <= now) {
                self.armed = Some(d);
                ctx.set_timer_at(d, POLL_TOKEN);
            }
        }
    }
}

impl<M: Machine + Send + 'static> Actor for MachineActor<M> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, (at, _)) in self.script.iter().enumerate() {
            ctx.set_timer_at(*at, i as u64 + 1);
        }
        self.run(ctx, Input::Start);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: HostId, packet: Packet) {
        self.run(ctx, Input::Packet { from, packet });
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let input = if token == POLL_TOKEN {
            if self.armed.is_some_and(|a| a <= ctx.now()) {
                self.armed = None;
            }
            Input::Timer
        } else {
            let slot = self.script.get_mut((token - 1) as usize);
            match slot.and_then(|(_, call)| call.take()) {
                Some(call) => Input::Call(call),
                None => Input::Timer,
            }
        };
        self.run(ctx, input);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use lbrm_core::logger::{Logger, LoggerConfig};
    use lbrm_core::receiver::{Receiver, ReceiverConfig};
    use lbrm_core::sender::{Sender, SenderConfig};
    use lbrm_sim::stats::SegmentClass;
    use lbrm_sim::topology::{SiteParams, TopologyBuilder};
    use lbrm_sim::world::World;
    use lbrm_wire::{GroupId, SourceId};

    const GROUP: GroupId = GroupId(1);
    const SRC: SourceId = SourceId(1);

    /// Lossless end-to-end smoke test: sender → primary logger →
    /// receiver, three data packets plus heartbeats, everything
    /// delivered, buffer fully released.
    #[test]
    fn end_to_end_lossless() {
        let mut b = TopologyBuilder::new();
        let s0 = b.site(SiteParams::default());
        let s1 = b.site(SiteParams::default());
        let src_host = b.host(s0);
        let log_host = b.host(s0);
        let rx_host = b.host(s1);
        let mut world = World::new(b.build(), 42);

        let mut sender = MachineActor::new(
            Sender::new(SenderConfig::new(GROUP, SRC, src_host, log_host)),
            vec![],
        );
        for i in 0..3u64 {
            sender.schedule(
                SimTime::from_secs(1 + i),
                move |s: &mut Sender, now, out| {
                    s.send(now, Bytes::from(format!("update-{i}")), out);
                },
            );
        }
        world.add_actor(src_host, sender);
        world.add_actor(
            log_host,
            MachineActor::new(
                Logger::new(LoggerConfig::primary(GROUP, SRC, log_host, src_host)),
                vec![GROUP],
            ),
        );
        world.add_actor(
            rx_host,
            MachineActor::new(
                Receiver::new(ReceiverConfig::new(
                    GROUP,
                    SRC,
                    rx_host,
                    src_host,
                    vec![log_host],
                )),
                vec![GROUP],
            ),
        );

        world.run_until(SimTime::from_secs(10));

        let rx = world.actor::<MachineActor<Receiver>>(rx_host);
        let seqs: Vec<u32> = rx.deliveries.iter().map(|(_, d)| d.seq.raw()).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert!(rx.deliveries.iter().all(|(_, d)| !d.recovered));

        let tx = world.actor::<MachineActor<Sender>>(src_host);
        assert_eq!(
            tx.machine().buffered(),
            0,
            "log acks must release the buffer"
        );

        let log = world.actor::<MachineActor<Logger>>(log_host);
        assert_eq!(log.machine().log_len(), 3);
    }

    /// Answers its first packet with a delivery and a notice, and every
    /// later one with nothing.
    #[derive(Default)]
    struct FirstOnly {
        seen: u32,
    }

    impl Machine for FirstOnly {
        fn on_packet(&mut self, _now: Time, _from: HostId, packet: Packet, out: &mut Actions) {
            self.seen += 1;
            if self.seen > 1 {
                return;
            }
            if let Packet::Data { seq, payload, .. } = packet {
                out.push(Action::Deliver(Delivery {
                    seq,
                    payload,
                    recovered: false,
                }));
            }
            out.push(Action::Notice(Notice::DiscoveryFailed));
        }
        fn poll(&mut self, _now: Time, _out: &mut Actions) {}
        fn next_deadline(&self) -> Option<Time> {
            None
        }
    }

    /// The reused action buffer is drained by every call: a call that
    /// emits nothing does not replay the previous call's actions.
    #[test]
    fn a_silent_call_replays_no_earlier_actions() {
        let mut b = TopologyBuilder::new();
        let s0 = b.site(SiteParams::default());
        let tx_host = b.host(s0);
        let rx_host = b.host(s0);
        let mut world = World::new(b.build(), 3);
        let mut tx = MachineActor::new(FirstOnly::default(), vec![]);
        for seq in 1..=2u32 {
            tx.schedule(SimTime::from_secs(seq.into()), move |_, _, out| {
                out.push(Action::Unicast {
                    to: rx_host,
                    packet: Packet::Data {
                        group: GROUP,
                        source: SRC,
                        seq: lbrm_wire::Seq(seq),
                        epoch: lbrm_wire::EpochId(0),
                        payload: Bytes::from_static(b"x"),
                    },
                });
            });
        }
        world.add_actor(tx_host, tx);
        world.add_actor(rx_host, MachineActor::new(FirstOnly::default(), vec![]));

        world.run_until(SimTime::from_millis(1500));
        let rx = world.actor::<MachineActor<FirstOnly>>(rx_host);
        let (deliveries, notices) = (rx.deliveries.clone(), rx.notices.clone());
        assert_eq!((deliveries.len(), notices.len()), (1, 1));

        world.run_until(SimTime::from_secs(10));
        let rx = world.actor::<MachineActor<FirstOnly>>(rx_host);
        assert_eq!(rx.machine().seen, 2, "the second packet arrived");
        assert_eq!(rx.deliveries, deliveries);
        assert_eq!(rx.notices, notices);

        // Both data sends crossed the shared LAN once, and nothing left
        // the site.
        let stats = world.stats();
        assert_eq!(stats.class_kind(SegmentClass::Lan, "data").carried, 2);
        assert_eq!(stats.class_total(SegmentClass::TailOut).carried, 0);
    }

    /// A receiver that loses a packet (site outage) recovers it from the
    /// logger within a local round trip.
    #[test]
    fn end_to_end_recovery_after_site_outage() {
        let mut b = TopologyBuilder::new();
        let s0 = b.site(SiteParams::default());
        // Receiver site suffers an inbound outage covering the second
        // data packet.
        let s1 = b.site(SiteParams {
            tail_in_loss: lbrm_sim::LossModel::outage(
                SimTime::from_millis(1900),
                std::time::Duration::from_millis(200),
            ),
            ..SiteParams::default()
        });
        let src_host = b.host(s0);
        let log_host = b.host(s0);
        let rx_host = b.host(s1);
        let mut world = World::new(b.build(), 7);

        let mut sender = MachineActor::new(
            Sender::new(SenderConfig::new(GROUP, SRC, src_host, log_host)),
            vec![],
        );
        for i in 0..3u64 {
            sender.schedule(
                SimTime::from_secs(1 + i),
                move |s: &mut Sender, now, out| {
                    s.send(now, Bytes::from(format!("update-{i}")), out);
                },
            );
        }
        world.add_actor(src_host, sender);
        world.add_actor(
            log_host,
            MachineActor::new(
                Logger::new(LoggerConfig::primary(GROUP, SRC, log_host, src_host)),
                vec![GROUP],
            ),
        );
        world.add_actor(
            rx_host,
            MachineActor::new(
                Receiver::new(ReceiverConfig::new(
                    GROUP,
                    SRC,
                    rx_host,
                    src_host,
                    vec![log_host],
                )),
                vec![GROUP],
            ),
        );

        world.run_until(SimTime::from_secs(10));

        let rx = world.actor::<MachineActor<Receiver>>(rx_host);
        let mut seqs: Vec<u32> = rx.deliveries.iter().map(|(_, d)| d.seq.raw()).collect();
        seqs.sort();
        assert_eq!(seqs, vec![1, 2, 3], "all packets delivered, one recovered");
        assert_eq!(rx.machine().stats().recovered, 1);
        // Recovery notice carries a sane latency (gap detected at the
        // next data packet, then NACK → logger → retransmission).
        let recovered = rx
            .notices
            .iter()
            .find_map(|(_, n)| match n {
                Notice::Recovered { after, .. } => Some(*after),
                _ => None,
            })
            .expect("recovery notice");
        assert!(
            recovered < std::time::Duration::from_millis(500),
            "{recovered:?}"
        );
    }
}
