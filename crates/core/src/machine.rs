//! The sans-IO machine interface.
//!
//! Every LBRM protocol entity (sender, receiver, logging server,
//! discovery client, SRM baseline member) implements [`Machine`]: a pure
//! state machine that consumes packets and clock readings and emits
//! [`Action`]s.
//!
//! A [`Driver`] is the one place that calls a machine. A substrate
//! translates what happens to it into [`Input`]s — start-up, an arriving
//! packet, a passed deadline, an application [`Call`] — and executes
//! the actions the driver drains (send, deliver, log). The simulator
//! adapter (virtual time, experiments) and the `lbrm-net` endpoint (one
//! thread + UDP, deployment) are two such substrates over the same
//! driver, and unit tests drive machines directly with hand-crafted
//! packet sequences.
//!
//! Machines never block, never sleep and never touch sockets.

use bytes::Bytes;

use lbrm_wire::{EpochId, GroupId, HostId, Packet, Seq, TtlScope};

use crate::time::Time;

/// A packet delivered to the receiving application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Data sequence number.
    pub seq: Seq,
    /// Application payload.
    pub payload: Bytes,
    /// `true` when the packet arrived via recovery (retransmission)
    /// rather than the original multicast.
    pub recovered: bool,
}

/// How a receiver noticed a loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossSignal {
    /// A gap appeared in the data sequence numbers.
    SeqGap,
    /// A heartbeat repeated a sequence number ahead of what we hold.
    Heartbeat,
    /// Nothing arrived for MaxIT.
    IdleTimeout,
}

/// Protocol events surfaced to the embedding application or harness.
///
/// Notices are informational: drivers may ignore them, log them, or (as
/// the experiment harness does) turn them into measurements.
#[derive(Debug, Clone, PartialEq)]
pub enum Notice {
    /// A receiver detected loss of `[first, last]`.
    LossDetected {
        /// First missing sequence.
        first: Seq,
        /// Last missing sequence (inclusive).
        last: Seq,
        /// Which mechanism noticed.
        signal: LossSignal,
    },
    /// A receiver recovered sequence `seq`, `after` the loss was detected.
    Recovered {
        /// The recovered sequence number.
        seq: Seq,
        /// Time from loss detection to recovery.
        after: std::time::Duration,
    },
    /// Nothing has been received for MaxIT: state freshness is no longer
    /// guaranteed (§2). The application may e.g. invalidate caches.
    FreshnessLost,
    /// Traffic resumed after [`Notice::FreshnessLost`].
    FreshnessRestored,
    /// The sender's buffer was released up to `up_to` (inclusive) after a
    /// primary-logger acknowledgement.
    BufferReleased {
        /// Highest released sequence.
        up_to: Seq,
    },
    /// The sender re-multicast `seq` because Designated-Acker coverage
    /// indicated widespread loss (§2.3.2).
    StatAckRemulticast {
        /// The re-multicast sequence.
        seq: Seq,
        /// How many expected ACKs were missing at `t_wait`.
        missing_acks: usize,
    },
    /// A new statistical-ack epoch took effect.
    EpochStarted {
        /// The epoch id.
        epoch: EpochId,
        /// Number of Designated Ackers that volunteered.
        ackers: usize,
        /// The sender's current estimate of the secondary-logger count.
        nsl_estimate: f64,
    },
    /// The sender (or a recovering party) concluded the primary logger is
    /// unresponsive.
    PrimaryUnresponsive {
        /// The unresponsive host.
        primary: HostId,
    },
    /// A replica was promoted to primary (§2.2.3).
    Promoted {
        /// The newly promoted primary.
        new_primary: HostId,
    },
    /// A failover election reached quorum: `leader` now holds
    /// authority for `term`, and packets from older terms are fenced.
    TermElected {
        /// The elected term.
        term: u32,
        /// The leader elected for the term.
        leader: HostId,
    },
    /// Discovery located a logging server.
    LoggerDiscovered {
        /// The logger host.
        logger: HostId,
        /// Its hierarchy level (0 = primary).
        level: u8,
        /// Scope at which it answered.
        scope: TtlScope,
    },
    /// Discovery exhausted all scopes without finding a logger.
    DiscoveryFailed,
    /// A logging server chose to re-multicast a repair to its site
    /// instead of unicasting (§2.2.1).
    SiteRemulticast {
        /// The repaired sequence.
        seq: Seq,
        /// Number of distinct requesters that triggered the decision.
        requesters: usize,
    },
}

/// An effect requested by a machine.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Send `packet` to one host.
    Unicast {
        /// Destination.
        to: HostId,
        /// The packet.
        packet: Packet,
    },
    /// Multicast `packet` to its group at `scope`.
    Multicast {
        /// TTL scope.
        scope: TtlScope,
        /// The packet.
        packet: Packet,
    },
    /// Hand a data packet to the application (receiver side).
    Deliver(Delivery),
    /// Surface a protocol notice.
    Notice(Notice),
    /// Subscribe this host to a multicast group. The [`Driver`] emits one
    /// per start-up group at [`Input::Start`], before [`Machine::on_start`].
    Join(GroupId),
}

/// Accumulator for actions emitted during one machine call.
pub type Actions = Vec<Action>;

/// A sans-IO protocol state machine.
pub trait Machine {
    /// Called once before any other entry point.
    fn on_start(&mut self, _now: Time, _out: &mut Actions) {}

    /// Attaches a protocol-event tracer (see [`crate::trace`]). Machines
    /// that emit [`crate::trace::ProtocolEvent`]s override this; the
    /// default drops the tracer, so drivers may install one on any
    /// machine unconditionally.
    fn set_tracer(&mut self, _tracer: crate::trace::Tracer) {}

    /// A packet addressed to this machine arrived (unicast or multicast).
    fn on_packet(&mut self, now: Time, from: HostId, packet: Packet, out: &mut Actions);

    /// Clock callback: run any work due at or before `now`.
    ///
    /// Contract: before [`next_deadline`](Machine::next_deadline) (or
    /// when it is `None`), `poll` emits nothing, traces nothing and
    /// changes no state. The [`Driver`] relies on it to skip an
    /// [`Input::Timer`] with nothing due; `crates/core/tests/machine_values.rs`
    /// checks it for every role.
    fn poll(&mut self, now: Time, out: &mut Actions);

    /// The next instant at which [`Machine::poll`] should run, if any.
    fn next_deadline(&self) -> Option<Time>;
}

/// An application call against a machine (e.g. `Sender::send`), run by
/// the [`Driver`] with the current time and its action buffer. `Send`
/// so a driver can move to the thread or world that runs it.
pub type Call<M> = Box<dyn FnOnce(&mut M, Time, &mut Actions) + Send>;

/// Everything that can make a machine act: the typed boundary between a
/// substrate and a [`Driver`].
pub enum Input<M> {
    /// The substrate started: join the start-up groups, then
    /// [`Machine::on_start`].
    Start,
    /// A packet from `from` arrived: [`Machine::on_packet`].
    Packet {
        /// The sending host.
        from: HostId,
        /// The packet.
        packet: Packet,
    },
    /// A deadline may have passed: [`Machine::poll`], if
    /// [`Machine::next_deadline`] is at or before now. A timer with
    /// nothing due (a substrate never cancels one whose deadline moved
    /// later) skips the machine, which by `poll`'s contract would do
    /// nothing.
    Timer,
    /// An application call, followed by [`Machine::poll`]: a call can
    /// create work (e.g. schedule a heartbeat), and the machine may also
    /// have due work of its own.
    Call(Call<M>),
}

/// Owns a machine, its start-up groups and the one [`Actions`] buffer
/// every machine call fills. [`drain`](Self::drain) empties it, so
/// several inputs may share a drain, the steady state allocates no
/// action list, and no drain replays an earlier one's actions.
pub struct Driver<M> {
    machine: M,
    groups: Vec<GroupId>,
    out: Actions,
}

impl<M: Machine> Driver<M> {
    /// Drives `machine`, joining `groups` at [`Input::Start`].
    pub fn new(machine: M, groups: Vec<GroupId>) -> Self {
        Driver {
            machine,
            groups,
            out: Actions::new(),
        }
    }

    /// The driven machine.
    pub fn machine(&self) -> &M {
        &self.machine
    }

    /// The driven machine, e.g. to install a tracer before start-up.
    pub fn machine_mut(&mut self) -> &mut M {
        &mut self.machine
    }

    /// Feeds one input at `now`; its actions wait for [`drain`](Self::drain).
    #[inline(always)]
    pub fn input(&mut self, now: Time, input: Input<M>) {
        let out = &mut self.out;
        match input {
            Input::Start => {
                out.extend(self.groups.iter().map(|&g| Action::Join(g)));
                self.machine.on_start(now, out);
            }
            Input::Packet { from, packet } => self.machine.on_packet(now, from, packet, out),
            Input::Timer => {
                if self.machine.next_deadline().is_some_and(|d| d <= now) {
                    self.machine.poll(now, out);
                }
            }
            Input::Call(call) => {
                call(&mut self.machine, now, out);
                self.machine.poll(now, out);
            }
        }
    }

    /// The actions emitted since the last drain, in emission order.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Action> {
        self.out.drain(..)
    }
}

/// FNV-1a over the `Debug` rendering of `fields`, one role's protocol
/// state: what its `state_digest` hashes. Equal digests mean equal
/// state; the value is stable across runs of one build, not a format to
/// persist.
pub(crate) fn state_digest(fields: &[&dyn std::fmt::Debug]) -> u64 {
    use std::fmt::Write;
    struct Fnv(u64);
    impl Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for &b in s.as_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for field in fields {
        // `Fnv` never fails, and derived `Debug` only forwards its errors.
        let _ = write!(h, "{field:?};");
    }
    h.0
}

/// Test/driver helper: extracts all packets a machine tried to send,
/// with their addressing.
pub fn sent_packets(actions: &[Action]) -> Vec<&Packet> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Unicast { packet, .. } | Action::Multicast { packet, .. } => Some(packet),
            _ => None,
        })
        .collect()
}

/// Test/driver helper: extracts deliveries.
pub fn deliveries(actions: &[Action]) -> Vec<&Delivery> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Deliver(d) => Some(d),
            _ => None,
        })
        .collect()
}

/// Test/driver helper: extracts notices.
pub fn notices(actions: &[Action]) -> Vec<&Notice> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Notice(n) => Some(n),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const G1: GroupId = GroupId(1);
    const G2: GroupId = GroupId(2);

    /// Answers `on_start` with one notice, and `poll` with another when
    /// a call raised `flag` since the last poll; packets emit nothing.
    #[derive(Default)]
    struct Flagged {
        flag: bool,
    }

    impl Machine for Flagged {
        fn on_start(&mut self, _now: Time, out: &mut Actions) {
            out.push(Action::Notice(Notice::DiscoveryFailed));
        }
        fn on_packet(&mut self, _now: Time, _from: HostId, _packet: Packet, _out: &mut Actions) {}
        fn poll(&mut self, _now: Time, out: &mut Actions) {
            if std::mem::take(&mut self.flag) {
                out.push(Action::Notice(Notice::FreshnessLost));
            }
        }
        fn next_deadline(&self) -> Option<Time> {
            None
        }
    }

    fn drained(driver: &mut Driver<Flagged>) -> Vec<Action> {
        driver.drain().collect()
    }

    #[test]
    fn start_joins_the_groups_before_on_start() {
        let mut driver = Driver::new(Flagged::default(), vec![G1, G2]);
        driver.input(Time::ZERO, Input::Start);
        assert_eq!(
            drained(&mut driver),
            [
                Action::Join(G1),
                Action::Join(G2),
                Action::Notice(Notice::DiscoveryFailed),
            ]
        );
    }

    #[test]
    fn a_call_is_followed_by_poll() {
        let mut driver = Driver::new(Flagged::default(), vec![]);
        let call: Call<Flagged> = Box::new(|m, _, _| m.flag = true);
        driver.input(Time::from_secs(1), Input::Call(call));
        assert_eq!(
            drained(&mut driver),
            [Action::Notice(Notice::FreshnessLost)]
        );
        assert!(!driver.machine().flag, "the poll consumed the flag");
    }

    /// Counts its polls; its one deadline is at 5 s.
    #[derive(Default)]
    struct Due {
        polls: u32,
    }

    impl Machine for Due {
        fn on_packet(&mut self, _now: Time, _from: HostId, _packet: Packet, _out: &mut Actions) {}
        fn poll(&mut self, _now: Time, _out: &mut Actions) {
            self.polls += 1;
        }
        fn next_deadline(&self) -> Option<Time> {
            Some(Time::from_secs(5))
        }
    }

    #[test]
    fn a_timer_polls_only_once_the_deadline_is_due() {
        let mut driver = Driver::new(Due::default(), vec![]);
        driver.input(Time::from_secs(4), Input::Timer);
        assert_eq!(
            driver.machine().polls,
            0,
            "nothing due: the machine is skipped"
        );
        driver.input(Time::from_secs(4), Input::Call(Box::new(|_, _, _| {})));
        assert_eq!(driver.machine().polls, 1, "a call still polls");
        driver.input(Time::from_secs(5), Input::Timer);
        assert_eq!(driver.machine().polls, 2);
    }

    #[test]
    fn an_input_that_emits_nothing_drains_nothing() {
        let mut driver = Driver::new(Flagged::default(), vec![G1]);
        driver.input(Time::ZERO, Input::Start);
        assert_eq!(drained(&mut driver).len(), 2);
        let packet = Packet::Data {
            group: G1,
            source: lbrm_wire::SourceId(1),
            seq: Seq(1),
            epoch: EpochId(0),
            payload: Bytes::new(),
        };
        let from = HostId(7);
        driver.input(Time::from_secs(1), Input::Packet { from, packet });
        driver.input(Time::from_secs(2), Input::Timer);
        driver.input(Time::from_secs(3), Input::Call(Box::new(|_, _, _| {})));
        assert!(drained(&mut driver).is_empty());
    }
}
