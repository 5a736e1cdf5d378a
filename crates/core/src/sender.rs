//! The LBRM multicast source.
//!
//! The sender multicasts application data with sequence numbers, keeps
//! the variable-heartbeat promise of §2 ("a packet at least once every
//! MaxIT"), reliably hands every packet to the primary logging server —
//! retaining it in a local buffer until the primary's `LogAck` covers it
//! (§2.2) — and runs the statistical acknowledgement engine of §2.3 to
//! decide between immediate multicast retransmission and unicast
//! recovery. It also drives primary-logger failover (§2.2.3): when the
//! primary stops acknowledging, the source polls the replicas for their
//! log state, promotes the most up-to-date one, and brings it current
//! from its own buffer.

use std::collections::BTreeMap;
use std::time::Duration;

use bytes::Bytes;

use lbrm_wire::{EpochId, GroupId, HostId, Packet, Seq, SourceId, TtlScope};

use crate::gaps::SeqUnwrapper;
use crate::heartbeat::{HeartbeatConfig, VariableHeartbeat};
use crate::machine::{Action, Actions, Machine, Notice};
use crate::recovery::{self, Authority, Origin};
use crate::slab::SeqSlab;
use crate::statack::{StatAck, StatAckConfig, StatAckOutput};
use crate::time::{earliest, Time};
use crate::trace::{ProtocolEvent, Tracer};

/// Retransmit un-logged packets to the primary at this interval (§2.2).
const HANDOFF_RETRY: Duration = Duration::from_millis(500);

/// Handoff attempts without progress before the primary is declared
/// unresponsive and failover starts (§2.2.3).
const HANDOFF_ATTEMPTS_BEFORE_FAILOVER: u32 = 4;

/// How long to wait for replica state reports during failover (§2.2.3).
const FAILOVER_WAIT: Duration = Duration::from_millis(500);

/// How long one failover round that reaches a quorum takes from the
/// first unanswered handoff to the new term's announcement: 5 handoff
/// rounds, the last starting the election, plus `FAILOVER_WAIT`, 3 s. A
/// round without a quorum hands off again, as often as it takes.
pub(crate) const FAILOVER_BOUND: Duration = HANDOFF_RETRY
    .saturating_mul(HANDOFF_ATTEMPTS_BEFORE_FAILOVER + 1)
    .saturating_add(FAILOVER_WAIT);

/// Sender configuration.
#[derive(Debug, Clone)]
pub struct SenderConfig {
    /// Multicast group to publish on.
    pub group: GroupId,
    /// This stream's source id.
    pub source: SourceId,
    /// The host this sender runs on.
    pub host: HostId,
    /// Heartbeat parameters; `backoff: 1.0` is the fixed-rate baseline
    /// (one heartbeat every `h_min`).
    pub heartbeat: HeartbeatConfig,
    /// The primary logging server.
    pub primary: HostId,
    /// Known replicas of the primary log (failover candidates).
    pub replicas: Vec<HostId>,
    /// Statistical acknowledgement; `None` disables (§3 notes the
    /// original implementation also ran without it).
    pub statack: Option<StatAckConfig>,
}

impl SenderConfig {
    /// A conventional configuration for `group`/`source` publishing from
    /// `host` with logging at `primary`.
    pub fn new(group: GroupId, source: SourceId, host: HostId, primary: HostId) -> Self {
        SenderConfig {
            group,
            source,
            host,
            heartbeat: HeartbeatConfig::default(),
            primary,
            replicas: Vec::new(),
            statack: None,
        }
    }
}

#[derive(Debug, Clone)]
struct Buffered {
    seq: Seq,
    epoch: EpochId,
    payload: Bytes,
}

#[derive(Debug, Clone)]
enum PrimaryHealth {
    Healthy,
    /// Running a prepare/promise election for `term` since `since`,
    /// collecting replica promises (voter → unwrapped log end).
    Probing {
        since: Time,
        term: u32,
        promises: BTreeMap<HostId, u64>,
    },
}

/// The sender state machine. Applications publish via
/// [`send`](Sender::send); everything else runs through the [`Machine`]
/// interface.
#[derive(Clone)]
pub struct Sender {
    config: SenderConfig,
    schedule: VariableHeartbeat,
    statack: Option<StatAck>,
    unwrapper: SeqUnwrapper,
    next_seq: Seq,
    last_seq: Option<Seq>,
    /// Retained packets, keyed by unwrapped index. An entry is dropped
    /// only once the log acknowledgement covers it *and* statistical-ack
    /// bookkeeping has settled (a re-multicast decision may need the
    /// payload after the primary already logged it).
    buffer: SeqSlab<Buffered>,
    /// Unwrapped index below which the log (per policy) holds everything.
    released_below: u64,
    /// Indexes still awaiting a statistical-ack verdict.
    unsettled: std::collections::BTreeSet<u64>,
    health: PrimaryHealth,
    /// The term the group operates under and its leader, the primary;
    /// deposed primaries' `LogAck`s are fenced.
    authority: Authority,
    /// Highest term this sender has ever proposed (proposals stay
    /// monotone across failed elections).
    last_proposed: u32,
    next_handoff_at: Option<Time>,
    handoff_attempts: u32,
    started: bool,
    tracer: Tracer,
}

impl Sender {
    /// Creates a sender.
    pub fn new(config: SenderConfig) -> Self {
        Sender {
            schedule: VariableHeartbeat::new(config.heartbeat),
            statack: None,
            unwrapper: SeqUnwrapper::new(),
            next_seq: Seq::FIRST,
            last_seq: None,
            buffer: SeqSlab::new(),
            released_below: 0,
            unsettled: std::collections::BTreeSet::new(),
            health: PrimaryHealth::Healthy,
            authority: Authority::new(Some(config.primary)),
            last_proposed: 0,
            next_handoff_at: None,
            handoff_attempts: 0,
            started: false,
            tracer: Tracer::disabled(),
            config,
        }
    }

    /// The sequence number the next data packet will carry.
    pub fn next_seq(&self) -> Seq {
        self.next_seq
    }

    /// Sequence of the most recent data packet, if any.
    pub fn last_seq(&self) -> Option<Seq> {
        self.last_seq
    }

    /// Packets currently retained awaiting log acknowledgement.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// The logging server currently believed primary.
    pub fn primary(&self) -> HostId {
        self.authority.leader().unwrap_or(self.config.primary)
    }

    /// The log-authority term the group currently operates under.
    pub fn term(&self) -> u32 {
        self.authority.term()
    }

    /// Current epoch stamped on outgoing data.
    pub fn current_epoch(&self) -> EpochId {
        self.statack
            .as_ref()
            .map_or(EpochId::INITIAL, |s| s.current_epoch())
    }

    /// Attaches a protocol-event tracer (see [`crate::trace`]).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer.with_host(self.config.host);
    }

    /// A digest of the protocol state (not the tracer): two senders with
    /// equal digests act alike on the same inputs.
    pub fn state_digest(&self) -> u64 {
        crate::machine::state_digest(&[
            &self.config,
            &self.schedule,
            &self.statack,
            &self.unwrapper,
            &self.next_seq,
            &self.last_seq,
            &self.buffer,
            &self.released_below,
            &self.unsettled,
            &self.health,
            &self.authority,
            &self.last_proposed,
            &self.next_handoff_at,
            &self.handoff_attempts,
            &self.started,
        ])
    }

    /// Publishes one application payload at `now`.
    pub fn send(&mut self, now: Time, payload: Bytes, out: &mut Actions) {
        let seq = self.next_seq;
        self.next_seq = seq.next();
        self.last_seq = Some(seq);
        let epoch = self.current_epoch();
        let idx = self.unwrapper.unwrap(seq);
        if self.buffer.is_empty() {
            // (Re)base the release floor on the first outstanding packet.
            self.released_below = idx;
        }
        self.buffer.insert(
            idx,
            Buffered {
                seq,
                epoch,
                payload: payload.clone(),
            },
        );
        self.schedule.on_data_sent(now);
        if let Some(sa) = &mut self.statack {
            sa.on_data_sent(now, seq);
            self.unsettled.insert(idx);
        }
        if self.primary() != self.config.host && self.next_handoff_at.is_none() {
            self.next_handoff_at = Some(now + HANDOFF_RETRY);
        }
        out.push(Action::Multicast {
            scope: TtlScope::Global,
            packet: Packet::Data {
                group: self.config.group,
                source: self.config.source,
                seq,
                epoch,
                payload,
            },
        });
        self.tracer
            .emit(now.nanos(), || ProtocolEvent::DataSent { seq, epoch });
    }

    fn data_packet(&self, b: &Buffered) -> Packet {
        Packet::Data {
            group: self.config.group,
            source: self.config.source,
            seq: b.seq,
            epoch: b.epoch,
            payload: b.payload.clone(),
        }
    }

    fn origin(&self) -> Origin<'_> {
        let c = &self.config;
        Origin::new(c.group, c.source, c.host, &self.tracer)
    }

    /// The current term and its leader, as announced to the group.
    fn term_announce(&self) -> Packet {
        Packet::TermAnnounce {
            group: self.config.group,
            source: self.config.source,
            term: self.term(),
            leader: self.primary(),
        }
    }

    fn release_through(&mut self, now: Time, seq: Seq, out: &mut Actions) {
        let end = self.unwrapper.peek(seq) + 1;
        if end <= self.released_below {
            return;
        }
        self.released_below = end;
        self.prune_buffer(now, Some(seq), out);
    }

    /// Drops buffer entries that are both log-released and statack-
    /// settled.
    fn prune_buffer(&mut self, now: Time, released_seq: Option<Seq>, out: &mut Actions) {
        let end = self.released_below;
        let unsettled = &self.unsettled;
        let before = self.buffer.len();
        self.buffer
            .retain(|idx, _| idx >= end || unsettled.contains(&idx));
        if self.buffer.len() != before {
            if let Some(seq) = released_seq {
                out.push(Action::Notice(Notice::BufferReleased { up_to: seq }));
                self.tracer
                    .emit(now.nanos(), || ProtocolEvent::BufferReleased { up_to: seq });
            }
        }
        // Handoff only chases log acknowledgement; statack holds (below
        // the release floor) don't keep it alive. Indexes ascend, so the
        // highest one decides whether anything is still unreleased.
        if self.buffer.last().is_none_or(|(idx, _)| idx < end) {
            self.next_handoff_at = None;
            self.handoff_attempts = 0;
        }
    }

    fn drain_statack(&mut self, now: Time, events: Vec<StatAckOutput>, out: &mut Actions) {
        for ev in events {
            match ev {
                StatAckOutput::StartSelection { epoch, p_ack } => {
                    out.push(Action::Multicast {
                        scope: TtlScope::Global,
                        packet: Packet::AckerSelect {
                            group: self.config.group,
                            source: self.config.source,
                            epoch,
                            p_ack,
                        },
                    });
                    self.tracer
                        .emit(now.nanos(), || ProtocolEvent::AckerSelected {
                            epoch,
                            p_ack,
                        });
                }
                StatAckOutput::EpochActive { epoch, ackers, nsl } => {
                    out.push(Action::Notice(Notice::EpochStarted {
                        epoch,
                        ackers,
                        nsl_estimate: nsl,
                    }));
                    self.tracer
                        .emit(now.nanos(), || ProtocolEvent::EpochActive {
                            epoch,
                            ackers: ackers as u32,
                        });
                }
                StatAckOutput::Remulticast { seq, missing } => {
                    let idx = self.unwrapper.peek(seq);
                    if let Some(b) = self.buffer.get(idx) {
                        let packet = self.data_packet(b);
                        out.push(Action::Multicast {
                            scope: TtlScope::Global,
                            packet,
                        });
                        out.push(Action::Notice(Notice::StatAckRemulticast {
                            seq,
                            missing_acks: missing,
                        }));
                        self.tracer
                            .emit(now.nanos(), || ProtocolEvent::Remulticast {
                                seq,
                                missing: missing as u32,
                            });
                    }
                }
                StatAckOutput::Settled { seq, complete } => {
                    let idx = self.unwrapper.peek(seq);
                    self.unsettled.remove(&idx);
                    self.prune_buffer(now, None, out);
                    self.tracer
                        .emit(now.nanos(), || ProtocolEvent::Settled { seq, complete });
                    if complete {
                        if let Some(sa) = &self.statack {
                            let t_wait = sa.t_wait();
                            self.tracer
                                .emit(now.nanos(), || ProtocolEvent::TWaitUpdated {
                                    t_wait_nanos: t_wait.as_nanos() as u64,
                                });
                        }
                    }
                }
            }
        }
    }

    fn begin_failover(&mut self, now: Time, out: &mut Actions) {
        let primary = self.primary();
        self.origin().primary_unresponsive(now, primary, out);
        // Propose the next term (monotone across failed elections) and
        // solicit promises from every live replica.
        let next = self.last_proposed.max(self.term()).checked_add(1);
        let Some(term) = next.filter(|_| !self.config.replicas.is_empty()) else {
            // Nothing to fail over to — no replicas, or a term adopted
            // off the wire left no higher one to propose: keep retrying
            // the primary.
            self.handoff_attempts = 0;
            return;
        };
        self.last_proposed = term;
        self.health = PrimaryHealth::Probing {
            since: now,
            term,
            promises: BTreeMap::new(),
        };
        for &r in &self.config.replicas {
            if r != primary {
                out.push(Action::Unicast {
                    to: r,
                    packet: Packet::ElectPrepare {
                        group: self.config.group,
                        source: self.config.source,
                        term,
                        candidate: self.config.host,
                    },
                });
            }
        }
    }

    /// Promises needed for an election to commit: a majority of the
    /// configured replica set.
    fn quorum(&self) -> usize {
        self.config.replicas.len() / 2 + 1
    }

    fn finish_failover(&mut self, now: Time, out: &mut Actions) {
        let PrimaryHealth::Probing { term, promises, .. } = &self.health else {
            return;
        };
        let term = *term;
        // The election commits only on a majority of promises; promote
        // the most up-to-date promiser (§2.2.3).
        let winner = (promises.len() >= self.quorum())
            .then(|| {
                promises
                    .iter()
                    .max_by_key(|(host, end)| (**end, std::cmp::Reverse(host.raw())))
                    .map(|(&h, &e)| (h, e))
            })
            .flatten();
        let Some((best, best_end)) = winner else {
            // No quorum; go back to retrying the old primary.
            self.health = PrimaryHealth::Healthy;
            self.handoff_attempts = 0;
            self.next_handoff_at = Some(now + HANDOFF_RETRY);
            return;
        };
        // The deposed primary's authority ends at the old term; anything
        // it still sends under it is fenced. (`term` is newer: it was
        // proposed above every term this sender had adopted.)
        self.authority.adopt(term, best);
        self.health = PrimaryHealth::Healthy;
        self.handoff_attempts = 0;
        // Announce the new term to the whole group (receivers fence the
        // deposed primary off it) and tell the winner directly. Keep the
        // legacy primary pointer current too (receivers treat the
        // primary address as a cached value).
        let promote = Packet::PrimaryIs {
            group: self.config.group,
            source: self.config.source,
            primary: best,
        };
        for packet in [self.term_announce(), promote] {
            out.push(Action::Unicast {
                to: best,
                packet: packet.clone(),
            });
            out.push(Action::Multicast {
                scope: TtlScope::Global,
                packet,
            });
        }
        // Bring it current from our buffer: everything beyond its log end.
        for (idx, b) in self.buffer.iter() {
            if idx > best_end || best_end == u64::MAX {
                out.push(Action::Unicast {
                    to: best,
                    packet: self.data_packet(b),
                });
            }
        }
        self.next_handoff_at = Some(now + HANDOFF_RETRY);
        out.push(Action::Notice(Notice::Promoted { new_primary: best }));
        out.push(Action::Notice(Notice::TermElected { term, leader: best }));
        self.tracer
            .emit(now.nanos(), || ProtocolEvent::FailoverPromoted {
                new_primary: best,
            });
        self.tracer
            .emit(now.nanos(), || ProtocolEvent::TermElected {
                term,
                leader: best,
            });
    }
}

impl Machine for Sender {
    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer.with_host(self.config.host);
    }

    fn on_start(&mut self, now: Time, out: &mut Actions) {
        if self.started {
            return;
        }
        self.started = true;
        self.tracer
            .emit(now.nanos(), || ProtocolEvent::RoleAnnounced {
                role: "sender",
            });
        if let Some(cfg) = self.config.statack.clone() {
            let mut sa = StatAck::new(cfg, now);
            let mut events = Vec::new();
            sa.poll(now, &mut events);
            self.statack = Some(sa);
            self.drain_statack(now, events, out);
        }
    }

    fn on_packet(&mut self, now: Time, from: HostId, packet: Packet, out: &mut Actions) {
        match packet {
            Packet::LogAck {
                group,
                source,
                replica_seq,
                ..
            } if group == self.config.group && source == self.config.source => {
                if self.authority.fenced(now, from, &self.tracer) {
                    // A deposed primary still acking: fenced, never
                    // releases buffer. Tell it directly which term it
                    // missed so a healed partition converges fast.
                    out.push(Action::Unicast {
                        to: from,
                        packet: self.term_announce(),
                    });
                } else if from == self.primary() {
                    self.handoff_attempts = 0;
                    // Release only what a replica quorum holds (§2.2.3);
                    // a primary without replicas reports its own log.
                    self.release_through(now, replica_seq, out);
                    if !self.buffer.is_empty() && self.next_handoff_at.is_none() {
                        self.next_handoff_at = Some(now + HANDOFF_RETRY);
                    }
                }
            }
            Packet::ElectPromise {
                group,
                source,
                term,
                voter,
                log_end,
            } if group == self.config.group && source == self.config.source => {
                if let PrimaryHealth::Probing {
                    term: proposed,
                    promises,
                    ..
                } = &mut self.health
                {
                    if term == *proposed {
                        let end = self.unwrapper.peek(log_end);
                        promises.insert(voter, end);
                        if promises.len() >= self.config.replicas.len() {
                            // Everyone answered; no point waiting out
                            // the election window.
                            self.finish_failover(now, out);
                        }
                    }
                }
            }
            Packet::TermAnnounce {
                group,
                source,
                term,
                leader,
            } if group == self.config.group && source == self.config.source
                // Normally our own echo; adopt only a genuinely newer
                // term (e.g. announced by a recovering co-sender).
                && self.authority.adopt(term, leader) =>
            {
                self.health = PrimaryHealth::Healthy;
            }
            Packet::Nack {
                group,
                source,
                requester,
                ranges,
            } if group == self.config.group && source == self.config.source => {
                // Serve retransmissions from the retained buffer (the
                // primary recovering packets it never saw, or receivers in
                // a logger-less deployment).
                self.tracer
                    .emit(now.nanos(), || ProtocolEvent::NackReceived {
                        from: requester,
                        packets: recovery::nack_packets(&ranges),
                    });
                let origin = self.origin();
                for seq in recovery::honored(&ranges).flat_map(|r| r.iter()) {
                    let idx = self.unwrapper.peek(seq);
                    if let Some(b) = self.buffer.get(idx) {
                        origin.repair(now, b.seq, b.payload.clone(), requester, None, out);
                    }
                }
            }
            Packet::AckerVolunteer {
                group,
                source,
                epoch,
                logger,
            } if group == self.config.group && source == self.config.source => {
                if let Some(sa) = &mut self.statack {
                    sa.on_volunteer(logger, epoch);
                }
            }
            Packet::PacketAck {
                group,
                source,
                epoch,
                seq,
                logger,
            } if group == self.config.group && source == self.config.source => {
                if let Some(sa) = &mut self.statack {
                    let mut events = Vec::new();
                    sa.on_ack(now, logger, epoch, seq, &mut events);
                    self.drain_statack(now, events, out);
                }
            }
            Packet::LocatePrimary {
                group,
                source,
                requester,
            } if group == self.config.group && source == self.config.source => {
                out.push(Action::Unicast {
                    to: requester,
                    packet: Packet::PrimaryIs {
                        group: self.config.group,
                        source: self.config.source,
                        primary: self.primary(),
                    },
                });
            }
            _ => {}
        }
    }

    fn poll(&mut self, now: Time, out: &mut Actions) {
        // Heartbeats.
        while self.schedule.due(now) {
            if let Some(seq) = self.last_seq {
                let hb_index = self.schedule.on_heartbeat_sent(now);
                out.push(Action::Multicast {
                    scope: TtlScope::Global,
                    packet: Packet::Heartbeat {
                        group: self.config.group,
                        source: self.config.source,
                        seq,
                        epoch: self.current_epoch(),
                        hb_index,
                        payload: Bytes::new(),
                    },
                });
                self.tracer
                    .emit(now.nanos(), || ProtocolEvent::HeartbeatSent {
                        seq,
                        hb_index,
                    });
                if self.term() > 0 {
                    // Re-announce the current term at heartbeat cadence
                    // so hosts that missed the election (a healed
                    // partition, a restarted replica) fence the old
                    // primary and retarget without extra machinery.
                    out.push(Action::Multicast {
                        scope: TtlScope::Global,
                        packet: self.term_announce(),
                    });
                }
            } else {
                break;
            }
        }
        // Statistical acknowledgement.
        if let Some(sa) = &mut self.statack {
            let mut events = Vec::new();
            sa.poll(now, &mut events);
            self.drain_statack(now, events, out);
        }
        // Reliable handoff to the primary logger.
        if matches!(self.health, PrimaryHealth::Healthy) {
            if let Some(at) = self.next_handoff_at {
                if now >= at {
                    let unlogged: Vec<u64> = self
                        .buffer
                        .range(self.released_below, u64::MAX)
                        .map(|(idx, _)| idx)
                        .take(64)
                        .collect();
                    if unlogged.is_empty() {
                        self.next_handoff_at = None;
                    } else {
                        self.handoff_attempts += 1;
                        if self.handoff_attempts > HANDOFF_ATTEMPTS_BEFORE_FAILOVER {
                            self.next_handoff_at = Some(now + FAILOVER_WAIT);
                            self.begin_failover(now, out);
                        } else {
                            for idx in unlogged {
                                let b = self.buffer.get(idx).expect("unlogged index is live");
                                out.push(Action::Unicast {
                                    to: self.primary(),
                                    packet: self.data_packet(b),
                                });
                            }
                            self.next_handoff_at = Some(now + HANDOFF_RETRY);
                        }
                    }
                }
            }
        } else if let PrimaryHealth::Probing { since, .. } = &self.health {
            if now.since(*since) >= FAILOVER_WAIT {
                self.finish_failover(now, out);
            }
        }
    }

    fn next_deadline(&self) -> Option<Time> {
        let mut d = self
            .schedule
            .next_heartbeat_at()
            .filter(|_| self.last_seq.is_some());
        if let Some(sa) = &self.statack {
            d = earliest(d, sa.next_deadline());
        }
        d = earliest(d, self.next_handoff_at);
        if let PrimaryHealth::Probing { since, .. } = &self.health {
            d = earliest(d, Some(*since + FAILOVER_WAIT));
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{notices, sent_packets};

    const GROUP: GroupId = GroupId(1);
    const SRC: SourceId = SourceId(10);
    const HOST: HostId = HostId(100);
    const PRIMARY: HostId = HostId(200);

    fn sender() -> Sender {
        Sender::new(SenderConfig::new(GROUP, SRC, HOST, PRIMARY))
    }

    fn log_ack(seq: u32) -> Packet {
        Packet::LogAck {
            group: GROUP,
            source: SRC,
            primary_seq: Seq(seq),
            replica_seq: Seq(seq),
        }
    }

    #[test]
    fn send_multicasts_data_with_increasing_seq() {
        let mut s = sender();
        let mut out = Actions::new();
        s.on_start(Time::ZERO, &mut out);
        s.send(Time::ZERO, Bytes::from_static(b"a"), &mut out);
        s.send(Time::ZERO, Bytes::from_static(b"b"), &mut out);
        let pkts = sent_packets(&out);
        let seqs: Vec<u32> = pkts
            .iter()
            .filter_map(|p| match p {
                Packet::Data { seq, .. } => Some(seq.raw()),
                _ => None,
            })
            .collect();
        assert_eq!(seqs, vec![1, 2]);
        assert_eq!(s.buffered(), 2);
    }

    #[test]
    fn heartbeats_follow_variable_schedule_and_repeat_last_seq() {
        let mut s = sender();
        let mut out = Actions::new();
        s.on_start(Time::ZERO, &mut out);
        s.send(Time::ZERO, Bytes::from_static(b"a"), &mut out);
        out.clear();
        // First heartbeat due at h_min = 250 ms.
        assert!(s.next_deadline().unwrap() <= Time::from_millis(250));
        s.poll(Time::from_millis(250), &mut out);
        match &sent_packets(&out)[..] {
            [Packet::Heartbeat {
                seq, hb_index: 1, ..
            }] => assert_eq!(*seq, Seq(1)),
            other => panic!("expected one heartbeat, got {other:?}"),
        }
        out.clear();
        // (A handoff retry may interleave at 500 ms+; filter heartbeats.)
        s.poll(Time::from_millis(750), &mut out);
        let hbs: Vec<u32> = sent_packets(&out)
            .iter()
            .filter_map(|p| match p {
                Packet::Heartbeat { hb_index, .. } => Some(*hb_index),
                _ => None,
            })
            .collect();
        assert_eq!(hbs, vec![2]);
    }

    #[test]
    fn no_heartbeats_before_first_data() {
        let mut s = sender();
        let mut out = Actions::new();
        s.on_start(Time::ZERO, &mut out);
        assert_eq!(s.next_deadline(), None);
        s.poll(Time::from_secs(100), &mut out);
        assert!(sent_packets(&out).is_empty());
    }

    #[test]
    fn log_ack_releases_buffer() {
        let mut s = sender();
        let mut out = Actions::new();
        s.on_start(Time::ZERO, &mut out);
        for _ in 0..3 {
            s.send(Time::ZERO, Bytes::from_static(b"x"), &mut out);
        }
        out.clear();
        s.on_packet(Time::from_millis(10), PRIMARY, log_ack(2), &mut out);
        assert_eq!(s.buffered(), 1);
        assert!(notices(&out)
            .iter()
            .any(|n| matches!(n, Notice::BufferReleased { up_to } if *up_to == Seq(2))));
        s.on_packet(Time::from_millis(20), PRIMARY, log_ack(3), &mut out);
        assert_eq!(s.buffered(), 0);
    }

    #[test]
    fn replica_ack_requirement_holds_buffer() {
        let mut s = sender();
        let mut out = Actions::new();
        s.on_start(Time::ZERO, &mut out);
        s.send(Time::ZERO, Bytes::from_static(b"x"), &mut out);
        out.clear();
        // Primary has it but no replica does: buffer must be retained.
        let ack = Packet::LogAck {
            group: GROUP,
            source: SRC,
            primary_seq: Seq(1),
            replica_seq: Seq(0),
        };
        s.on_packet(Time::from_millis(5), PRIMARY, ack, &mut out);
        assert_eq!(s.buffered(), 1);
        s.on_packet(Time::from_millis(9), PRIMARY, log_ack(1), &mut out);
        assert_eq!(s.buffered(), 0);
    }

    #[test]
    fn handoff_retries_unacked_data_to_primary() {
        let mut s = sender();
        let mut out = Actions::new();
        s.on_start(Time::ZERO, &mut out);
        s.send(Time::ZERO, Bytes::from_static(b"x"), &mut out);
        out.clear();
        let retry_at = Time::ZERO + HANDOFF_RETRY;
        s.poll(retry_at, &mut out);
        let unicast_data = out.iter().any(|a| {
            matches!(a, Action::Unicast { to, packet: Packet::Data { seq, .. } }
                if *to == PRIMARY && *seq == Seq(1))
        });
        assert!(unicast_data, "expected handoff retransmission, got {out:?}");
    }

    #[test]
    fn nack_served_from_buffer() {
        let mut s = sender();
        let mut out = Actions::new();
        s.on_start(Time::ZERO, &mut out);
        s.send(Time::ZERO, Bytes::from_static(b"hello"), &mut out);
        out.clear();
        let nack = Packet::Nack {
            group: GROUP,
            source: SRC,
            requester: PRIMARY,
            ranges: vec![lbrm_wire::packet::SeqRange::single(Seq(1))],
        };
        s.on_packet(Time::from_millis(5), PRIMARY, nack, &mut out);
        match &out[..] {
            [Action::Unicast {
                to,
                packet: Packet::Retrans { seq, payload, .. },
            }] => {
                assert_eq!(*to, PRIMARY);
                assert_eq!(*seq, Seq(1));
                assert_eq!(payload.as_ref(), b"hello");
            }
            other => panic!("expected retransmission, got {other:?}"),
        }
    }

    #[test]
    fn locate_primary_answered() {
        let mut s = sender();
        let mut out = Actions::new();
        s.on_start(Time::ZERO, &mut out);
        let asker = HostId(77);
        s.on_packet(
            Time::ZERO,
            asker,
            Packet::LocatePrimary {
                group: GROUP,
                source: SRC,
                requester: asker,
            },
            &mut out,
        );
        assert!(matches!(
            &out[..],
            [Action::Unicast { to, packet: Packet::PrimaryIs { primary, .. } }]
                if *to == asker && *primary == PRIMARY
        ));
    }

    #[test]
    fn failover_promotes_most_up_to_date_replica() {
        let replica_a = HostId(301);
        let replica_b = HostId(302);
        let mut cfg = SenderConfig::new(GROUP, SRC, HOST, PRIMARY);
        cfg.replicas = vec![replica_a, replica_b];
        let mut s = Sender::new(cfg);
        let mut out = Actions::new();
        s.on_start(Time::ZERO, &mut out);
        let mut now = Time::ZERO;
        for _ in 0..3 {
            s.send(now, Bytes::from_static(b"x"), &mut out);
        }
        out.clear();
        // Primary never acks: drive handoff retries (interleaved with
        // heartbeats) past the threshold.
        for _ in 0..60 {
            now = s.next_deadline().unwrap();
            s.poll(now, &mut out);
            if notices(&out)
                .iter()
                .any(|n| matches!(n, Notice::PrimaryUnresponsive { .. }))
            {
                break;
            }
        }
        assert!(notices(&out)
            .iter()
            .any(|n| matches!(n, Notice::PrimaryUnresponsive { primary } if *primary == PRIMARY)));
        // The election solicits promises for term 1 from both replicas.
        let prepares: Vec<HostId> = out
            .iter()
            .filter_map(|a| match a {
                Action::Unicast {
                    to,
                    packet: Packet::ElectPrepare { term: 1, .. },
                } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(prepares, vec![replica_a, replica_b]);
        // Both replicas promise: B is more up to date.
        let promise = |voter: HostId, end: u32| Packet::ElectPromise {
            group: GROUP,
            source: SRC,
            term: 1,
            voter,
            log_end: Seq(end),
        };
        out.clear();
        s.on_packet(now, replica_a, promise(replica_a, 1), &mut out);
        s.on_packet(now, replica_b, promise(replica_b, 2), &mut out);
        assert_eq!(s.primary(), replica_b);
        assert_eq!(s.term(), 1);
        // The first handoff went out at 0: one round, within the bound.
        assert!(now <= Time::ZERO + FAILOVER_BOUND, "elected at {now:?}");
        assert!(notices(&out)
            .iter()
            .any(|n| matches!(n, Notice::Promoted { new_primary } if *new_primary == replica_b)));
        assert!(notices(&out)
            .iter()
            .any(|n| matches!(n, Notice::TermElected { term: 1, leader } if *leader == replica_b)));
        // The new term is announced, the new primary is told, the group
        // is told, and the missing packet (#3) is brought current from
        // the buffer.
        let announced = out.iter().any(|a| {
            matches!(a, Action::Multicast { packet: Packet::TermAnnounce { term: 1, leader, .. }, .. }
                if *leader == replica_b)
        });
        assert!(announced, "expected term announce: {out:?}");
        let promoted_unicast = out.iter().any(|a| {
            matches!(a, Action::Unicast { to, packet: Packet::PrimaryIs { primary, .. } }
                if *to == replica_b && *primary == replica_b)
        });
        assert!(promoted_unicast);
        let refill = out.iter().any(|a| {
            matches!(a, Action::Unicast { to, packet: Packet::Data { seq, .. } }
                if *to == replica_b && *seq == Seq(3))
        });
        assert!(refill, "expected buffer refill of #3: {out:?}");
        // The deposed primary's acks are fenced: its LogAck must not
        // release the buffer.
        out.clear();
        let buffered = s.buffered();
        s.on_packet(now, PRIMARY, log_ack(3), &mut out);
        assert_eq!(s.buffered(), buffered, "fenced ack released buffer");
        assert!(notices(&out).is_empty());
    }

    #[test]
    fn statack_selection_emitted_on_start() {
        let mut cfg = SenderConfig::new(GROUP, SRC, HOST, PRIMARY);
        cfg.statack = Some(StatAckConfig::default());
        let mut s = Sender::new(cfg);
        let mut out = Actions::new();
        s.on_start(Time::ZERO, &mut out);
        assert!(matches!(
            sent_packets(&out)[..],
            [Packet::AckerSelect { .. }]
        ));
    }

    #[test]
    fn statack_remulticast_resends_data() {
        let mut cfg = SenderConfig::new(GROUP, SRC, HOST, PRIMARY);
        cfg.statack = Some(StatAckConfig {
            nsl_initial: 300.0,
            k: 3,
            ..StatAckConfig::default()
        });
        let mut s = Sender::new(cfg);
        let mut out = Actions::new();
        s.on_start(Time::ZERO, &mut out);
        let epoch = match sent_packets(&out)[..] {
            [Packet::AckerSelect { epoch, .. }] => *epoch,
            _ => panic!(),
        };
        for h in [1, 2, 3] {
            s.on_packet(
                Time::ZERO,
                HostId(h),
                Packet::AckerVolunteer {
                    group: GROUP,
                    source: SRC,
                    epoch,
                    logger: HostId(h),
                },
                &mut out,
            );
        }
        // Activate the epoch.
        let mut now = s.next_deadline().unwrap();
        out.clear();
        s.poll(now, &mut out);
        assert_eq!(s.current_epoch(), epoch);
        s.send(now, Bytes::from_static(b"q"), &mut out);
        // No acks arrive; at t_wait the sender re-multicasts #1.
        out.clear();
        now = s.next_deadline().unwrap();
        s.poll(now, &mut out);
        let re = out.iter().any(|a| {
            matches!(a, Action::Multicast { packet: Packet::Data { seq, .. }, .. } if *seq == Seq(1))
        });
        assert!(re, "expected re-multicast: {out:?}");
        assert!(notices(&out).iter().any(
            |n| matches!(n, Notice::StatAckRemulticast { seq, missing_acks: 3 } if *seq == Seq(1))
        ));
    }

    #[test]
    fn a_backoff_of_one_heartbeats_at_a_constant_rate() {
        for ms in [250, 100] {
            let mut cfg = SenderConfig::new(GROUP, SRC, HOST, PRIMARY);
            cfg.heartbeat.h_min = Duration::from_millis(ms);
            cfg.heartbeat.backoff = 1.0;
            let mut s = Sender::new(cfg);
            let mut out = Actions::new();
            s.on_start(Time::ZERO, &mut out);
            s.send(Time::ZERO, Bytes::from_static(b"x"), &mut out);
            out.clear();
            // Ten heartbeats, each exactly `h_min` after the last.
            for i in 1..=10u64 {
                let due = Time::from_millis(ms * i);
                assert_eq!(s.next_deadline(), Some(due));
                s.poll(due, &mut out);
            }
            let hbs = sent_packets(&out)
                .iter()
                .filter(|p| matches!(p, Packet::Heartbeat { .. }))
                .count();
            assert_eq!(hbs, 10);
        }
    }

    #[test]
    fn an_adopted_maximal_term_proposes_no_election() {
        let mut cfg = SenderConfig::new(GROUP, SRC, HOST, PRIMARY);
        cfg.replicas = vec![HostId(301), HostId(302)];
        let mut s = Sender::new(cfg);
        let mut out = Actions::new();
        s.on_start(Time::ZERO, &mut out);
        let announce = Packet::TermAnnounce {
            group: GROUP,
            source: SRC,
            term: u32::MAX,
            leader: PRIMARY,
        };
        s.on_packet(Time::ZERO, HostId(666), announce, &mut out);
        assert_eq!(s.term(), u32::MAX);
        s.send(Time::ZERO, Bytes::from_static(b"x"), &mut out);
        out.clear();
        // The primary never acks: handoffs run out and failover is due,
        // but no term above u32::MAX exists to propose.
        let mut unresponsive = 0;
        for _ in 0..60 {
            let now = s.next_deadline().unwrap();
            s.poll(now, &mut out);
            unresponsive += notices(&out)
                .iter()
                .filter(|n| matches!(n, Notice::PrimaryUnresponsive { .. }))
                .count();
            assert!(
                !sent_packets(&out)
                    .iter()
                    .any(|p| matches!(p, Packet::ElectPrepare { .. })),
                "proposed an election past u32::MAX: {out:?}"
            );
            out.clear();
        }
        assert!(unresponsive >= 2, "kept escalating: {unresponsive}");
        assert_eq!((s.term(), s.primary()), (u32::MAX, PRIMARY));
    }

    #[test]
    fn one_nack_datagram_is_served_at_most_the_budget() {
        let mut s = sender();
        let mut out = Actions::new();
        s.on_start(Time::ZERO, &mut out);
        for _ in 0..1024 {
            s.send(Time::ZERO, Bytes::from_static(b"x"), &mut out);
        }
        out.clear();
        let all = lbrm_wire::packet::SeqRange {
            first: Seq(1),
            last: Seq(1024),
        };
        let nack = Packet::Nack {
            group: GROUP,
            source: SRC,
            requester: PRIMARY,
            ranges: vec![all; lbrm_wire::codec::MAX_NACK_RANGES],
        };
        s.on_packet(Time::from_millis(5), PRIMARY, nack, &mut out);
        assert_eq!(out.len() as u64, recovery::MAX_NACK_SEQS);
    }
}
