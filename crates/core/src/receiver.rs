//! The LBRM receiver.
//!
//! A receiver detects loss three ways (§2): a gap in data sequence
//! numbers, a heartbeat repeating a sequence number it has not seen, and
//! MaxIT idle expiry. Being *receiver-reliable*, it decides for itself
//! what to recover — everything, or a recent window (a window of 0 keeps
//! nothing but the latest state) — and pulls retransmissions through a
//! `Requests` table climbing its recovery targets: the site's secondary
//! logging server first, then the primary (§2.2.1's "next-higher-level"
//! fallback), re-resolving the primary via the source when the hierarchy
//! goes quiet (§2.2.3).

use std::time::Duration;

use lbrm_wire::{GroupId, HostId, Packet, Seq, SourceId};

use crate::gaps::{span_start, GapTracker, Observation, SeqUnwrapper};
use crate::heartbeat::HeartbeatConfig;
use crate::machine::{Action, Actions, Delivery, LossSignal, Machine, Notice};
use crate::recovery::{Authority, Origin, Requests, Retry};
use crate::sender::FAILOVER_BOUND;
use crate::time::{earliest, Time};
use crate::trace::{ProtocolEvent, Tracer};

/// What a receiver recovers (receiver-reliability, §2).
///
/// On first contact with the stream (data, heartbeat or repair), every
/// sequence number from [`Seq::FIRST`] to the one before the first heard
/// counts as lost, as one gap: a receiver cannot tell a packet it missed
/// while listening from one sent before it joined. Like any gap it marks
/// at most the newest `MAX_GAP_SPAN` numbers, and the mode alone decides
/// how much of it is owed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReliabilityMode {
    /// Recover every lost packet: on first contact, the whole stream
    /// back to its origin.
    RecoverAll,
    /// Recover only the newest `n` sequence numbers; older losses are
    /// abandoned. On first contact, the `n` numbers ending at the first
    /// one heard. `Window(0)` never recovers: only the newest data
    /// matters (pure freshness).
    Window(u32),
}

/// Retry interval for unanswered NACKs.
const NACK_EVERY: Duration = Duration::from_millis(400);

/// NACKs per recovery target before moving to the next one up (§2.2.1).
const NACK_PER_RUNG: u32 = 3;

/// NACKs for one packet before abandoning it as unrecoverable (e.g. a
/// packet older than every log's retention); new authority restarts the
/// count. One [`FAILOVER_BOUND`] of NACKs, plus a rung's before the
/// primary is asked and a rung's after the election (to escalate and
/// learn the new leader): 8 + 3 + 3 = 14, one above the 13 the chaos
/// matrix (seeds 1–2000) needs. A margin, not a guarantee: the count can
/// start before the crash, and a round without a quorum starts over.
const MAX_RECOVERY_ATTEMPTS: u32 =
    (FAILOVER_BOUND.as_millis() as u32).div_ceil(NACK_EVERY.as_millis() as u32) + 2 * NACK_PER_RUNG;

const NACKS: Retry = Retry {
    every: NACK_EVERY,
    per_rung: NACK_PER_RUNG,
    budget: MAX_RECOVERY_ATTEMPTS,
};

/// Multiplier on the expected inter-packet interval before the idle
/// alarm fires (covers one lost heartbeat plus jitter).
const IDLE_SLACK: f64 = 2.0;

/// Receiver configuration.
#[derive(Debug, Clone)]
pub struct ReceiverConfig {
    /// Group subscribed to.
    pub group: GroupId,
    /// Source listened to.
    pub source: SourceId,
    /// This receiver's host.
    pub host: HostId,
    /// Maximum Idle Time: the freshness bound the source promised.
    pub maxit: Duration,
    /// Recovery policy.
    pub mode: ReliabilityMode,
    /// Wait before the first NACK — lets reordered packets arrive and
    /// avoids NACK implosion at the logger (§2.3.2, Appendix A).
    pub nack_delay: Duration,
    /// Recovery targets in preference order (site secondary first, then
    /// the primary): the ladder the receiver's requests climb.
    /// [`Receiver::new`] moves them out, leaving this field empty; a
    /// `PrimaryIs` or a new term replaces the last one.
    pub recovery_targets: Vec<HostId>,
    /// The source's host, consulted to re-locate the primary when every
    /// target is unresponsive.
    pub source_host: HostId,
    /// The sender's heartbeat parameters, used to *adapt* the idle
    /// alarm: each heartbeat announces (via its index) how long until the
    /// next one, so the receiver expects silence of up to that interval
    /// without declaring the channel dead. Without this, a variable-
    /// heartbeat source idling toward `h_max` would false-alarm a
    /// `maxit`-based timer constantly.
    pub heartbeat: HeartbeatConfig,
}

impl ReceiverConfig {
    /// A receiver on `host` recovering from `targets` (nearest first).
    pub fn new(
        group: GroupId,
        source: SourceId,
        host: HostId,
        source_host: HostId,
        targets: Vec<HostId>,
    ) -> Self {
        ReceiverConfig {
            group,
            source,
            host,
            maxit: Duration::from_millis(250),
            mode: ReliabilityMode::RecoverAll,
            nack_delay: Duration::from_millis(30),
            recovery_targets: targets,
            source_host,
            heartbeat: HeartbeatConfig::default(),
        }
    }
}

/// Running statistics, exposed for experiments and applications.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReceiverStats {
    /// Packets delivered from the original multicast.
    pub delivered: u64,
    /// Packets delivered via recovery.
    pub recovered: u64,
    /// Loss-detection events.
    pub losses_detected: u64,
    /// Losses abandoned by policy.
    pub abandoned: u64,
    /// Duplicates discarded.
    pub duplicates: u64,
}

/// The window of silence a receiver tolerates before declaring the
/// channel idle-dead, when it expects the sender's next transmission
/// within `expected`.
fn idle_window(expected: Duration, maxit: Duration) -> Duration {
    Duration::from_secs_f64(expected.as_secs_f64() * IDLE_SLACK).max(maxit)
}

/// The receiver state machine.
#[derive(Clone)]
pub struct Receiver {
    config: ReceiverConfig,
    gaps: GapTracker,
    /// Open recoveries, keyed by the gap tracker's index of their seq,
    /// each with the time its loss was detected.
    requests: Requests<Time>,
    last_source_packet_at: Option<Time>,
    /// Expected interval until the sender's next transmission, learned
    /// from heartbeat indices.
    expected_interval: Duration,
    /// The heartbeat index `expected_interval` was learned from (`None`:
    /// a data packet), so a repeated index costs no float arithmetic.
    learned_from: Option<u32>,
    /// The window of silence tolerated before declaring the channel
    /// idle-dead, a function of `expected_interval` kept beside it (by
    /// [`learn_interval`](Self::learn_interval)) so the per-event
    /// `next_deadline` does no float arithmetic.
    idle_window: Duration,
    fresh: bool,
    /// The log-authority term last announced to the group and its
    /// leader, initially the presumed primary (the last recovery
    /// target); repairs from deposed leaders are fenced.
    authority: Authority,
    stats: ReceiverStats,
    tracer: Tracer,
}

impl Receiver {
    /// Creates a receiver.
    pub fn new(mut config: ReceiverConfig) -> Self {
        Receiver {
            authority: Authority::new(config.recovery_targets.last().copied()),
            expected_interval: config.heartbeat.h_min,
            learned_from: None,
            idle_window: idle_window(config.heartbeat.h_min, config.maxit),
            requests: Requests::new(NACKS, std::mem::take(&mut config.recovery_targets)),
            config,
            gaps: GapTracker::new(),
            last_source_packet_at: None,
            fresh: false,
            stats: ReceiverStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// The log-authority term this receiver last observed.
    pub fn term(&self) -> u32 {
        self.authority.term()
    }

    /// Attaches a protocol-event tracer (see [`crate::trace`]).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer.with_host(self.config.host);
    }

    /// A digest of the protocol state (not the statistics or the
    /// tracer): two receivers with equal digests act alike on the same
    /// inputs.
    pub fn state_digest(&self) -> u64 {
        crate::machine::state_digest(&[
            &self.config,
            &self.gaps,
            &self.requests,
            &self.last_source_packet_at,
            &self.expected_interval,
            &self.fresh,
            &self.authority,
        ])
    }

    /// Updates the expected next-packet interval from a heartbeat index
    /// (`None` = a data packet, which resets the sender's schedule to
    /// `h_min`).
    fn learn_interval(&mut self, hb_index: Option<u32>) {
        if hb_index == self.learned_from {
            return;
        }
        self.learned_from = hb_index;
        let hb = &self.config.heartbeat;
        let interval = match hb_index {
            None => hb.h_min,
            Some(k) => {
                let scaled = hb.h_min.as_secs_f64() * hb.backoff.powi(k as i32);
                Duration::from_secs_f64(scaled.min(hb.h_max.as_secs_f64()))
            }
        };
        self.expected_interval = interval;
        self.idle_window = idle_window(interval, self.config.maxit);
    }

    /// Running statistics.
    pub fn stats(&self) -> ReceiverStats {
        ReceiverStats {
            // Losses too far behind one sequence jump are given up
            // wholesale by the gap tracker.
            abandoned: self.stats.abandoned + self.gaps.given_up(),
            ..self.stats
        }
    }

    /// Time since the last source packet (data or heartbeat), if any —
    /// the receiver's bound on how stale its state can be.
    pub fn staleness(&self, now: Time) -> Option<Duration> {
        self.last_source_packet_at.map(|t| now.since(t))
    }

    /// `true` while the MaxIT freshness guarantee holds.
    pub fn is_fresh(&self, now: Time) -> bool {
        self.staleness(now).is_some_and(|s| s <= self.config.maxit)
    }

    /// Number of losses currently being recovered.
    pub fn outstanding_recoveries(&self) -> usize {
        self.requests.len()
    }

    fn touch_source(&mut self, now: Time, out: &mut Actions) {
        if self.last_source_packet_at.is_some() && !self.fresh {
            out.push(Action::Notice(Notice::FreshnessRestored));
            self.tracer
                .emit(now.nanos(), || ProtocolEvent::FreshnessRestored);
        }
        self.fresh = true;
        self.last_source_packet_at = Some(now);
    }

    /// Applies the reliability mode to newly detected losses `[first,
    /// last]` and schedules recovery.
    fn on_loss(&mut self, now: Time, first: Seq, last: Seq, signal: LossSignal, out: &mut Actions) {
        self.stats.losses_detected += 1;
        out.push(Action::Notice(Notice::LossDetected {
            first,
            last,
            signal,
        }));
        self.tracer
            .emit(now.nanos(), || ProtocolEvent::GapDetected { first, last });
        if let (ReliabilityMode::Window(n), Some(high)) = (self.config.mode, self.gaps.highest()) {
            // Everything missing below the window is given up, the gap
            // just detected included, and each seq's timeline closes.
            let floor_idx = (self.gaps.index(high) + 1).saturating_sub(u64::from(n));
            let (stats, tracer) = (&mut self.stats, &self.tracer);
            self.gaps
                .give_up_before(SeqUnwrapper::rewrap(floor_idx), |seq| {
                    stats.abandoned += 1;
                    tracer.emit(now.nanos(), || ProtocolEvent::RecoveryAbandoned { seq });
                });
            self.requests.close_before(floor_idx);
        }
        for seq in first.iter_to(last) {
            if !self.gaps.is_missing(seq) {
                continue;
            }
            let idx = self.gaps.index(seq);
            self.requests.open(idx, now + self.config.nack_delay, now);
        }
    }

    /// Takes in an original (`recovered == false`) or a repair of `seq`
    /// and delivers it unless it is a duplicate. A packet ahead of the
    /// head is delivered at once (freshness beats ordering, §1) and the
    /// gap behind it chased; a reordered packet from before the first
    /// observation is valid data and delivered too.
    fn absorb(
        &mut self,
        now: Time,
        from: HostId,
        seq: Seq,
        payload: bytes::Bytes,
        recovered: bool,
        out: &mut Actions,
    ) {
        let gap = match self.gaps.observe(seq) {
            Observation::Duplicate => {
                self.stats.duplicates += 1;
                if recovered {
                    self.tracer
                        .emit(now.nanos(), || ProtocolEvent::RepairDuplicate { seq, from });
                }
                return;
            }
            // The fill closes the open recovery, if any, with the
            // `RepairReceived` + `Recovered` pair that ends its forensic
            // timeline (`from` and `kind` name the carrier).
            Observation::Filled => {
                if let Some(rec) = self.requests.close(self.gaps.index(seq)) {
                    let kind = if recovered { "retrans" } else { "data" };
                    let after = now.since(rec.data);
                    let latency_nanos = after.as_nanos() as u64;
                    let at = now.nanos();
                    let tracer = &self.tracer;
                    tracer.emit(at, || ProtocolEvent::RepairReceived { seq, from, kind });
                    tracer.emit(at, || ProtocolEvent::Recovered { seq, latency_nanos });
                    out.push(Action::Notice(Notice::Recovered { seq, after }));
                }
                0
            }
            Observation::Ahead { gap } => gap,
            Observation::First | Observation::InOrder | Observation::BeforeStart => 0,
        };
        self.deliver(seq, payload, recovered, out);
        if gap > 0 {
            let last = seq.prev();
            self.on_loss(now, span_start(last, gap), last, LossSignal::SeqGap, out);
        }
    }

    fn deliver(&mut self, seq: Seq, payload: bytes::Bytes, recovered: bool, out: &mut Actions) {
        if recovered {
            self.stats.recovered += 1;
        } else {
            self.stats.delivered += 1;
        }
        out.push(Action::Deliver(Delivery {
            seq,
            payload,
            recovered,
        }));
    }
}

impl Machine for Receiver {
    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer.with_host(self.config.host);
    }

    fn on_start(&mut self, now: Time, _out: &mut Actions) {
        self.tracer
            .emit(now.nanos(), || ProtocolEvent::RoleAnnounced {
                role: "receiver",
            });
    }

    fn on_packet(&mut self, now: Time, from: HostId, packet: Packet, out: &mut Actions) {
        let (group, source) = (self.config.group, self.config.source);
        // Fencing: repairs and primary claims from a host deposed by a
        // later term carry no log authority and are dropped whole — no
        // delivery, no gap bookkeeping.
        if matches!(packet, Packet::Retrans { .. } | Packet::PrimaryIs { .. })
            && self.authority.fenced(now, from, &self.tracer)
        {
            return;
        }
        let first_contact = !self.gaps.started();
        match packet {
            Packet::Data {
                group: g,
                source: s,
                seq,
                payload,
                ..
            } if g == group && s == source => {
                self.touch_source(now, out);
                self.learn_interval(None);
                // A late original may fill a gap on its own.
                self.absorb(now, from, seq, payload, false, out);
            }
            Packet::Heartbeat {
                group: g,
                source: s,
                seq,
                hb_index,
                ..
            } if g == group && s == source => {
                self.touch_source(now, out);
                self.learn_interval(Some(hb_index));
                let newly = self.gaps.observe_announced(seq);
                if newly > 0 {
                    self.on_loss(now, span_start(seq, newly), seq, LossSignal::Heartbeat, out);
                }
            }
            Packet::Retrans {
                group: g,
                source: s,
                seq,
                payload,
            } if g == group && s == source => self.absorb(now, from, seq, payload, true, out),
            Packet::PrimaryIs {
                group: g,
                source: s,
                primary,
            } if g == group && s == source => self.requests.retarget(now, primary, false),
            Packet::TermAnnounce {
                group: g,
                source: s,
                term,
                leader,
            } if g == group && s == source && self.authority.adopt(term, leader) => {
                self.requests.retarget(now, leader, true);
            }
            _ => {}
        }
        // On first contact with the stream (data, heartbeat or repair),
        // everything before it is a loss like any other: the mode decides
        // what of it is recovered.
        if first_contact {
            if let Some((first, last)) = self.gaps.reach_back_to_origin() {
                self.on_loss(now, first, last, LossSignal::SeqGap, out);
            }
        }
    }

    fn poll(&mut self, now: Time, out: &mut Actions) {
        // Idle expiry: expected traffic stopped arriving.
        if self.fresh {
            if let Some(last) = self.last_source_packet_at {
                if now.since(last) > self.idle_window {
                    self.fresh = false;
                    out.push(Action::Notice(Notice::FreshnessLost));
                    self.tracer
                        .emit(now.nanos(), || ProtocolEvent::FreshnessLost);
                    out.push(Action::Notice(Notice::LossDetected {
                        first: self.gaps.highest().map_or(Seq::ZERO, |h| h.next()),
                        last: self.gaps.highest().map_or(Seq::ZERO, |h| h.next()),
                        signal: LossSignal::IdleTimeout,
                    }));
                }
            }
        }
        // Recovery NACKs, batched per target.
        let c = &self.config;
        let origin = Origin::new(c.group, c.source, c.host, &self.tracer);
        let (gaps, stats) = (&mut self.gaps, &mut self.stats);
        let locate = Some(self.config.source_host);
        self.requests.poll(now, origin, locate, out, |seq| {
            // Nobody can supply this packet (retention expired
            // everywhere, or no leader answers): stop asking.
            gaps.abandon(seq);
            stats.abandoned += 1;
            origin
                .tracer
                .emit(now.nanos(), || ProtocolEvent::RecoveryAbandoned { seq });
        });
    }

    fn next_deadline(&self) -> Option<Time> {
        let idle = self
            .last_source_packet_at
            .filter(|_| self.fresh)
            .map(|t| t + self.idle_window + Duration::from_nanos(1));
        earliest(idle, self.requests.next_due())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaps::MAX_GAP_SPAN;
    use crate::machine::{deliveries, notices};
    use bytes::Bytes;
    use lbrm_wire::packet::SeqRange;
    use lbrm_wire::EpochId;

    const GROUP: GroupId = GroupId(1);
    const SRC: SourceId = SourceId(10);
    const SRC_HOST: HostId = HostId(100);
    const ME: HostId = HostId(400);
    const SECONDARY: HostId = HostId(300);
    const PRIMARY: HostId = HostId(200);

    fn rx() -> Receiver {
        Receiver::new(ReceiverConfig::new(
            GROUP,
            SRC,
            ME,
            SRC_HOST,
            vec![SECONDARY, PRIMARY],
        ))
    }

    fn data(seq: u32) -> Packet {
        Packet::Data {
            group: GROUP,
            source: SRC,
            seq: Seq(seq),
            epoch: EpochId(0),
            payload: Bytes::from_static(b"payload"),
        }
    }

    fn heartbeat(seq: u32) -> Packet {
        Packet::Heartbeat {
            group: GROUP,
            source: SRC,
            seq: Seq(seq),
            epoch: EpochId(0),
            hb_index: 1,
            payload: Bytes::new(),
        }
    }

    fn retrans(seq: u32) -> Packet {
        Packet::Retrans {
            group: GROUP,
            source: SRC,
            seq: Seq(seq),
            payload: Bytes::from_static(b"payload"),
        }
    }

    #[test]
    fn in_order_delivery() {
        let mut r = rx();
        let mut out = Actions::new();
        r.on_packet(Time::ZERO, SRC_HOST, data(1), &mut out);
        r.on_packet(Time::from_millis(1), SRC_HOST, data(2), &mut out);
        assert_eq!(deliveries(&out).len(), 2);
        assert_eq!(r.stats().delivered, 2);
        assert_eq!(r.outstanding_recoveries(), 0);
    }

    #[test]
    fn gap_detection_delivers_latest_and_nacks_secondary() {
        let mut r = rx();
        let mut out = Actions::new();
        r.on_packet(Time::ZERO, SRC_HOST, data(1), &mut out);
        out.clear();
        r.on_packet(Time::from_millis(10), SRC_HOST, data(4), &mut out);
        // Latest data delivered immediately despite the gap.
        assert_eq!(deliveries(&out).len(), 1);
        assert!(notices(&out).iter().any(|n| matches!(
            n,
            Notice::LossDetected { first, last, signal: LossSignal::SeqGap }
                if *first == Seq(2) && *last == Seq(3)
        )));
        // NACK after the reorder delay, to the secondary first.
        let d = r.next_deadline().unwrap();
        assert_eq!(d, Time::from_millis(10) + r.config.nack_delay);
        out.clear();
        r.poll(d, &mut out);
        match &out[..] {
            [Action::Unicast {
                to,
                packet: Packet::Nack {
                    ranges, requester, ..
                },
            }] => {
                assert_eq!(*to, SECONDARY);
                assert_eq!(*requester, ME);
                assert_eq!(
                    ranges,
                    &vec![SeqRange {
                        first: Seq(2),
                        last: Seq(3)
                    }]
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn retrans_fills_gap_and_reports_recovery_latency() {
        let mut r = rx();
        let mut out = Actions::new();
        r.on_packet(Time::ZERO, SRC_HOST, data(1), &mut out);
        r.on_packet(Time::from_millis(10), SRC_HOST, data(3), &mut out);
        out.clear();
        r.on_packet(Time::from_millis(60), SECONDARY, retrans(2), &mut out);
        let ds = deliveries(&out);
        assert_eq!(ds.len(), 1);
        assert!(ds[0].recovered);
        assert!(notices(&out).iter().any(|n| matches!(
            n,
            Notice::Recovered { seq, after } if *seq == Seq(2) && *after == Duration::from_millis(50)
        )));
        assert_eq!(r.outstanding_recoveries(), 0);
        assert_eq!(r.stats().recovered, 1);
    }

    #[test]
    fn late_original_cancels_recovery() {
        let mut r = rx();
        let mut out = Actions::new();
        r.on_packet(Time::ZERO, SRC_HOST, data(1), &mut out);
        r.on_packet(Time::from_millis(5), SRC_HOST, data(3), &mut out);
        assert_eq!(r.outstanding_recoveries(), 1);
        out.clear();
        // The "lost" packet was merely reordered.
        r.on_packet(Time::from_millis(8), SRC_HOST, data(2), &mut out);
        assert_eq!(r.outstanding_recoveries(), 0);
        assert_eq!(deliveries(&out).len(), 1);
        assert!(!deliveries(&out)[0].recovered);
        // No NACK goes out later.
        out.clear();
        r.poll(Time::from_secs(1), &mut out);
        assert!(!out.iter().any(|a| matches!(a, Action::Unicast { .. })));
    }

    #[test]
    fn heartbeat_reveals_loss_of_newest() {
        let mut r = rx();
        let mut out = Actions::new();
        r.on_packet(Time::ZERO, SRC_HOST, data(1), &mut out);
        out.clear();
        r.on_packet(Time::from_millis(250), SRC_HOST, heartbeat(2), &mut out);
        assert!(notices(&out).iter().any(|n| matches!(
            n,
            Notice::LossDetected { first, last, signal: LossSignal::Heartbeat }
                if *first == Seq(2) && *last == Seq(2)
        )));
        assert_eq!(r.outstanding_recoveries(), 1);
    }

    #[test]
    fn duplicates_counted_not_delivered() {
        let mut r = rx();
        let mut out = Actions::new();
        r.on_packet(Time::ZERO, SRC_HOST, data(1), &mut out);
        out.clear();
        r.on_packet(Time::from_millis(1), SRC_HOST, data(1), &mut out);
        assert!(deliveries(&out).is_empty());
        assert_eq!(r.stats().duplicates, 1);
    }

    #[test]
    fn freshness_lifecycle() {
        let mut r = rx();
        let mut out = Actions::new();
        r.on_packet(Time::ZERO, SRC_HOST, data(1), &mut out);
        assert!(r.is_fresh(Time::from_millis(100)));
        assert!(!r.is_fresh(Time::from_millis(251)));
        // Poll past MaxIT: freshness lost.
        let d = r.next_deadline().unwrap();
        out.clear();
        r.poll(d, &mut out);
        assert!(notices(&out)
            .iter()
            .any(|n| matches!(n, Notice::FreshnessLost)));
        assert!(notices(&out).iter().any(|n| matches!(
            n,
            Notice::LossDetected {
                signal: LossSignal::IdleTimeout,
                ..
            }
        )));
        // A heartbeat restores freshness.
        out.clear();
        r.on_packet(
            d + Duration::from_millis(10),
            SRC_HOST,
            heartbeat(1),
            &mut out,
        );
        assert!(notices(&out)
            .iter()
            .any(|n| matches!(n, Notice::FreshnessRestored)));
        assert!(r.is_fresh(d + Duration::from_millis(10)));
    }

    #[test]
    fn escalates_to_primary_then_locates() {
        let mut r = rx();
        let mut out = Actions::new();
        r.on_packet(Time::ZERO, SRC_HOST, data(1), &mut out);
        r.on_packet(Time::from_millis(1), SRC_HOST, data(3), &mut out);
        let mut saw_secondary = false;
        let mut saw_primary = false;
        let mut saw_locate = false;
        for _ in 0..30 {
            let Some(d) = r.next_deadline() else { break };
            out.clear();
            r.poll(d, &mut out);
            for a in &out {
                match a {
                    Action::Unicast {
                        to,
                        packet: Packet::Nack { .. },
                    } if *to == SECONDARY => {
                        saw_secondary = true;
                    }
                    Action::Unicast {
                        to,
                        packet: Packet::Nack { .. },
                    } if *to == PRIMARY => {
                        saw_primary = true;
                    }
                    Action::Unicast {
                        to,
                        packet: Packet::LocatePrimary { .. },
                    } if *to == SRC_HOST => {
                        saw_locate = true;
                    }
                    _ => {}
                }
            }
            if saw_locate {
                break;
            }
        }
        assert!(saw_secondary && saw_primary && saw_locate);
    }

    #[test]
    fn primary_is_redirects_last_target() {
        let mut r = rx();
        let mut out = Actions::new();
        let new_primary = HostId(999);
        r.on_packet(
            Time::ZERO,
            SRC_HOST,
            Packet::PrimaryIs {
                group: GROUP,
                source: SRC,
                primary: new_primary,
            },
            &mut out,
        );
        // Only the last rung moved: a gap is still asked of the site
        // secondary three times before the new primary.
        r.on_packet(Time::ZERO, SRC_HOST, data(1), &mut out);
        r.on_packet(Time::from_millis(1), SRC_HOST, data(3), &mut out);
        assert_eq!(
            nack_targets(&mut r, 4),
            vec![SECONDARY, SECONDARY, SECONDARY, new_primary]
        );
    }

    #[test]
    fn window_mode_recovers_only_recent() {
        let mut cfg = ReceiverConfig::new(GROUP, SRC, ME, SRC_HOST, vec![SECONDARY]);
        cfg.mode = ReliabilityMode::Window(3);
        let mut r = Receiver::new(cfg);
        let mut out = Actions::new();
        r.on_packet(Time::ZERO, SRC_HOST, data(1), &mut out);
        // Jump to 10: missing 2..=9, but the window keeps only 8, 9
        // (window of 3 ending at 10).
        r.on_packet(Time::from_millis(1), SRC_HOST, data(10), &mut out);
        assert_eq!(r.outstanding_recoveries(), 2);
        let d = r.next_deadline().unwrap();
        out.clear();
        r.poll(d, &mut out);
        match &out[..] {
            [Action::Unicast {
                packet: Packet::Nack { ranges, .. },
                ..
            }] => {
                assert_eq!(
                    ranges,
                    &vec![SeqRange {
                        first: Seq(8),
                        last: Seq(9)
                    }]
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_window_of_zero_recovers_nothing() {
        let mut cfg = ReceiverConfig::new(GROUP, SRC, ME, SRC_HOST, vec![SECONDARY]);
        cfg.mode = ReliabilityMode::Window(0);
        let mut r = Receiver::new(cfg);
        let mut out = Actions::new();
        r.on_packet(Time::ZERO, SRC_HOST, data(3), &mut out);
        r.on_packet(Time::from_millis(1), SRC_HOST, data(5), &mut out);
        r.on_packet(Time::from_millis(2), SRC_HOST, heartbeat(6), &mut out);
        assert_eq!(deliveries(&out).len(), 2);
        assert_eq!(r.outstanding_recoveries(), 0);
        assert_eq!(r.stats().abandoned, 4, "#1, #2, #4 and the announced #6");
        // No NACKs ever.
        out.clear();
        r.poll(Time::from_secs(10), &mut out);
        assert!(!out.iter().any(|a| matches!(a, Action::Unicast { .. })));
    }

    #[test]
    fn every_detected_seq_closes_on_the_trace_in_every_mode() {
        use crate::trace::analyze::{analyze, AnalyzeConfig, RecoveryOutcome};
        use crate::trace::{CollectorSink, ProtocolEvent};
        use std::collections::BTreeSet;
        use std::sync::Arc;

        let modes = [
            ReliabilityMode::RecoverAll,
            ReliabilityMode::Window(0),
            ReliabilityMode::Window(2),
        ];
        for mode in modes {
            for first in [1, 5] {
                let mut cfg = ReceiverConfig::new(GROUP, SRC, ME, SRC_HOST, vec![SECONDARY]);
                cfg.mode = mode;
                let mut r = Receiver::new(cfg);
                let collector = Arc::new(CollectorSink::default());
                r.set_tracer(Tracer::to(collector.clone()));
                let mut out = Actions::new();
                r.on_start(Time::ZERO, &mut out);
                // First contact, then a 4-seq gap whose newest seq is
                // repaired at once; nobody answers for the rest, so a
                // `RecoverAll` receiver spends its budget on them.
                r.on_packet(Time::ZERO, SRC_HOST, data(first), &mut out);
                r.on_packet(Time::from_millis(1), SRC_HOST, data(first + 5), &mut out);
                r.on_packet(
                    Time::from_millis(2),
                    SECONDARY,
                    retrans(first + 4),
                    &mut out,
                );
                for _ in 0..1000 {
                    let Some(at) = r.next_deadline() else { break };
                    r.poll(at, &mut out);
                }
                assert_eq!(r.next_deadline(), None, "{mode:?} from #{first} goes quiet");
                let records = collector.take();
                let detected: BTreeSet<u32> = records
                    .iter()
                    .filter_map(|rec| match rec.event {
                        ProtocolEvent::GapDetected { first, last } => Some(first.iter_to(last)),
                        _ => None,
                    })
                    .flatten()
                    .map(Seq::raw)
                    .collect();
                let want: BTreeSet<u32> = (1..first).chain(first + 1..first + 5).collect();
                assert_eq!(detected, want, "{mode:?} from #{first}");
                let report = analyze(&records, &AnalyzeConfig::default());
                let closed: BTreeSet<u32> = report
                    .timelines
                    .iter()
                    .filter(|t| t.outcome != RecoveryOutcome::Unrecovered)
                    .map(|t| t.seq.raw())
                    .collect();
                assert_eq!(closed, detected, "{mode:?} from #{first}");
                assert!(
                    report.is_clean(),
                    "{mode:?} from #{first}: {:?}",
                    report.anomalies
                );
                assert_eq!(report.unrecovered, 0, "{mode:?} from #{first}");
                assert_eq!(
                    r.stats().abandoned,
                    report.abandoned as u64,
                    "{mode:?} from #{first}"
                );
            }
        }
    }

    #[test]
    fn heartbeat_payload_is_ignored_and_the_loss_opens_a_recovery() {
        let mut r = rx();
        let mut out = Actions::new();
        r.on_packet(Time::ZERO, SRC_HOST, data(1), &mut out);
        out.clear();
        // Bytes in a heartbeat carry no log authority: #2 is only announced.
        let hb = Packet::Heartbeat {
            group: GROUP,
            source: SRC,
            seq: Seq(2),
            epoch: EpochId(0),
            hb_index: 1,
            payload: Bytes::from_static(b"repeat"),
        };
        r.on_packet(Time::from_millis(250), SRC_HOST, hb, &mut out);
        assert!(deliveries(&out).is_empty());
        assert_eq!(r.stats().recovered, 0);
        assert_eq!(r.outstanding_recoveries(), 1);
    }

    #[test]
    fn idle_window_adapts_to_heartbeat_backoff() {
        // After seeing heartbeat #5 the receiver knows the next one is
        // 0.25 * 2^5 = 8 s away, and must not false-alarm before then.
        let mut r = rx();
        let mut out = Actions::new();
        r.on_packet(Time::ZERO, SRC_HOST, data(1), &mut out);
        let hb5 = Packet::Heartbeat {
            group: GROUP,
            source: SRC,
            seq: Seq(1),
            epoch: EpochId(0),
            hb_index: 5,
            payload: Bytes::new(),
        };
        let at = Time::from_millis(15_750);
        r.on_packet(at, SRC_HOST, hb5, &mut out);
        out.clear();
        // 10 s later, inside the 16 s adaptive window: no alarm.
        r.poll(at + Duration::from_secs(10), &mut out);
        assert!(!notices(&out)
            .iter()
            .any(|n| matches!(n, Notice::FreshnessLost)));
        // 17 s later, past the window: alarm.
        r.poll(at + Duration::from_secs(17), &mut out);
        assert!(notices(&out)
            .iter()
            .any(|n| matches!(n, Notice::FreshnessLost)));
        // A data packet resets the expectation to h_min (window 0.5 s).
        out.clear();
        let t2 = at + Duration::from_secs(18);
        r.on_packet(t2, SRC_HOST, data(2), &mut out);
        r.poll(t2 + Duration::from_millis(600), &mut out);
        assert!(notices(&out)
            .iter()
            .any(|n| matches!(n, Notice::FreshnessLost)));
    }

    #[test]
    fn a_repair_making_first_contact_reaches_back_too() {
        // A site re-multicast can reach a receiver before any original.
        let mut r = rx();
        let mut out = Actions::new();
        r.on_packet(Time::ZERO, SECONDARY, retrans(3), &mut out);
        assert_eq!(deliveries(&out).len(), 1);
        assert_eq!(r.outstanding_recoveries(), 2, "#1 and #2, not #0");
    }

    #[test]
    fn a_window_bounds_the_history_recovered_on_join() {
        // A joiner whose first packet is #20 lost everything before it;
        // a window of 6 owes only the previous 5.
        let mut cfg = ReceiverConfig::new(GROUP, SRC, ME, SRC_HOST, vec![SECONDARY]);
        cfg.mode = ReliabilityMode::Window(6);
        let mut r = Receiver::new(cfg);
        let mut out = Actions::new();
        r.on_packet(Time::ZERO, SRC_HOST, data(20), &mut out);
        assert_eq!(deliveries(&out).len(), 1);
        assert!(notices(&out).iter().any(|n| matches!(
            n,
            Notice::LossDetected { first, last, .. } if *first == Seq(1) && *last == Seq(19)
        )));
        assert_eq!(r.outstanding_recoveries(), 5);
        assert_eq!(r.stats().abandoned, 14, "#1..=#14 lie outside the window");
        // The NACK asks for exactly 15..=19.
        let d = r.next_deadline().unwrap();
        out.clear();
        r.poll(d, &mut out);
        match &out[..] {
            [Action::Unicast {
                packet: Packet::Nack { ranges, .. },
                ..
            }] => {
                assert_eq!(
                    ranges,
                    &vec![SeqRange {
                        first: Seq(15),
                        last: Seq(19)
                    }]
                );
            }
            other => panic!("{other:?}"),
        }
        // Retransmissions fill history; the receiver ends whole.
        for s in 15..=19u32 {
            r.on_packet(Time::from_millis(100), SECONDARY, retrans(s), &mut out);
        }
        assert_eq!(r.outstanding_recoveries(), 0);
        assert_eq!(r.stats().recovered, 5);
    }

    #[test]
    fn unrecoverable_packets_are_abandoned_after_max_attempts() {
        // Nobody ever answers: after MAX_RECOVERY_ATTEMPTS total NACKs
        // the receiver writes the packet off instead of asking forever.
        let cfg = ReceiverConfig::new(GROUP, SRC, ME, SRC_HOST, vec![SECONDARY]);
        let mut r = Receiver::new(cfg);
        let mut out = Actions::new();
        r.on_packet(Time::ZERO, SRC_HOST, data(1), &mut out);
        r.on_packet(Time::from_millis(1), SRC_HOST, data(3), &mut out);
        assert_eq!(r.outstanding_recoveries(), 1);
        let mut nacks = 0;
        for _ in 0..40 {
            let Some(d) = r.next_deadline() else { break };
            out.clear();
            r.poll(d, &mut out);
            nacks += out
                .iter()
                .filter(|a| {
                    matches!(
                        a,
                        Action::Unicast {
                            packet: Packet::Nack { .. },
                            ..
                        }
                    )
                })
                .count();
            if r.outstanding_recoveries() == 0 {
                break;
            }
        }
        assert_eq!(nacks, MAX_RECOVERY_ATTEMPTS as usize);
        assert_eq!(r.outstanding_recoveries(), 0);
        assert_eq!(r.stats().abandoned, 1);
        // The abandoned packet no longer counts as missing.
        let mut out2 = Actions::new();
        r.poll(Time::from_secs(100), &mut out2);
        assert!(!out2.iter().any(|a| matches!(a, Action::Unicast { .. })));
    }

    /// Polls at each deadline until `r` sends `n` NACKs or has nothing
    /// left to recover; returns the NACKs' targets.
    fn nack_targets(r: &mut Receiver, n: usize) -> Vec<HostId> {
        let mut to = Vec::new();
        while to.len() < n && r.outstanding_recoveries() > 0 {
            let d = r.next_deadline().expect("an open recovery has a deadline");
            let mut out = Actions::new();
            r.poll(d, &mut out);
            to.extend(out.iter().filter_map(|a| match a {
                Action::Unicast {
                    to,
                    packet: Packet::Nack { .. },
                } => Some(*to),
                _ => None,
            }));
        }
        to
    }

    fn term_announce(term: u32, leader: HostId) -> Packet {
        Packet::TermAnnounce {
            group: GROUP,
            source: SRC,
            term,
            leader,
        }
    }

    #[test]
    fn a_new_term_restarts_the_attempt_budget() {
        let budget = MAX_RECOVERY_ATTEMPTS as usize;
        let cfg = ReceiverConfig::new(GROUP, SRC, ME, SRC_HOST, vec![PRIMARY]);
        let mut r = Receiver::new(cfg);
        let mut out = Actions::new();
        r.on_packet(Time::ZERO, SRC_HOST, data(1), &mut out);
        r.on_packet(Time::from_millis(1), SRC_HOST, data(3), &mut out);
        // One NACK short of the budget.
        assert_eq!(nack_targets(&mut r, budget - 1), vec![PRIMARY; budget - 1]);
        // A newly elected leader is a new supplier: the recovery
        // survives and asks it, with a whole budget.
        let (leader, other) = (HostId(500), HostId(600));
        let now = r.next_deadline().unwrap();
        r.on_packet(now, SRC_HOST, term_announce(2, leader), &mut out);
        assert_eq!(nack_targets(&mut r, 2), vec![leader; 2]);
        // An equal or lower term is no news: the budget runs on.
        let now = r.next_deadline().unwrap();
        r.on_packet(now, SRC_HOST, term_announce(2, other), &mut out);
        r.on_packet(now, SRC_HOST, term_announce(1, other), &mut out);
        assert_eq!(nack_targets(&mut r, usize::MAX), vec![leader; budget - 2]);
        assert_eq!(r.outstanding_recoveries(), 0);
        assert_eq!(r.stats().abandoned, 1);
    }

    fn primary_is(primary: HostId) -> Packet {
        Packet::PrimaryIs {
            group: GROUP,
            source: SRC,
            primary,
        }
    }

    #[test]
    fn a_primary_is_naming_a_new_leader_restarts_a_spent_budget() {
        // The new term's announcement was lost: every NACK goes to the
        // dead primary. Its own name, repeated, is no news.
        let budget = MAX_RECOVERY_ATTEMPTS as usize;
        let cfg = ReceiverConfig::new(GROUP, SRC, ME, SRC_HOST, vec![PRIMARY]);
        let mut r = Receiver::new(cfg);
        let mut out = Actions::new();
        r.on_packet(Time::ZERO, SRC_HOST, data(1), &mut out);
        r.on_packet(Time::from_millis(1), SRC_HOST, data(3), &mut out);
        assert_eq!(nack_targets(&mut r, budget - 1), vec![PRIMARY; budget - 1]);
        let now = r.next_deadline().unwrap();
        r.on_packet(now, SRC_HOST, primary_is(PRIMARY), &mut out);
        assert_eq!(nack_targets(&mut r, 1), vec![PRIMARY]);
        // The budget is spent when the answer to a `LocatePrimary`
        // names the new leader: the recovery asks it, with a whole
        // budget, rather than giving up.
        let leader = HostId(500);
        let now = r.next_deadline().unwrap();
        r.on_packet(now, SRC_HOST, primary_is(leader), &mut out);
        assert_eq!(nack_targets(&mut r, usize::MAX), vec![leader; budget]);
        assert_eq!(r.outstanding_recoveries(), 0);
        assert_eq!(r.stats().abandoned, 1);
    }

    #[test]
    fn an_election_after_twelve_nacks_still_recovers_from_the_new_leader() {
        // Repairs from the primary were lost before it crashed, so the
        // election lands after the 13th NACK, where a budget of 12 had
        // already given the seq up. Until then the source still names
        // the dead primary whenever it is asked.
        let cfg = ReceiverConfig::new(GROUP, SRC, ME, SRC_HOST, vec![PRIMARY]);
        let mut r = Receiver::new(cfg);
        let mut out = Actions::new();
        r.on_packet(Time::ZERO, SRC_HOST, data(1), &mut out);
        r.on_packet(Time::from_millis(1), SRC_HOST, data(3), &mut out);
        let rtt = Duration::from_millis(20);
        let mut asked = 0;
        while asked <= 12 {
            let Some(now) = r.next_deadline() else {
                panic!("abandoned after {asked} NACKs, before the election");
            };
            out.clear();
            r.poll(now, &mut out);
            let locate = out.iter().any(|a| {
                matches!(
                    a,
                    Action::Unicast {
                        packet: Packet::LocatePrimary { .. },
                        ..
                    }
                )
            });
            asked += out
                .iter()
                .filter(|a| {
                    matches!(
                        a,
                        Action::Unicast {
                            to: PRIMARY,
                            packet: Packet::Nack { .. }
                        }
                    )
                })
                .count();
            if locate {
                r.on_packet(now + rtt, SRC_HOST, primary_is(PRIMARY), &mut out);
            }
        }
        let leader = HostId(500);
        let now = r.next_deadline().unwrap();
        r.on_packet(now, SRC_HOST, term_announce(1, leader), &mut out);
        assert_eq!(nack_targets(&mut r, 1), vec![leader]);
        out.clear();
        r.on_packet(now + rtt, leader, retrans(2), &mut out);
        assert_eq!(deliveries(&out).len(), 1);
        assert_eq!(r.stats().recovered, 1);
        assert_eq!(r.stats().abandoned, 0);
    }

    #[test]
    fn gap_across_the_wrap_on_first_contact() {
        // The gap's start is counted back from the new packet in
        // sequence space, not from the receiver's own (still empty)
        // unwrapping history. A window of 8 keeps the history below the
        // first contact out of the count once the jump passes it.
        let mut cfg = ReceiverConfig::new(GROUP, SRC, ME, SRC_HOST, vec![SECONDARY]);
        cfg.mode = ReliabilityMode::Window(8);
        let mut r = Receiver::new(cfg);
        let mut out = Actions::new();
        r.on_packet(Time::ZERO, SRC_HOST, data(u32::MAX - 1), &mut out);
        assert_eq!(r.outstanding_recoveries(), 7, "the window below the join");
        r.on_packet(Time::from_millis(1), SRC_HOST, data(5), &mut out);
        assert!(notices(&out).iter().any(|n| matches!(
            n,
            Notice::LossDetected { first, last, .. } if *first == Seq(u32::MAX) && *last == Seq(4)
        )));
        assert_eq!(r.outstanding_recoveries(), 6);
    }

    /// The newest `MAX_GAP_SPAN` numbers below `far`, and the ones
    /// before them given up wholesale.
    fn bounded_span(far: u32) -> SeqRange {
        SeqRange {
            first: Seq(far - MAX_GAP_SPAN as u32),
            last: Seq(far - 1),
        }
    }

    #[test]
    fn a_data_jump_recovers_at_most_the_bounded_span() {
        let mut r = rx();
        let mut out = Actions::new();
        r.on_packet(Time::ZERO, SRC_HOST, data(1), &mut out);
        out.clear();
        let far = 1 + (1u32 << 20);
        r.on_packet(Time::from_millis(1), SRC_HOST, data(far), &mut out);
        assert_eq!(deliveries(&out).len(), 1, "the new packet is delivered");
        let span = bounded_span(far);
        assert!(notices(&out).iter().any(|n| matches!(
            n,
            Notice::LossDetected { first, last, .. } if *first == span.first && *last == span.last
        )));
        assert_eq!(r.outstanding_recoveries() as u64, MAX_GAP_SPAN);
        assert_eq!(r.stats().abandoned, (1 << 20) - 1 - MAX_GAP_SPAN);
        // One NACK naming the one span.
        let d = r.next_deadline().unwrap();
        out.clear();
        r.poll(d, &mut out);
        match &out[..] {
            [Action::Unicast {
                packet: Packet::Nack { ranges, .. },
                ..
            }] => assert_eq!(ranges, &vec![span]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_heartbeat_jump_recovers_at_most_the_bounded_span() {
        let mut r = rx();
        let mut out = Actions::new();
        r.on_packet(Time::ZERO, SRC_HOST, data(1), &mut out);
        out.clear();
        let far = 1 + (1u32 << 20);
        r.on_packet(Time::from_millis(1), SRC_HOST, heartbeat(far), &mut out);
        // The announced packet itself is missing too.
        let span = bounded_span(far + 1);
        assert!(notices(&out).iter().any(|n| matches!(
            n,
            Notice::LossDetected { first, last, signal: LossSignal::Heartbeat }
                if *first == span.first && *last == span.last
        )));
        assert_eq!(r.outstanding_recoveries() as u64, MAX_GAP_SPAN);
        assert_eq!(r.stats().abandoned, (1 << 20) - MAX_GAP_SPAN);
    }

    #[test]
    fn staleness_reports_time_since_source() {
        let mut r = rx();
        let mut out = Actions::new();
        assert_eq!(r.staleness(Time::from_secs(5)), None);
        r.on_packet(Time::from_secs(5), SRC_HOST, data(1), &mut out);
        assert_eq!(
            r.staleness(Time::from_secs(7)),
            Some(Duration::from_secs(2))
        );
    }
}
