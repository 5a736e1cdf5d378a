//! A *wb*-style (SRM) reliable multicast member, built from the paper's
//! §6 description for the comparison experiments.
//!
//! Recovery is "fundamentally unorganized": a receiver that detects loss
//! multicasts a repair request to the whole group after a randomized
//! delay proportional to its distance from the source (to suppress
//! duplicate requests); any member holding the data multicasts the repair
//! after its own randomized delay (to suppress duplicate responses).
//! Loss of the newest packet is detected through periodic fixed-interval
//! session messages. The result is robust — any reachable holder can
//! repair — but every loss anywhere costs group-wide multicast traffic,
//! and recovery takes on the order of 3×RTT to the source.

use std::collections::BTreeMap;
use std::time::Duration;

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use lbrm_wire::packet::SeqRange;
use lbrm_wire::{EpochId, GroupId, HostId, Packet, Seq, SourceId, TtlScope};

use crate::gaps::{span_start, GapTracker, Observation, SeqUnwrapper};
use crate::machine::{Action, Actions, Delivery, LossSignal, Machine, Notice};
use crate::recovery;
use crate::time::{earliest, Time};

/// Request timer: uniform in `[C1·d, (C1+C2)·d]` where `d` is the
/// one-way delay to the source. SRM's classic values are c1=c2=2.
const C1: f64 = 2.0;
/// See [`C1`].
const C2: f64 = 2.0;
/// Repair timer: uniform in `[D1·d, (D1+D2)·d]` where `d` is the
/// one-way delay to the requester. SRM's classic values are d1=d2=1.
const D1: f64 = 1.0;
/// See [`D1`].
const D2: f64 = 1.0;

/// SRM member configuration.
#[derive(Debug, Clone)]
pub struct SrmConfig {
    /// The session's multicast group.
    pub group: GroupId,
    /// This member's host.
    pub host: HostId,
    /// The (single) data source's id.
    pub source: SourceId,
    /// The data source's host.
    pub source_host: HostId,
    /// Fixed session-message interval (wb's loss-detection heartbeat).
    pub session_interval: Duration,
    /// Estimated one-way delays to peers (filled by the embedding from
    /// topology knowledge or session-timestamp measurement).
    pub delay_to: BTreeMap<HostId, Duration>,
    /// Fallback delay estimate.
    pub default_delay: Duration,
    /// Determinism seed for the randomized timers.
    pub seed: u64,
}

impl SrmConfig {
    /// Conventional configuration for a member of `group`.
    pub fn new(group: GroupId, host: HostId, source: SourceId, source_host: HostId) -> Self {
        SrmConfig {
            group,
            host,
            source,
            source_host,
            session_interval: Duration::from_millis(250),
            delay_to: BTreeMap::new(),
            default_delay: Duration::from_millis(30),
            seed: host.raw(),
        }
    }

    fn delay_of(&self, host: HostId) -> Duration {
        self.delay_to
            .get(&host)
            .copied()
            .unwrap_or(self.default_delay)
    }
}

#[derive(Debug, Clone)]
struct RequestTimer {
    seq: Seq,
    fire_at: Time,
    interval: Duration,
    detected_at: Time,
}

#[derive(Debug, Clone)]
struct RepairTimer {
    seq: Seq,
    fire_at: Time,
}

/// Running statistics for experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct SrmStats {
    /// Multicast repair requests this member sent.
    pub nacks_sent: u64,
    /// Multicast repairs this member sent.
    pub repairs_sent: u64,
    /// Packets delivered (original reception).
    pub delivered: u64,
    /// Packets delivered via repair.
    pub recovered: u64,
}

/// One SRM session member. The source member publishes via
/// [`send`](SrmMember::send); every member caches data and participates
/// in recovery.
#[derive(Clone)]
pub struct SrmMember {
    config: SrmConfig,
    rng: SmallRng,
    unwrapper: SeqUnwrapper,
    gaps: GapTracker,
    store: BTreeMap<u64, Bytes>,
    requests: BTreeMap<u64, RequestTimer>,
    repairs: BTreeMap<u64, RepairTimer>,
    next_session_at: Option<Time>,
    next_seq: Seq,
    stats: SrmStats,
}

impl SrmMember {
    /// Creates a member.
    pub fn new(config: SrmConfig) -> Self {
        let rng = SmallRng::seed_from_u64(config.seed);
        SrmMember {
            rng,
            unwrapper: SeqUnwrapper::new(),
            gaps: GapTracker::new(),
            store: BTreeMap::new(),
            requests: BTreeMap::new(),
            repairs: BTreeMap::new(),
            next_session_at: None,
            next_seq: Seq::FIRST,
            stats: SrmStats::default(),
            config,
        }
    }

    /// Running statistics.
    pub fn stats(&self) -> SrmStats {
        self.stats
    }

    /// `true` if this member holds `seq`.
    pub fn has(&self, seq: Seq) -> bool {
        self.store.contains_key(&self.unwrapper.peek(seq))
    }

    /// Publishes a data packet (source member only).
    pub fn send(&mut self, now: Time, payload: Bytes, out: &mut Actions) {
        let seq = self.next_seq;
        self.next_seq = seq.next();
        let idx = self.unwrapper.unwrap(seq);
        self.store.insert(idx, payload.clone());
        self.gaps.observe(seq);
        out.push(Action::Multicast {
            scope: TtlScope::Global,
            packet: Packet::Data {
                group: self.config.group,
                source: self.config.source,
                seq,
                epoch: EpochId::INITIAL,
                payload,
            },
        });
        let _ = now;
    }

    fn jitter(&mut self, base: f64, spread: f64, d: Duration) -> Duration {
        let lo = base * d.as_secs_f64();
        let hi = (base + spread) * d.as_secs_f64();
        Duration::from_secs_f64(if hi > lo {
            self.rng.random_range(lo..hi)
        } else {
            lo
        })
    }

    fn schedule_request(&mut self, now: Time, seq: Seq) {
        let idx = self.unwrapper.unwrap(seq);
        if self.requests.contains_key(&idx) {
            return;
        }
        let d = self.config.delay_of(self.config.source_host);
        let wait = self.jitter(C1, C2, d);
        self.requests.insert(
            idx,
            RequestTimer {
                seq,
                fire_at: now + wait,
                interval: wait,
                detected_at: now,
            },
        );
    }

    fn note_missing(
        &mut self,
        now: Time,
        first: Seq,
        last: Seq,
        signal: LossSignal,
        out: &mut Actions,
    ) {
        out.push(Action::Notice(Notice::LossDetected {
            first,
            last,
            signal,
        }));
        for seq in first.iter_to(last) {
            if self.gaps.is_missing(seq) {
                self.schedule_request(now, seq);
            }
        }
    }

    fn absorb(&mut self, now: Time, seq: Seq, payload: Bytes, via_repair: bool, out: &mut Actions) {
        let idx = self.unwrapper.unwrap(seq);
        match self.gaps.observe(seq) {
            Observation::Duplicate => (),
            Observation::First | Observation::InOrder | Observation::BeforeStart => {
                self.store.insert(idx, payload.clone());
                self.deliver(seq, payload, via_repair, out);
            }
            Observation::Filled => {
                self.store.insert(idx, payload.clone());
                if let Some(req) = self.requests.remove(&idx) {
                    out.push(Action::Notice(Notice::Recovered {
                        seq,
                        after: now.since(req.detected_at),
                    }));
                }
                self.deliver(seq, payload, via_repair, out);
            }
            Observation::Ahead { gap } => {
                self.store.insert(idx, payload.clone());
                self.deliver(seq, payload, via_repair, out);
                let last = seq.prev();
                self.note_missing(now, span_start(last, gap), last, LossSignal::SeqGap, out);
            }
        }
    }

    fn deliver(&mut self, seq: Seq, payload: Bytes, recovered: bool, out: &mut Actions) {
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

impl Machine for SrmMember {
    fn on_start(&mut self, now: Time, _out: &mut Actions) {
        self.next_session_at = Some(now + self.config.session_interval);
    }

    fn on_packet(&mut self, now: Time, _from: HostId, packet: Packet, out: &mut Actions) {
        let (group, source) = (self.config.group, self.config.source);
        match packet {
            Packet::Data {
                group: g,
                source: s,
                seq,
                payload,
                ..
            } if g == group && s == source => {
                self.absorb(now, seq, payload, false, out);
            }
            Packet::SrmSession {
                group: g,
                member,
                last_seq,
            } if g == group => {
                if member == self.config.host {
                    return;
                }
                let newly = self.gaps.observe_announced(last_seq);
                if newly > 0 {
                    let first = span_start(last_seq, newly);
                    self.note_missing(now, first, last_seq, LossSignal::Heartbeat, out);
                }
            }
            Packet::SrmNack {
                group: g,
                source: s,
                requester,
                ranges,
            } if g == group && s == source => {
                for seq in recovery::honored(&ranges).flat_map(|r| r.iter()) {
                    let idx = self.unwrapper.unwrap(seq);
                    // Request suppression: someone else asked first —
                    // back our own request off exponentially.
                    if let Some(req) = self.requests.get_mut(&idx) {
                        req.interval *= 2;
                        let interval = req.interval;
                        let fire_at = now + interval;
                        req.fire_at = fire_at;
                    }
                    // Repair duty: if we hold it, race to answer.
                    if self.store.contains_key(&idx)
                        && !self.repairs.contains_key(&idx)
                        && requester != self.config.host
                    {
                        let d = self.config.delay_of(requester);
                        let wait = self.jitter(D1, D2, d);
                        self.repairs.insert(
                            idx,
                            RepairTimer {
                                seq,
                                fire_at: now + wait,
                            },
                        );
                    }
                }
            }
            Packet::SrmRepair {
                group: g,
                source: s,
                seq,
                payload,
                responder,
            } if g == group && s == source => {
                let idx = self.unwrapper.unwrap(seq);
                // Repair suppression: someone answered; stand down.
                self.repairs.remove(&idx);
                if responder != self.config.host {
                    self.absorb(now, seq, payload, true, out);
                }
            }
            _ => {}
        }
    }

    fn poll(&mut self, now: Time, out: &mut Actions) {
        // Session messages at a fixed interval (wb's detection mechanism).
        if let Some(at) = self.next_session_at {
            if now >= at {
                if let Some(high) = self.gaps.highest() {
                    out.push(Action::Multicast {
                        scope: TtlScope::Global,
                        packet: Packet::SrmSession {
                            group: self.config.group,
                            member: self.config.host,
                            last_seq: high,
                        },
                    });
                }
                self.next_session_at = Some(now + self.config.session_interval);
            }
        }
        // Request timers: multicast the NACK, then wait with backoff.
        let due_requests: Vec<u64> = self
            .requests
            .iter()
            .filter(|(_, r)| now >= r.fire_at)
            .map(|(&i, _)| i)
            .collect();
        if !due_requests.is_empty() {
            let mut ranges: Vec<SeqRange> = Vec::new();
            for idx in due_requests {
                let r = self.requests.get_mut(&idx).expect("due request");
                r.interval *= 2;
                r.fire_at = now + r.interval;
                match ranges.last_mut() {
                    Some(last) if last.last.next() == r.seq => last.last = r.seq,
                    _ => ranges.push(SeqRange::single(r.seq)),
                }
            }
            self.stats.nacks_sent += 1;
            out.push(Action::Multicast {
                scope: TtlScope::Global,
                packet: Packet::SrmNack {
                    group: self.config.group,
                    source: self.config.source,
                    requester: self.config.host,
                    ranges,
                },
            });
        }
        // Repair timers: we won the suppression race; answer.
        let due_repairs: Vec<u64> = self
            .repairs
            .iter()
            .filter(|(_, r)| now >= r.fire_at)
            .map(|(&i, _)| i)
            .collect();
        for idx in due_repairs {
            let r = self.repairs.remove(&idx).expect("due repair");
            if let Some(payload) = self.store.get(&idx) {
                self.stats.repairs_sent += 1;
                out.push(Action::Multicast {
                    scope: TtlScope::Global,
                    packet: Packet::SrmRepair {
                        group: self.config.group,
                        source: self.config.source,
                        seq: r.seq,
                        responder: self.config.host,
                        payload: payload.clone(),
                    },
                });
            }
        }
    }

    fn next_deadline(&self) -> Option<Time> {
        let mut d = self.next_session_at;
        d = earliest(d, self.requests.values().map(|r| r.fire_at).min());
        d = earliest(d, self.repairs.values().map(|r| r.fire_at).min());
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{deliveries, notices};

    const GROUP: GroupId = GroupId(5);
    const SRC: SourceId = SourceId(1);
    const SRC_HOST: HostId = HostId(1);

    fn member(host: u64) -> SrmMember {
        SrmMember::new(SrmConfig::new(GROUP, HostId(host), SRC, SRC_HOST))
    }

    fn data(seq: u32) -> Packet {
        Packet::Data {
            group: GROUP,
            source: SRC,
            seq: Seq(seq),
            epoch: EpochId::INITIAL,
            payload: Bytes::from_static(b"x"),
        }
    }

    #[test]
    fn source_member_multicasts_data() {
        let mut m = member(1);
        let mut out = Actions::new();
        m.send(Time::ZERO, Bytes::from_static(b"hello"), &mut out);
        assert!(matches!(
            &out[..],
            [Action::Multicast { scope: TtlScope::Global, packet: Packet::Data { seq, .. } }]
                if *seq == Seq(1)
        ));
        assert!(m.has(Seq(1)));
    }

    #[test]
    fn gap_triggers_multicast_nack_after_randomized_delay() {
        let mut m = member(2);
        let mut out = Actions::new();
        m.on_start(Time::ZERO, &mut out);
        m.on_packet(Time::ZERO, SRC_HOST, data(1), &mut out);
        out.clear();
        m.on_packet(Time::from_millis(10), SRC_HOST, data(3), &mut out);
        assert!(notices(&out)
            .iter()
            .any(|n| matches!(n, Notice::LossDetected { first, .. } if *first == Seq(2))));
        // The request fires within [C1·d, (C1+C2)·d] of detection.
        let d = m.config.default_delay.as_secs_f64();
        let fire = m.requests.values().next().unwrap().fire_at;
        let wait = fire.since(Time::from_millis(10)).as_secs_f64();
        assert!(wait >= 2.0 * d && wait <= 4.0 * d, "wait {wait}");
        out.clear();
        m.poll(fire, &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Multicast {
                packet: Packet::SrmNack { .. },
                ..
            }
        )));
        assert_eq!(m.stats().nacks_sent, 1);
    }

    #[test]
    fn request_suppressed_by_foreign_nack() {
        let mut m = member(2);
        let mut out = Actions::new();
        m.on_start(Time::ZERO, &mut out);
        m.on_packet(Time::ZERO, SRC_HOST, data(1), &mut out);
        m.on_packet(Time::from_millis(10), SRC_HOST, data(3), &mut out);
        let before = m.requests.values().next().unwrap().fire_at;
        // Another member's NACK for the same packet arrives first.
        let foreign = Packet::SrmNack {
            group: GROUP,
            source: SRC,
            requester: HostId(9),
            ranges: vec![SeqRange::single(Seq(2))],
        };
        m.on_packet(Time::from_millis(12), HostId(9), foreign, &mut out);
        let after = m.requests.values().next().unwrap().fire_at;
        assert!(after > before, "suppression must push the timer back");
    }

    #[test]
    fn holder_repairs_after_delay_and_is_suppressed_by_other_repairs() {
        let mut m = member(3);
        let mut out = Actions::new();
        m.on_start(Time::ZERO, &mut out);
        m.on_packet(Time::ZERO, SRC_HOST, data(1), &mut out);
        m.on_packet(Time::from_millis(1), SRC_HOST, data(2), &mut out);
        out.clear();
        let nack = Packet::SrmNack {
            group: GROUP,
            source: SRC,
            requester: HostId(9),
            ranges: vec![SeqRange::single(Seq(2))],
        };
        m.on_packet(Time::from_millis(20), HostId(9), nack, &mut out);
        assert_eq!(m.repairs.len(), 1);
        // Case A: our timer fires → we multicast the repair.
        let mut m2 = m;
        let fire = m2.repairs.values().next().unwrap().fire_at;
        let mut out2 = Actions::new();
        m2.poll(fire, &mut out2);
        assert!(out2.iter().any(|a| matches!(
            a,
            Action::Multicast { packet: Packet::SrmRepair { seq, .. }, .. } if *seq == Seq(2)
        )));
        assert_eq!(m2.stats().repairs_sent, 1);
        // Case B would be suppression: tested below.
    }

    #[test]
    fn repair_suppression() {
        let mut m = member(3);
        let mut out = Actions::new();
        m.on_start(Time::ZERO, &mut out);
        m.on_packet(Time::ZERO, SRC_HOST, data(1), &mut out);
        m.on_packet(Time::from_millis(1), SRC_HOST, data(2), &mut out);
        let nack = Packet::SrmNack {
            group: GROUP,
            source: SRC,
            requester: HostId(9),
            ranges: vec![SeqRange::single(Seq(2))],
        };
        m.on_packet(Time::from_millis(20), HostId(9), nack, &mut out);
        // Someone else repairs first.
        let repair = Packet::SrmRepair {
            group: GROUP,
            source: SRC,
            seq: Seq(2),
            responder: HostId(4),
            payload: Bytes::from_static(b"x"),
        };
        out.clear();
        m.on_packet(Time::from_millis(25), HostId(4), repair, &mut out);
        assert!(m.repairs.is_empty(), "repair timer must be suppressed");
        let fire = Time::from_secs(10);
        out.clear();
        m.poll(fire, &mut out);
        assert!(!out.iter().any(|a| matches!(
            a,
            Action::Multicast {
                packet: Packet::SrmRepair { .. },
                ..
            }
        )));
    }

    #[test]
    fn repair_recovers_missing_data() {
        let mut m = member(2);
        let mut out = Actions::new();
        m.on_start(Time::ZERO, &mut out);
        m.on_packet(Time::ZERO, SRC_HOST, data(1), &mut out);
        m.on_packet(Time::from_millis(10), SRC_HOST, data(3), &mut out);
        out.clear();
        let repair = Packet::SrmRepair {
            group: GROUP,
            source: SRC,
            seq: Seq(2),
            responder: HostId(4),
            payload: Bytes::from_static(b"x"),
        };
        m.on_packet(Time::from_millis(60), HostId(4), repair, &mut out);
        let ds = deliveries(&out);
        assert_eq!(ds.len(), 1);
        assert!(ds[0].recovered);
        assert!(notices(&out).iter().any(|n| matches!(
            n,
            Notice::Recovered { seq, after } if *seq == Seq(2) && *after == Duration::from_millis(50)
        )));
        assert_eq!(m.stats().recovered, 1);
    }

    #[test]
    fn session_messages_reveal_tail_loss() {
        let mut m = member(2);
        let mut out = Actions::new();
        m.on_start(Time::ZERO, &mut out);
        m.on_packet(Time::ZERO, SRC_HOST, data(1), &mut out);
        out.clear();
        // A session message from a member that saw #3.
        let session = Packet::SrmSession {
            group: GROUP,
            member: HostId(7),
            last_seq: Seq(3),
        };
        m.on_packet(Time::from_millis(300), HostId(7), session, &mut out);
        assert!(notices(&out).iter().any(|n| matches!(
            n,
            Notice::LossDetected { first, last, signal: LossSignal::Heartbeat }
                if *first == Seq(2) && *last == Seq(3)
        )));
        assert_eq!(m.requests.len(), 2);
    }

    #[test]
    fn emits_session_messages_periodically() {
        let mut m = member(2);
        let mut out = Actions::new();
        m.on_start(Time::ZERO, &mut out);
        m.on_packet(Time::ZERO, SRC_HOST, data(1), &mut out);
        out.clear();
        m.poll(Time::from_millis(250), &mut out);
        assert!(matches!(
            &out[..],
            [Action::Multicast { packet: Packet::SrmSession { last_seq, .. }, .. }]
                if *last_seq == Seq(1)
        ));
        // And again one interval later.
        out.clear();
        m.poll(Time::from_millis(500), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn own_session_messages_ignored() {
        let mut m = member(2);
        let mut out = Actions::new();
        m.on_start(Time::ZERO, &mut out);
        m.on_packet(Time::ZERO, SRC_HOST, data(1), &mut out);
        out.clear();
        let own = Packet::SrmSession {
            group: GROUP,
            member: HostId(2),
            last_seq: Seq(5),
        };
        m.on_packet(Time::from_millis(1), HostId(2), own, &mut out);
        assert!(out.is_empty());
        assert_eq!(m.requests.len(), 0);
    }
}
