//! The §7 "separate retransmission channel" extension.
//!
//! Future work the paper sketches: "A separate multicast channel could be
//! used for retransmissions. The sender would retransmit every packet on
//! the retransmission channel n times, using an exponential backoff
//! scheme similar to that used for heartbeat packets. A client would
//! recover a lost transmission by subscribing to the retransmission
//! channel, rather than requesting the packet."
//!
//! [`RetransChannelSender`] implements the sender half as a machine that
//! shadows the main stream. On the receiver side no new machine is
//! needed: a [`crate::receiver::Receiver`] configured with
//! [`crate::receiver::ReceiverConfig`] already accepts `Retrans` packets;
//! the embedding joins the retransmission group when the receiver reports
//! loss and leaves when recovery completes (the `Join`/`Leave` actions
//! emitted by [`RetransSubscriber`] automate that policy).

use std::collections::BTreeMap;
use std::time::Duration;

use bytes::Bytes;

use lbrm_wire::{GroupId, HostId, Packet, Seq, SourceId, TtlScope};

use crate::machine::{Action, Actions, Machine, Notice};
use crate::time::Time;

/// Gap before the first repeat.
const INITIAL_GAP: Duration = Duration::from_millis(250);

/// Sender-side configuration.
#[derive(Debug, Clone)]
pub struct RetransChannelConfig {
    /// The retransmission multicast group (distinct from the data group).
    pub channel: GroupId,
    /// Source whose packets are repeated.
    pub source: SourceId,
    /// How many times each packet is repeated on the channel.
    pub repeats: u32,
    /// Backoff multiplier between repeats.
    pub backoff: f64,
}

impl RetransChannelConfig {
    /// Conventional parameters: 4 repeats at 0.25 s, 0.5 s, 1 s, 2 s.
    pub fn new(channel: GroupId, source: SourceId) -> Self {
        RetransChannelConfig {
            channel,
            source,
            repeats: 4,
            backoff: 2.0,
        }
    }
}

#[derive(Debug, Clone)]
struct Repeat {
    seq: Seq,
    payload: Bytes,
    remaining: u32,
    gap: Duration,
    next_at: Time,
}

/// Repeats every data packet on a separate multicast channel with
/// exponential backoff.
pub struct RetransChannelSender {
    config: RetransChannelConfig,
    schedule: BTreeMap<u64, Repeat>,
    counter: u64,
}

impl RetransChannelSender {
    /// Creates the sender half.
    pub fn new(config: RetransChannelConfig) -> Self {
        assert!(config.backoff >= 1.0);
        RetransChannelSender {
            config,
            schedule: BTreeMap::new(),
            counter: 0,
        }
    }

    /// Registers a freshly sent data packet for repetition.
    pub fn on_data_sent(&mut self, now: Time, seq: Seq, payload: Bytes) {
        if self.config.repeats == 0 {
            return;
        }
        self.counter += 1;
        self.schedule.insert(
            self.counter,
            Repeat {
                seq,
                payload,
                remaining: self.config.repeats,
                gap: INITIAL_GAP,
                next_at: now + INITIAL_GAP,
            },
        );
    }

    /// Packets still scheduled for repetition.
    pub fn scheduled(&self) -> usize {
        self.schedule.len()
    }
}

impl Machine for RetransChannelSender {
    fn on_packet(&mut self, _now: Time, _from: HostId, _packet: Packet, _out: &mut Actions) {}

    fn poll(&mut self, now: Time, out: &mut Actions) {
        let due: Vec<u64> = self
            .schedule
            .iter()
            .filter(|(_, r)| now >= r.next_at)
            .map(|(&k, _)| k)
            .collect();
        for key in due {
            let r = self.schedule.get_mut(&key).expect("due repeat");
            out.push(Action::Multicast {
                scope: TtlScope::Global,
                packet: Packet::Retrans {
                    group: self.config.channel,
                    source: self.config.source,
                    seq: r.seq,
                    payload: r.payload.clone(),
                },
            });
            r.remaining -= 1;
            if r.remaining == 0 {
                self.schedule.remove(&key);
            } else {
                r.gap = Duration::from_secs_f64(r.gap.as_secs_f64() * self.config.backoff);
                r.next_at = now + r.gap;
            }
        }
    }

    fn next_deadline(&self) -> Option<Time> {
        self.schedule.values().map(|r| r.next_at).min()
    }
}

/// Receiver-side subscription policy: join the retransmission channel
/// while losses are outstanding, leave once whole again. Feed it the
/// notices your receiver emits.
pub struct RetransSubscriber {
    channel: GroupId,
    outstanding: i64,
    joined: bool,
}

impl RetransSubscriber {
    /// Creates the policy for `channel`.
    pub fn new(channel: GroupId) -> Self {
        RetransSubscriber {
            channel,
            outstanding: 0,
            joined: false,
        }
    }

    /// `true` while subscribed.
    pub fn joined(&self) -> bool {
        self.joined
    }

    /// Reacts to a receiver notice, emitting `Join`/`Leave` as needed.
    pub fn on_notice(&mut self, notice: &Notice, out: &mut Actions) {
        match notice {
            Notice::LossDetected { first, last, .. } => {
                self.outstanding += last.distance_from(*first) as i64 + 1;
                if !self.joined && self.outstanding > 0 {
                    self.joined = true;
                    out.push(Action::Join(self.channel));
                }
            }
            Notice::Recovered { .. } => {
                self.outstanding = (self.outstanding - 1).max(0);
                if self.joined && self.outstanding == 0 {
                    self.joined = false;
                    out.push(Action::Leave(self.channel));
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::LossSignal;

    const CHANNEL: GroupId = GroupId(77);
    const SRC: SourceId = SourceId(1);

    #[test]
    fn repeats_follow_exponential_backoff() {
        let mut s = RetransChannelSender::new(RetransChannelConfig::new(CHANNEL, SRC));
        s.on_data_sent(Time::ZERO, Seq(1), Bytes::from_static(b"x"));
        let mut times = Vec::new();
        let mut out = Actions::new();
        while let Some(d) = s.next_deadline() {
            out.clear();
            s.poll(d, &mut out);
            for a in &out {
                if let Action::Multicast {
                    packet: Packet::Retrans { seq, group, .. },
                    ..
                } = a
                {
                    assert_eq!(*seq, Seq(1));
                    assert_eq!(*group, CHANNEL);
                    times.push(d.as_secs_f64());
                }
            }
        }
        assert_eq!(times.len(), 4);
        // 0.25, 0.75, 1.75, 3.75 — the heartbeat-like backoff.
        let expect = [0.25, 0.75, 1.75, 3.75];
        for (got, want) in times.iter().zip(expect) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
        assert_eq!(s.scheduled(), 0);
    }

    #[test]
    fn multiple_packets_interleave() {
        let mut s = RetransChannelSender::new(RetransChannelConfig::new(CHANNEL, SRC));
        s.on_data_sent(Time::ZERO, Seq(1), Bytes::from_static(b"a"));
        s.on_data_sent(Time::from_millis(100), Seq(2), Bytes::from_static(b"b"));
        let mut count = 0;
        let mut out = Actions::new();
        while let Some(d) = s.next_deadline() {
            out.clear();
            s.poll(d, &mut out);
            count += out.len();
        }
        assert_eq!(count, 8);
    }

    #[test]
    fn zero_repeats_disables() {
        let mut cfg = RetransChannelConfig::new(CHANNEL, SRC);
        cfg.repeats = 0;
        let mut s = RetransChannelSender::new(cfg);
        s.on_data_sent(Time::ZERO, Seq(1), Bytes::from_static(b"x"));
        assert_eq!(s.next_deadline(), None);
    }

    #[test]
    fn subscriber_joins_on_loss_and_leaves_when_whole() {
        let mut sub = RetransSubscriber::new(CHANNEL);
        let mut out = Actions::new();
        sub.on_notice(
            &Notice::LossDetected {
                first: Seq(2),
                last: Seq(3),
                signal: LossSignal::SeqGap,
            },
            &mut out,
        );
        assert_eq!(out, vec![Action::Join(CHANNEL)]);
        assert!(sub.joined());
        out.clear();
        sub.on_notice(
            &Notice::Recovered {
                seq: Seq(2),
                after: Duration::from_millis(1),
            },
            &mut out,
        );
        assert!(out.is_empty());
        sub.on_notice(
            &Notice::Recovered {
                seq: Seq(3),
                after: Duration::from_millis(2),
            },
            &mut out,
        );
        assert_eq!(out, vec![Action::Leave(CHANNEL)]);
        assert!(!sub.joined());
    }
}
