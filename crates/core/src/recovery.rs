//! The recovery rules every role shares, written once.
//!
//! Under §2.2 a secondary logger asks its parent for lost packets the
//! same way a receiver asks its logger, and §2.2.3's failover (hardened
//! here with terms) must make every role refuse a deposed primary. The
//! sender, receiver and logger therefore keep one [`Authority`] each and
//! emit requests and repairs through the functions below; receivers and
//! loggers keep their open upstream requests in one [`Requests`] table.
//! What differs per role — its [`Retry`] cadence, its target ladder,
//! which packet kinds to fence — stays in the machine.

use std::collections::BTreeMap;
use std::time::Duration;

use bytes::Bytes;

use lbrm_wire::packet::SeqRange;
use lbrm_wire::{GroupId, HostId, Packet, Seq, SourceId, TtlScope};

use crate::gaps::SeqUnwrapper;
use crate::machine::{Action, Actions, Notice};
use crate::time::Time;
use crate::trace::{ProtocolEvent, Tracer};

/// Who holds log authority, as far as one host knows.
///
/// Term 0 is the configured primary; every quorum election increments
/// it. A leader replaced by a later term is *deposed* at the term under
/// which it last held authority, and what it still sends under that
/// term is fenced.
#[derive(Debug, Clone)]
pub struct Authority {
    term: u32,
    leader: Option<HostId>,
    deposed: BTreeMap<HostId, u32>,
}

impl Authority {
    /// Term 0 under the presumed primary `leader`.
    pub fn new(leader: Option<HostId>) -> Self {
        Authority {
            term: 0,
            leader,
            deposed: BTreeMap::new(),
        }
    }

    /// The log-authority term last adopted.
    pub fn term(&self) -> u32 {
        self.term
    }

    /// The leader of [`term`](Self::term), if known.
    pub fn leader(&self) -> Option<HostId> {
        self.leader
    }

    /// Adopts `leader` for `term` if the term is newer than the current
    /// one: the old leader is deposed at the old term, and `leader` is
    /// un-deposed (a re-elected host regains authority). Returns whether
    /// anything changed.
    pub fn adopt(&mut self, term: u32, leader: HostId) -> bool {
        if term <= self.term {
            return false;
        }
        if let Some(old) = self.leader.filter(|&old| old != leader) {
            self.deposed.insert(old, self.term);
        }
        self.deposed.remove(&leader);
        self.term = term;
        self.leader = Some(leader);
        true
    }

    /// This host took authority under the current term (promotion by a
    /// `PrimaryIs` naming it); the term does not change.
    pub fn claim(&mut self, host: HostId) {
        self.leader = Some(host);
    }

    /// `true` if `from` was deposed; traces `StaleTermFenced` with the
    /// term it last held authority under.
    pub fn fenced(&self, now: Time, from: HostId, tracer: &Tracer) -> bool {
        let Some(&term) = self.deposed.get(&from) else {
            return false;
        };
        tracer.emit(now.nanos(), || ProtocolEvent::StaleTermFenced {
            from,
            term,
        });
        true
    }
}

/// The stream a machine speaks for, the host it speaks as and its trace
/// handle: what every request and repair it emits is stamped with.
#[derive(Debug, Clone, Copy)]
pub struct Origin<'a> {
    /// The multicast group.
    pub group: GroupId,
    /// The stream's source.
    pub source: SourceId,
    /// The emitting host (the requester of its NACKs and queries).
    pub host: HostId,
    /// Where the emitted traffic is traced.
    pub tracer: &'a Tracer,
}

impl<'a> Origin<'a> {
    /// `host` speaking for `source` in `group`, traced to `tracer`.
    pub fn new(group: GroupId, source: SourceId, host: HostId, tracer: &'a Tracer) -> Self {
        Origin {
            group,
            source,
            host,
            tracer,
        }
    }

    /// Unicasts one coalesced NACK batch to `target` and traces it as
    /// `NackSent`. An empty batch sends nothing.
    pub fn nack(self, now: Time, target: HostId, ranges: Vec<SeqRange>, out: &mut Actions) {
        let (Some(first), Some(last)) = (ranges.first(), ranges.last()) else {
            return;
        };
        let (first, last) = (first.first, last.last);
        self.tracer.emit(now.nanos(), || ProtocolEvent::NackSent {
            target,
            packets: nack_packets(&ranges),
            first,
            last,
        });
        out.push(Action::Unicast {
            to: target,
            packet: Packet::Nack {
                group: self.group,
                source: self.source,
                requester: self.host,
                ranges,
            },
        });
    }

    /// Surfaces and traces that `primary` stopped answering.
    pub fn primary_unresponsive(self, now: Time, primary: HostId, out: &mut Actions) {
        out.push(Action::Notice(Notice::PrimaryUnresponsive { primary }));
        self.tracer
            .emit(now.nanos(), || ProtocolEvent::PrimaryUnresponsive {
                primary,
            });
    }

    /// Asks the source's host `to` where the primary went (§2.2.3).
    pub fn locate_primary(self, to: HostId, out: &mut Actions) {
        out.push(Action::Unicast {
            to,
            packet: Packet::LocatePrimary {
                group: self.group,
                source: self.source,
                requester: self.host,
            },
        });
    }

    /// Sends one repair of `seq` for `requester` and traces it as
    /// `RetransServed`: a unicast, or with `site = Some(n)` the
    /// site-scoped multicast (§2.2.1) that `n` distinct requesters
    /// triggered, surfaced as a notice.
    pub fn repair(
        self,
        now: Time,
        seq: Seq,
        payload: Bytes,
        requester: HostId,
        site: Option<usize>,
        out: &mut Actions,
    ) {
        self.tracer
            .emit(now.nanos(), || ProtocolEvent::RetransServed {
                seq,
                multicast: site.is_some(),
                to: requester,
            });
        let packet = Packet::Retrans {
            group: self.group,
            source: self.source,
            seq,
            payload,
        };
        let Some(requesters) = site else {
            out.push(Action::Unicast {
                to: requester,
                packet,
            });
            return;
        };
        out.push(Action::Multicast {
            scope: TtlScope::Site,
            packet,
        });
        out.push(Action::Notice(Notice::SiteRemulticast { seq, requesters }));
    }
}

/// How one role asks upstream for a missing seq: every `every`, moving
/// up the target ladder (§2.2.1) or, on its top rung, asking the source
/// where the primary went (§2.2.3) after each `per_rung` requests, and
/// abandoning the seq after `budget` (restarted by new authority).
#[derive(Debug, Clone, Copy)]
pub struct Retry {
    pub every: Duration,
    pub per_rung: u32,
    pub budget: u32,
}

/// One open request for a missing seq, carrying the role's own data.
#[derive(Debug, Clone)]
pub struct Request<T> {
    pub data: T,
    /// When it is asked for next.
    pub due: Time,
    /// Requests to its rung since it climbed, escalated or retargeted.
    pub tries: u32,
    rung: usize,
    total: u32,
}

/// The open upstream requests of one machine, keyed by the unwrapped
/// index of their seq, and the ladder of hosts they climb: nearest
/// first, the primary (or the primary's own parent, the source) on top.
#[derive(Debug, Clone)]
pub struct Requests<T> {
    retry: Retry,
    ladder: Vec<HostId>,
    open: BTreeMap<u64, Request<T>>,
}

impl<T> Requests<T> {
    /// No open request; `ladder` nearest first.
    pub fn new(retry: Retry, ladder: Vec<HostId>) -> Self {
        Requests {
            retry,
            ladder,
            open: BTreeMap::new(),
        }
    }

    /// The top rung, if any.
    pub fn top(&self) -> Option<HostId> {
        self.ladder.last().copied()
    }

    /// Number of open requests.
    pub fn len(&self) -> usize {
        self.open.len()
    }

    /// The request at `idx`, opened to fall due at `due` with `data`
    /// unless one is open already.
    pub fn open(&mut self, idx: u64, due: Time, data: T) -> &mut Request<T> {
        self.open.entry(idx).or_insert(Request {
            data,
            due,
            rung: 0,
            tries: 0,
            total: 0,
        })
    }

    /// Closes and returns the request at `idx`, if open.
    pub fn close(&mut self, idx: u64) -> Option<Request<T>> {
        self.open.remove(&idx)
    }

    /// Closes every request below `idx`.
    pub fn close_before(&mut self, idx: u64) {
        self.open = self.open.split_off(&idx);
    }

    /// When the earliest open request falls due.
    pub fn next_due(&self) -> Option<Time> {
        self.open.values().map(|r| r.due).min()
    }

    /// The primary's address is a cached value (§2.2.3): `leader` becomes
    /// the top rung, and requests there restart their rung's count and
    /// fall due at once. New authority — a newly adopted term
    /// (`adopted`), or a leader other than the top rung — restarts every
    /// request's budget too: the budget says nobody could supply a seq,
    /// and a new leader is a supplier nobody has asked.
    pub fn retarget(&mut self, now: Time, leader: HostId, adopted: bool) {
        let fresh = adopted || self.top() != Some(leader);
        self.ladder.pop();
        self.ladder.push(leader);
        let top = self.ladder.len() - 1;
        for r in self.open.values_mut() {
            if fresh {
                r.total = 0;
            }
            if r.rung >= top {
                r.tries = 0;
                r.due = now;
            }
        }
    }

    /// Asks for everything due: one coalesced NACK per target, climbing
    /// the ladder every `per_rung` requests. A request past its budget is
    /// closed and its seq handed to `abandoned`. When a request has
    /// exhausted the top rung and `locate` names the source's host, the
    /// top rung is reported unresponsive and the source asked where the
    /// primary went; the request keeps asking the top rung meanwhile.
    pub fn poll(
        &mut self,
        now: Time,
        origin: Origin<'_>,
        locate: Option<HostId>,
        out: &mut Actions,
        mut abandoned: impl FnMut(Seq),
    ) {
        let Some(top) = self.ladder.len().checked_sub(1) else {
            return;
        };
        let retry = self.retry;
        let ladder = &self.ladder;
        let mut per_target: BTreeMap<HostId, Vec<SeqRange>> = BTreeMap::new();
        let (mut exhausted, mut spent) = (false, false);
        for (&idx, r) in self.open.iter_mut().filter(|(_, r)| now >= r.due) {
            if r.total >= retry.budget {
                spent = true; // closed below, still due
                continue;
            }
            if r.tries >= retry.per_rung {
                if r.rung < top {
                    r.rung += 1;
                } else {
                    exhausted = true;
                }
                r.tries = 0;
            }
            r.tries += 1;
            r.total += 1;
            r.due = now + retry.every;
            // One ascending batch per target; a seq that follows the
            // last range extends it.
            let seq = SeqUnwrapper::rewrap(idx);
            let ranges = per_target.entry(ladder[r.rung]).or_default();
            match ranges.last_mut() {
                Some(last) if last.last.next() == seq => last.last = seq,
                _ => ranges.push(SeqRange::single(seq)),
            }
        }
        if spent {
            self.open.retain(|&idx, r| {
                let keep = now < r.due || r.total < retry.budget;
                if !keep {
                    abandoned(SeqUnwrapper::rewrap(idx));
                }
                keep
            });
        }
        for (target, ranges) in per_target {
            origin.nack(now, target, ranges, out);
        }
        if let Some(source) = locate.filter(|_| exhausted) {
            origin.primary_unresponsive(now, ladder[top], out);
            origin.locate_primary(source, out);
        }
    }
}

/// Most sequence numbers one NACK datagram is honored for, across all
/// its ranges. A NACK may carry
/// [`MAX_NACK_RANGES`](lbrm_wire::codec::MAX_NACK_RANGES) ranges of up
/// to 2^31 numbers each, so one ~8 kB datagram could otherwise make a
/// logger emit hundreds of thousands of repairs: the injected-packet
/// amplification multicast receivers must not allow. The protocol's own
/// NACKs name far fewer (receivers and loggers batch what fell due in
/// one poll); the rest of an oversized request is simply not answered,
/// and an honest requester asks again.
pub const MAX_NACK_SEQS: u64 = 512;

/// The ranges of one NACK as they are acted on: in order, inverted ranges
/// skipped, clipped so that together they name at most [`MAX_NACK_SEQS`]
/// sequence numbers. Every role that serves or suppresses on a NACK
/// walks it through here.
pub fn honored(ranges: &[SeqRange]) -> impl Iterator<Item = SeqRange> + '_ {
    let mut left = MAX_NACK_SEQS;
    ranges
        .iter()
        .filter(|r| r.first.before_eq(r.last))
        .map_while(move |r| {
            let n = r.len().min(left);
            left -= n;
            (n > 0).then(|| SeqRange {
                first: r.first,
                last: r.first.add(n as u32 - 1),
            })
        })
}

/// Sequence numbers a NACK names, saturating at `u32::MAX`.
pub fn nack_packets(ranges: &[SeqRange]) -> u32 {
    ranges.iter().fold(0u32, |n, r| {
        n.saturating_add(r.len().min(u64::from(u32::MAX)) as u32)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::analyze::CollectorSink;
    use std::sync::Arc;

    const OLD: HostId = HostId(200);
    const NEW: HostId = HostId(300);

    #[test]
    fn older_or_equal_terms_are_ignored() {
        let mut a = Authority::new(Some(OLD));
        assert!(a.adopt(2, NEW));
        assert!(!a.adopt(2, OLD), "equal term");
        assert!(!a.adopt(1, OLD), "older term");
        assert_eq!((a.term(), a.leader()), (2, Some(NEW)));
        let sink = Arc::new(CollectorSink::default());
        assert!(!a.fenced(Time::ZERO, NEW, &Tracer::to(sink)));
    }

    #[test]
    fn old_leader_is_fenced_at_the_old_term() {
        let mut a = Authority::new(Some(OLD));
        assert!(a.adopt(1, NEW));
        assert!(a.adopt(3, HostId(400)));
        let sink = Arc::new(CollectorSink::default());
        let tracer = Tracer::to(sink.clone()).with_host(HostId(9));
        assert!(a.fenced(Time::ZERO, OLD, &tracer));
        assert!(a.fenced(Time::ZERO, NEW, &tracer));
        let terms: Vec<(HostId, u32)> = sink
            .take()
            .into_iter()
            .map(|r| match r.event {
                ProtocolEvent::StaleTermFenced { from, term } => (from, term),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(terms, vec![(OLD, 0), (NEW, 1)]);
    }

    #[test]
    fn a_re_elected_host_is_unfenced() {
        let mut a = Authority::new(Some(OLD));
        a.adopt(1, NEW);
        assert!(a.adopt(2, OLD));
        let tracer = Tracer::disabled();
        assert!(!a.fenced(Time::ZERO, OLD, &tracer));
        assert!(a.fenced(Time::ZERO, NEW, &tracer));
    }

    #[test]
    fn fenced_traces_exactly_one_event() {
        let mut a = Authority::new(Some(OLD));
        a.adopt(1, NEW);
        let sink = Arc::new(CollectorSink::default());
        let tracer = Tracer::to(sink.clone()).with_host(HostId(9));
        assert!(a.fenced(Time::from_millis(7), OLD, &tracer));
        let records = sink.take();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].at_nanos, 7_000_000);
        assert_eq!(records[0].host, HostId(9));
        assert!(matches!(
            records[0].event,
            ProtocolEvent::StaleTermFenced { from: OLD, term: 0 }
        ));
    }

    #[test]
    fn honored_ranges_stop_at_the_datagram_budget() {
        let wide = SeqRange {
            first: Seq(1),
            last: Seq(4096),
        };
        let inverted = SeqRange {
            first: Seq(9),
            last: Seq(3),
        };
        let ranges = vec![inverted, SeqRange::single(Seq(7)), wide, wide];
        let walked: Vec<SeqRange> = honored(&ranges).collect();
        assert_eq!(
            walked,
            vec![
                SeqRange::single(Seq(7)),
                SeqRange {
                    first: Seq(1),
                    last: Seq(MAX_NACK_SEQS as u32 - 1),
                },
            ]
        );
        assert_eq!(walked.iter().map(SeqRange::len).sum::<u64>(), MAX_NACK_SEQS);
        let across_wrap = [SeqRange {
            first: Seq(u32::MAX),
            last: Seq(1),
        }];
        let walked: Vec<SeqRange> = honored(&across_wrap).collect();
        assert_eq!(walked, across_wrap);
    }

    #[test]
    fn nack_packets_saturates() {
        let all = SeqRange {
            first: Seq(0),
            last: Seq(u32::MAX - 1),
        };
        assert_eq!(nack_packets(&[SeqRange::single(Seq(5))]), 1);
        assert_eq!(nack_packets(&[all, all]), u32::MAX);
    }
}
