//! The LBRM packet vocabulary.
//!
//! One enum covers the whole protocol suite: the base receiver-reliable
//! protocol (§2), distributed logging (§2.2) including replication and
//! failover (§2.2.3), statistical acknowledgement (§2.3), logger
//! discovery (§2.2.1), and the session/repair messages of the SRM-style
//! (*wb*) baseline used for the §6 comparison.
//!
//! Packets carry *logical* identities ([`HostId`]) where the protocol
//! needs them; transport addresses are a transport concern.

use bytes::Bytes;

use crate::ids::{EpochId, GroupId, HostId, SourceId};
use crate::seq::Seq;

/// An inclusive range of sequence numbers `[first, last]`, used in NACKs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeqRange {
    /// First missing sequence number.
    pub first: Seq,
    /// Last missing sequence number (inclusive).
    pub last: Seq,
}

impl SeqRange {
    /// A single-packet range.
    #[inline]
    pub fn single(seq: Seq) -> Self {
        SeqRange {
            first: seq,
            last: seq,
        }
    }

    /// Number of sequence numbers covered.
    #[inline]
    pub fn len(&self) -> u64 {
        self.last.distance_from(self.first) as u64 + 1
    }

    /// `true` iff the range covers no valid span (never produced by the
    /// protocol; kept for defensive checks after decoding).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.last.before(self.first)
    }

    /// Iterates the sequence numbers in the range.
    pub fn iter(&self) -> impl Iterator<Item = Seq> {
        self.first.iter_to(self.last)
    }

    /// `true` iff `seq` falls within the range.
    #[inline]
    pub fn contains(&self, seq: Seq) -> bool {
        self.first.before_eq(seq) && seq.before_eq(self.last)
    }
}

/// Multicast scope for a transmission, realized as an IP TTL in the UDP
/// transport and as a delivery-domain filter in the simulator.
///
/// Secondary loggers re-multicast repairs with [`TtlScope::Site`] so that
/// local recovery never loads the tail circuit or WAN (§2.2.1); expanding-
/// ring discovery walks `Site → Region → Global`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TtlScope {
    /// Confined to the sender's site (LAN).
    Site,
    /// Reaches nearby sites (administrative region).
    Region,
    /// The whole group.
    Global,
}

impl TtlScope {
    /// A representative IP TTL for this scope.
    pub fn ttl(self) -> u8 {
        match self {
            TtlScope::Site => 1,
            TtlScope::Region => 32,
            TtlScope::Global => 127,
        }
    }

    /// The next wider scope, if any.
    pub fn widen(self) -> Option<TtlScope> {
        match self {
            TtlScope::Site => Some(TtlScope::Region),
            TtlScope::Region => Some(TtlScope::Global),
            TtlScope::Global => None,
        }
    }
}

/// Every message exchanged by the LBRM protocol suite.
///
/// Not `Eq` because [`Packet::AckerSelect`] carries its probability as an
/// `f64` (always finite and in `[0, 1]`, enforced by the codec).
#[derive(Debug, Clone, PartialEq)]
pub enum Packet {
    /// An application data packet, multicast by the source. Also used for
    /// the source's reliable unicast handoff to the primary logger when a
    /// multicast copy was lost on the way to it.
    Data {
        /// Multicast group.
        group: GroupId,
        /// Originating source.
        source: SourceId,
        /// Data sequence number (increments per data packet only).
        seq: Seq,
        /// Statistical-ack epoch in force when the packet was sent.
        epoch: EpochId,
        /// Application payload.
        payload: Bytes,
    },

    /// A keep-alive repeating the previous data sequence number (§2).
    /// Emitted on the variable-heartbeat schedule.
    Heartbeat {
        /// Multicast group.
        group: GroupId,
        /// Originating source.
        source: SourceId,
        /// Sequence number of the most recent data packet.
        seq: Seq,
        /// Current epoch.
        epoch: EpochId,
        /// Index of this heartbeat since the last data packet (1-based);
        /// lets receivers and tests observe the backoff schedule.
        hb_index: u32,
        /// Carried for wire compatibility only: senders always send it
        /// empty and receivers ignore it on receipt.
        payload: Bytes,
    },

    /// A retransmission request, unicast from a receiver to its logger or
    /// from a secondary logger up the hierarchy (§2.2).
    Nack {
        /// Multicast group.
        group: GroupId,
        /// Source whose packets are missing.
        source: SourceId,
        /// Who is asking (replies go to this host).
        requester: HostId,
        /// Missing spans, ascending and disjoint.
        ranges: Vec<SeqRange>,
    },

    /// A retransmitted data packet, unicast to a requester or re-multicast
    /// (site-scoped by a secondary logger, globally by the source under
    /// statistical ack).
    Retrans {
        /// Multicast group.
        group: GroupId,
        /// Originating source.
        source: SourceId,
        /// Sequence number being repaired.
        seq: Seq,
        /// The original payload.
        payload: Bytes,
    },

    /// Cumulative acknowledgement from the primary logger to the source
    /// (§2.2.3). Carries *two* sequence numbers: the highest contiguously
    /// logged packet at the primary, and the highest contiguously
    /// replicated packet. The source may free its buffer only up to
    /// `replica_seq` (or `primary_seq` when replication is disabled).
    LogAck {
        /// Multicast group.
        group: GroupId,
        /// Source being acknowledged.
        source: SourceId,
        /// Highest contiguous sequence logged at the primary.
        primary_seq: Seq,
        /// Highest contiguous sequence held by the most up-to-date replica.
        replica_seq: Seq,
    },

    /// Acker Selection Packet (§2.3.1): starts a new epoch. Each secondary
    /// logger volunteers as a Designated Acker with probability `p_ack`.
    AckerSelect {
        /// Multicast group.
        group: GroupId,
        /// Source selecting its ackers.
        source: SourceId,
        /// The new epoch.
        epoch: EpochId,
        /// Volunteer probability, `k / N_sl`.
        p_ack: f64,
    },

    /// A secondary logger volunteering as Designated Acker for an epoch.
    AckerVolunteer {
        /// Multicast group.
        group: GroupId,
        /// Source being acked.
        source: SourceId,
        /// Epoch volunteered for.
        epoch: EpochId,
        /// The volunteering logger.
        logger: HostId,
    },

    /// Per-data-packet acknowledgement from a Designated Acker (§2.3.1).
    PacketAck {
        /// Multicast group.
        group: GroupId,
        /// Source being acked.
        source: SourceId,
        /// Epoch the acker belongs to.
        epoch: EpochId,
        /// The acknowledged data sequence number.
        seq: Seq,
        /// The acking logger.
        logger: HostId,
    },

    /// Scoped multicast discovery query for a nearby logging service
    /// (§2.2.1). Sent with expanding TTL scopes.
    DiscoveryQuery {
        /// Group the requester participates in.
        group: GroupId,
        /// Matches replies to queries.
        nonce: u64,
        /// Who is searching.
        requester: HostId,
    },

    /// Reply to a discovery query, unicast to the requester.
    DiscoveryReply {
        /// Group.
        group: GroupId,
        /// Echoed nonce.
        nonce: u64,
        /// The responding logging server.
        logger: HostId,
        /// Hierarchy level of the responder (0 = primary, 1 = secondary,
        /// 2+ = deeper site-level loggers).
        level: u8,
    },

    /// A receiver or secondary logger asking the source for the identity
    /// of the current primary logger after a primary failure (§2.2.3).
    LocatePrimary {
        /// Group.
        group: GroupId,
        /// Source queried.
        source: SourceId,
        /// Who asks (reply goes here).
        requester: HostId,
    },

    /// The source's answer: the current primary logging server.
    PrimaryIs {
        /// Group.
        group: GroupId,
        /// Source answering.
        source: SourceId,
        /// Current primary logger host.
        primary: HostId,
    },

    /// Election phase 1 (§2.2.3 hardening): the source, acting as the
    /// single election proposer, asks a replica to promise a new term.
    /// Terms increase monotonically; a replica promises at most one
    /// candidate per term.
    ElectPrepare {
        /// Group.
        group: GroupId,
        /// Source running the election.
        source: SourceId,
        /// Proposed term (strictly greater than any term the source has
        /// started before).
        term: u32,
        /// The host proposing (replies go here).
        candidate: HostId,
    },

    /// Election phase 1 reply: the replica promises to ignore any term
    /// older than `term` and reports how much of the log it holds so the
    /// proposer can pick the most up-to-date replica.
    ElectPromise {
        /// Group.
        group: GroupId,
        /// Source being elected for.
        source: SourceId,
        /// Term being promised.
        term: u32,
        /// The promising replica.
        voter: HostId,
        /// One past the highest contiguously held sequence at the voter.
        log_end: Seq,
    },

    /// Election phase 2, multicast globally: `leader` is the primary
    /// logger for `term`. Every machine that sees this fences the
    /// previous primary — its repairs and LogAcks are rejected until it
    /// rejoins under the new term.
    TermAnnounce {
        /// Group.
        group: GroupId,
        /// Source announcing.
        source: SourceId,
        /// The new term.
        term: u32,
        /// Primary logger for `term`.
        leader: HostId,
    },

    /// Replication stream: primary logger → replica (§2.2.3). Reliable via
    /// [`Packet::ReplAck`] cumulative acks and retransmission.
    ReplUpdate {
        /// Group.
        group: GroupId,
        /// Source of the replicated packet.
        source: SourceId,
        /// Sequence number of the replicated packet.
        seq: Seq,
        /// The payload being replicated.
        payload: Bytes,
    },

    /// Cumulative acknowledgement from a replica to the primary.
    ReplAck {
        /// Group.
        group: GroupId,
        /// Source of the replicated stream.
        source: SourceId,
        /// Highest contiguous sequence held by the replica.
        seq: Seq,
    },

    /// SRM-style session message (the *wb* baseline, §6): members
    /// periodically multicast the highest sequence they have seen so that
    /// others can detect loss of the most recent packet.
    SrmSession {
        /// Group.
        group: GroupId,
        /// Reporting member.
        member: HostId,
        /// Highest sequence the member has received from the source.
        last_seq: Seq,
    },

    /// SRM-style repair request, multicast to the whole group after a
    /// randomized suppression delay.
    SrmNack {
        /// Group.
        group: GroupId,
        /// Source whose data is missing.
        source: SourceId,
        /// The requesting member.
        requester: HostId,
        /// Missing spans.
        ranges: Vec<SeqRange>,
    },

    /// SRM-style repair, multicast to the whole group by whichever member
    /// holds the data and wins the suppression race.
    SrmRepair {
        /// Group.
        group: GroupId,
        /// Source of the repaired packet.
        source: SourceId,
        /// Repaired sequence number.
        seq: Seq,
        /// The member sending the repair.
        responder: HostId,
        /// The payload.
        payload: Bytes,
    },
}

impl Packet {
    /// The group this packet belongs to.
    pub fn group(&self) -> GroupId {
        match self {
            Packet::Data { group, .. }
            | Packet::Heartbeat { group, .. }
            | Packet::Nack { group, .. }
            | Packet::Retrans { group, .. }
            | Packet::LogAck { group, .. }
            | Packet::AckerSelect { group, .. }
            | Packet::AckerVolunteer { group, .. }
            | Packet::PacketAck { group, .. }
            | Packet::DiscoveryQuery { group, .. }
            | Packet::DiscoveryReply { group, .. }
            | Packet::LocatePrimary { group, .. }
            | Packet::PrimaryIs { group, .. }
            | Packet::ElectPrepare { group, .. }
            | Packet::ElectPromise { group, .. }
            | Packet::TermAnnounce { group, .. }
            | Packet::ReplUpdate { group, .. }
            | Packet::ReplAck { group, .. }
            | Packet::SrmSession { group, .. }
            | Packet::SrmNack { group, .. }
            | Packet::SrmRepair { group, .. } => *group,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_range_basics() {
        let r = SeqRange {
            first: Seq(5),
            last: Seq(9),
        };
        assert_eq!(r.len(), 5);
        assert!(!r.is_empty());
        assert!(r.contains(Seq(5)));
        assert!(r.contains(Seq(9)));
        assert!(!r.contains(Seq(10)));
        assert_eq!(r.iter().count(), 5);
        assert_eq!(SeqRange::single(Seq(3)).len(), 1);
    }

    #[test]
    fn seq_range_wraparound() {
        let r = SeqRange {
            first: Seq(u32::MAX),
            last: Seq(1),
        };
        assert_eq!(r.len(), 3);
        assert!(r.contains(Seq(0)));
        assert!(!r.contains(Seq(2)));
    }

    #[test]
    fn scope_widening() {
        assert_eq!(TtlScope::Site.widen(), Some(TtlScope::Region));
        assert_eq!(TtlScope::Region.widen(), Some(TtlScope::Global));
        assert_eq!(TtlScope::Global.widen(), None);
        assert!(TtlScope::Site.ttl() < TtlScope::Region.ttl());
        assert!(TtlScope::Region.ttl() < TtlScope::Global.ttl());
    }

    #[test]
    fn overhead_classification() {
        let data = Packet::Data {
            group: GroupId(1),
            source: SourceId(1),
            seq: Seq(1),
            epoch: EpochId(0),
            payload: Bytes::new(),
        };
        assert_eq!(data.kind(), "data");
        let hb = Packet::Heartbeat {
            group: GroupId(1),
            source: SourceId(1),
            seq: Seq(1),
            epoch: EpochId(0),
            hb_index: 1,
            payload: Bytes::new(),
        };
        assert_eq!(hb.group(), GroupId(1));
    }
}
