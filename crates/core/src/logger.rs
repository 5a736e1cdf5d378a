//! The logging server (§2.2): primary, replica, or per-site secondary.
//!
//! One machine covers all three roles — the paper notes the
//! implementation is "reusable across different components of the system
//! because of the recursive nature of the distributed logging
//! architecture":
//!
//! * A **primary** logs everything the source multicasts (plus unicast
//!   handoffs), acknowledges it to the source with the dual
//!   primary/replica sequence numbers of §2.2.3, replicates the log to
//!   replicas, and serves retransmission requests. Packets it missed it
//!   fetches from the source itself.
//! * A **replica** mirrors the primary via the replication stream and can
//!   be promoted on primary failure.
//! * A **secondary** serves one site: it logs the multicast stream,
//!   recovers its own misses from its parent (normally the primary) so at
//!   most one NACK per site crosses the tail circuit — through the same
//!   `Requests` table a receiver climbs, with one rung — answers receivers'
//!   NACKs, re-multicasts site-scoped repairs when many receivers lost
//!   the same packet, answers discovery queries, and volunteers as a
//!   Designated Acker (§2.3).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Duration;

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use lbrm_wire::packet::SeqRange;
use lbrm_wire::{EpochId, GroupId, HostId, Packet, Seq, SourceId};

use crate::gaps::{GapTracker, SeqUnwrapper};
use crate::logstore::{LogStore, Retention};
use crate::machine::{Action, Actions, Machine, Notice};
use crate::recovery::{self, Authority, Origin, Requests, Retry};
use crate::time::{earliest, Time};
use crate::trace::{ProtocolEvent, Tracer};

/// The role a logger currently plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoggerRole {
    /// The source's primary logging server.
    Primary,
    /// A replica of the primary log (promotion candidate).
    Replica,
    /// A site-level secondary logging server.
    Secondary,
}

/// Replication retransmit interval (§2.2.3).
const REPL_RETRY: Duration = Duration::from_millis(500);

/// A parent fetch every 500 ms; after five unanswered, a secondary asks
/// the source to locate the current primary (§2.2.3); 24 in all.
const FETCHES: Retry = Retry {
    every: Duration::from_millis(500),
    per_rung: 5,
    budget: 24,
};

/// Distinct requesters for one packet within [`REMULTICAST_WINDOW`] that
/// trigger a site-scoped multicast repair instead of unicasts (§2.2.1).
const REMULTICAST_THRESHOLD: usize = 3;

/// Window for the re-multicast decision.
const REMULTICAST_WINDOW: Duration = Duration::from_millis(500);

/// Logger configuration.
#[derive(Debug, Clone)]
pub struct LoggerConfig {
    /// Group served.
    pub group: GroupId,
    /// Source served.
    pub source: SourceId,
    /// Host this logger runs on.
    pub host: HostId,
    /// Initial role.
    pub role: LoggerRole,
    /// Hierarchy level advertised in discovery replies (0 = primary).
    pub level: u8,
    /// Where to fetch missing packets at first: the primary for
    /// secondaries, the source host for the primary. A promotion or a
    /// new primary moves [`Logger::parent`], not this field.
    pub parent: HostId,
    /// The source's host (failover queries, acker unicasts).
    pub source_host: HostId,
    /// Log retention policy.
    pub retention: Retention,
    /// Replicas to mirror to (primary role only).
    pub replicas: Vec<HostId>,
    /// Delay between detecting a miss and NACKing the parent — gives the
    /// source's statistical-ack re-multicast a chance to repair first
    /// (§2.3.2 suggests `t_wait − h_min`).
    pub nack_delay: Duration,
    /// Use the §2.2.1 site-scoped re-multicast repair shortcut. Enable
    /// only when this logger's clientele is site-local (a site
    /// secondary serving its LAN's receivers); mid-hierarchy loggers
    /// whose requesters are child loggers at *other* sites must serve by
    /// unicast.
    pub site_remulticast: bool,
    /// Determinism seed for the volunteer coin.
    pub seed: u64,
}

impl LoggerConfig {
    /// A primary logger on `host` for `group`/`source`, fetching misses
    /// from the source at `source_host`.
    pub fn primary(group: GroupId, source: SourceId, host: HostId, source_host: HostId) -> Self {
        LoggerConfig {
            group,
            source,
            host,
            role: LoggerRole::Primary,
            level: 0,
            parent: source_host,
            source_host,
            retention: Retention::All,
            replicas: Vec::new(),
            nack_delay: Duration::from_millis(20),
            site_remulticast: false,
            seed: host.raw(),
        }
    }

    /// A site secondary on `host`, fetching from `primary`.
    pub fn secondary(
        group: GroupId,
        source: SourceId,
        host: HostId,
        primary: HostId,
        source_host: HostId,
    ) -> Self {
        LoggerConfig {
            role: LoggerRole::Secondary,
            level: 1,
            parent: primary,
            site_remulticast: true,
            nack_delay: Duration::from_millis(100),
            ..LoggerConfig::primary(group, source, host, source_host)
        }
    }

    /// A replica of `primary`.
    pub fn replica(
        group: GroupId,
        source: SourceId,
        host: HostId,
        primary: HostId,
        source_host: HostId,
    ) -> Self {
        LoggerConfig {
            role: LoggerRole::Replica,
            level: 0,
            parent: primary,
            ..LoggerConfig::primary(group, source, host, source_host)
        }
    }
}

#[derive(Debug, Clone)]
struct RepairWindow {
    requesters: BTreeSet<HostId>,
    opened: Time,
    /// When a site-scoped multicast repair was sent within this window.
    multicast_at: Option<Time>,
}

/// The logging-server state machine.
#[derive(Clone)]
pub struct Logger {
    config: LoggerConfig,
    role: LoggerRole,
    store: LogStore,
    gaps: GapTracker,
    unwrapper: SeqUnwrapper,
    rng: SmallRng,
    /// Misses awaiting recovery from the parent (the one rung), keyed by
    /// unwrapped index, each with the children to serve it to.
    fetches: Requests<BTreeSet<HostId>>,
    /// Recent repair requests per packet (re-multicast decision).
    repairs: BTreeMap<u64, RepairWindow>,
    /// Epochs this logger volunteered for (most recent last).
    volunteered: VecDeque<EpochId>,
    /// Primary role: per-replica contiguous-acked end index.
    repl_acked: BTreeMap<HostId, u64>,
    /// Primary role: next replication retry.
    repl_next_at: Option<Time>,
    /// Last LogAck values sent, to avoid repeats.
    last_logack: Option<(u64, u64)>,
    /// Highest election term promised to a proposer (a voter never
    /// promises the same term twice).
    promised_term: u32,
    /// The log-authority term this logger last observed and its leader,
    /// as last announced; deposed leaders' log traffic is fenced.
    authority: Authority,
    /// Periodic retention sweep.
    next_prune_at: Time,
    /// Reusable scratch for batched NACK serving (held payloads).
    serve_scratch: Vec<(Seq, Bytes)>,
    /// Reusable scratch for batched NACK serving (missing runs).
    missing_scratch: Vec<SeqRange>,
    tracer: Tracer,
}

impl Logger {
    /// Creates a logger.
    pub fn new(config: LoggerConfig) -> Self {
        Logger {
            role: config.role,
            store: LogStore::new(config.retention),
            gaps: GapTracker::new(),
            unwrapper: SeqUnwrapper::new(),
            rng: SmallRng::seed_from_u64(config.seed),
            fetches: Requests::new(FETCHES, vec![config.parent]),
            repairs: BTreeMap::new(),
            volunteered: VecDeque::new(),
            repl_acked: BTreeMap::new(),
            repl_next_at: None,
            last_logack: None,
            promised_term: 0,
            authority: Authority::new(Some(if config.role == LoggerRole::Primary {
                config.host
            } else {
                config.parent
            })),
            next_prune_at: Time::ZERO + Duration::from_secs(1),
            serve_scratch: Vec::new(),
            missing_scratch: Vec::new(),
            tracer: Tracer::disabled(),
            config,
        }
    }

    /// Attaches a protocol-event tracer (see [`crate::trace`]).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer.with_host(self.config.host);
    }

    /// A digest of the protocol state (not the serving scratch buffers
    /// or the tracer): two loggers with equal digests act alike on the
    /// same inputs.
    pub fn state_digest(&self) -> u64 {
        crate::machine::state_digest(&[
            &self.config,
            &self.role,
            &self.store,
            &self.gaps,
            &self.unwrapper,
            &self.rng,
            &self.fetches,
            &self.repairs,
            &self.volunteered,
            &self.repl_acked,
            &self.repl_next_at,
            &self.last_logack,
            &self.promised_term,
            &self.authority,
            &self.next_prune_at,
        ])
    }

    /// The role label announced in the trace stream (forensic
    /// repair-source attribution keys off it).
    fn role_label(&self) -> &'static str {
        match self.role {
            LoggerRole::Primary => "logger_primary",
            LoggerRole::Secondary => "logger_secondary",
            LoggerRole::Replica => "logger_replica",
        }
    }

    /// Current role (changes on promotion).
    pub fn role(&self) -> LoggerRole {
        self.role
    }

    /// The parent currently used for recovery.
    pub fn parent(&self) -> HostId {
        self.fetches
            .top()
            .expect("a logger fetches from one parent")
    }

    /// The log-authority term this logger last observed.
    pub fn term(&self) -> u32 {
        self.authority.term()
    }

    /// Number of packets currently held in the log.
    pub fn log_len(&self) -> usize {
        self.store.len()
    }

    /// `true` if the log holds `seq`.
    pub fn has(&self, seq: Seq) -> bool {
        self.store.has(seq)
    }

    /// Highest contiguously logged sequence.
    pub fn contiguous_high(&self) -> Option<Seq> {
        self.store.contiguous_high()
    }

    /// Read access to the packet log — e.g. for the §4.4 factory
    /// record-keeping ("LBRM already provides this logging as part of
    /// the lost packet recovery mechanism").
    pub fn store(&self) -> &LogStore {
        &self.store
    }

    /// Serves one retransmission request for `seq` from `requester`,
    /// applying the §2.2.1 re-multicast heuristic.
    ///
    /// The site-scoped multicast only reaches requesters *inside* the
    /// logger's site, which is the normal clientele of a site secondary.
    /// Any request arriving after the multicast went out is therefore
    /// evidence the requester did not receive it (a remote child logger,
    /// or a local member that lost the repair too) and is answered by
    /// unicast — the shortcut degrades safely instead of starving anyone.
    fn serve(&mut self, now: Time, seq: Seq, payload: Bytes, requester: HostId, out: &mut Actions) {
        if self.role == LoggerRole::Primary {
            // Record which term this authoritative serve happened
            // under — the forensic split-brain detector keys off it.
            let term = self.authority.term();
            self.tracer
                .emit(now.nanos(), || ProtocolEvent::AuthorityServe { seq, term });
        }
        let mut site = None;
        // Fast path: a logger that can never site-remulticast — primary,
        // replica, or the shortcut disabled — answers by unicast without
        // any repair-window bookkeeping. The window only exists to make
        // (and remember) the multicast decision.
        if self.role == LoggerRole::Secondary && self.config.site_remulticast {
            let idx = self.unwrapper.peek(seq);
            let window = self.repairs.entry(idx).or_insert(RepairWindow {
                requesters: BTreeSet::new(),
                opened: now,
                multicast_at: None,
            });
            if now.since(window.opened) > REMULTICAST_WINDOW {
                window.requesters.clear();
                window.opened = now;
                window.multicast_at = None;
            }
            window.requesters.insert(requester);
            match window.multicast_at {
                // Covered by the multicast sent at this very instant.
                Some(at) if now <= at => return,
                // This request postdates the multicast repair: the
                // requester evidently did not get it.
                Some(_) => {}
                None if window.requesters.len() >= REMULTICAST_THRESHOLD => {
                    window.multicast_at = Some(now);
                    site = Some(window.requesters.len());
                }
                None => {}
            }
        }
        let c = &self.config;
        Origin::new(c.group, c.source, c.host, &self.tracer)
            .repair(now, seq, payload, requester, site, out);
    }

    /// Registers `seq` as missing; `requester` (if any) is served once it
    /// arrives. Self-detected misses wait `nack_delay` before the first
    /// fetch; child-driven misses fetch immediately (the child already
    /// waited its own delay).
    fn want(&mut self, now: Time, seq: Seq, requester: Option<HostId>) {
        if self.store.has(seq) {
            return;
        }
        let idx = self.unwrapper.unwrap(seq);
        let due = now + self.config.nack_delay;
        let entry = self.fetches.open(idx, due, BTreeSet::new());
        if let Some(r) = requester {
            entry.data.insert(r);
            // Pull the fetch forward only if none has gone out yet — a
            // child's request must not duplicate an in-flight fetch.
            if entry.tries == 0 {
                entry.due = entry.due.min(now);
            }
        }
    }

    /// Notes newly visible gaps for self-recovery (a bounded batch: the
    /// first 64 missing runs, 256 numbers of each).
    fn want_missing(&mut self, now: Time) {
        for range in self.gaps.missing_ranges(64) {
            for missing in range.iter().take(256) {
                self.want(now, missing, None);
            }
        }
    }

    /// Ingests a packet payload into the log; serves pending requesters;
    /// returns `true` if it was new.
    fn ingest(&mut self, now: Time, seq: Seq, payload: Bytes, out: &mut Actions) -> bool {
        let fresh = self.store.insert(now, seq, payload);
        if fresh {
            self.tracer
                .emit(now.nanos(), || ProtocolEvent::PacketLogged { seq });
        }
        self.gaps.observe(seq);
        let idx = self.unwrapper.peek(seq);
        if let Some(fetch) = self.fetches.close(idx) {
            // Serve from the store (not the ingest argument): on a
            // duplicate insert the store kept the *original* buffer, and
            // every serve must share it.
            if let Some(payload) = self.store.get(seq) {
                for r in fetch.data {
                    self.serve(now, seq, payload.clone(), r, out);
                }
            }
        }
        if fresh {
            self.want_missing(now);
            if self.role == LoggerRole::Primary {
                self.replicate(now, out);
                self.maybe_logack(out);
            }
        }
        fresh
    }

    /// Primary: pushes un-acked contiguous log to replicas.
    fn replicate(&mut self, now: Time, out: &mut Actions) {
        if self.role != LoggerRole::Primary || self.config.replicas.is_empty() {
            return;
        }
        let Some(high) = self.store.contiguous_high() else {
            return;
        };
        let high_idx = self.unwrapper.peek(high);
        let replicas: Vec<HostId> = self
            .config
            .replicas
            .iter()
            .copied()
            .filter(|&r| r != self.config.host)
            .collect();
        for r in replicas {
            let acked_end = *self.repl_acked.entry(r).or_insert(0);
            let start = acked_end.max(self.unwrapper.peek(self.store.oldest().unwrap_or(high)));
            for idx in start..=high_idx {
                let seq = SeqUnwrapper::rewrap(idx);
                if let Some(payload) = self.store.get(seq) {
                    out.push(Action::Unicast {
                        to: r,
                        packet: Packet::ReplUpdate {
                            group: self.config.group,
                            source: self.config.source,
                            seq,
                            payload,
                        },
                    });
                }
            }
        }
        self.repl_next_at = Some(now + REPL_RETRY);
    }

    /// Primary: the highest contiguous end that a quorum of the
    /// election's replica set holds — the quorum-th highest end, a
    /// replica that never acked counting as 0. `own_end` is this
    /// logger's contiguous end: a promoted replica is a member of that
    /// set (its `replicas` lists only the others), the original primary
    /// is not.
    ///
    /// The source releases its buffer through this end, so a released
    /// packet must outlive any failover. An election commits on a
    /// majority of the same set (`Sender::quorum`), and two majorities
    /// of one set share a replica; the winner has the longest log among
    /// its promisers, so it holds everything that shared replica held.
    /// The *best* replica's end would not do: the promisers need not
    /// include it.
    fn quorum_replica_end(&self, own_end: u64) -> u64 {
        let host = self.config.host;
        let mut ends: Vec<u64> = self
            .config
            .replicas
            .iter()
            .filter(|&&r| r != host)
            .map(|r| self.repl_acked.get(r).copied().unwrap_or(0))
            .collect();
        if self.config.role == LoggerRole::Replica {
            ends.push(own_end);
        }
        ends.sort_unstable_by(|a, b| b.cmp(a));
        ends.get(ends.len() / 2).copied().unwrap_or(own_end)
    }

    /// Primary: sends `LogAck` to the source when state advanced.
    fn maybe_logack(&mut self, out: &mut Actions) {
        if self.role != LoggerRole::Primary {
            return;
        }
        let Some(high) = self.store.contiguous_high() else {
            return;
        };
        let high_idx = self.unwrapper.peek(high);
        let replica_end = if self.config.replicas.is_empty() {
            // No replication configured: the primary's own log is the
            // strongest guarantee available.
            high_idx + 1
        } else {
            self.quorum_replica_end(high_idx + 1)
        };
        let state = (high_idx, replica_end);
        if self.last_logack == Some(state) {
            return;
        }
        self.last_logack = Some(state);
        let replica_seq = if replica_end == 0 {
            Seq::ZERO
        } else {
            SeqUnwrapper::rewrap(replica_end - 1)
        };
        out.push(Action::Unicast {
            to: self.config.source_host,
            packet: Packet::LogAck {
                group: self.config.group,
                source: self.config.source,
                primary_seq: high,
                replica_seq,
            },
        });
    }

    fn promote(&mut self, now: Time, out: &mut Actions) {
        if self.role == LoggerRole::Primary {
            return;
        }
        self.role = LoggerRole::Primary;
        self.config.level = 0;
        // The primary's own parent is the source.
        self.fetches.retarget(now, self.config.source_host, false);
        self.authority.claim(self.config.host);
        let host = self.config.host;
        self.tracer
            .emit(now.nanos(), || ProtocolEvent::FailoverPromoted {
                new_primary: host,
            });
        // Re-announce so forensic repair attribution tracks the new role.
        self.tracer
            .emit(now.nanos(), || ProtocolEvent::RoleAnnounced {
                role: "logger_primary",
            });
        out.push(Action::Notice(Notice::Promoted {
            new_primary: self.config.host,
        }));
        self.replicate(now, out);
        self.last_logack = None;
        self.maybe_logack(out);
    }
}

impl Machine for Logger {
    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer.with_host(self.config.host);
    }

    fn on_start(&mut self, now: Time, _out: &mut Actions) {
        let role = self.role_label();
        self.tracer
            .emit(now.nanos(), || ProtocolEvent::RoleAnnounced { role });
    }

    fn on_packet(&mut self, now: Time, from: HostId, packet: Packet, out: &mut Actions) {
        let (group, source) = (self.config.group, self.config.source);
        // Fencing: a host deposed by a later term has no log authority;
        // its serves, replication pushes and primary claims are dropped.
        if matches!(
            packet,
            Packet::Retrans { .. } | Packet::ReplUpdate { .. } | Packet::PrimaryIs { .. }
        ) && self.authority.fenced(now, from, &self.tracer)
        {
            return;
        }
        match packet {
            Packet::Data {
                group: g,
                source: s,
                seq,
                epoch,
                payload,
            } if g == group && s == source => {
                self.ingest(now, seq, payload, out);
                // Designated Acker duty (§2.3.1): ACK data of volunteered
                // epochs, including source re-multicasts.
                if self.volunteered.contains(&epoch) {
                    out.push(Action::Unicast {
                        to: self.config.source_host,
                        packet: Packet::PacketAck {
                            group,
                            source,
                            epoch,
                            seq,
                            logger: self.config.host,
                        },
                    });
                }
            }
            Packet::Retrans {
                group: g,
                source: s,
                seq,
                payload,
            } if g == group && s == source => {
                self.ingest(now, seq, payload, out);
            }
            // A heartbeat only announces the newest seq: any bytes it
            // carries have no log authority, as for receivers.
            Packet::Heartbeat {
                group: g,
                source: s,
                seq,
                ..
            } if g == group && s == source && self.gaps.observe_announced(seq) > 0 => {
                self.want_missing(now);
            }
            // Bundling contract: every repair this arm emits for one
            // NACK goes to one `requester`, and `collect_span` hands
            // back each range's held payloads in sequence order — so
            // the actions land in `out` as one contiguous run of
            // unicast retransmissions to the same destination. The
            // endpoint's outbound batcher relies on exactly this
            // adjacency to coalesce a served span into MTU-full bundled
            // datagrams without reordering anything (pinned by
            // `nack_span_repairs_are_one_contiguous_unicast_run`).
            Packet::Nack {
                group: g,
                source: s,
                requester,
                ranges,
            } if g == group && s == source => {
                self.tracer
                    .emit(now.nanos(), || ProtocolEvent::NackReceived {
                        from: requester,
                        packets: recovery::nack_packets(&ranges),
                    });
                for range in recovery::honored(&ranges) {
                    // One span scan partitions the range into held
                    // payloads and missing runs — no per-seq store calls.
                    let mut present = std::mem::take(&mut self.serve_scratch);
                    let mut missing = std::mem::take(&mut self.missing_scratch);
                    self.store
                        .collect_span(range.first, range.len(), &mut present, &mut missing);
                    for (seq, payload) in present.drain(..) {
                        self.serve(now, seq, payload, requester, out);
                    }
                    for run in missing.drain(..) {
                        for seq in run.iter() {
                            self.want(now, seq, Some(requester));
                        }
                    }
                    self.serve_scratch = present;
                    self.missing_scratch = missing;
                }
            }
            Packet::ReplUpdate {
                group: g,
                source: s,
                seq,
                payload,
            } if g == group && s == source => {
                self.ingest(now, seq, payload, out);
                if let Some(high) = self.store.contiguous_high() {
                    out.push(Action::Unicast {
                        to: from,
                        packet: Packet::ReplAck {
                            group,
                            source,
                            seq: high,
                        },
                    });
                }
            }
            Packet::ReplAck {
                group: g,
                source: s,
                seq,
            } if g == group && s == source && self.role == LoggerRole::Primary => {
                let end = self.unwrapper.peek(seq) + 1;
                let e = self.repl_acked.entry(from).or_insert(0);
                if end > *e {
                    *e = end;
                    self.maybe_logack(out);
                }
            }
            Packet::AckerSelect {
                group: g,
                source: s,
                epoch,
                p_ack,
            } if g == group
                && s == source
                && self.role == LoggerRole::Secondary
                && p_ack > 0.0
                && self.rng.random_bool(p_ack.min(1.0)) =>
            {
                self.tracer
                    .emit(now.nanos(), || ProtocolEvent::AckerVolunteered { epoch });
                self.volunteered.push_back(epoch);
                while self.volunteered.len() > 2 {
                    self.volunteered.pop_front();
                }
                out.push(Action::Unicast {
                    to: self.config.source_host,
                    packet: Packet::AckerVolunteer {
                        group,
                        source,
                        epoch,
                        logger: self.config.host,
                    },
                });
            }
            Packet::DiscoveryQuery {
                group: g,
                nonce,
                requester,
            } if g == group => {
                out.push(Action::Unicast {
                    to: requester,
                    packet: Packet::DiscoveryReply {
                        group,
                        nonce,
                        logger: self.config.host,
                        level: self.config.level,
                    },
                });
            }
            Packet::LocatePrimary {
                group: g,
                source: s,
                requester,
            } if g == group
                && s == source
                && self.role == LoggerRole::Replica
                && from == self.config.source_host =>
            {
                // Failover state query from the source (§2.2.3):
                // report our log state, reusing LogAck.
                let high = self.store.contiguous_high().unwrap_or(Seq::ZERO);
                out.push(Action::Unicast {
                    to: requester,
                    packet: Packet::LogAck {
                        group,
                        source,
                        primary_seq: high,
                        replica_seq: high,
                    },
                });
            }
            Packet::PrimaryIs {
                group: g,
                source: s,
                primary,
            } if g == group && s == source => {
                if primary == self.config.host {
                    self.promote(now, out);
                } else if self.role != LoggerRole::Primary {
                    // Refresh the cached primary pointer.
                    self.fetches.retarget(now, primary, false);
                }
            }
            Packet::ElectPrepare {
                group: g,
                source: s,
                term,
                ..
            } if g == group && s == source && self.role == LoggerRole::Replica
                // Prepare/promise (§2.2.3 hardened): vote at most once
                // per term, reporting the contiguous log end so the
                // proposer can pick the most up-to-date replica.
                && term > self.promised_term =>
            {
                self.promised_term = term;
                let high = self.store.contiguous_high().unwrap_or(Seq::ZERO);
                out.push(Action::Unicast {
                    to: from,
                    packet: Packet::ElectPromise {
                        group,
                        source,
                        term,
                        voter: self.config.host,
                        log_end: high,
                    },
                });
            }
            Packet::TermAnnounce {
                group: g,
                source: s,
                term,
                leader,
            } if g == group && s == source && self.authority.adopt(term, leader) => {
                self.promised_term = self.promised_term.max(term);
                if leader == self.config.host {
                    self.promote(now, out);
                } else {
                    if self.role == LoggerRole::Primary {
                        // Deposed: step down to a replica of the
                        // new leader.
                        self.role = LoggerRole::Replica;
                        self.repl_next_at = None;
                        self.tracer
                            .emit(now.nanos(), || ProtocolEvent::RoleAnnounced {
                                role: "logger_replica",
                            });
                    }
                    self.fetches.retarget(now, leader, true);
                }
            }
            _ => {}
        }
    }

    fn poll(&mut self, now: Time, out: &mut Actions) {
        // The retention sweep below rides on any due poll, even one with
        // an empty store, but `next_deadline` asks for a poll of its own
        // only while the store holds entries. A poll with nothing due
        // must still do nothing (the `Machine::poll` contract), or a
        // stale timer would move the sweep's schedule.
        if self.next_deadline().is_none_or(|d| d > now) {
            return;
        }
        // Parent fetches. Only a secondary looks for a new primary when
        // its parent goes quiet.
        let c = &self.config;
        let origin = Origin::new(c.group, c.source, c.host, &self.tracer);
        let locate = (self.role == LoggerRole::Secondary).then_some(self.config.source_host);
        self.fetches.poll(now, origin, locate, out, |_| {});
        // Replication retries.
        if let Some(at) = self.repl_next_at {
            if now >= at {
                let behind = self.repl_acked.values().any(|&end| {
                    end < self
                        .store
                        .contiguous_high()
                        .map_or(0, |h| self.unwrapper.peek(h) + 1)
                }) || self.repl_acked.len()
                    < self
                        .config
                        .replicas
                        .iter()
                        .filter(|&&r| r != self.config.host)
                        .count();
                if behind {
                    self.replicate(now, out);
                } else {
                    self.repl_next_at = None;
                }
            }
        }
        // Retention sweep.
        if now >= self.next_prune_at {
            self.store.prune(now);
            self.next_prune_at = now + Duration::from_secs(1);
            // Drop stale repair windows.
            self.repairs
                .retain(|_, w| now.since(w.opened) <= REMULTICAST_WINDOW);
        }
    }

    fn next_deadline(&self) -> Option<Time> {
        let mut d = earliest(self.fetches.next_due(), self.repl_next_at);
        if !self.store.is_empty() {
            d = earliest(d, Some(self.next_prune_at));
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::notices;
    use lbrm_wire::TtlScope;

    const GROUP: GroupId = GroupId(1);
    const SRC: SourceId = SourceId(10);
    const SRC_HOST: HostId = HostId(100);
    const PRIMARY: HostId = HostId(200);
    const SECONDARY: HostId = HostId(300);
    const RX: HostId = HostId(400);

    fn data(seq: u32, payload: &'static str) -> Packet {
        Packet::Data {
            group: GROUP,
            source: SRC,
            seq: Seq(seq),
            epoch: EpochId(0),
            payload: Bytes::from_static(payload.as_bytes()),
        }
    }

    fn nack(requester: HostId, seq: u32) -> Packet {
        Packet::Nack {
            group: GROUP,
            source: SRC,
            requester,
            ranges: vec![SeqRange::single(Seq(seq))],
        }
    }

    fn secondary() -> Logger {
        Logger::new(LoggerConfig::secondary(
            GROUP, SRC, SECONDARY, PRIMARY, SRC_HOST,
        ))
    }

    fn primary() -> Logger {
        Logger::new(LoggerConfig::primary(GROUP, SRC, PRIMARY, SRC_HOST))
    }

    #[test]
    fn logs_and_serves_from_store() {
        let mut l = secondary();
        let mut out = Actions::new();
        l.on_packet(Time::ZERO, SRC_HOST, data(1, "one"), &mut out);
        assert!(l.has(Seq(1)));
        out.clear();
        l.on_packet(Time::from_millis(5), RX, nack(RX, 1), &mut out);
        assert!(matches!(
            &out[..],
            [Action::Unicast { to, packet: Packet::Retrans { seq, .. } }]
                if *to == RX && *seq == Seq(1)
        ));
    }

    #[test]
    fn miss_fetched_from_parent_and_requester_served_on_arrival() {
        let mut l = secondary();
        let mut out = Actions::new();
        l.on_packet(Time::ZERO, SRC_HOST, data(1, "one"), &mut out);
        // Receiver asks for #2, which we don't have.
        out.clear();
        l.on_packet(Time::from_millis(10), RX, nack(RX, 2), &mut out);
        assert!(out.is_empty(), "nothing sent until poll");
        // Child-driven fetch goes out immediately on poll.
        let d = l.next_deadline().unwrap();
        assert!(d <= Time::from_millis(10));
        l.poll(d, &mut out);
        assert!(matches!(
            &out[..],
            [Action::Unicast { to, packet: Packet::Nack { requester, .. } }]
                if *to == PRIMARY && *requester == SECONDARY
        ));
        // Parent's retransmission arrives: log it and serve the receiver.
        out.clear();
        let retrans = Packet::Retrans {
            group: GROUP,
            source: SRC,
            seq: Seq(2),
            payload: Bytes::from_static(b"two"),
        };
        l.on_packet(Time::from_millis(50), PRIMARY, retrans, &mut out);
        assert!(l.has(Seq(2)));
        assert!(matches!(
            &out[..],
            [Action::Unicast { to, packet: Packet::Retrans { seq, .. } }]
                if *to == RX && *seq == Seq(2)
        ));
    }

    #[test]
    fn nack_span_repairs_are_one_contiguous_unicast_run() {
        // The bundling contract documented on the NACK arm: one span
        // NACK is answered by an uninterrupted run of unicast
        // retransmissions to the requester, in sequence order — the
        // adjacency the endpoint's outbound batcher turns into bundled
        // datagrams.
        let mut l = primary();
        let mut out = Actions::new();
        for seq in 1..=16u32 {
            l.on_packet(Time::ZERO, SRC_HOST, data(seq, "payload"), &mut out);
        }
        out.clear();
        let span = Packet::Nack {
            group: GROUP,
            source: SRC,
            requester: RX,
            ranges: vec![SeqRange {
                first: Seq(3),
                last: Seq(14),
            }],
        };
        l.on_packet(Time::from_millis(5), RX, span, &mut out);
        let served: Vec<Seq> = out
            .iter()
            .map(|a| match a {
                Action::Unicast {
                    to,
                    packet: Packet::Retrans { seq, .. },
                } if *to == RX => *seq,
                other => panic!("non-repair action interleaved: {other:?}"),
            })
            .collect();
        let expect: Vec<Seq> = (3..=14).map(Seq).collect();
        assert_eq!(served, expect, "contiguous, ordered, same-requester");
    }

    #[test]
    fn one_upstream_nack_for_many_local_requesters() {
        // §2.2.2: 20 receivers at a site lose a packet; exactly one NACK
        // crosses to the primary.
        let mut l = secondary();
        let mut out = Actions::new();
        l.on_packet(Time::ZERO, SRC_HOST, data(1, "one"), &mut out);
        out.clear();
        for i in 0..20 {
            l.on_packet(
                Time::from_millis(10),
                HostId(500 + i),
                nack(HostId(500 + i), 2),
                &mut out,
            );
        }
        let d = l.next_deadline().unwrap();
        l.poll(d, &mut out);
        let upstream: Vec<_> = out
            .iter()
            .filter(|a| matches!(a, Action::Unicast { to, packet: Packet::Nack { .. } } if *to == PRIMARY))
            .collect();
        assert_eq!(upstream.len(), 1);
        // Re-polling before the retry interval sends nothing more.
        out.clear();
        l.poll(d + Duration::from_millis(1), &mut out);
        assert!(out.iter().all(|a| !matches!(
            a,
            Action::Unicast {
                packet: Packet::Nack { .. },
                ..
            }
        )));
    }

    #[test]
    fn gap_self_recovery_after_nack_delay() {
        let mut l = secondary();
        let mut out = Actions::new();
        l.on_packet(Time::ZERO, SRC_HOST, data(1, "a"), &mut out);
        l.on_packet(Time::from_millis(1), SRC_HOST, data(3, "c"), &mut out);
        // Gap at #2: fetch scheduled after nack_delay, not immediately.
        let d = l.next_deadline().unwrap();
        assert!(d >= Time::from_millis(1) + l.config.nack_delay);
        out.clear();
        l.poll(d, &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Unicast { to, packet: Packet::Nack { .. } } if *to == PRIMARY
        )));
    }

    #[test]
    fn heartbeat_reveals_tail_loss() {
        let mut l = secondary();
        let mut out = Actions::new();
        l.on_packet(Time::ZERO, SRC_HOST, data(1, "a"), &mut out);
        let hb = Packet::Heartbeat {
            group: GROUP,
            source: SRC,
            seq: Seq(3),
            epoch: EpochId(0),
            hb_index: 1,
            payload: Bytes::new(),
        };
        l.on_packet(Time::from_millis(250), SRC_HOST, hb, &mut out);
        let d = l.next_deadline().unwrap();
        out.clear();
        l.poll(d, &mut out);
        let nacked: Vec<u32> = out
            .iter()
            .filter_map(|a| match a {
                Action::Unicast {
                    packet: Packet::Nack { ranges, .. },
                    ..
                } => Some(
                    ranges
                        .iter()
                        .flat_map(|r| r.iter())
                        .map(|s| s.raw())
                        .collect::<Vec<_>>(),
                ),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(nacked, vec![2, 3]);
    }

    #[test]
    fn a_heartbeat_payload_never_enters_the_log() {
        let mut l = primary();
        let mut out = Actions::new();
        let forged = Packet::Heartbeat {
            group: GROUP,
            source: SRC,
            seq: Seq(1),
            epoch: EpochId(0),
            hb_index: 1,
            payload: Bytes::from_static(b"forged"),
        };
        l.on_packet(Time::ZERO, SRC_HOST, forged, &mut out);
        // Announced, not logged: the source must keep its copy.
        assert!(!l.has(Seq(1)));
        assert!(logacks(&out).is_empty());
        out.clear();
        l.on_packet(Time::from_millis(1), SRC_HOST, data(1, "real"), &mut out);
        assert_eq!(logacks(&out), vec![(Seq(1), Seq(1))]);
        out.clear();
        l.on_packet(Time::from_millis(2), RX, nack(RX, 1), &mut out);
        match &out[..] {
            [Action::Unicast {
                to,
                packet: Packet::Retrans { seq, payload, .. },
            }] => {
                assert_eq!((*to, *seq), (RX, Seq(1)));
                assert_eq!(payload.as_ref(), b"real");
            }
            other => panic!("expected one repair, got {other:?}"),
        }
    }

    #[test]
    fn remulticast_after_threshold_requesters() {
        let mut l = secondary();
        let mut out = Actions::new();
        l.on_packet(Time::ZERO, SRC_HOST, data(1, "a"), &mut out);
        out.clear();
        // Three distinct receivers ask (threshold = 3): first two get
        // unicasts, the third triggers a site-scoped multicast.
        l.on_packet(
            Time::from_millis(1),
            HostId(501),
            nack(HostId(501), 1),
            &mut out,
        );
        l.on_packet(
            Time::from_millis(2),
            HostId(502),
            nack(HostId(502), 1),
            &mut out,
        );
        let unicasts = out
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Unicast {
                        packet: Packet::Retrans { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(unicasts, 2);
        out.clear();
        l.on_packet(
            Time::from_millis(3),
            HostId(503),
            nack(HostId(503), 1),
            &mut out,
        );
        assert!(matches!(
            &out[..],
            [
                Action::Multicast {
                    scope: TtlScope::Site,
                    packet: Packet::Retrans { .. }
                },
                Action::Notice(Notice::SiteRemulticast { requesters: 3, .. })
            ]
        ));
        // A fourth request *after* the multicast is evidence the
        // requester missed it: served by unicast, never starved.
        out.clear();
        l.on_packet(
            Time::from_millis(4),
            HostId(504),
            nack(HostId(504), 1),
            &mut out,
        );
        assert!(matches!(
            &out[..],
            [Action::Unicast { to, packet: Packet::Retrans { .. } }] if *to == HostId(504)
        ));
        // A request at the very instant of the multicast is covered by it.
        out.clear();
        l.on_packet(
            Time::from_millis(3),
            HostId(505),
            nack(HostId(505), 1),
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn mid_hierarchy_logger_never_site_remulticasts() {
        // A regional logger's requesters are remote child loggers; the
        // site shortcut must stay off (config default for non-site
        // roles) and everyone gets a unicast.
        let mut cfg = LoggerConfig::secondary(GROUP, SRC, SECONDARY, PRIMARY, SRC_HOST);
        cfg.site_remulticast = false;
        let mut l = Logger::new(cfg);
        let mut out = Actions::new();
        l.on_packet(Time::ZERO, SRC_HOST, data(1, "a"), &mut out);
        out.clear();
        for i in 0..5u64 {
            l.on_packet(
                Time::from_millis(i),
                HostId(600 + i),
                nack(HostId(600 + i), 1),
                &mut out,
            );
        }
        let unicasts = out
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Unicast {
                        packet: Packet::Retrans { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(unicasts, 5);
        assert!(!out.iter().any(|a| matches!(a, Action::Multicast { .. })));
    }

    #[test]
    fn primary_acks_source_with_dual_seqs() {
        let mut cfg = LoggerConfig::primary(GROUP, SRC, PRIMARY, SRC_HOST);
        cfg.replicas = vec![HostId(301)];
        let mut l = Logger::new(cfg);
        let mut out = Actions::new();
        l.on_packet(Time::ZERO, SRC_HOST, data(1, "a"), &mut out);
        // LogAck with primary_seq=1, replica_seq=0, plus a ReplUpdate.
        let logack = out.iter().find_map(|a| match a {
            Action::Unicast {
                to,
                packet:
                    Packet::LogAck {
                        primary_seq,
                        replica_seq,
                        ..
                    },
            } if *to == SRC_HOST => Some((*primary_seq, *replica_seq)),
            _ => None,
        });
        assert_eq!(logack, Some((Seq(1), Seq::ZERO)));
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Unicast { to, packet: Packet::ReplUpdate { seq, .. } }
                if *to == HostId(301) && *seq == Seq(1)
        )));
        // Replica acks: LogAck advances replica_seq.
        out.clear();
        let repl_ack = Packet::ReplAck {
            group: GROUP,
            source: SRC,
            seq: Seq(1),
        };
        l.on_packet(Time::from_millis(5), HostId(301), repl_ack, &mut out);
        let logack = out.iter().find_map(|a| match a {
            Action::Unicast {
                packet:
                    Packet::LogAck {
                        primary_seq,
                        replica_seq,
                        ..
                    },
                ..
            } => Some((*primary_seq, *replica_seq)),
            _ => None,
        });
        assert_eq!(logack, Some((Seq(1), Seq(1))));
    }

    /// The `(primary_seq, replica_seq)` of every LogAck in `out`.
    fn logacks(out: &Actions) -> Vec<(Seq, Seq)> {
        out.iter()
            .filter_map(|a| match a {
                Action::Unicast {
                    packet:
                        Packet::LogAck {
                            primary_seq,
                            replica_seq,
                            ..
                        },
                    ..
                } => Some((*primary_seq, *replica_seq)),
                _ => None,
            })
            .collect()
    }

    fn repl_ack(seq: u32) -> Packet {
        Packet::ReplAck {
            group: GROUP,
            source: SRC,
            seq: Seq(seq),
        }
    }

    #[test]
    fn primary_reports_what_a_replica_quorum_holds() {
        let replicas = [HostId(301), HostId(302), HostId(303)];
        let mut cfg = LoggerConfig::primary(GROUP, SRC, PRIMARY, SRC_HOST);
        cfg.replicas = replicas.to_vec();
        let mut l = Logger::new(cfg);
        let mut out = Actions::new();
        for seq in 1..=10 {
            l.on_packet(Time::ZERO, SRC_HOST, data(seq, "a"), &mut out);
        }
        let mut acks = Vec::new();
        for (r, seq) in replicas.into_iter().zip([10, 5, 5]) {
            out.clear();
            l.on_packet(Time::from_millis(5), r, repl_ack(seq), &mut out);
            acks.extend(logacks(&out));
        }
        // One replica holding 10 is not a quorum of three, so its ack
        // changes nothing; the source may release what two replicas hold.
        assert_eq!(acks, vec![(Seq(10), Seq(5))]);
    }

    #[test]
    fn promoted_replica_counts_its_own_log_in_the_quorum() {
        // Replica 301 of the set {301, 302, 303}; its `replicas` name
        // the other two.
        let mut cfg = LoggerConfig::replica(GROUP, SRC, HostId(301), PRIMARY, SRC_HOST);
        cfg.replicas = vec![HostId(302), HostId(303)];
        let mut l = Logger::new(cfg);
        let mut out = Actions::new();
        for seq in 1..=10 {
            let upd = Packet::ReplUpdate {
                group: GROUP,
                source: SRC,
                seq: Seq(seq),
                payload: Bytes::from_static(b"a"),
            };
            l.on_packet(Time::ZERO, PRIMARY, upd, &mut out);
        }
        let promote = Packet::PrimaryIs {
            group: GROUP,
            source: SRC,
            primary: HostId(301),
        };
        out.clear();
        l.on_packet(Time::from_secs(1), SRC_HOST, promote, &mut out);
        assert_eq!(l.role(), LoggerRole::Primary);
        // Its own 10 and two replicas that hold nothing yet: one of three.
        assert_eq!(logacks(&out), vec![(Seq(10), Seq(0))]);
        out.clear();
        l.on_packet(Time::from_secs(1), HostId(303), repl_ack(10), &mut out);
        // Its own log and 303's make two of three: a quorum holds 10.
        assert_eq!(logacks(&out), vec![(Seq(10), Seq(10))]);
    }

    #[test]
    fn primary_without_replicas_reports_own_log() {
        let mut l = primary();
        let mut out = Actions::new();
        l.on_packet(Time::ZERO, SRC_HOST, data(1, "a"), &mut out);
        let logack = out.iter().find_map(|a| match a {
            Action::Unicast {
                packet:
                    Packet::LogAck {
                        primary_seq,
                        replica_seq,
                        ..
                    },
                ..
            } => Some((*primary_seq, *replica_seq)),
            _ => None,
        });
        assert_eq!(logack, Some((Seq(1), Seq(1))));
    }

    #[test]
    fn replica_mirrors_and_acks() {
        let mut l = Logger::new(LoggerConfig::replica(
            GROUP,
            SRC,
            HostId(301),
            PRIMARY,
            SRC_HOST,
        ));
        let mut out = Actions::new();
        let upd = Packet::ReplUpdate {
            group: GROUP,
            source: SRC,
            seq: Seq(1),
            payload: Bytes::from_static(b"a"),
        };
        l.on_packet(Time::ZERO, PRIMARY, upd, &mut out);
        assert!(l.has(Seq(1)));
        assert!(matches!(
            &out[..],
            [Action::Unicast { to, packet: Packet::ReplAck { seq, .. } }]
                if *to == PRIMARY && *seq == Seq(1)
        ));
    }

    #[test]
    fn replica_reports_state_to_source_during_failover() {
        let mut l = Logger::new(LoggerConfig::replica(
            GROUP,
            SRC,
            HostId(301),
            PRIMARY,
            SRC_HOST,
        ));
        let mut out = Actions::new();
        for i in 1..=4 {
            let upd = Packet::ReplUpdate {
                group: GROUP,
                source: SRC,
                seq: Seq(i),
                payload: Bytes::from_static(b"x"),
            };
            l.on_packet(Time::ZERO, PRIMARY, upd, &mut out);
        }
        out.clear();
        let query = Packet::LocatePrimary {
            group: GROUP,
            source: SRC,
            requester: SRC_HOST,
        };
        l.on_packet(Time::from_secs(1), SRC_HOST, query, &mut out);
        assert!(matches!(
            &out[..],
            [Action::Unicast { to, packet: Packet::LogAck { primary_seq, .. } }]
                if *to == SRC_HOST && *primary_seq == Seq(4)
        ));
    }

    #[test]
    fn replica_promotes_on_primary_is() {
        let mut cfg = LoggerConfig::replica(GROUP, SRC, HostId(301), PRIMARY, SRC_HOST);
        cfg.replicas = vec![HostId(302)];
        let mut l = Logger::new(cfg);
        let mut out = Actions::new();
        let upd = Packet::ReplUpdate {
            group: GROUP,
            source: SRC,
            seq: Seq(1),
            payload: Bytes::from_static(b"a"),
        };
        l.on_packet(Time::ZERO, PRIMARY, upd, &mut out);
        out.clear();
        let promote = Packet::PrimaryIs {
            group: GROUP,
            source: SRC,
            primary: HostId(301),
        };
        l.on_packet(Time::from_secs(1), SRC_HOST, promote, &mut out);
        assert_eq!(l.role(), LoggerRole::Primary);
        assert!(notices(&out)
            .iter()
            .any(|n| matches!(n, Notice::Promoted { new_primary } if *new_primary == HostId(301))));
        // As primary it now LogAcks the source and replicates onward.
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Unicast {
                packet: Packet::LogAck { .. },
                ..
            }
        )));
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Unicast { to, packet: Packet::ReplUpdate { .. } } if *to == HostId(302)
        )));
    }

    #[test]
    fn secondary_redirects_to_new_primary() {
        let mut l = secondary();
        let mut out = Actions::new();
        // Miss #1 via a child NACK; parent (old primary) never answers.
        l.on_packet(Time::ZERO, RX, nack(RX, 1), &mut out);
        let d = l.next_deadline().unwrap();
        l.poll(d, &mut out);
        out.clear();
        let new_primary = HostId(999);
        let pi = Packet::PrimaryIs {
            group: GROUP,
            source: SRC,
            primary: new_primary,
        };
        l.on_packet(d + Duration::from_millis(1), SRC_HOST, pi, &mut out);
        assert_eq!(l.parent(), new_primary);
        // The pending fetch retries against the new parent immediately.
        let d2 = l.next_deadline().unwrap();
        out.clear();
        l.poll(d2, &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Unicast { to, packet: Packet::Nack { .. } } if *to == new_primary
        )));
    }

    #[test]
    fn escalates_to_source_after_fetch_attempts() {
        let mut l = secondary();
        let mut out = Actions::new();
        l.on_packet(Time::ZERO, RX, nack(RX, 1), &mut out);
        let mut escalated = false;
        for _ in 0..20 {
            let Some(d) = l.next_deadline() else { break };
            out.clear();
            l.poll(d, &mut out);
            if out.iter().any(|a| {
                matches!(
                    a,
                    Action::Unicast { to, packet: Packet::LocatePrimary { .. } } if *to == SRC_HOST
                )
            }) {
                escalated = true;
                break;
            }
        }
        assert!(escalated, "secondary never escalated to the source");
    }

    #[test]
    fn volunteers_with_probability_one() {
        let mut l = secondary();
        let mut out = Actions::new();
        let sel = Packet::AckerSelect {
            group: GROUP,
            source: SRC,
            epoch: EpochId(1),
            p_ack: 1.0,
        };
        l.on_packet(Time::ZERO, SRC_HOST, sel, &mut out);
        assert!(matches!(
            &out[..],
            [Action::Unicast { to, packet: Packet::AckerVolunteer { epoch, .. } }]
                if *to == SRC_HOST && *epoch == EpochId(1)
        ));
        // Data in that epoch gets acked.
        out.clear();
        let d = Packet::Data {
            group: GROUP,
            source: SRC,
            seq: Seq(1),
            epoch: EpochId(1),
            payload: Bytes::from_static(b"x"),
        };
        l.on_packet(Time::from_millis(1), SRC_HOST, d, &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Unicast { to, packet: Packet::PacketAck { seq, .. } }
                if *to == SRC_HOST && *seq == Seq(1)
        )));
        // Data in an unvolunteered epoch is not acked.
        out.clear();
        let d = Packet::Data {
            group: GROUP,
            source: SRC,
            seq: Seq(2),
            epoch: EpochId(9),
            payload: Bytes::from_static(b"y"),
        };
        l.on_packet(Time::from_millis(2), SRC_HOST, d, &mut out);
        assert!(!out.iter().any(|a| matches!(
            a,
            Action::Unicast {
                packet: Packet::PacketAck { .. },
                ..
            }
        )));
    }

    #[test]
    fn never_volunteers_at_probability_zero() {
        let mut l = secondary();
        let mut out = Actions::new();
        let sel = Packet::AckerSelect {
            group: GROUP,
            source: SRC,
            epoch: EpochId(1),
            p_ack: 0.0,
        };
        l.on_packet(Time::ZERO, SRC_HOST, sel, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn answers_discovery() {
        let mut l = secondary();
        let mut out = Actions::new();
        let q = Packet::DiscoveryQuery {
            group: GROUP,
            nonce: 42,
            requester: RX,
        };
        l.on_packet(Time::ZERO, RX, q, &mut out);
        assert!(matches!(
            &out[..],
            [Action::Unicast { to, packet: Packet::DiscoveryReply { nonce: 42, logger, level: 1, .. } }]
                if *to == RX && *logger == SECONDARY
        ));
    }

    #[test]
    fn ignores_other_groups() {
        let mut l = secondary();
        let mut out = Actions::new();
        let other = Packet::Data {
            group: GroupId(99),
            source: SRC,
            seq: Seq(1),
            epoch: EpochId(0),
            payload: Bytes::from_static(b"x"),
        };
        l.on_packet(Time::ZERO, SRC_HOST, other, &mut out);
        assert!(out.is_empty());
        assert_eq!(l.log_len(), 0);
    }

    #[test]
    fn retention_pruning_applies_on_poll() {
        let mut cfg = LoggerConfig::secondary(GROUP, SRC, SECONDARY, PRIMARY, SRC_HOST);
        cfg.retention = Retention::Lifetime(Duration::from_secs(5));
        let mut l = Logger::new(cfg);
        let mut out = Actions::new();
        l.on_packet(Time::ZERO, SRC_HOST, data(1, "a"), &mut out);
        assert_eq!(l.log_len(), 1);
        l.poll(Time::from_secs(10), &mut out);
        assert_eq!(l.log_len(), 0);
    }

    /// The log is zero-copy end to end: the `Bytes` buffer ingested from
    /// the wire is the same allocation handed back out in retransmission
    /// serves and in every `ReplUpdate` of the replication fan-out — no
    /// payload is duplicated on the logger's hot path. (The store's one
    /// copy packs a block only it holds, two blocks behind the head.)
    #[test]
    fn payload_buffer_is_shared_across_store_serve_and_replication() {
        fn ptr(b: &Bytes) -> *const u8 {
            b.as_ref().as_ptr()
        }
        let mut cfg = LoggerConfig::primary(GROUP, SRC, PRIMARY, SRC_HOST);
        cfg.replicas = vec![HostId(501), HostId(502)];
        let mut l = Logger::new(cfg);

        let original = Bytes::from_static(b"shared-allocation");
        let origin = ptr(&original);
        let mut out = Actions::new();
        l.on_packet(
            Time::ZERO,
            SRC_HOST,
            Packet::Data {
                group: GROUP,
                source: SRC,
                seq: Seq(1),
                epoch: EpochId(0),
                payload: original,
            },
            &mut out,
        );

        // Replication fan-out: both ReplUpdates carry the ingested
        // allocation, not copies.
        let repl_ptrs: Vec<*const u8> = out
            .iter()
            .filter_map(|a| match a {
                Action::Unicast {
                    packet: Packet::ReplUpdate { payload, .. },
                    ..
                } => Some(ptr(payload)),
                _ => None,
            })
            .collect();
        assert_eq!(repl_ptrs.len(), 2, "one ReplUpdate per replica");
        assert!(repl_ptrs.iter().all(|&p| p == origin));

        // Serve path: the retransmission is the same allocation too.
        out.clear();
        l.on_packet(Time::from_millis(5), RX, nack(RX, 1), &mut out);
        let served: Vec<*const u8> = out
            .iter()
            .filter_map(|a| match a {
                Action::Unicast {
                    packet: Packet::Retrans { payload, .. },
                    ..
                } => Some(ptr(payload)),
                _ => None,
            })
            .collect();
        assert_eq!(served, vec![origin]);
    }

    #[test]
    fn only_a_configured_secondary_volunteers_as_designated_acker() {
        let select = |epoch| Packet::AckerSelect {
            group: GROUP,
            source: SRC,
            epoch: EpochId(epoch),
            p_ack: 1.0,
        };
        let volunteers = |l: &mut Logger, epoch| {
            let mut out = Actions::new();
            l.on_packet(Time::from_secs(2), SRC_HOST, select(epoch), &mut out);
            out.iter().any(|a| {
                matches!(
                    a,
                    Action::Unicast {
                        packet: Packet::AckerVolunteer { .. },
                        ..
                    }
                )
            })
        };
        assert!(volunteers(&mut secondary(), 1));
        assert!(!volunteers(&mut primary(), 1));
        let replica = HostId(301);
        let mut l = Logger::new(LoggerConfig::replica(
            GROUP, SRC, replica, PRIMARY, SRC_HOST,
        ));
        assert!(!volunteers(&mut l, 1));
        let mut out = Actions::new();
        let promote = Packet::PrimaryIs {
            group: GROUP,
            source: SRC,
            primary: replica,
        };
        l.on_packet(Time::from_secs(1), SRC_HOST, promote, &mut out);
        assert_eq!(l.role(), LoggerRole::Primary);
        assert!(!volunteers(&mut l, 2));
    }

    /// A NACK of `MAX_NACK_RANGES` copies of one wide range, as a
    /// hostile host could send in one ~8 kB datagram.
    fn flood_nack(ranges: Vec<SeqRange>) -> Packet {
        assert_eq!(ranges.len(), lbrm_wire::codec::MAX_NACK_RANGES);
        Packet::Nack {
            group: GROUP,
            source: SRC,
            requester: RX,
            ranges,
        }
    }

    #[test]
    fn one_nack_datagram_is_served_at_most_the_budget() {
        let mut l = primary();
        let mut out = Actions::new();
        for seq in 1..=4096 {
            l.on_packet(Time::ZERO, SRC_HOST, data(seq, "x"), &mut out);
        }
        out.clear();
        let all = SeqRange {
            first: Seq(1),
            last: Seq(4096),
        };
        let nack = flood_nack(vec![all; lbrm_wire::codec::MAX_NACK_RANGES]);
        l.on_packet(Time::from_millis(1), RX, nack, &mut out);
        let served = out
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Unicast {
                        packet: Packet::Retrans { .. },
                        ..
                    }
                )
            })
            .count() as u64;
        assert_eq!(served, recovery::MAX_NACK_SEQS);
    }

    #[test]
    fn one_nack_datagram_opens_at_most_the_budget_of_fetches() {
        let mut l = secondary();
        let mut out = Actions::new();
        let ranges = (0..lbrm_wire::codec::MAX_NACK_RANGES as u32)
            .map(|i| SeqRange {
                first: Seq(1 + i * 1024),
                last: Seq(512 + i * 1024),
            })
            .collect();
        l.on_packet(Time::ZERO, RX, flood_nack(ranges), &mut out);
        assert!(l.fetches.len() as u64 <= recovery::MAX_NACK_SEQS);
        l.poll(Time::ZERO, &mut out);
        let fetched: u64 = out
            .iter()
            .map(|a| match a {
                Action::Unicast {
                    to,
                    packet: Packet::Nack { ranges, .. },
                } if *to == PRIMARY => ranges.iter().map(SeqRange::len).sum(),
                _ => 0,
            })
            .sum();
        assert!(
            fetched > 0 && fetched <= recovery::MAX_NACK_SEQS,
            "{fetched}"
        );
    }
}
