//! Shard state and the deterministic trace multiplexer for the parallel
//! simulator.
//!
//! The [`crate::world::World`] partitions sites (and with them hosts)
//! into shards. Each [`Shard`] owns everything its events can touch: the
//! per-shard event queue, the actors and RNG streams of its hosts, the
//! [`SiteNet`] network state and group membership of its sites, and the
//! per-entity sequence counters that generate the global event order.
//! Shards share *nothing* mutable — cross-shard sends leave through the
//! [`Shard::outbox`] as [`Mail`] and are delivered by the coordinator at
//! epoch barriers.
//!
//! # The global event key
//!
//! Every scheduled event carries a `(at, key)` pair where
//! `key = (entity << 64) | seq`: `entity` is the *pushing* entity (the
//! host whose handler pushed it, or `host_count + site` for pushes made
//! while evaluating a site's ingress), and `seq` is that entity's
//! monotone push counter. An entity's events are processed in a
//! deterministic order regardless of sharding, so its push counter — and
//! therefore every key — is a pure function of the seed. Merging all
//! queues by `(at, key)` yields one total order that is *identical* for
//! any shard count, which is the determinism guarantee the differential
//! matrix in `tests/event_queue_diff_sim.rs` pins.
//!
//! # The trace multiplexer
//!
//! Trace sinks (JSONL captures, metrics registries) observe record
//! *order*, so worker threads must not write to them directly. Sinks are
//! wrapped in a [`MuxedSink`] via `World::wrap_sink`: on a worker thread
//! (where a thread-local capture buffer is active) records are buffered
//! and tagged with the processing event's `(at, key)`; the coordinator
//! k-way merges the per-shard streams by their heads' `(at, key)` at
//! each barrier (see [`forward_merged`]) and forwards them serially —
//! reproducing byte-for-byte the order a single-shard run would have
//! produced. Off worker threads (single-shard runs, `step()`, world
//! start-up) the wrapper forwards directly, with no buffering.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use rand::rngs::SmallRng;

use lbrm_trace::{ProtocolEvent, TraceSink, Tracer};
use lbrm_wire::{GroupId, HostId, Packet, SiteId, TtlScope};

use crate::queue::EventQueue;
use crate::stats::{BundleMeter, NetStats};
use crate::time::SimTime;
use crate::topology::SiteNet;
use crate::world::Actor;

/// A scheduled simulator event.
pub(crate) enum Ev {
    /// Final delivery of a packet to a host.
    Packet {
        from: HostId,
        to: HostId,
        packet: Packet,
    },
    /// A timer armed by (or for) a host.
    Timer { host: HostId, token: u64 },
    /// A cross-site copy arriving at `site`'s inbound tail circuit: the
    /// destination half of the split transmission evaluation.
    Ingress {
        from: HostId,
        site: SiteId,
        packet: Packet,
        kind: IngressKind,
    },
}

/// What an [`Ev::Ingress`] copy fans out to once it crosses the tail.
pub(crate) enum IngressKind {
    /// Deliver to the site's current local members of the packet's group.
    Multicast {
        /// Scope the send was made with (already applied when choosing
        /// destination sites; kept for debugging).
        #[allow(dead_code)]
        scope: TtlScope,
    },
    /// Deliver to exactly one host.
    Unicast { to: HostId },
}

/// A cross-shard event in flight: routed by the coordinator into shard
/// `shard`'s queue at the next epoch barrier.
pub(crate) struct Mail {
    pub shard: usize,
    pub at: SimTime,
    pub key: u128,
    pub ev: Ev,
}

/// One shard: a disjoint set of sites, their hosts, and everything those
/// hosts' events can touch.
pub(crate) struct Shard {
    pub idx: usize,
    pub shard_of_site: Arc<Vec<usize>>,
    pub queue: EventQueue<Ev>,
    /// Actor slots by host index (only this shard's hosts are populated).
    pub actors: Vec<Option<Box<dyn Actor>>>,
    /// Per-host RNG streams, by host index.
    pub rngs: Vec<Option<SmallRng>>,
    /// Crash flags, by host index.
    pub crashed: Vec<bool>,
    /// Partition ids, by host index — replicated *identically* on every
    /// shard. A packet delivery whose endpoints hold different ids is
    /// dropped (link-level fault injection). Because the vector is
    /// replicated and the drop test is a pure function of it, the
    /// decision is the same wherever the delivery event is processed, so
    /// sharded runs stay deterministic. Mutated only between `run_*`
    /// calls (at epoch barriers).
    pub partition: Vec<u32>,
    /// Per-site network state, by site index (only owned sites).
    pub nets: Vec<Option<SiteNet>>,
    /// Per-site group membership, by site index. Only ever mutated by
    /// this shard's own hosts (join/leave run on the member's shard), so
    /// reads at ingress time are race-free and placement-invariant.
    pub members: Vec<BTreeMap<GroupId, BTreeSet<HostId>>>,
    /// Per-entity push counters: `[0, host_count)` are hosts,
    /// `[host_count, host_count + site_count)` are site pseudo-entities.
    pub seqs: Vec<u64>,
    /// This shard's traffic accounting (merged across shards on demand).
    pub stats: NetStats,
    /// Per-host bundle-framing meters, by host index. A host's sends are
    /// processed in deterministic order on its owning shard, so each
    /// meter's fold is placement-invariant and the cross-shard merge is
    /// plain summation.
    pub meters: Vec<BundleMeter>,
    /// World-level tracer (NetPacket records), pre-wrapped by the mux.
    pub tracer: Tracer,
    /// High-water mark of this shard's queue depth.
    pub depth_max: usize,
    /// Events processed by this shard.
    pub events: u64,
    /// Virtual time of the last event this shard processed.
    pub last_at: SimTime,
    /// Wall-clock nanoseconds spent processing in the current epoch.
    pub busy_ns: u64,
    /// Cross-shard pushes made during the current window.
    pub outbox: Vec<Mail>,
    /// Trace records captured during the current window, tagged for the
    /// coordinator's head merge (in true pop/emission order).
    pub trace_buf: Vec<BufRecord>,
}

impl Shard {
    pub fn new(
        idx: usize,
        shard_of_site: Arc<Vec<usize>>,
        host_count: usize,
        site_count: usize,
    ) -> Shard {
        Shard {
            idx,
            shard_of_site,
            queue: EventQueue::new(),
            actors: (0..host_count).map(|_| None).collect(),
            rngs: (0..host_count).map(|_| None).collect(),
            crashed: vec![false; host_count],
            partition: vec![0; host_count],
            nets: (0..site_count).map(|_| None).collect(),
            members: (0..site_count).map(|_| BTreeMap::new()).collect(),
            seqs: vec![0; host_count + site_count],
            stats: NetStats::default(),
            meters: (0..host_count).map(|_| BundleMeter::default()).collect(),
            tracer: Tracer::disabled(),
            depth_max: 0,
            events: 0,
            last_at: SimTime::ZERO,
            busy_ns: 0,
            outbox: Vec::new(),
            trace_buf: Vec::new(),
        }
    }

    /// Schedules `ev` at `at` on behalf of `entity`, destined for
    /// `dst_site`'s shard: directly into the local queue when the
    /// destination is this shard, otherwise into the outbox for barrier
    /// delivery. The key `(entity << 64) | seq` makes the global event
    /// order independent of which shard pushed first.
    pub fn push_from(&mut self, entity: u64, at: SimTime, dst_site: SiteId, ev: Ev) {
        let seq = {
            let s = &mut self.seqs[entity as usize];
            *s += 1;
            *s
        };
        let key = (u128::from(entity) << 64) | u128::from(seq);
        let dst = self.shard_of_site[dst_site.raw() as usize];
        if dst == self.idx {
            self.queue.push_keyed(at, key, ev);
        } else {
            self.outbox.push(Mail {
                shard: dst,
                at,
                key,
                ev,
            });
        }
    }

    /// Records the current queue depth into the high-water mark.
    #[inline]
    pub fn note_depth(&mut self) {
        if self.queue.len() > self.depth_max {
            self.depth_max = self.queue.len();
        }
    }
}

/// One trace record buffered on a worker thread, tagged with the
/// processing event's merge key.
pub(crate) struct BufRecord {
    /// Virtual time of the event being processed when this was emitted.
    pub at: SimTime,
    /// Key of the event being processed.
    pub key: u128,
    pub at_nanos: u64,
    pub host: HostId,
    pub event: ProtocolEvent,
    /// The wrapped sink this record is destined for.
    pub sink: Arc<dyn TraceSink>,
}

thread_local! {
    /// Worker-thread capture buffer. `Some` only on shard worker
    /// threads; the coordinator/main thread never activates it, so
    /// serial emissions pass straight through the [`MuxedSink`].
    static CAPTURE: RefCell<Option<CaptureBuf>> = const { RefCell::new(None) };
}

struct CaptureBuf {
    records: Vec<BufRecord>,
}

/// Activates capture on the current thread (worker threads call this
/// once, right after spawn).
pub(crate) fn capture_activate() {
    CAPTURE.with(|c| {
        *c.borrow_mut() = Some(CaptureBuf {
            records: Vec::new(),
        });
    });
}

/// Drains the records captured while processing one event, tagging them
/// with the event's merge key. Returns an empty vec off worker threads.
pub(crate) fn capture_take(at: SimTime, key: u128) -> Vec<BufRecord> {
    CAPTURE.with(|c| {
        let mut b = c.borrow_mut();
        let Some(buf) = b.as_mut() else {
            return Vec::new();
        };
        let mut records = std::mem::take(&mut buf.records);
        for r in &mut records {
            r.at = at;
            r.key = key;
        }
        records
    })
}

/// A sink wrapper that keeps parallel runs byte-identical to serial
/// ones: on worker threads records are buffered for the coordinator's
/// deterministic head merge; everywhere else they forward straight to
/// the wrapped sink.
pub(crate) struct MuxedSink {
    inner: Arc<dyn TraceSink>,
}

impl MuxedSink {
    pub fn wrap(inner: Arc<dyn TraceSink>) -> Arc<dyn TraceSink> {
        Arc::new(MuxedSink { inner })
    }
}

impl TraceSink for MuxedSink {
    fn record(&self, at_nanos: u64, host: HostId, event: &ProtocolEvent) {
        let buffered = CAPTURE.with(|c| {
            let mut b = c.borrow_mut();
            let Some(buf) = b.as_mut() else {
                return false;
            };
            buf.records.push(BufRecord {
                at: SimTime::ZERO,
                key: 0,
                at_nanos,
                host,
                event: event.clone(),
                sink: self.inner.clone(),
            });
            true
        });
        if !buffered {
            self.inner.record(at_nanos, host, event);
        }
    }
}

/// Merges per-shard capture streams into the serial emission order and
/// forwards them. Called by the coordinator between epochs (and at run
/// end).
///
/// This must be a *k-way head merge*, not a global sort: within one
/// shard the capture stream is already in true pop order, and that order
/// is not monotone in `(at, key)` — an event can arm a timer at the
/// *current* instant, which pops right after it despite a smaller key.
/// A serial run interleaves shards by picking the globally least
/// `(at, key)` among the queue *heads* at each step; since same-instant
/// follow-up events always land on the generating event's own shard
/// (cross-shard events are at least a lookahead away), comparing stream
/// heads reproduces exactly that order.
pub(crate) fn forward_merged(streams: Vec<Vec<BufRecord>>) {
    let mut streams: Vec<std::iter::Peekable<std::vec::IntoIter<BufRecord>>> = streams
        .into_iter()
        .map(|v| v.into_iter().peekable())
        .collect();
    loop {
        let mut best: Option<(SimTime, u128, usize)> = None;
        for (i, s) in streams.iter_mut().enumerate() {
            if let Some(h) = s.peek() {
                if best.is_none_or(|(at, key, _)| (h.at, h.key) < (at, key)) {
                    best = Some((h.at, h.key, i));
                }
            }
        }
        let Some((_, _, i)) = best else { break };
        let r = streams[i].next().expect("peeked head");
        r.sink.record(r.at_nanos, r.host, &r.event);
    }
}
