//! The simulation driver: actors, timers, multicast groups, and the
//! deterministic, serial event loop.
//!
//! An [`Actor`] is a protocol endpoint (sender, receiver, logging server,
//! application). Actors react to packets and timers through a [`Ctx`]
//! that can send unicast/multicast, arm timers, join groups, and draw
//! deterministic randomness. The world also supports failure injection:
//! a [`crashed`](World::crash) host silently discards everything until
//! [`revived`](World::revive) (state intact) or
//! [`restarted`](World::restart) (fresh actor, same host), and
//! [`World::partition`]/[`World::heal`] cut and restore links between
//! host groups — used by the primary-logger failover tests and the
//! chaos suite.
//!
//! # Determinism
//!
//! One thread pops one queue in `(at, push count)` order. A fixed seed
//! replays byte-identical traces, `NetStats` and deliveries — and
//! replays the recorded goldens in `tests/event_queue_diff_sim.rs` —
//! because
//!
//! 1. same-instant events run in the order they were pushed (FIFO):
//!    timers wait in a heap of their own ([`crate::queue`]), but both
//!    heaps number their entries from one push counter, so the merged
//!    order is the one a single heap would give, and
//! 2. every random draw charges either a per-host stream or the owning
//!    site's stream — never a global one.
//!
//! Changing either reorders same-instant events or moves draws between
//! streams, and every golden and published figure with it.
//!
//! A run of a fan-out's deliveries that land at one instant is one
//! queue entry (`Ev::Fanout`), its recipients dispatched in list order
//! when it pops. That keeps order 1: one entry per delivery would take
//! consecutive push counts at one instant, so nothing could pop between
//! them, and whatever their handlers push gets a later count either
//! way. Each recipient still counts as one event and one unit of
//! [`World::queue_depth`].
//!
//! A cross-site copy is evaluated in two halves (source-site egress at
//! send time, destination-site `Ev::Ingress` on arrival). That split
//! is the network model, not an ordering device: a site's inbound tail
//! circuit queues copies FIFO by arrival time (`tail_in_busy_until`), its
//! Gilbert loss chain steps once per traversal, and a multicast branch
//! fans out to the site's members *at arrival*. All three are only right
//! when a site's arrivals are evaluated in arrival order.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use lbrm_trace::{GaugeTable, Gauges, MetricsRegistry, ProtocolEvent, Tracer};
use lbrm_wire::codec::PACKET_KINDS;
use lbrm_wire::{GroupId, HostId, Packet, SiteId, TtlScope};

use crate::queue::{EventQueue, Popped};
use crate::stats::{BundleMeter, BundleStats, NetStats, SegmentClass};
use crate::time::SimTime;
use crate::topology::{Delivery, SiteNet, Topology};

/// A protocol endpoint living on one simulated host.
///
/// `Actor: Any` enables post-run inspection via
/// [`World::actor`] / [`World::actor_mut`] downcasts; `Actor: Send`
/// keeps a built [`World`] `Send`, so independent worlds can be handed
/// to worker threads, and is the bound out-of-tree actors already meet.
pub trait Actor: Any + Send {
    /// Called once when the simulation starts (in host-insertion order).
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A packet arrived.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: HostId, packet: Packet);

    /// A timer armed via [`Ctx::set_timer_at`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
}

/// A scheduled simulator event other than a timer.
enum Ev {
    /// Final delivery of a packet to a host.
    Packet {
        from: HostId,
        to: HostId,
        packet: Packet,
    },
    /// Final delivery of a packet to two or more hosts at one instant:
    /// a run of a fan-out's deliveries that share their arrival time.
    /// `list` indexes [`State::lists`], which holds the recipients in
    /// delivery order.
    Fanout {
        from: HostId,
        packet: Packet,
        list: u32,
    },
    /// A cross-site copy arriving at `site`'s inbound tail circuit: the
    /// destination half of the split transmission evaluation.
    Ingress {
        from: HostId,
        site: SiteId,
        packet: Packet,
        kind: IngressKind,
    },
}

/// A timer armed by (or for) `.0`, carrying its token `.1`: it waits in
/// the queue's timer heap, not beside the packet-sized [`Ev`]s.
type Timer = (HostId, u64);

/// What an [`Ev::Ingress`] copy fans out to once it crosses the tail.
enum IngressKind {
    /// Deliver to the site's current local members of the packet's group.
    Multicast,
    /// Deliver to exactly one host.
    Unicast { to: HostId },
}

/// Everything an event handler can touch: the queue, the per-host and
/// per-site tables, and the accounting. Split from [`World`] so a
/// handler can borrow it mutably beside the immutable topology and
/// tracer.
struct State {
    queue: EventQueue<Ev, Timer>,
    /// Actor slots, by host index.
    actors: Vec<Option<Box<dyn Actor>>>,
    /// Per-host RNG streams, by host index.
    rngs: Vec<Option<SmallRng>>,
    /// Crash flags, by host index.
    crashed: Vec<bool>,
    /// Partition ids, by host index. A packet delivery whose endpoints
    /// hold different ids is dropped (link-level fault injection).
    partition: Vec<u32>,
    /// Per-site network state, by site index.
    nets: Vec<SiteNet>,
    /// Per-site group membership, by site index.
    members: Vec<BTreeMap<GroupId, BTreeSet<HostId>>>,
    stats: NetStats,
    /// Bundle-framing accounting, with one open frame per host.
    bundles: BundleMeter,
    /// Scratch fan-out lists, empty between handlers: a multicast or an
    /// ingress collects its surviving deliveries (and WAN branches)
    /// here before pushing them, so a hop allocates nothing.
    deliveries: Vec<Delivery>,
    branches: Vec<(SiteId, SimTime)>,
    /// Recipient lists of queued [`Ev::Fanout`]s, by list index; a list
    /// is emptied and its index returned to `free_lists` once its
    /// entry has been delivered, so the pool grows only to the most
    /// fan-outs ever queued at once.
    lists: Vec<Vec<HostId>>,
    free_lists: Vec<u32>,
    /// Deliveries, timers and ingresses queued: a fan-out entry counts
    /// once per recipient not yet delivered.
    pending: usize,
    /// High-water mark of `pending`.
    depth_max: usize,
    /// Events processed.
    events: u64,
}

impl State {
    /// Records the current queue depth into the high-water mark.
    #[inline]
    fn note_depth(&mut self) {
        if self.pending > self.depth_max {
            self.depth_max = self.pending;
        }
    }

    /// Queues one event.
    fn push(&mut self, at: SimTime, ev: Ev) {
        self.pending += 1;
        self.queue.push(at, ev);
    }

    /// Queues one timer.
    fn push_timer(&mut self, at: SimTime, timer: Timer) {
        self.pending += 1;
        self.queue.push_timer(at, timer);
    }

    /// Queues `from`'s `packet` for each of `deliveries` (drained), in
    /// order. A run of consecutive deliveries with one arrival time
    /// becomes one [`Ev::Fanout`]; a run of one stays an [`Ev::Packet`].
    ///
    /// Pop order is unchanged by the grouping: one entry per delivery
    /// would take consecutive push counts at one instant, so nothing
    /// could pop between them, and whatever their handlers push gets a
    /// later count either way.
    fn push_deliveries(&mut self, from: HostId, packet: &Packet, deliveries: &mut Vec<Delivery>) {
        let mut rest = &deliveries[..];
        while let Some(first) = rest.first() {
            let run = rest.iter().take_while(|d| d.at == first.at).count();
            let ev = if run == 1 {
                Ev::Packet {
                    from,
                    to: first.to,
                    packet: packet.clone(),
                }
            } else {
                let list = self.free_lists.pop().unwrap_or_else(|| {
                    self.lists.push(Vec::new());
                    u32::try_from(self.lists.len() - 1).expect("fewer than 2^32 fan-outs queued")
                });
                self.lists[list as usize].extend(rest[..run].iter().map(|d| d.to));
                Ev::Fanout {
                    from,
                    packet: packet.clone(),
                    list,
                }
            };
            self.pending += run;
            self.queue.push(first.at, ev);
            rest = &rest[run..];
        }
        deliveries.clear();
    }

    /// Counts one processed event, taken off the depth.
    #[inline]
    fn count_event(&mut self) {
        self.pending -= 1;
        self.events += 1;
    }
}

/// The world an actor sees while handling an event.
pub struct Ctx<'a> {
    host: HostId,
    now: SimTime,
    topo: &'a Topology,
    state: &'a mut State,
    rng: &'a mut SmallRng,
    tracer: &'a Tracer,
}

impl Ctx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The host this actor lives on.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Deterministic per-host randomness.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Base (loss-free, queue-free) one-way latency to `to` — what a
    /// protocol would learn from out-of-band RTT measurement.
    pub fn base_latency(&self, to: HostId) -> Duration {
        self.topo.base_latency(self.host, to)
    }

    fn push(&mut self, at: SimTime, ev: Ev) {
        self.state.push(at, ev);
    }

    /// Sends `packet` to a single host.
    pub fn send_unicast(&mut self, to: HostId, packet: Packet) {
        // The network model only needs the on-wire size; `encoded_len`
        // computes it arithmetically so no simulated send serializes.
        let bytes = packet.encoded_len();
        let kind = packet.kind_index();
        let from = self.host;
        let now = self.now;
        // Bundle accounting: model what the wire's `BundleBuilder` would
        // do with this host's outbound stream, without serializing.
        let dest = (0, to.raw(), 0);
        self.state
            .bundles
            .record(from.raw() as usize, now, dest, kind, bytes);
        let fs = self.topo.site_of(from);
        let mut copies = 0u32;
        if to == from {
            let d = Topology::self_delivery(now, to);
            copies = 1;
            self.emit_net(kind, false, copies);
            self.push(d.at, Ev::Packet { from, to, packet });
            return;
        }
        let ts = self.topo.site_of(to);
        if ts == fs {
            let delivery = {
                let State { nets, stats, .. } = &mut *self.state;
                let net = &mut nets[fs.raw() as usize];
                self.topo.lan_delivery(fs, net, now, to, kind, bytes, stats)
            };
            copies = u32::from(delivery.is_some());
            self.emit_net(kind, false, copies);
            if let Some(d) = delivery {
                self.push(d.at, Ev::Packet { from, to, packet });
            }
            return;
        }
        // Cross-site: source half here, destination half at ingress time
        // against the destination site's state.
        let ingress_at = {
            let State { nets, stats, .. } = &mut *self.state;
            let net = &mut nets[fs.raw() as usize];
            match self.topo.egress(fs, net, now, kind, bytes, stats) {
                Some(out) => {
                    let dropped = self.topo.wan_drop(net, now);
                    stats.record(SegmentClass::Wan, None, kind, bytes, dropped);
                    (!dropped).then(|| out + self.topo.wan_latency(fs, ts))
                }
                None => None,
            }
        };
        if ingress_at.is_some() {
            copies = 1;
        }
        self.emit_net(kind, false, copies);
        if let Some(t_in) = ingress_at {
            self.push(
                t_in,
                Ev::Ingress {
                    from,
                    site: ts,
                    packet,
                    kind: IngressKind::Unicast { to },
                },
            );
        }
    }

    /// Multicasts `packet` to the members of its group (sender excluded)
    /// within `scope`.
    ///
    /// Local (same-site) members are resolved at send time from the
    /// sender site's membership. One copy crosses the sender's tail
    /// circuit and fans out into a WAN branch per in-scope remote
    /// *site*; each branch's membership is resolved when it arrives at
    /// that site ([`Ev::Ingress`]), totally ordered against that site's
    /// joins and leaves. The traced `copies` counts surviving local
    /// deliveries plus surviving WAN branches.
    pub fn send_multicast(&mut self, scope: TtlScope, packet: Packet) {
        // One arithmetic length shared by every delivery of this packet;
        // members are iterated straight out of the group set without an
        // intermediate Vec.
        let bytes = packet.encoded_len();
        let kind = packet.kind_index();
        let group = packet.group();
        let from = self.host;
        let now = self.now;
        self.state.bundles.record(
            from.raw() as usize,
            now,
            (1, u64::from(group.raw()), u64::from(scope.ttl())),
            kind,
            bytes,
        );
        let fs = self.topo.site_of(from);
        let fs_idx = fs.raw() as usize;
        let site_count = self.topo.site_count();

        let mut deliveries = std::mem::take(&mut self.state.deliveries);
        let mut branches = std::mem::take(&mut self.state.branches);
        {
            let State {
                nets,
                stats,
                members,
                ..
            } = &mut *self.state;
            let net = &mut nets[fs_idx];
            // Same-site members: direct LAN fan-out (always in scope).
            if let Some(set) = members[fs_idx].get(&group) {
                for &m in set {
                    if m == from {
                        continue;
                    }
                    deliveries.extend(self.topo.lan_delivery(fs, net, now, m, kind, bytes, stats));
                }
            }
            // Remote branches: one shared egress, then one WAN-branch
            // draw per in-scope remote site, in site order.
            let in_scope = |s: usize| {
                let sid = SiteId(s as u32);
                sid != fs && self.topo.site_in_scope(fs, sid, scope)
            };
            if (0..site_count).any(in_scope) {
                if let Some(out) = self.topo.egress(fs, net, now, kind, bytes, stats) {
                    for s in (0..site_count).filter(|&s| in_scope(s)) {
                        let sid = SiteId(s as u32);
                        if self.topo.wan_drop(net, now) {
                            stats.record(SegmentClass::Wan, None, kind, bytes, true);
                        } else {
                            branches.push((sid, out + self.topo.wan_latency(fs, sid)));
                        }
                    }
                    if !branches.is_empty() {
                        // Multicast economy: the backbone carries one
                        // copy per send, however many branches survive.
                        stats.record(SegmentClass::Wan, None, kind, bytes, false);
                    }
                }
            }
        }

        let copies = (deliveries.len() + branches.len()).min(u32::MAX as usize) as u32;
        self.emit_net(kind, true, copies);
        self.state.push_deliveries(from, &packet, &mut deliveries);
        for (sid, t_in) in branches.drain(..) {
            self.push(
                t_in,
                Ev::Ingress {
                    from,
                    site: sid,
                    packet: packet.clone(),
                    kind: IngressKind::Multicast,
                },
            );
        }
        self.state.deliveries = deliveries;
        self.state.branches = branches;
    }

    fn emit_net(&self, kind: usize, multicast: bool, copies: u32) {
        self.tracer
            .emit_from(self.now.nanos(), self.host, || ProtocolEvent::NetPacket {
                kind: PACKET_KINDS[kind],
                multicast,
                copies,
            });
    }

    /// Arms a timer to fire at `at` (clamped to now).
    pub fn set_timer_at(&mut self, at: SimTime, token: u64) {
        let at = at.max(self.now);
        self.state.push_timer(at, (self.host, token));
    }

    /// Arms a timer to fire after `d`.
    pub fn set_timer_in(&mut self, d: Duration, token: u64) {
        let at = self.now + d;
        self.set_timer_at(at, token);
    }

    /// Joins the calling host to `group` (membership lives with the
    /// host's site).
    pub fn join(&mut self, group: GroupId) {
        let site = self.topo.site_of(self.host);
        self.state.members[site.raw() as usize]
            .entry(group)
            .or_default()
            .insert(self.host);
    }

    /// Removes the calling host from `group`.
    pub fn leave(&mut self, group: GroupId) {
        let site = self.topo.site_of(self.host);
        if let Some(m) = self.state.members[site.raw() as usize].get_mut(&group) {
            m.remove(&self.host);
        }
    }
}

/// Runs `host`'s actor with a [`Ctx`] over the world state.
fn dispatch(
    topo: &Topology,
    tracer: &Tracer,
    state: &mut State,
    at: SimTime,
    host: HostId,
    f: impl FnOnce(&mut dyn Actor, &mut Ctx<'_>),
) {
    let idx = host.raw() as usize;
    if state.crashed[idx] {
        return;
    }
    // Take the actor out of its slot (a pointer move, not a hash
    // re-insert) so it can borrow the rest of the state mutably.
    let Some(mut actor) = state.actors[idx].take() else {
        return;
    };
    let mut rng = state.rngs[idx].take().expect("host rng");
    let mut ctx = Ctx {
        host,
        now: at,
        topo,
        state,
        rng: &mut rng,
        tracer,
    };
    f(actor.as_mut(), &mut ctx);
    state.actors[idx] = Some(actor);
    state.rngs[idx] = Some(rng);
}

/// Destination half of a cross-site transmission: the copy crosses the
/// site's inbound tail circuit, then fans out over the LAN to the
/// unicast target or to the site's *current* members of the group —
/// membership is evaluated here, totally ordered against the site's
/// joins and leaves.
fn ingress(
    topo: &Topology,
    state: &mut State,
    at: SimTime,
    from: HostId,
    site: SiteId,
    packet: Packet,
    kind: IngressKind,
) {
    let bytes = packet.encoded_len();
    let pkind = packet.kind_index();
    let si = site.raw() as usize;
    let mut deliveries = std::mem::take(&mut state.deliveries);
    {
        let State {
            members,
            nets,
            stats,
            ..
        } = state;
        let net = &mut nets[si];
        if let Some(t_lan) = topo.ingress_tail(site, net, at, pkind, bytes, stats) {
            match kind {
                IngressKind::Unicast { to } => {
                    deliveries.extend(topo.lan_delivery(site, net, t_lan, to, pkind, bytes, stats));
                }
                IngressKind::Multicast => {
                    if let Some(set) = members[si].get(&packet.group()) {
                        for &m in set {
                            if m == from {
                                continue;
                            }
                            deliveries.extend(
                                topo.lan_delivery(site, net, t_lan, m, pkind, bytes, stats),
                            );
                        }
                    }
                }
            }
        }
    }
    state.push_deliveries(from, &packet, &mut deliveries);
    state.deliveries = deliveries;
}

/// Delivers `packet` to `to`: one event.
fn deliver(
    topo: &Topology,
    tracer: &Tracer,
    state: &mut State,
    at: SimTime,
    from: HostId,
    to: HostId,
    packet: Packet,
) {
    state.count_event();
    // Link-level fault injection: a delivery whose endpoints sit in
    // different partitions is dropped (see [`World::partition`]).
    if state.partition[from.raw() as usize] == state.partition[to.raw() as usize] {
        dispatch(topo, tracer, state, at, to, |a, ctx| {
            a.on_packet(ctx, from, packet)
        });
    }
}

/// Processes one queue entry: one event, or one per recipient of a
/// fan-out.
fn process(
    topo: &Topology,
    tracer: &Tracer,
    state: &mut State,
    at: SimTime,
    popped: Popped<Ev, Timer>,
) {
    let ev = match popped {
        Popped::Timer((host, token)) => {
            state.count_event();
            dispatch(topo, tracer, state, at, host, |a, ctx| {
                a.on_timer(ctx, token)
            });
            return;
        }
        Popped::Event(ev) => ev,
    };
    match ev {
        Ev::Packet { from, to, packet } => deliver(topo, tracer, state, at, from, to, packet),
        Ev::Fanout { from, packet, list } => {
            // Each recipient is its own event, exactly as if it had its
            // own entry: the depth is sampled after every delivery (the
            // last one's sample is `step`'s).
            let mut members = std::mem::take(&mut state.lists[list as usize]);
            let (&last, rest) = members.split_last().expect("a fan-out has recipients");
            for &to in rest {
                deliver(topo, tracer, state, at, from, to, packet.clone());
                state.note_depth();
            }
            deliver(topo, tracer, state, at, from, last, packet);
            members.clear();
            state.lists[list as usize] = members;
            state.free_lists.push(list);
        }
        Ev::Ingress {
            from,
            site,
            packet,
            kind,
        } => {
            state.count_event();
            ingress(topo, state, at, from, site, packet, kind);
        }
    }
}

/// The simulation: topology + actors + one event queue.
///
/// [`HostId`]s are dense indices (the topology builder hands them out
/// sequentially), so the per-host tables — actors, RNG streams, crash
/// flags — are plain vectors: the per-event dispatch does array indexing
/// instead of hash lookups. Every method that takes a host panics,
/// naming it, if the host is not in the topology
/// ([`is_crashed`](World::is_crashed) answers `false`).
pub struct World {
    topo: Topology,
    /// World-level tracer (NetPacket records), lent to every handler.
    tracer: Tracer,
    state: State,
    order: Vec<HostId>,
    now: SimTime,
    started: bool,
    seed: u64,
    /// The rows [`set_gauges`](World::set_gauges) attached: this
    /// simulator's, and one per site's links.
    gauges: Option<(Arc<Gauges>, Vec<Arc<Gauges>>)>,
}

/// The simulator's gauge rows: the event-queue depth, now and at its
/// high-water mark.
static SIM_GAUGES: GaugeTable = GaugeTable {
    root: "sim",
    rows: &["queue_depth", "queue_depth_max"],
    hide_zero: false,
};
const QUEUE_DEPTH: usize = 0;
const QUEUE_DEPTH_MAX: usize = 1;

/// One site's gauge rows: its tail circuit's queue backlog high-water
/// marks, inbound and outbound. A tail that never queued lists nothing.
static LINK_GAUGES: GaugeTable = GaugeTable {
    root: "sim.link",
    rows: &["tail_in_backlog_max_ns", "tail_out_backlog_max_ns"],
    hide_zero: true,
};
const TAIL_IN_BACKLOG: usize = 0;
const TAIL_OUT_BACKLOG: usize = 1;

impl World {
    /// Creates a world over `topo`, fully determined by `seed`.
    pub fn new(topo: Topology, seed: u64) -> World {
        let sites = topo.site_count();
        let hosts = topo.host_count();
        let nets = (0..sites)
            .map(|s| {
                SiteNet::new(
                    topo.site_params(SiteId(s as u32)),
                    topo.wan_loss_model(),
                    site_rng(seed, s as u64),
                )
            })
            .collect();
        let state = State {
            queue: EventQueue::new(),
            actors: (0..hosts).map(|_| None).collect(),
            rngs: (0..hosts).map(|_| None).collect(),
            crashed: vec![false; hosts],
            partition: vec![0; hosts],
            nets,
            members: vec![BTreeMap::new(); sites],
            stats: NetStats::new(sites),
            bundles: BundleMeter::new(hosts),
            deliveries: Vec::new(),
            branches: Vec::new(),
            lists: Vec::new(),
            free_lists: Vec::new(),
            pending: 0,
            depth_max: 0,
            events: 0,
        };
        World {
            topo,
            tracer: Tracer::disabled(),
            state,
            order: Vec::new(),
            now: SimTime::ZERO,
            started: false,
            seed,
            gauges: None,
        }
    }

    /// `host`'s index into the per-host tables; panics, naming the host,
    /// if it is not in the topology.
    fn slot(&self, host: HostId) -> usize {
        let idx = host.raw() as usize;
        assert!(
            idx < self.topo.host_count(),
            "host {host} is not in the topology"
        );
        idx
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.state.events
    }

    /// Attaches a protocol-event tracer: every simulated transmission is
    /// reported as a [`ProtocolEvent::NetPacket`] (wire kind, multicast
    /// flag, copies that survived the loss model). Disabled by default.
    pub fn set_trace(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Attaches the simulator's gauge rows to `registry`: the
    /// event-queue depth (current and high-water) as `sim.*`, and each
    /// site's tail-queue backlog high-water marks as `sim.link.s<N>.*`.
    /// The rows are written whenever a `run_*` call returns (or
    /// [`flush_gauges`](World::flush_gauges) is called directly).
    pub fn set_gauges(&mut self, registry: Arc<MetricsRegistry>) {
        let sim = Arc::new(Gauges::new(&SIM_GAUGES));
        registry.attach("", sim.clone());
        let links = (0..self.state.nets.len())
            .map(|s| {
                let link = Arc::new(Gauges::new(&LINK_GAUGES));
                registry.attach(format_args!("s{s}"), link.clone());
                link
            })
            .collect();
        self.gauges = Some((sim, links));
    }

    /// Highest event-queue depth seen (cheap: one compare per step keeps
    /// the hot loop registry-free).
    pub fn queue_depth_max(&self) -> usize {
        self.state.depth_max
    }

    /// Current event-queue depth: events pending, counting each
    /// recipient of a queued fan-out as one.
    pub fn queue_depth(&self) -> usize {
        self.state.pending
    }

    /// Writes the simulator's gauge rows (no-op before
    /// [`set_gauges`](World::set_gauges)); a link row is listed once its
    /// tail circuit has queued.
    pub fn flush_gauges(&mut self) {
        let Some((sim, links)) = &self.gauges else {
            return;
        };
        sim.set(QUEUE_DEPTH, self.queue_depth() as u64);
        sim.set(QUEUE_DEPTH_MAX, self.queue_depth_max() as u64);
        for (link, net) in links.iter().zip(&self.state.nets) {
            link.set(TAIL_IN_BACKLOG, net.tail_in_backlog_max.as_nanos() as u64);
            link.set(TAIL_OUT_BACKLOG, net.tail_out_backlog_max.as_nanos() as u64);
        }
    }

    /// Puts `actor` in `host`'s slot, giving the host its RNG stream the
    /// first time it is occupied.
    fn install(&mut self, host: HostId, actor: impl Actor) -> usize {
        let idx = self.slot(host);
        if self.state.actors[idx].replace(Box::new(actor)).is_none() {
            self.order.push(host);
        }
        if self.state.rngs[idx].is_none() {
            // Distinct, deterministic stream per host.
            self.state.rngs[idx] = Some(SmallRng::seed_from_u64(
                self.seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(host.raw()),
            ));
        }
        idx
    }

    /// Installs an actor on `host`. Replaces any existing actor.
    ///
    /// # Panics
    ///
    /// If `host` was not created by this world's topology builder.
    pub fn add_actor(&mut self, host: HostId, actor: impl Actor) {
        self.install(host, actor);
    }

    /// Joins `host` to `group` from outside the actor (setup convenience).
    pub fn join(&mut self, host: HostId, group: GroupId) {
        self.slot(host);
        let site = self.topo.site_of(host);
        self.state.members[site.raw() as usize]
            .entry(group)
            .or_default()
            .insert(host);
    }

    /// Arms a timer for `host` from outside the actor — used by harness
    /// code that schedules application work after the world has started.
    pub fn schedule_timer(&mut self, host: HostId, at: SimTime, token: u64) {
        self.slot(host);
        let at = at.max(self.now);
        self.state.push_timer(at, (host, token));
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Network statistics so far.
    pub fn stats(&self) -> NetStats {
        self.state.stats.clone()
    }

    /// Bundle-framing statistics so far, over every host's sends: what
    /// the wire's `BundleBuilder` puts on the wire for this run
    /// (`frames`/`bytes_bundled`), beside the one-datagram-per-packet
    /// counterfactual (`packets`/`bytes_unbundled`).
    pub fn bundle_stats(&self) -> BundleStats {
        self.state.bundles.stats()
    }

    /// Immutable access to the topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Marks a host as crashed: it receives no packets or timers and its
    /// pending timers are suppressed while down.
    pub fn crash(&mut self, host: HostId) {
        let idx = self.slot(host);
        self.state.crashed[idx] = true;
    }

    /// Revives a crashed host. Packets and timers scheduled while it was
    /// down are gone; new ones are delivered normally.
    pub fn revive(&mut self, host: HostId) {
        let idx = self.slot(host);
        self.state.crashed[idx] = false;
    }

    /// Splits the network: the listed hosts move into a fresh partition.
    /// Packets between a host inside the set and one outside it are
    /// dropped at delivery time; traffic *within* either side flows
    /// normally. Repeated calls carve out further mutually-isolated
    /// groups. Packets already in flight across the cut when the call is
    /// made are dropped on arrival.
    ///
    /// # Panics
    ///
    /// If any host is not in the topology.
    pub fn partition(&mut self, hosts: &[HostId]) {
        let part = self.state.partition.iter().copied().max().unwrap_or(0) + 1;
        for &h in hosts {
            let idx = self.slot(h);
            self.state.partition[idx] = part;
        }
    }

    /// Heals every partition: all hosts rejoin one connected network.
    /// Packets sent after the heal flow normally; packets dropped while
    /// the cut was up stay lost.
    pub fn heal(&mut self) {
        self.state.partition.iter_mut().for_each(|p| *p = 0);
    }

    /// Restarts `host` with a *fresh* actor (process restart semantics):
    /// the old actor — and all its in-memory state — is discarded, the
    /// crash flag is cleared, and if the world has already started the
    /// new actor's [`Actor::on_start`] runs immediately at the current
    /// virtual time. Contrast [`World::revive`], which brings the old
    /// actor back with its pre-crash state intact.
    ///
    /// The host keeps its per-host RNG stream (the stream belongs to the
    /// host slot, not the process incarnation), so replay determinism is
    /// unaffected.
    ///
    /// # Panics
    ///
    /// If `host` is not in the topology.
    pub fn restart(&mut self, host: HostId, actor: impl Actor) {
        let idx = self.install(host, actor);
        self.state.crashed[idx] = false;
        if self.started {
            dispatch(
                &self.topo,
                &self.tracer,
                &mut self.state,
                self.now,
                host,
                |a, ctx| a.on_start(ctx),
            );
        }
    }

    /// `true` if the host is currently crashed.
    pub fn is_crashed(&self, host: HostId) -> bool {
        self.state
            .crashed
            .get(host.raw() as usize)
            .is_some_and(|&c| c)
    }

    /// Downcasts the actor on `host`.
    ///
    /// # Panics
    ///
    /// If the host is not in the topology or has no actor of type `T`.
    pub fn actor<T: Actor>(&self, host: HostId) -> &T {
        let a: &dyn Any = self.state.actors[self.slot(host)]
            .as_ref()
            .expect("no actor on host")
            .as_ref();
        a.downcast_ref::<T>().expect("actor type mismatch")
    }

    /// Mutable downcast of the actor on `host`.
    ///
    /// # Panics
    ///
    /// If the host is not in the topology or has no actor of type `T`.
    pub fn actor_mut<T: Actor>(&mut self, host: HostId) -> &mut T {
        let idx = self.slot(host);
        let a: &mut dyn Any = self.state.actors[idx]
            .as_mut()
            .expect("no actor on host")
            .as_mut();
        a.downcast_mut::<T>().expect("actor type mismatch")
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.order.len() {
            let host = self.order[i];
            dispatch(
                &self.topo,
                &self.tracer,
                &mut self.state,
                self.now,
                host,
                |a, ctx| a.on_start(ctx),
            );
        }
    }

    /// Runs one queue entry — a timer, an ingress, or one packet's
    /// deliveries to one or more hosts at one instant; returns `false`
    /// when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.start_if_needed();
        let state = &mut self.state;
        state.note_depth();
        let Some((at, popped)) = state.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "time must be monotonic");
        self.now = at.max(self.now);
        process(&self.topo, &self.tracer, state, at, popped);
        // Sample again after the handler ran: a fan-out (multicast
        // burst, retransmission storm) peaks *between* pops.
        state.note_depth();
        true
    }

    /// Runs until virtual time reaches `until` or the queue drains.
    /// Events at exactly `until` are processed.
    pub fn run_until(&mut self, until: SimTime) {
        self.run_until_idle(until);
        self.now = self.now.max(until);
    }

    /// Runs until the event queue is empty or `limit` is hit (the clock
    /// is left at the last processed event, not advanced to `limit`).
    pub fn run_until_idle(&mut self, limit: SimTime) {
        self.start_if_needed();
        while self.state.queue.next_at().is_some_and(|at| at <= limit) {
            self.step();
        }
        debug_assert_eq!(
            self.state.pending,
            self.state.queue.len() - (self.state.lists.len() - self.state.free_lists.len())
                + self.state.lists.iter().map(Vec::len).sum::<usize>(),
            "the depth counts every queued entry, and a fan-out once per undelivered recipient"
        );
        self.flush_gauges();
    }

    /// A fresh RNG derived from the world seed and `salt` — for scenario
    /// setup code that wants determinism without threading seeds around.
    ///
    /// Derivation is a pure function of `(seed, salt)` (a splitmix64
    /// finalizer), so calling this never perturbs the network RNG: two
    /// runs that differ only in how many setup-time `derived_rng` calls
    /// they make see identical loss decisions and replay identically.
    pub fn derived_rng(&self, salt: u64) -> SmallRng {
        let mut z = self
            .seed
            .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        SmallRng::seed_from_u64(z ^ (z >> 31))
    }
}

/// Per-site RNG stream, a pure function of `(seed, site)` — the draws a
/// site's traffic makes are independent of every other site's.
fn site_rng(seed: u64, site: u64) -> SmallRng {
    let mut z =
        (seed ^ 0x7369_7465_6e65_7473).wrapping_add(site.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    SmallRng::seed_from_u64(z ^ (z >> 31))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{SiteParams, TopologyBuilder};
    use bytes::Bytes;
    use lbrm_wire::{EpochId, Seq, SourceId};

    const GROUP: GroupId = GroupId(7);

    fn data(seq: u32) -> Packet {
        Packet::Data {
            group: GROUP,
            source: SourceId(1),
            seq: Seq(seq),
            epoch: EpochId(0),
            payload: Bytes::from_static(b"x"),
        }
    }

    /// Emits one data packet per second, three times.
    struct Beacon {
        sent: u32,
    }

    impl Actor for Beacon {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.join(GROUP);
            ctx.set_timer_in(Duration::from_secs(1), 0);
        }

        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _from: HostId, _p: Packet) {}

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            self.sent += 1;
            ctx.send_multicast(TtlScope::Global, data(self.sent));
            if self.sent < 3 {
                ctx.set_timer_in(Duration::from_secs(1), 0);
            }
        }
    }

    /// Records every received packet with its arrival time.
    #[derive(Default)]
    struct Sink {
        got: Vec<(SimTime, u32)>,
    }

    impl Actor for Sink {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.join(GROUP);
        }

        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _from: HostId, p: Packet) {
            if let Packet::Data { seq, .. } = p {
                self.got.push((ctx.now(), seq.raw()));
            }
        }
    }

    fn build() -> (World, HostId, HostId) {
        let mut b = TopologyBuilder::new();
        let s0 = b.site(SiteParams::default());
        let s1 = b.site(SiteParams::default());
        let tx = b.host(s0);
        let rx = b.host(s1);
        let mut w = World::new(b.build(), 99);
        w.add_actor(tx, Beacon { sent: 0 });
        w.add_actor(rx, Sink::default());
        (w, tx, rx)
    }

    #[test]
    fn multicast_beacon_reaches_sink() {
        let (mut w, tx, rx) = build();
        w.run_until(SimTime::from_secs(10));
        assert_eq!(w.actor::<Beacon>(tx).sent, 3);
        let sink = w.actor::<Sink>(rx);
        assert_eq!(sink.got.len(), 3);
        assert_eq!(
            sink.got.iter().map(|(_, s)| *s).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        // Arrivals are 1 s apart, offset by path latency.
        let lat = w.topology().base_latency(tx, rx);
        assert_eq!(sink.got[0].0, SimTime::from_secs(1) + lat);
        assert_eq!(sink.got[1].0, SimTime::from_secs(2) + lat);
    }

    #[test]
    fn crash_suppresses_delivery_and_timers() {
        let (mut w, _tx, rx) = build();
        w.crash(rx);
        w.run_until(SimTime::from_secs(10));
        assert!(w.actor::<Sink>(rx).got.is_empty());
        w.revive(rx);
        assert!(!w.is_crashed(rx));
    }

    #[test]
    fn crash_mid_run_loses_only_later_packets() {
        let (mut w, _tx, rx) = build();
        w.run_until(SimTime::from_millis(1500)); // first beacon delivered
        w.crash(rx);
        w.run_until(SimTime::from_millis(2500)); // second suppressed
        w.revive(rx);
        w.run_until(SimTime::from_secs(10)); // third delivered
        let got: Vec<u32> = w.actor::<Sink>(rx).got.iter().map(|(_, s)| *s).collect();
        assert_eq!(got, vec![1, 3]);
    }

    #[test]
    fn restart_discards_state_where_revive_keeps_it() {
        // Revive: the sink keeps what it saw before the crash.
        let (mut w, _tx, rx) = build();
        w.run_until(SimTime::from_millis(1500)); // first beacon delivered
        w.crash(rx);
        w.run_until(SimTime::from_millis(2500)); // second suppressed
        w.revive(rx);
        w.run_until(SimTime::from_secs(10));
        let got: Vec<u32> = w.actor::<Sink>(rx).got.iter().map(|(_, s)| *s).collect();
        assert_eq!(got, vec![1, 3], "revive resumes with pre-crash state");

        // Restart: same schedule, but the host comes back as a fresh
        // process — the pre-crash delivery is gone from its memory.
        let (mut w, _tx, rx) = build();
        w.run_until(SimTime::from_millis(1500));
        w.crash(rx);
        w.run_until(SimTime::from_millis(2500));
        w.restart(rx, Sink::default());
        assert!(!w.is_crashed(rx));
        w.run_until(SimTime::from_secs(10));
        let got: Vec<u32> = w.actor::<Sink>(rx).got.iter().map(|(_, s)| *s).collect();
        assert_eq!(got, vec![3], "restart comes back empty-handed");
    }

    #[test]
    fn partition_blocks_cross_group_delivery_until_heal() {
        let (mut w, _tx, rx) = build();
        w.partition(&[rx]);
        w.run_until(SimTime::from_millis(1500)); // first beacon dropped at the cut
        assert!(w.actor::<Sink>(rx).got.is_empty());
        w.heal();
        w.run_until(SimTime::from_secs(10)); // later beacons flow again
        let got: Vec<u32> = w.actor::<Sink>(rx).got.iter().map(|(_, s)| *s).collect();
        assert_eq!(got, vec![2, 3]);
    }

    #[test]
    fn partition_groups_keep_internal_traffic() {
        // Sender and one receiver are cut away together: traffic inside
        // the cut-away group still flows; the host left behind hears
        // nothing.
        let mut b = TopologyBuilder::new();
        let s0 = b.site(SiteParams::default());
        let tx = b.host(s0);
        let near = b.host(s0);
        let far = b.host(s0);
        let mut w = World::new(b.build(), 11);
        w.add_actor(tx, Beacon { sent: 0 });
        w.add_actor(near, Sink::default());
        w.add_actor(far, Sink::default());
        w.partition(&[tx, near]);
        w.run_until(SimTime::from_secs(10));
        assert_eq!(w.actor::<Sink>(near).got.len(), 3);
        assert!(w.actor::<Sink>(far).got.is_empty());
    }

    /// A same-site multicast reaches its members as one fan-out entry,
    /// yet each member is its own event: a partitioned member is skipped
    /// alone, its delivery still counts as processed, and the depth
    /// counts every undelivered member until it drains to zero.
    #[test]
    fn partitioned_member_of_a_fan_out_is_skipped_alone() {
        let run = |cut: bool| {
            let mut b = TopologyBuilder::new();
            let s0 = b.site(SiteParams::default());
            let tx = b.host(s0);
            let rxs: Vec<HostId> = (0..3).map(|_| b.host(s0)).collect();
            let mut w = World::new(b.build(), 3);
            w.add_actor(tx, Beacon { sent: 0 });
            for &rx in &rxs {
                w.add_actor(rx, Sink::default());
            }
            if cut {
                w.partition(&[rxs[1]]);
            }
            // The first beacon has been sent: its three deliveries and
            // the next timer wait, in two queue entries.
            w.run_until(SimTime::from_secs(1));
            let first = (w.state.queue.len(), w.queue_depth());
            w.run_until(SimTime::from_secs(10));
            let got: Vec<usize> = rxs
                .iter()
                .map(|&rx| w.actor::<Sink>(rx).got.len())
                .collect();
            (
                first,
                got,
                w.events_processed(),
                w.queue_depth(),
                w.queue_depth_max(),
            )
        };
        // Three beacon timers and three packets to three members each.
        assert_eq!(run(false), ((2, 4), vec![3, 3, 3], 12, 0, 4));
        assert_eq!(run(true), ((2, 4), vec![3, 0, 3], 12, 0, 4));
    }

    /// A mid-run cut and heal on a lossy, jittery 4-site topology
    /// replays identically.
    #[test]
    fn partition_replays_identically() {
        use crate::loss::LossModel;
        let run = || {
            let mut b = TopologyBuilder::new();
            let s0 = b.site(SiteParams::default());
            let s1 = b.site(SiteParams {
                tail_in_loss: LossModel::rate(0.25),
                jitter: Duration::from_millis(3),
                ..SiteParams::default()
            });
            let s2 = b.site(SiteParams::nearby());
            let s3 = b.site(SiteParams::distant());
            b.wan_loss(LossModel::rate(0.05));
            let tx = b.host(s0);
            let rxs: Vec<HostId> = [s0, s1, s2, s3].iter().map(|&s| b.host(s)).collect();
            let mut w = World::new(b.build(), 777);
            w.add_actor(tx, Beacon { sent: 0 });
            for &rx in &rxs {
                w.add_actor(rx, Sink::default());
            }
            w.run_until(SimTime::from_millis(1500));
            w.partition(&[rxs[1], rxs[2]]);
            w.run_until(SimTime::from_millis(2500));
            w.heal();
            w.run_until(SimTime::from_secs(10));
            let got: Vec<Vec<(SimTime, u32)>> = rxs
                .iter()
                .map(|&rx| w.actor::<Sink>(rx).got.clone())
                .collect();
            (got, w.stats(), w.events_processed())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn derived_rng_does_not_perturb_lossy_replay() {
        use crate::loss::LossModel;
        use rand::Rng;

        // Two identically-seeded lossy runs that differ only in how many
        // setup-time derived_rng calls they make must see the same loss
        // decisions, deliveries, and NetStats.
        let run = |derived_calls: usize| {
            let mut b = TopologyBuilder::new();
            let s0 = b.site(SiteParams::default());
            let s1 = b.site(SiteParams {
                tail_in_loss: LossModel::rate(0.4),
                ..SiteParams::default()
            });
            let tx = b.host(s0);
            let rx = b.host(s1);
            let mut w = World::new(b.build(), 1234);
            w.add_actor(tx, Beacon { sent: 0 });
            w.add_actor(rx, Sink::default());
            for salt in 0..derived_calls as u64 {
                let _ = w.derived_rng(salt).random::<u64>();
            }
            w.run_until(SimTime::from_secs(10));
            (w.actor::<Sink>(rx).got.clone(), w.stats())
        };
        assert_eq!(run(0), run(5));
    }

    #[test]
    fn derived_rng_is_pure_in_seed_and_salt() {
        use rand::Rng;
        let (mut w, _, _) = build();
        let a: u64 = w.derived_rng(7).random();
        // Interleave other salts and advance the simulation; salt 7 must
        // still yield the same stream.
        let _ = w.derived_rng(8).random::<u64>();
        w.run_until(SimTime::from_secs(2));
        let b: u64 = w.derived_rng(7).random();
        assert_eq!(a, b);
        // Distinct salts give distinct streams.
        assert_ne!(a, w.derived_rng(9).random::<u64>());
    }

    /// A seeded lossy run replays identically — depth high-water mark
    /// included.
    #[test]
    fn seeded_lossy_run_replays_identically() {
        use crate::loss::LossModel;
        let run = || {
            let mut b = TopologyBuilder::new();
            let s0 = b.site(SiteParams::default());
            let s1 = b.site(SiteParams {
                tail_in_loss: LossModel::rate(0.3),
                ..SiteParams::default()
            });
            let tx = b.host(s0);
            let rx = b.host(s1);
            let mut w = World::new(b.build(), 1234);
            w.add_actor(tx, Beacon { sent: 0 });
            w.add_actor(rx, Sink::default());
            w.run_until(SimTime::from_secs(10));
            (
                w.actor::<Sink>(rx).got.clone(),
                w.stats(),
                w.queue_depth_max(),
            )
        };
        assert_eq!(run(), run());
    }

    /// A fixed seed replays identical deliveries, stats, and event
    /// counts on a lossy, jittery 4-site topology exercising cross-site
    /// multicast fan-out and membership lookup through the Ingress path.
    #[test]
    fn four_site_lossy_run_replays_identically() {
        use crate::loss::LossModel;
        let run = || {
            let mut b = TopologyBuilder::new();
            let s0 = b.site(SiteParams::default());
            let s1 = b.site(SiteParams {
                tail_in_loss: LossModel::rate(0.25),
                jitter: Duration::from_millis(3),
                ..SiteParams::default()
            });
            let s2 = b.site(SiteParams {
                lan_loss: LossModel::rate(0.1),
                ..SiteParams::nearby()
            });
            let s3 = b.site(SiteParams::distant());
            b.wan_loss(LossModel::rate(0.05));
            let tx = b.host(s0);
            let rxs: Vec<HostId> = [s0, s1, s1, s2, s3].iter().map(|&s| b.host(s)).collect();
            let mut w = World::new(b.build(), 4242);
            w.add_actor(tx, Beacon { sent: 0 });
            for &rx in &rxs {
                w.add_actor(rx, Sink::default());
            }
            w.run_until(SimTime::from_secs(10));
            let got: Vec<Vec<(SimTime, u32)>> = rxs
                .iter()
                .map(|&rx| w.actor::<Sink>(rx).got.clone())
                .collect();
            (got, w.stats(), w.events_processed())
        };
        assert_eq!(run(), run());
    }

    /// The registry carries the queue depth (current and high-water) as
    /// the world reports them, and a tail backlog gauge for exactly the
    /// sites whose tail circuit queued.
    #[test]
    fn gauges_report_queue_depth_and_backlog() {
        let mut b = TopologyBuilder::new();
        let slow = b.site(SiteParams {
            tail_bandwidth_bps: Some(8_000),
            ..SiteParams::default()
        });
        let sites: Vec<SiteId> = (0..3).map(|_| b.site(SiteParams::default())).collect();
        let tx = b.host(slow);
        let rxs: Vec<HostId> = sites.iter().map(|&s| b.host(s)).collect();
        let mut w = World::new(b.build(), 7);
        let reg = Arc::new(MetricsRegistry::default());
        w.set_gauges(reg.clone());
        w.add_actor(tx, Beacon { sent: 0 });
        for &rx in &rxs {
            w.add_actor(rx, Sink::default());
        }
        // Stop mid-run so the queue still holds future events (the next
        // beacon timer at least).
        w.run_until(SimTime::from_millis(1500));
        let depth = reg.gauge("sim.queue_depth");
        assert!(depth > 0, "pending events expected mid-run");
        assert_eq!(depth, w.queue_depth() as u64);
        let max = reg.gauge("sim.queue_depth_max");
        assert!(max >= depth);
        assert_eq!(max, w.queue_depth_max() as u64);
        let gauges = reg.gauges();
        assert!(gauges["sim.link.s0.tail_out_backlog_max_ns"] > 0);
        assert!(
            !gauges.contains_key("sim.link.s1.tail_out_backlog_max_ns")
                && !gauges.contains_key("sim.link.s1.tail_in_backlog_max_ns"),
            "unconstrained tails never queue"
        );
    }

    fn stray() -> (World, HostId) {
        let (w, _, _) = build();
        (w, HostId(99))
    }

    #[test]
    #[should_panic(expected = "host h99 is not in the topology")]
    fn crash_names_unknown_host() {
        let (mut w, h) = stray();
        w.crash(h);
    }

    #[test]
    #[should_panic(expected = "host h99 is not in the topology")]
    fn revive_names_unknown_host() {
        let (mut w, h) = stray();
        w.revive(h);
    }

    #[test]
    #[should_panic(expected = "host h99 is not in the topology")]
    fn join_names_unknown_host() {
        let (mut w, h) = stray();
        w.join(h, GROUP);
    }

    #[test]
    #[should_panic(expected = "host h99 is not in the topology")]
    fn schedule_timer_names_unknown_host() {
        let (mut w, h) = stray();
        w.schedule_timer(h, SimTime::from_secs(1), 0);
    }

    #[test]
    #[should_panic(expected = "host h99 is not in the topology")]
    fn actor_names_unknown_host() {
        let (w, h) = stray();
        w.actor::<Sink>(h);
    }

    #[test]
    #[should_panic(expected = "host h99 is not in the topology")]
    fn actor_mut_names_unknown_host() {
        let (mut w, h) = stray();
        w.actor_mut::<Sink>(h);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let (mut w, _tx, rx) = build();
            w.run_until(SimTime::from_secs(10));
            w.actor::<Sink>(rx).got.clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn run_until_is_inclusive_and_advances_clock() {
        let (mut w, _, _) = build();
        w.run_until(SimTime::from_secs(5));
        assert_eq!(w.now(), SimTime::from_secs(5));
    }

    #[test]
    fn stats_account_multicast() {
        let (mut w, _, _) = build();
        w.run_until(SimTime::from_secs(10));
        let wan = w
            .stats()
            .class_kind(crate::stats::SegmentClass::Wan, "data");
        assert_eq!(wan.carried, 3);
    }

    #[test]
    fn timer_tokens_roundtrip() {
        struct T {
            fired: Vec<u64>,
        }
        impl Actor for T {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer_in(Duration::from_secs(2), 22);
                ctx.set_timer_in(Duration::from_secs(1), 11);
            }
            fn on_packet(&mut self, _: &mut Ctx<'_>, _: HostId, _: Packet) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
                self.fired.push(token);
            }
        }
        let mut b = TopologyBuilder::new();
        let s = b.site(SiteParams::default());
        let h = b.host(s);
        let mut w = World::new(b.build(), 1);
        w.add_actor(h, T { fired: vec![] });
        w.run_until(SimTime::from_secs(5));
        assert_eq!(w.actor::<T>(h).fired, vec![11, 22]);
    }

    /// Logs what it handles, tagged with its host, into a shared list.
    struct Logged {
        log: Arc<std::sync::Mutex<Vec<(u64, &'static str)>>>,
    }

    impl Actor for Logged {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _: HostId, _: Packet) {
            self.log.lock().unwrap().push((ctx.host().raw(), "packet"));
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _: u64) {
            self.log.lock().unwrap().push((ctx.host().raw(), "timer"));
        }
    }

    /// A timer, a single delivery and a two-recipient fan-out pushed at
    /// one instant pop in push order, in each of the six interleavings,
    /// although timers wait in a heap of their own; the depth counts the
    /// fan-out once per recipient and drains to zero.
    #[test]
    fn timers_deliveries_and_fan_outs_pop_in_push_order() {
        #[derive(Clone, Copy, Debug)]
        enum Kind {
            Timer,
            Single,
            Fanout,
        }
        use Kind::*;
        let at = SimTime::from_millis(5);
        for order in [
            [Timer, Single, Fanout],
            [Timer, Fanout, Single],
            [Single, Timer, Fanout],
            [Single, Fanout, Timer],
            [Fanout, Timer, Single],
            [Fanout, Single, Timer],
        ] {
            let mut b = TopologyBuilder::new();
            let s0 = b.site(SiteParams::default());
            let hosts: Vec<HostId> = (0..4).map(|_| b.host(s0)).collect();
            let mut w = World::new(b.build(), 1);
            let log = Arc::new(std::sync::Mutex::new(Vec::new()));
            for &h in &hosts {
                w.add_actor(h, Logged { log: log.clone() });
            }
            let mut want = Vec::new();
            for kind in order {
                match kind {
                    Timer => {
                        w.schedule_timer(hosts[0], at, 1);
                        want.push((hosts[0].raw(), "timer"));
                    }
                    Single => {
                        let ev = Ev::Packet {
                            from: hosts[0],
                            to: hosts[1],
                            packet: data(1),
                        };
                        w.state.push(at, ev);
                        want.push((hosts[1].raw(), "packet"));
                    }
                    Fanout => {
                        let mut run: Vec<Delivery> =
                            hosts[2..].iter().map(|&to| Delivery { to, at }).collect();
                        w.state.push_deliveries(hosts[0], &data(2), &mut run);
                        want.extend(hosts[2..].iter().map(|h| (h.raw(), "packet")));
                    }
                }
            }
            // Nothing is due yet; the run still ends in the debug
            // build's depth check against the queue and the list pool.
            w.run_until(SimTime::from_millis(4));
            assert_eq!((w.state.queue.len(), w.queue_depth()), (3, 4), "{order:?}");
            w.run_until(at);
            assert_eq!(*log.lock().unwrap(), want, "{order:?}");
            assert_eq!(w.queue_depth(), 0, "{order:?}");
            assert_eq!(w.events_processed(), 4, "{order:?}");
        }
    }

    #[test]
    fn leave_stops_delivery() {
        struct Leaver {
            got: u32,
        }
        impl Actor for Leaver {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.join(GROUP);
            }
            fn on_packet(&mut self, ctx: &mut Ctx<'_>, _: HostId, _: Packet) {
                self.got += 1;
                ctx.leave(GROUP);
            }
        }
        let mut b = TopologyBuilder::new();
        let s0 = b.site(SiteParams::default());
        let tx = b.host(s0);
        let rx = b.host(s0);
        let mut w = World::new(b.build(), 5);
        w.add_actor(tx, Beacon { sent: 0 });
        w.add_actor(rx, Leaver { got: 0 });
        w.run_until(SimTime::from_secs(10));
        assert_eq!(w.actor::<Leaver>(rx).got, 1);
    }
}
