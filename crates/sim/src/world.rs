//! The simulation driver: actors, timers, multicast groups, and the
//! deterministic — optionally sharded — event loop.
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
//! # Sharded execution
//!
//! The world partitions *sites* into shards (`LBRM_SIM_SHARDS`, or
//! [`World::with_shards`]); hosts follow their site. Each shard owns a
//! private event queue plus all state its events can touch (see
//! [`crate::shard`]). Shards advance independently inside a conservative
//! synchronization window: with `L` = the topology
//! [`lookahead`](Topology::lookahead) (the minimum latency of any
//! cross-shard transmission), every epoch processes events in
//! `[t_min, t_min + L)` — no event generated inside the window can land
//! in another shard before it closes, so shards only exchange events at
//! the epoch barrier.
//!
//! Determinism is preserved *exactly*: a fixed seed produces
//! byte-identical traces, `NetStats`, and deliveries for any shard
//! count, because
//!
//! 1. every scheduled event carries a placement-invariant total-order
//!    key (see [`crate::shard`]),
//! 2. every random draw charges either a per-host stream or the owning
//!    site's stream — never a global one, and
//! 3. cross-site transmissions are evaluated in two halves (source-site
//!    egress, destination-site ingress) whose draws land on the
//!    respective sites' own streams at the same virtual times
//!    regardless of sharding.

use std::any::Any;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use lbrm_trace::{MetricsRegistry, ProtocolEvent, TraceSink, Tracer};
use lbrm_wire::{GroupId, HostId, Packet, SiteId, TtlScope};

use crate::shard::{capture_activate, capture_take, forward_merged, Ev, IngressKind, Shard};
use crate::stats::{BundleStats, NetStats, SegmentClass};
use crate::time::SimTime;
use crate::topology::{Delivery, SiteNet, Topology};

/// A protocol endpoint living on one simulated host.
///
/// `Actor: Any` enables post-run inspection via
/// [`World::actor`] / [`World::actor_mut`] downcasts; `Actor: Send`
/// lets the sharded world process shards on worker threads.
pub trait Actor: Any + Send {
    /// Called once when the simulation starts (in host-insertion order).
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// A packet arrived.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: HostId, packet: Packet);

    /// A timer armed via [`Ctx::set_timer_at`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
}

/// The world an actor sees while handling an event.
pub struct Ctx<'a> {
    host: HostId,
    now: SimTime,
    topo: &'a Topology,
    shard: &'a mut Shard,
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

    fn push(&mut self, at: SimTime, dst_site: SiteId, ev: Ev) {
        self.shard.push_from(self.host.raw(), at, dst_site, ev);
    }

    /// Sends `packet` to a single host.
    pub fn send_unicast(&mut self, to: HostId, packet: Packet) {
        // The network model only needs the on-wire size; `encoded_len`
        // computes it arithmetically so no simulated send serializes.
        let bytes = packet.encoded_len();
        let kind = packet.kind();
        let from = self.host;
        let now = self.now;
        // Bundle accounting: model what the wire's `BundleBuilder` would
        // do with this host's outbound stream, without serializing.
        self.shard.meters[from.raw() as usize].record(now, (0, to.raw(), 0), kind, bytes);
        let fs = self.topo.site_of(from);
        let mut copies = 0u32;
        if to == from {
            let d = Topology::self_delivery(now, to);
            copies = 1;
            self.emit_net(kind, false, copies);
            self.push(d.at, fs, Ev::Packet { from, to, packet });
            return;
        }
        let ts = self.topo.site_of(to);
        if ts == fs {
            let delivery = {
                let Shard { nets, stats, .. } = &mut *self.shard;
                let net = nets[fs.raw() as usize].as_mut().expect("site net");
                self.topo.lan_delivery(fs, net, now, to, kind, bytes, stats)
            };
            copies = u32::from(delivery.is_some());
            self.emit_net(kind, false, copies);
            if let Some(d) = delivery {
                self.push(d.at, fs, Ev::Packet { from, to, packet });
            }
            return;
        }
        // Cross-site: source half here, destination half at ingress time
        // on the destination site's shard.
        let ingress_at = {
            let Shard { nets, stats, .. } = &mut *self.shard;
            let net = nets[fs.raw() as usize].as_mut().expect("site net");
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
                ts,
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
    /// that site ([`Ev::Ingress`]), so group state never needs to be
    /// replicated across shards. The traced `copies` counts surviving
    /// local deliveries plus surviving WAN branches.
    pub fn send_multicast(&mut self, scope: TtlScope, packet: Packet) {
        // One arithmetic length shared by every delivery of this packet;
        // members are iterated straight out of the group set without an
        // intermediate Vec.
        let bytes = packet.encoded_len();
        let kind = packet.kind();
        let group = packet.group();
        let from = self.host;
        let now = self.now;
        self.shard.meters[from.raw() as usize].record(
            now,
            (1, u64::from(group.raw()), u64::from(scope.ttl())),
            kind,
            bytes,
        );
        let fs = self.topo.site_of(from);
        let fs_idx = fs.raw() as usize;
        let site_count = self.topo.site_count();

        let mut deliveries: Vec<Delivery> = Vec::new();
        let mut branches: Vec<(SiteId, SimTime)> = Vec::new();
        {
            let Shard {
                nets,
                stats,
                members,
                ..
            } = &mut *self.shard;
            let net = nets[fs_idx].as_mut().expect("site net");
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
        for d in deliveries {
            self.push(
                d.at,
                fs,
                Ev::Packet {
                    from,
                    to: d.to,
                    packet: packet.clone(),
                },
            );
        }
        for (sid, t_in) in branches {
            self.push(
                t_in,
                sid,
                Ev::Ingress {
                    from,
                    site: sid,
                    packet: packet.clone(),
                    kind: IngressKind::Multicast { scope },
                },
            );
        }
    }

    fn emit_net(&self, kind: &'static str, multicast: bool, copies: u32) {
        self.tracer
            .emit_from(self.now.nanos(), self.host, || ProtocolEvent::NetPacket {
                kind,
                multicast,
                copies,
            });
    }

    /// Arms a timer to fire at `at` (clamped to now).
    pub fn set_timer_at(&mut self, at: SimTime, token: u64) {
        let host = self.host;
        let site = self.topo.site_of(host);
        self.push(at.max(self.now), site, Ev::Timer { host, token });
    }

    /// Arms a timer to fire after `d`.
    pub fn set_timer_in(&mut self, d: Duration, token: u64) {
        let at = self.now + d;
        self.set_timer_at(at, token);
    }

    /// Joins the calling host to `group` (membership lives with the
    /// host's site, on the host's own shard).
    pub fn join(&mut self, group: GroupId) {
        let site = self.topo.site_of(self.host);
        self.shard.members[site.raw() as usize]
            .entry(group)
            .or_default()
            .insert(self.host);
    }

    /// Removes the calling host from `group`.
    pub fn leave(&mut self, group: GroupId) {
        let site = self.topo.site_of(self.host);
        if let Some(m) = self.shard.members[site.raw() as usize].get_mut(&group) {
            m.remove(&self.host);
        }
    }
}

/// Runs `host`'s actor with a [`Ctx`] over its shard.
fn dispatch(
    topo: &Topology,
    shard: &mut Shard,
    at: SimTime,
    host: HostId,
    f: impl FnOnce(&mut dyn Actor, &mut Ctx<'_>),
) {
    let idx = host.raw() as usize;
    if shard.crashed[idx] {
        return;
    }
    // Take the actor out of its slot (a pointer move, not a hash
    // re-insert) so it can borrow the rest of the shard mutably.
    let Some(mut actor) = shard.actors[idx].take() else {
        return;
    };
    let mut rng = shard.rngs[idx].take().expect("host rng");
    let tracer = shard.tracer.clone();
    let mut ctx = Ctx {
        host,
        now: at,
        topo,
        shard,
        rng: &mut rng,
        tracer: &tracer,
    };
    f(actor.as_mut(), &mut ctx);
    shard.actors[idx] = Some(actor);
    shard.rngs[idx] = Some(rng);
}

/// Destination half of a cross-site transmission: the copy crosses the
/// site's inbound tail circuit, then fans out over the LAN to the
/// unicast target or to the site's *current* members of the group —
/// membership is evaluated here, on the owning shard, totally ordered
/// against the site's joins and leaves.
fn ingress(
    topo: &Topology,
    shard: &mut Shard,
    at: SimTime,
    from: HostId,
    site: SiteId,
    packet: Packet,
    kind: IngressKind,
) {
    let bytes = packet.encoded_len();
    let pkind = packet.kind();
    let si = site.raw() as usize;
    let mut deliveries: Vec<Delivery> = Vec::new();
    {
        let Shard {
            members,
            nets,
            stats,
            ..
        } = shard;
        let net = nets[si].as_mut().expect("site net on owning shard");
        if let Some(t_lan) = topo.ingress_tail(site, net, at, pkind, bytes, stats) {
            match kind {
                IngressKind::Unicast { to } => {
                    deliveries.extend(topo.lan_delivery(site, net, t_lan, to, pkind, bytes, stats));
                }
                IngressKind::Multicast { .. } => {
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
    // Pushes made while evaluating a site's ingress are keyed to the
    // site's pseudo-entity: placement-invariant like everything else.
    let entity = (topo.host_count() + si) as u64;
    for d in deliveries {
        shard.push_from(
            entity,
            d.at,
            site,
            Ev::Packet {
                from,
                to: d.to,
                packet: packet.clone(),
            },
        );
    }
}

/// Processes one event on its shard. With `capture` set (worker
/// threads), trace records emitted by the handler are collected into the
/// shard's buffer for the coordinator's deterministic merge.
fn process(topo: &Topology, shard: &mut Shard, at: SimTime, key: u128, ev: Ev, capture: bool) {
    shard.events += 1;
    shard.last_at = at;
    match ev {
        Ev::Packet { from, to, packet } => {
            // Link-level fault injection: a delivery whose endpoints sit
            // in different partitions is dropped. The partition vector is
            // replicated identically on every shard, so the decision is
            // placement-invariant (see [`World::partition`]).
            if shard.partition[from.raw() as usize] == shard.partition[to.raw() as usize] {
                dispatch(topo, shard, at, to, |a, ctx| a.on_packet(ctx, from, packet));
            }
        }
        Ev::Timer { host, token } => {
            dispatch(topo, shard, at, host, |a, ctx| a.on_timer(ctx, token));
        }
        Ev::Ingress {
            from,
            site,
            packet,
            kind,
        } => ingress(topo, shard, at, from, site, packet, kind),
    }
    if capture {
        let recs = capture_take(at, key);
        if !recs.is_empty() {
            shard.trace_buf.extend(recs);
        }
    }
}

/// Drains one shard's due events up to (exclusive) `end` — one epoch
/// window. Runs on a worker thread; records its own wall-clock busy
/// time for the stall gauge.
fn run_window(topo: &Topology, shard: &mut Shard, end: SimTime) {
    let t0 = std::time::Instant::now();
    while shard.queue.next_at().is_some_and(|t| t < end) {
        shard.note_depth();
        let (at, key, ev) = shard.queue.pop_keyed().expect("next_at was Some");
        process(topo, shard, at, key, ev, true);
        shard.note_depth();
    }
    shard.busy_ns = t0.elapsed().as_nanos() as u64;
}

/// The simulation: topology + actors + sharded event queues.
///
/// [`HostId`]s are dense indices (the topology builder hands them out
/// sequentially), so the per-host tables — actors, RNG streams, crash
/// flags — are plain vectors: the per-event dispatch does array indexing
/// instead of hash lookups.
pub struct World {
    topo: Topology,
    shards: Vec<Shard>,
    shard_of_site: Arc<Vec<usize>>,
    shard_of_host: Vec<usize>,
    order: Vec<HostId>,
    now: SimTime,
    started: bool,
    seed: u64,
    lookahead: Duration,
    tracer: Tracer,
    gauge_registry: Option<Arc<MetricsRegistry>>,
    epoch_stall_ns: u64,
}

impl World {
    /// Creates a world over `topo`, fully determined by `seed`, on the
    /// default shard count (`LBRM_SIM_SHARDS`, see
    /// [`World::parse_shards`]; 1 when unset).
    pub fn new(topo: Topology, seed: u64) -> World {
        World::with_shards(topo, seed, Self::shards_from_env())
    }

    /// Creates a world with an explicit requested shard count. The
    /// effective count is clamped to the number of sites, and falls back
    /// to 1 when the topology offers no positive cross-shard lookahead
    /// (conservative synchronization would deadlock on zero-latency
    /// links).
    pub fn with_shards(topo: Topology, seed: u64, shards: usize) -> World {
        let sites = topo.site_count();
        let hosts = topo.host_count();
        let mut n = shards.clamp(1, sites.max(1));
        let assign = |n: usize| -> Vec<usize> { (0..sites).map(|s| s % n).collect() };
        let mut map = assign(n);
        let mut lookahead = Duration::ZERO;
        if n > 1 {
            match topo.lookahead(&map) {
                Some(l) if l > Duration::ZERO => lookahead = l,
                _ => {
                    n = 1;
                    map = assign(1);
                }
            }
        }
        let shard_of_site = Arc::new(map);
        let mut shard_vec: Vec<Shard> = (0..n)
            .map(|i| Shard::new(i, shard_of_site.clone(), hosts, sites))
            .collect();
        for s in 0..sites {
            let sid = SiteId(s as u32);
            let k = shard_of_site[s];
            shard_vec[k].nets[s] = Some(SiteNet::new(
                topo.site_params(sid),
                topo.wan_loss_model(),
                site_rng(seed, s as u64),
            ));
        }
        let shard_of_host = (0..hosts)
            .map(|h| shard_of_site[topo.site_of(HostId(h as u64)).raw() as usize])
            .collect();
        World {
            topo,
            shards: shard_vec,
            shard_of_site,
            shard_of_host,
            order: Vec::new(),
            now: SimTime::ZERO,
            started: false,
            seed,
            lookahead,
            tracer: Tracer::disabled(),
            gauge_registry: None,
            epoch_stall_ns: 0,
        }
    }

    /// Parses an `LBRM_SIM_SHARDS` value: a positive integer, `"sites"`
    /// (one shard per site), or empty (= 1). `None` for anything else.
    pub fn parse_shards(v: &str) -> Option<usize> {
        let t = v.trim();
        if t.is_empty() {
            return Some(1);
        }
        if t.eq_ignore_ascii_case("sites") {
            return Some(usize::MAX);
        }
        match t.parse::<usize>() {
            Ok(n) if n >= 1 => Some(n),
            _ => None,
        }
    }

    /// Reads `LBRM_SIM_SHARDS`, panicking on anything
    /// [`parse_shards`](World::parse_shards) rejects: a typo must fail
    /// loudly, not silently run unsharded.
    fn shards_from_env() -> usize {
        match std::env::var("LBRM_SIM_SHARDS") {
            Err(std::env::VarError::NotPresent) => 1,
            Err(e) => panic!("LBRM_SIM_SHARDS is not valid unicode: {e}"),
            Ok(v) => World::parse_shards(&v).unwrap_or_else(|| {
                panic!(
                    "LBRM_SIM_SHARDS must be a positive integer or \"sites\" (or unset), got {v:?}"
                )
            }),
        }
    }

    /// Number of shards actually in use (after clamping and the
    /// zero-lookahead fallback).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The conservative-synchronization window (zero when unsharded).
    pub fn lookahead(&self) -> Duration {
        self.lookahead
    }

    /// Total events processed so far, across all shards.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.events).sum()
    }

    /// Cumulative wall-clock time the epoch coordinator spent waiting on
    /// the slowest worker (plus barrier overhead), in nanoseconds.
    /// Always zero for unsharded runs.
    pub fn epoch_stall_ns(&self) -> u64 {
        self.epoch_stall_ns
    }

    /// Attaches a protocol-event tracer: every simulated transmission is
    /// reported as a [`ProtocolEvent::NetPacket`] (wire kind, multicast
    /// flag, copies that survived the loss model). Disabled by default.
    /// The tracer's sink is re-wrapped via [`World::wrap_sink`] so
    /// sharded runs keep the serial emission order.
    pub fn set_trace(&mut self, tracer: Tracer) {
        let wrapped = match tracer.sink() {
            Some(s) => Tracer::to(self.wrap_sink(s)),
            None => Tracer::disabled(),
        };
        self.tracer = wrapped.clone();
        for sh in &mut self.shards {
            sh.tracer = wrapped.clone();
        }
    }

    /// Wraps a trace sink for use by actors running inside this world.
    ///
    /// Sharded worlds process events on worker threads, so a sink fed
    /// directly from actor code would observe records in worker order.
    /// The wrapper buffers worker-side records and the epoch coordinator
    /// forwards them in the deterministic serial order; outside worker
    /// threads (and for single-shard worlds, where this returns the sink
    /// unchanged) records pass straight through. Machines whose tracers
    /// write to shared sinks must route them through here.
    pub fn wrap_sink(&self, inner: Arc<dyn TraceSink>) -> Arc<dyn TraceSink> {
        if self.shards.len() == 1 {
            inner
        } else {
            crate::shard::MuxedSink::wrap(inner)
        }
    }

    /// Attaches a registry that receives simulator gauges — the
    /// event-queue depth (current and high-water, aggregated across
    /// shards), per-shard depths for sharded runs, epoch stall time, and
    /// per-link tail queue backlogs — whenever a `run_*` call returns
    /// (or [`flush_gauges`](World::flush_gauges) is called directly).
    pub fn set_gauges(&mut self, registry: Arc<MetricsRegistry>) {
        self.gauge_registry = Some(registry);
    }

    /// Highest event-queue depth seen on any single shard (cheap: one
    /// compare per step keeps the hot loop registry-free). Only
    /// comparable between runs with equal shard counts — a split queue
    /// peaks lower than a global one.
    pub fn queue_depth_max(&self) -> usize {
        self.shards.iter().map(|s| s.depth_max).max().unwrap_or(0)
    }

    /// Current event-queue depth, summed across shards.
    pub fn queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    /// Writes the simulator gauges into the attached registry (no-op
    /// without one): `sim.queue_depth` (sum over shards),
    /// `sim.queue_depth_max` (max over shards' high-water marks),
    /// `sim.shard<K>.queue_depth{,_max}` and `sim.epoch_stall_ns` for
    /// sharded runs, and `sim.link.s<N>.tail_{in,out}_backlog_max_ns`
    /// for every site whose tail circuit ever queued.
    pub fn flush_gauges(&mut self) {
        let Some(reg) = &self.gauge_registry else {
            return;
        };
        reg.set_gauge("sim.queue_depth", self.queue_depth() as u64);
        reg.set_gauge("sim.queue_depth_max", self.queue_depth_max() as u64);
        if self.shards.len() > 1 {
            for sh in &self.shards {
                reg.set_gauge(
                    &format!("sim.shard{}.queue_depth", sh.idx),
                    sh.queue.len() as u64,
                );
                reg.set_gauge(
                    &format!("sim.shard{}.queue_depth_max", sh.idx),
                    sh.depth_max as u64,
                );
            }
            reg.set_gauge("sim.epoch_stall_ns", self.epoch_stall_ns);
        }
        for sh in &self.shards {
            for (s, net) in sh.nets.iter().enumerate() {
                let Some(net) = net else { continue };
                if net.tail_in_backlog_max > Duration::ZERO {
                    reg.set_gauge(
                        &format!("sim.link.s{s}.tail_in_backlog_max_ns"),
                        net.tail_in_backlog_max.as_nanos() as u64,
                    );
                }
                if net.tail_out_backlog_max > Duration::ZERO {
                    reg.set_gauge(
                        &format!("sim.link.s{s}.tail_out_backlog_max_ns"),
                        net.tail_out_backlog_max.as_nanos() as u64,
                    );
                }
            }
        }
    }

    /// Installs an actor on `host`. Replaces any existing actor.
    ///
    /// # Panics
    ///
    /// If `host` was not created by this world's topology builder (the
    /// sharded world routes by site, so every host needs a site).
    pub fn add_actor(&mut self, host: HostId, actor: impl Actor) {
        let idx = host.raw() as usize;
        assert!(
            idx < self.topo.host_count(),
            "host {host} is not in the topology"
        );
        let k = self.shard_of_host[idx];
        let sh = &mut self.shards[k];
        if sh.actors[idx].replace(Box::new(actor)).is_none() {
            self.order.push(host);
        }
        if sh.rngs[idx].is_none() {
            // Distinct, deterministic stream per host.
            sh.rngs[idx] = Some(SmallRng::seed_from_u64(
                self.seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(host.raw()),
            ));
        }
    }

    /// Joins `host` to `group` from outside the actor (setup convenience).
    pub fn join(&mut self, host: HostId, group: GroupId) {
        let site = self.topo.site_of(host);
        let k = self.shard_of_site[site.raw() as usize];
        self.shards[k].members[site.raw() as usize]
            .entry(group)
            .or_default()
            .insert(host);
    }

    /// Arms a timer for `host` from outside the actor — used by harness
    /// code that schedules application work after the world has started.
    pub fn schedule_timer(&mut self, host: HostId, at: SimTime, token: u64) {
        let site = self.topo.site_of(host);
        let k = self.shard_of_host[host.raw() as usize];
        let at = at.max(self.now);
        self.shards[k].push_from(host.raw(), at, site, Ev::Timer { host, token });
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Network statistics so far, merged across shards.
    pub fn stats(&self) -> NetStats {
        let mut out = NetStats::default();
        for sh in &self.shards {
            out.merge(&sh.stats);
        }
        out
    }

    /// Bundle-framing statistics so far, merged across every host's
    /// meter: what the wire's `BundleBuilder` puts on the wire for this
    /// run (`frames`/`bytes_bundled`), beside the one-datagram-per-packet
    /// counterfactual (`packets`/`bytes_unbundled`).
    pub fn bundle_stats(&self) -> BundleStats {
        let mut out = BundleStats::default();
        for sh in &self.shards {
            for m in &sh.meters {
                out.merge(m.stats());
            }
        }
        out
    }

    /// Immutable access to the topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Marks a host as crashed: it receives no packets or timers and its
    /// pending timers are suppressed while down.
    pub fn crash(&mut self, host: HostId) {
        let idx = host.raw() as usize;
        let k = self.shard_of_host[idx];
        self.shards[k].crashed[idx] = true;
    }

    /// Revives a crashed host. Packets and timers scheduled while it was
    /// down are gone; new ones are delivered normally.
    pub fn revive(&mut self, host: HostId) {
        let idx = host.raw() as usize;
        let k = self.shard_of_host[idx];
        self.shards[k].crashed[idx] = false;
    }

    /// Splits the network: the listed hosts move into a fresh partition.
    /// Packets between a host inside the set and one outside it are
    /// dropped at delivery time; traffic *within* either side flows
    /// normally. Repeated calls carve out further mutually-isolated
    /// groups. Packets already in flight across the cut when the call is
    /// made are dropped on arrival.
    ///
    /// Deterministic under sharding: the partition ids are replicated
    /// identically on every shard and the drop test is a pure function
    /// of them, so the verdict does not depend on which shard processes
    /// the delivery. Call only between `run_*` calls (the sharded engine
    /// mutates shard state on worker threads mid-run).
    ///
    /// # Panics
    ///
    /// If any host is not in the topology.
    pub fn partition(&mut self, hosts: &[HostId]) {
        for &h in hosts {
            assert!(
                (h.raw() as usize) < self.topo.host_count(),
                "host {h} is not in the topology"
            );
        }
        let part = self.shards[0].partition.iter().copied().max().unwrap_or(0) + 1;
        for sh in &mut self.shards {
            for &h in hosts {
                sh.partition[h.raw() as usize] = part;
            }
        }
    }

    /// Heals every partition: all hosts rejoin one connected network.
    /// Packets sent after the heal flow normally; packets dropped while
    /// the cut was up stay lost.
    pub fn heal(&mut self) {
        for sh in &mut self.shards {
            sh.partition.iter_mut().for_each(|p| *p = 0);
        }
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
        let idx = host.raw() as usize;
        assert!(
            idx < self.topo.host_count(),
            "host {host} is not in the topology"
        );
        let k = self.shard_of_host[idx];
        let sh = &mut self.shards[k];
        sh.crashed[idx] = false;
        if sh.actors[idx].replace(Box::new(actor)).is_none() {
            self.order.push(host);
        }
        if sh.rngs[idx].is_none() {
            sh.rngs[idx] = Some(SmallRng::seed_from_u64(
                self.seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(host.raw()),
            ));
        }
        if self.started {
            let topo = &self.topo;
            dispatch(topo, &mut self.shards[k], self.now, host, |a, ctx| {
                a.on_start(ctx)
            });
            self.drain_outboxes();
        }
    }

    /// `true` if the host is currently crashed.
    pub fn is_crashed(&self, host: HostId) -> bool {
        let idx = host.raw() as usize;
        self.shard_of_host
            .get(idx)
            .is_some_and(|&k| self.shards[k].crashed[idx])
    }

    /// Downcasts the actor on `host`.
    ///
    /// # Panics
    ///
    /// If the host has no actor of type `T`.
    pub fn actor<T: Actor>(&self, host: HostId) -> &T {
        let idx = host.raw() as usize;
        let k = *self.shard_of_host.get(idx).expect("no actor on host");
        let a: &dyn Any = self.shards[k].actors[idx]
            .as_ref()
            .expect("no actor on host")
            .as_ref();
        a.downcast_ref::<T>().expect("actor type mismatch")
    }

    /// Mutable downcast of the actor on `host`.
    ///
    /// # Panics
    ///
    /// If the host has no actor of type `T`.
    pub fn actor_mut<T: Actor>(&mut self, host: HostId) -> &mut T {
        let idx = host.raw() as usize;
        let k = *self.shard_of_host.get(idx).expect("no actor on host");
        let a: &mut dyn Any = self.shards[k].actors[idx]
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
        let hosts = self.order.clone();
        for host in hosts {
            let k = self.shard_of_host[host.raw() as usize];
            let topo = &self.topo;
            dispatch(topo, &mut self.shards[k], self.now, host, |a, ctx| {
                a.on_start(ctx)
            });
            self.drain_outboxes();
        }
    }

    /// Routes every shard's pending cross-shard mail into the
    /// destination queues. Cheap when nothing is pending.
    fn drain_outboxes(&mut self) {
        let mut mails = Vec::new();
        for sh in &mut self.shards {
            if !sh.outbox.is_empty() {
                mails.append(&mut sh.outbox);
            }
        }
        for m in mails {
            self.shards[m.shard].queue.push_keyed(m.at, m.key, m.ev);
        }
    }

    /// Runs one event; returns `false` when every queue is empty.
    ///
    /// Sharded worlds step serially here — the globally least `(at,
    /// key)` event is popped wherever it lives — so step-driven loops
    /// observe the exact single-shard order; `run_until` is where the
    /// epoch parallelism happens.
    pub fn step(&mut self) -> bool {
        self.start_if_needed();
        if self.shards.len() == 1 {
            let topo = &self.topo;
            let shard = &mut self.shards[0];
            shard.note_depth();
            let Some((at, key, ev)) = shard.queue.pop_keyed() else {
                return false;
            };
            debug_assert!(at >= self.now, "time must be monotonic");
            self.now = at.max(self.now);
            process(topo, shard, at, key, ev, false);
            // Sample again after the handler ran: a fan-out (multicast
            // burst, retransmission storm) peaks *between* pops.
            shard.note_depth();
            return true;
        }
        // Global-min pop: take the tied-for-earliest head from each
        // shard, keep the least key, put the rest back.
        let min_at = self
            .shards
            .iter_mut()
            .filter_map(|s| s.queue.next_at())
            .min();
        let Some(min_at) = min_at else {
            return false;
        };
        let mut popped = Vec::new();
        for (i, sh) in self.shards.iter_mut().enumerate() {
            if sh.queue.next_at() == Some(min_at) {
                let (at, key, ev) = sh.queue.pop_keyed().expect("head was due");
                popped.push((i, at, key, ev));
            }
        }
        popped.sort_by_key(|p| p.2);
        let mut it = popped.into_iter();
        let (wi, at, key, ev) = it.next().expect("at least one shard was due");
        for (i, at2, key2, ev2) in it {
            self.shards[i].queue.push_keyed(at2, key2, ev2);
        }
        debug_assert!(at >= self.now, "time must be monotonic");
        self.now = at.max(self.now);
        let topo = &self.topo;
        let shard = &mut self.shards[wi];
        shard.note_depth();
        process(topo, shard, at, key, ev, false);
        shard.note_depth();
        self.drain_outboxes();
        true
    }

    /// Conservative-window engine for sharded worlds: per epoch, find
    /// the earliest pending event `t_min`, open the window
    /// `[t_min, min(t_min + lookahead, until + 1ns))`, let every shard
    /// drain its due events on worker threads, then exchange cross-shard
    /// mail and forward buffered trace records in the deterministic
    /// merge order.
    fn run_epochs(&mut self, until: SimTime) {
        let la_nanos = self.lookahead.as_nanos() as u64;
        debug_assert!(la_nanos > 0, "sharded world requires positive lookahead");
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(self.shards.len());
        let chunk = self.shards.len().div_ceil(workers);
        loop {
            let t_min = self
                .shards
                .iter_mut()
                .filter_map(|s| s.queue.next_at())
                .min();
            let Some(t_min) = t_min else { break };
            if t_min > until {
                break;
            }
            let end = SimTime::from_nanos(
                t_min
                    .nanos()
                    .saturating_add(la_nanos)
                    .min(until.nanos().saturating_add(1)),
            );
            let wall = std::time::Instant::now();
            let topo = &self.topo;
            let shards = &mut self.shards;
            std::thread::scope(|scope| {
                for sh_chunk in shards.chunks_mut(chunk) {
                    scope.spawn(move || {
                        capture_activate();
                        for sh in sh_chunk {
                            run_window(topo, sh, end);
                        }
                    });
                }
            });
            let busy_max = self
                .shards
                .chunks(chunk)
                .map(|c| c.iter().map(|s| s.busy_ns).sum::<u64>())
                .max()
                .unwrap_or(0);
            self.epoch_stall_ns += (wall.elapsed().as_nanos() as u64).saturating_sub(busy_max);
            if let Some(last) = self.shards.iter().map(|s| s.last_at).max() {
                self.now = self.now.max(last);
            }
            self.drain_outboxes();
            if self.shards.iter().any(|sh| !sh.trace_buf.is_empty()) {
                let streams = self
                    .shards
                    .iter_mut()
                    .map(|sh| std::mem::take(&mut sh.trace_buf))
                    .collect();
                forward_merged(streams);
            }
        }
    }

    /// Runs until virtual time reaches `until` or the queues drain.
    /// Events at exactly `until` are processed.
    pub fn run_until(&mut self, until: SimTime) {
        self.start_if_needed();
        if self.shards.len() == 1 {
            loop {
                match self.shards[0].queue.next_at() {
                    Some(at) if at <= until => {
                        self.step();
                    }
                    _ => break,
                }
            }
        } else {
            self.run_epochs(until);
        }
        self.now = self.now.max(until);
        self.flush_gauges();
    }

    /// Runs for `d` of virtual time.
    pub fn run_for(&mut self, d: Duration) {
        let until = self.now + d;
        self.run_until(until);
    }

    /// Runs until the event queues are empty or `limit` is hit (the
    /// clock is left at the last processed event, not advanced to
    /// `limit`).
    pub fn run_until_idle(&mut self, limit: SimTime) {
        self.start_if_needed();
        if self.shards.len() == 1 {
            while let Some(at) = self.shards[0].queue.next_at() {
                if at > limit {
                    break;
                }
                self.step();
            }
        } else {
            self.run_epochs(limit);
        }
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
/// site's traffic makes are independent of every other site's and of
/// the site→shard assignment.
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

    /// Partition decisions are placement-invariant: a mid-run cut and
    /// heal replays identically for any shard count.
    #[test]
    fn partition_replays_identically_across_shards() {
        use crate::loss::LossModel;
        let run = |shards: usize| {
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
            let mut w = World::with_shards(b.build(), 777, shards);
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
        let base = run(1);
        for shards in [2usize, 4] {
            assert_eq!(base, run(shards), "x{shards}");
        }
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
    /// included — and deliveries and stats hold for any shard count.
    #[test]
    fn seeded_lossy_run_replays_identically() {
        use crate::loss::LossModel;
        let run = |shards: usize| {
            let mut b = TopologyBuilder::new();
            let s0 = b.site(SiteParams::default());
            let s1 = b.site(SiteParams {
                tail_in_loss: LossModel::rate(0.3),
                ..SiteParams::default()
            });
            let tx = b.host(s0);
            let rx = b.host(s1);
            let mut w = World::with_shards(b.build(), 1234, shards);
            w.add_actor(tx, Beacon { sent: 0 });
            w.add_actor(rx, Sink::default());
            w.run_until(SimTime::from_secs(10));
            (
                w.actor::<Sink>(rx).got.clone(),
                w.stats(),
                w.queue_depth_max(),
            )
        };
        let base = run(1);
        assert_eq!(base, run(1));
        for shards in [2usize, 4] {
            let (got, stats, _) = run(shards);
            assert_eq!((&base.0, &base.1), (&got, &stats), "x{shards}");
        }
    }

    /// The tentpole guarantee: a fixed seed produces identical
    /// deliveries, stats, and event counts for *any* shard count — here
    /// on a lossy, jittery 4-site topology
    /// exercising cross-shard multicast, unicast-free fan-out, and
    /// membership churn through the Ingress path.
    #[test]
    fn shard_counts_replay_identically() {
        use crate::loss::LossModel;
        let run = |shards: usize| {
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
            let mut w = World::with_shards(b.build(), 4242, shards);
            assert_eq!(w.shards(), shards.min(4));
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
        let base = run(1);
        for shards in [2usize, 4] {
            assert_eq!(base, run(shards), "x{shards}");
        }
    }

    /// Satellite: gauges must aggregate across shards — depth as the sum
    /// of per-shard queue lengths, high-water as the max of per-shard
    /// maxima — with per-shard gauges and the stall clock alongside.
    #[test]
    fn gauges_aggregate_across_shards() {
        let mut b = TopologyBuilder::new();
        let sites: Vec<SiteId> = (0..4).map(|_| b.site(SiteParams::default())).collect();
        let tx = b.host(sites[0]);
        let rxs: Vec<HostId> = sites[1..].iter().map(|&s| b.host(s)).collect();
        let mut w = World::with_shards(b.build(), 7, 2);
        assert_eq!(w.shards(), 2);
        let reg = Arc::new(MetricsRegistry::default());
        w.set_gauges(reg.clone());
        w.add_actor(tx, Beacon { sent: 0 });
        for &rx in &rxs {
            w.add_actor(rx, Sink::default());
        }
        // Stop mid-run so queues still hold future events (the next
        // beacon timer at least).
        w.run_until(SimTime::from_millis(1500));
        let depth = reg.gauge("sim.queue_depth");
        assert!(depth > 0, "pending events expected mid-run");
        assert_eq!(depth, w.queue_depth() as u64);
        assert_eq!(
            depth,
            reg.gauge("sim.shard0.queue_depth") + reg.gauge("sim.shard1.queue_depth"),
            "sum over shards"
        );
        let max = reg.gauge("sim.queue_depth_max");
        assert_eq!(max, w.queue_depth_max() as u64);
        assert_eq!(
            max,
            reg.gauge("sim.shard0.queue_depth_max")
                .max(reg.gauge("sim.shard1.queue_depth_max")),
            "max of per-shard maxima"
        );
        assert!(
            reg.gauges().contains_key("sim.epoch_stall_ns"),
            "stall gauge published for sharded runs"
        );
    }

    #[test]
    fn shards_env_forms_parse_strictly() {
        assert_eq!(World::parse_shards(""), Some(1));
        assert_eq!(World::parse_shards("1"), Some(1));
        assert_eq!(World::parse_shards(" 8 "), Some(8));
        assert_eq!(World::parse_shards("sites"), Some(usize::MAX));
        assert_eq!(World::parse_shards("SITES"), Some(usize::MAX));
        assert_eq!(World::parse_shards("0"), None);
        assert_eq!(World::parse_shards("-2"), None);
        assert_eq!(World::parse_shards("many"), None);
    }

    #[test]
    fn shard_count_clamps_and_falls_back() {
        // More shards than sites clamps to the site count.
        let mut b = TopologyBuilder::new();
        let s0 = b.site(SiteParams::default());
        let s1 = b.site(SiteParams::default());
        let _ = (b.host(s0), b.host(s1));
        let w = World::with_shards(b.build(), 1, 64);
        assert_eq!(w.shards(), 2);
        assert!(w.lookahead() > Duration::ZERO);

        // A zero-latency topology offers no lookahead: forced serial.
        let mut b = TopologyBuilder::new();
        let z = SiteParams {
            lan_delay: Duration::ZERO,
            tail_delay: Duration::ZERO,
            wan_delay: Duration::ZERO,
            ..SiteParams::default()
        };
        let s0 = b.site(z.clone());
        let s1 = b.site(z);
        let _ = (b.host(s0), b.host(s1));
        let w = World::with_shards(b.build(), 1, 2);
        assert_eq!(w.shards(), 1);
        assert_eq!(w.lookahead(), Duration::ZERO);
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
