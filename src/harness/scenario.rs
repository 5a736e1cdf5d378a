//! Ready-made experiment scenarios.
//!
//! [`GroupPlan`] is one LBRM group, written once for both substrates:
//! which host runs the sender, the primary logger and its replicas, the
//! regional and site secondary loggers and the receivers; each role's
//! configuration, parent, recovery targets and joined groups; and the
//! start order (sender last). It is computed from a
//! [`DisScenarioConfig`] and the host ids a substrate assigns.
//! [`DisScenario`] installs it as [`MachineActor`]s in a simulated
//! [`World`]; [`GroupPlan::spawn`] starts it as [`Endpoint`]s over any
//! [`Transport`].
//!
//! [`DisScenario`] builds the paper's §2.2.2 evaluation world: a source
//! site hosting the sender, primary logger and its replicas, plus N
//! receiver sites behind tail circuits, each with a secondary logging
//! server and M receivers (50 × 20 = 1,000 subscribers in the paper).
//! [`SrmScenario`] builds the same topology populated with *wb*-style
//! SRM members for the §6 comparison.
//!
//! Both scenarios attach a per-role [`MetricsRegistry`] to every machine
//! they build (sender / primary+replicas / secondaries+regionals /
//! receivers, plus one fed by the simulated network itself), so
//! experiments read protocol counters and latency histograms straight
//! from the trace layer instead of mining notices by hand.

use std::io;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;

use lbrm_core::baseline::srm::{SrmConfig, SrmMember};
use lbrm_core::logger::{Logger, LoggerConfig, LoggerRole};
use lbrm_core::machine::{Machine, Notice};
use lbrm_core::receiver::{Receiver, ReceiverConfig, ReliabilityMode};
use lbrm_core::sender::{Sender, SenderConfig};
use lbrm_core::statack::StatAckConfig;
use lbrm_core::trace::{FanoutSink, MetricsRegistry, TraceSink, Tracer};
use lbrm_net::{Endpoint, EndpointHandle, Transport};
use lbrm_sim::loss::LossModel;
use lbrm_sim::time::SimTime;
use lbrm_sim::topology::{SiteParams, TopologyBuilder};
use lbrm_sim::world::World;
use lbrm_wire::{GroupId, HostId, SiteId, SourceId};

use super::adapter::MachineActor;

/// Configuration for [`DisScenario`] and [`GroupPlan`].
#[derive(Clone)]
pub struct DisScenarioConfig {
    /// Number of receiver sites (the paper's evaluation uses 50).
    pub sites: usize,
    /// Receivers per site (the paper uses 20).
    pub receivers_per_site: usize,
    /// Deploy a secondary logger at each site (distributed logging); when
    /// `false`, receivers recover directly from the primary (the Figure
    /// 7a centralized baseline).
    pub secondary_loggers: bool,
    /// §7 multi-level hierarchy: group receiver sites into regions of
    /// this many sites, each with a *regional* logging server (hosted at
    /// the region's first site) between the site secondaries and the
    /// primary. `None` = the paper's two-level hierarchy.
    pub regional_fanout: Option<usize>,
    /// Primary-log replicas at the source site.
    pub replicas: usize,
    /// Statistical acknowledgement for the sender.
    pub statack: Option<StatAckConfig>,
    /// Receiver recovery policy.
    pub mode: ReliabilityMode,
    /// Receivers' reorder-tolerance delay before the first NACK.
    pub receiver_nack_delay: Duration,
    /// Parameters for receiver sites.
    pub site_params: SiteParams,
    /// Optional per-site override (receives the site index, returns its
    /// parameters); when set it takes precedence over `site_params`.
    pub site_params_for: Option<std::sync::Arc<dyn Fn(usize) -> SiteParams>>,
    /// Parameters for the source site.
    pub source_site_params: SiteParams,
    /// Backbone loss.
    pub wan_loss: LossModel,
    /// World seed.
    pub seed: u64,
}

impl Default for DisScenarioConfig {
    fn default() -> Self {
        DisScenarioConfig {
            sites: 50,
            receivers_per_site: 20,
            secondary_loggers: true,
            regional_fanout: None,
            replicas: 0,
            statack: None,
            mode: ReliabilityMode::RecoverAll,
            receiver_nack_delay: Duration::from_millis(30),
            // Paper's RTT picture: local logger a few ms away, primary
            // ~80 ms RTT away.
            site_params: SiteParams::distant(),
            site_params_for: None,
            source_site_params: SiteParams::distant(),
            wan_loss: LossModel::None,
            seed: 1995,
        }
    }
}

/// Where a substrate is asked to put a host: at the source site, or at
/// receiver site `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Place {
    /// The source site (sender, primary, replicas).
    Source,
    /// Receiver site `i` (its regional logger, secondary, receivers).
    Site(usize),
}

/// One role of a [`GroupPlan`]: its machine's configuration, which
/// names the host it runs on.
pub enum Role {
    /// The primary logger, a replica, a regional or a site secondary.
    Logger(LoggerConfig),
    /// A receiver.
    Receiver(ReceiverConfig),
    /// The data source.
    Sender(SenderConfig),
}

impl Role {
    /// The host the role runs on.
    pub fn host(&self) -> HostId {
        match self {
            Role::Logger(c) => c.host,
            Role::Receiver(c) => c.host,
            Role::Sender(c) => c.host,
        }
    }

    /// The groups the role joins at start: a replica hears its primary
    /// only, and the sender sends without listening.
    pub fn groups(&self) -> Vec<GroupId> {
        match self {
            Role::Logger(c) if c.role == LoggerRole::Replica => vec![],
            Role::Sender(_) => vec![],
            _ => vec![DisScenario::GROUP],
        }
    }
}

/// One LBRM group placed on a substrate's hosts.
#[derive(Clone)]
pub struct GroupPlan {
    /// The sender's host.
    pub src_host: HostId,
    /// The primary logging server's host.
    pub primary: HostId,
    /// Replica hosts.
    pub replicas: Vec<HostId>,
    /// Regional loggers (empty for the two-level hierarchy).
    pub regionals: Vec<HostId>,
    /// Per-site secondary logger (empty when centralized).
    pub secondaries: Vec<HostId>,
    /// Per-site receivers.
    pub receivers: Vec<Vec<HostId>>,
    config: DisScenarioConfig,
}

impl GroupPlan {
    /// Places `config`'s group, asking `host` for each host in turn: the
    /// source site's sender, primary and replicas, then each receiver
    /// site's regional logger (at a region's first site), secondary and
    /// receivers.
    pub fn place(config: &DisScenarioConfig, mut host: impl FnMut(Place) -> HostId) -> Self {
        let src_host = host(Place::Source);
        let primary = host(Place::Source);
        let replicas = (0..config.replicas).map(|_| host(Place::Source)).collect();
        let (mut regionals, mut secondaries) = (Vec::new(), Vec::new());
        let mut receivers = Vec::with_capacity(config.sites);
        for i in 0..config.sites {
            let site = Place::Site(i);
            if config.secondary_loggers {
                if config.regional_fanout.is_some_and(|f| i % f.max(1) == 0) {
                    regionals.push(host(site));
                }
                secondaries.push(host(site));
            }
            receivers.push((0..config.receivers_per_site).map(|_| host(site)).collect());
        }
        GroupPlan {
            src_host,
            primary,
            replicas,
            regionals,
            secondaries,
            receivers,
            config: config.clone(),
        }
    }

    /// Every role, configured, in start order: the primary, its
    /// replicas, the regional loggers, each site's secondary and
    /// receivers, and the sender last, so its start-up Acker Selection
    /// reaches secondaries that have already joined the group.
    pub fn roles(&self) -> impl Iterator<Item = Role> + '_ {
        let (group, source) = (DisScenario::GROUP, DisScenario::SOURCE);
        let (primary, src_host) = (self.primary, self.src_host);
        let mut primary_cfg = LoggerConfig::primary(group, source, primary, src_host);
        primary_cfg.replicas = self.replicas.clone();
        // Regional loggers (three-level hierarchy, §7): parent = primary.
        // Their requesters are child loggers at other sites, so the
        // site-scoped re-multicast shortcut must stay off.
        let regionals = self.regionals.iter().map(move |&reg| {
            let mut c = LoggerConfig::secondary(group, source, reg, primary, src_host);
            c.level = 1;
            c.site_remulticast = false;
            Role::Logger(c)
        });
        let sites = self.receivers.iter().enumerate().flat_map(move |(i, rxs)| {
            let sec = self.secondaries.get(i).copied();
            let secondary = sec.map(|sec| {
                // Site secondaries fetch from their regional logger when
                // one exists, else straight from the primary.
                let (parent, level) = match self.config.regional_fanout {
                    Some(fanout) => (self.regionals[i / fanout.max(1)], 2),
                    None => (primary, 1),
                };
                let mut c = LoggerConfig::secondary(group, source, sec, parent, src_host);
                c.level = level;
                Role::Logger(c)
            });
            let receivers = rxs.iter().map(move |&rx| {
                let targets = sec.into_iter().chain([primary]).collect();
                let mut c = ReceiverConfig::new(group, source, rx, src_host, targets);
                c.mode = self.config.mode;
                c.nack_delay = self.config.receiver_nack_delay;
                Role::Receiver(c)
            });
            secondary.into_iter().chain(receivers)
        });
        let sender = std::iter::once_with(move || {
            let mut c = SenderConfig::new(group, source, src_host, primary);
            c.statack = self.config.statack.clone();
            c.replicas = self.replicas.clone();
            Role::Sender(c)
        });
        std::iter::once(Role::Logger(primary_cfg))
            .chain(
                self.replicas
                    .iter()
                    .map(move |&r| Role::Logger(self.replica(r, primary))),
            )
            .chain(regionals)
            .chain(sites)
            .chain(sender)
    }

    /// The configuration of replica `host`, parented at `parent` (the
    /// primary at start; whoever leads when a replica restarts).
    pub fn replica(&self, host: HostId, parent: HostId) -> LoggerConfig {
        let mut c = LoggerConfig::replica(
            DisScenario::GROUP,
            DisScenario::SOURCE,
            host,
            parent,
            self.src_host,
        );
        c.replicas = self
            .replicas
            .iter()
            .copied()
            .filter(|&x| x != host)
            .collect();
        c
    }

    /// Starts every role as an [`Endpoint`] thread, in start order:
    /// `transport` gives each role its transport (bound to the role's
    /// host) and `tracer` its protocol-event tracer. Endpoints sharing
    /// `origin` stamp their traces on one clock.
    ///
    /// # Panics
    ///
    /// Never for a placed plan: its roles end with the sender.
    pub fn spawn<T: Transport>(
        &self,
        mut transport: impl FnMut(&Role) -> T,
        mut tracer: impl FnMut(&Role) -> Tracer,
        origin: Instant,
    ) -> GroupEndpoints {
        let mut threads = Vec::new();
        let (mut loggers, mut receivers, mut sender) = (Vec::new(), Vec::new(), None);
        for role in self.roles() {
            let (host, groups) = (role.host(), role.groups());
            let (t, tr) = (transport(&role), tracer(&role));
            match role {
                Role::Logger(c) => {
                    loggers.push(start(Logger::new(c), t, tr, groups, origin, &mut threads))
                }
                Role::Receiver(c) => {
                    let handle = start(Receiver::new(c), t, tr, groups, origin, &mut threads);
                    receivers.push((host, handle));
                }
                Role::Sender(c) => {
                    sender = Some(start(Sender::new(c), t, tr, groups, origin, &mut threads))
                }
            }
        }
        GroupEndpoints {
            sender: sender.expect("a plan's roles end with its sender"),
            loggers,
            receivers,
            threads,
        }
    }
}

/// Spawns `machine`'s endpoint thread onto `threads`; returns its handle.
fn start<M: Machine + Send + 'static>(
    machine: M,
    transport: impl Transport,
    tracer: Tracer,
    groups: Vec<GroupId>,
    origin: Instant,
    threads: &mut Vec<JoinHandle<io::Result<()>>>,
) -> EndpointHandle<M> {
    let (mut ep, handle) = Endpoint::new(machine, transport, groups);
    ep.set_tracer(tracer);
    ep.set_origin(origin);
    threads.push(ep.spawn());
    handle
}

/// A [`GroupPlan`] running as endpoints. Dropping a handle shuts its
/// endpoint down; join the threads after.
pub struct GroupEndpoints {
    /// The sender's handle: publish through it.
    pub sender: EndpointHandle<Sender>,
    /// Each logger's handle, in start order.
    pub loggers: Vec<EndpointHandle<Logger>>,
    /// Each receiver's host and handle, in start order.
    pub receivers: Vec<(HostId, EndpointHandle<Receiver>)>,
    /// The endpoint threads, in start order.
    pub threads: Vec<JoinHandle<io::Result<()>>>,
}

/// A built DIS evaluation world.
pub struct DisScenario {
    /// The simulation.
    pub world: World,
    /// The multicast group.
    pub group: GroupId,
    /// The data source id.
    pub source: SourceId,
    /// The group's roles and hosts.
    pub plan: GroupPlan,
    /// Receiver sites.
    pub sites: Vec<SiteId>,
    /// Trace metrics from the sender machine.
    pub sender_metrics: Arc<MetricsRegistry>,
    /// Trace metrics from the primary logger and its replicas.
    pub primary_metrics: Arc<MetricsRegistry>,
    /// Trace metrics from site secondaries and regional loggers.
    pub secondary_metrics: Arc<MetricsRegistry>,
    /// Trace metrics from all receivers (recovery-latency histogram).
    pub receiver_metrics: Arc<MetricsRegistry>,
    /// Trace metrics from the simulated network (`net_*` counters).
    pub net_metrics: Arc<MetricsRegistry>,
}

/// `machine` as a simulator actor tracing into `sink`.
fn traced<M: Machine + 'static>(
    machine: M,
    sink: &Arc<dyn TraceSink>,
    groups: Vec<GroupId>,
) -> MachineActor<M> {
    let mut actor = MachineActor::new(machine, groups);
    actor.set_tracer(Tracer::to(sink.clone()));
    actor
}

impl DisScenario {
    /// The group id used by every scenario.
    pub const GROUP: GroupId = GroupId(1);
    /// The source id used by every scenario.
    pub const SOURCE: SourceId = SourceId(1);

    /// Builds the world.
    pub fn build(config: DisScenarioConfig) -> Self {
        Self::build_with_sink(config, None)
    }

    /// Builds the world with an extra forensic sink fanned in next to
    /// every role registry (machines *and* the simulated network), so a
    /// [`lbrm_core::trace::CollectorSink`] or
    /// [`lbrm_core::trace::JsonLinesSink`] sees the complete host-tagged
    /// event stream for causal analysis.
    pub fn build_with_sink(
        config: DisScenarioConfig,
        forensics: Option<Arc<dyn TraceSink>>,
    ) -> Self {
        let tap = |reg: Arc<MetricsRegistry>| -> Arc<dyn TraceSink> {
            match &forensics {
                Some(f) => Arc::new(FanoutSink::new(vec![reg as Arc<dyn TraceSink>, f.clone()])),
                None => reg,
            }
        };
        let mut b = TopologyBuilder::new();
        let source_site = b.site(config.source_site_params.clone());
        let sites: Vec<SiteId> = (0..config.sites)
            .map(|i| {
                let mut params = match &config.site_params_for {
                    Some(f) => f(i),
                    None => config.site_params.clone(),
                };
                if let Some(fanout) = config.regional_fanout {
                    params.region = (i / fanout.max(1)) as u32 + 1;
                }
                b.site(params)
            })
            .collect();
        let plan = GroupPlan::place(&config, |place| match place {
            Place::Source => b.host(source_site),
            Place::Site(i) => b.host(sites[i]),
        });
        b.wan_loss(config.wan_loss.clone());
        let mut world = World::new(b.build(), config.seed);
        // One metrics registry per protocol role, plus one for the
        // network itself.
        let sender_metrics = Arc::new(MetricsRegistry::default());
        let primary_metrics = Arc::new(MetricsRegistry::default());
        let secondary_metrics = Arc::new(MetricsRegistry::default());
        let receiver_metrics = Arc::new(MetricsRegistry::default());
        let net_metrics = Arc::new(MetricsRegistry::default());
        world.set_trace(Tracer::to(tap(net_metrics.clone())));
        world.set_gauges(net_metrics.clone());

        let sender_sink = tap(sender_metrics.clone());
        let primary_sink = tap(primary_metrics.clone());
        let secondary_sink = tap(secondary_metrics.clone());
        let receiver_sink = tap(receiver_metrics.clone());
        for role in plan.roles() {
            let (host, groups) = (role.host(), role.groups());
            match role {
                Role::Logger(c) => {
                    let sink = match c.role {
                        LoggerRole::Secondary => &secondary_sink,
                        _ => &primary_sink,
                    };
                    world.add_actor(host, traced(Logger::new(c), sink, groups));
                }
                Role::Receiver(c) => {
                    world.add_actor(host, traced(Receiver::new(c), &receiver_sink, groups));
                }
                Role::Sender(c) => {
                    world.add_actor(host, traced(Sender::new(c), &sender_sink, groups));
                }
            }
        }

        DisScenario {
            world,
            group: Self::GROUP,
            source: Self::SOURCE,
            plan,
            sites,
            sender_metrics,
            primary_metrics,
            secondary_metrics,
            receiver_metrics,
            net_metrics,
        }
    }

    /// Schedules a data transmission at `at` with `payload` (works
    /// before or after the world has started running).
    pub fn send_at(&mut self, at: SimTime, payload: impl Into<Bytes>) {
        let payload = payload.into();
        super::adapter::call_at(
            &mut self.world,
            self.plan.src_host,
            at,
            move |s: &mut Sender, now, out| {
                s.send(now, payload.clone(), out);
            },
        );
    }

    /// Every receiver host, flattened.
    pub fn all_receivers(&self) -> Vec<HostId> {
        self.plan.receivers.iter().flatten().copied().collect()
    }

    /// Delivered data sequence numbers at `rx` (in arrival order).
    pub fn delivered(&self, rx: HostId) -> Vec<u32> {
        self.world
            .actor::<MachineActor<Receiver>>(rx)
            .deliveries
            .iter()
            .map(|(_, d)| d.seq.raw())
            .collect()
    }

    /// Recovery latencies (loss detection → recovery) observed at `rx`.
    pub fn recovery_latencies(&self, rx: HostId) -> Vec<Duration> {
        self.world
            .actor::<MachineActor<Receiver>>(rx)
            .notices
            .iter()
            .filter_map(|(_, n)| match n {
                Notice::Recovered { after, .. } => Some(*after),
                _ => None,
            })
            .collect()
    }

    /// Recovery latencies across all receivers.
    pub fn all_recovery_latencies(&self) -> Vec<Duration> {
        self.all_receivers()
            .iter()
            .flat_map(|&rx| self.recovery_latencies(rx))
            .collect()
    }

    /// Fraction of receivers that delivered every sequence in `expect`.
    pub fn completeness(&self, expect: &[u32]) -> f64 {
        let rxs = self.all_receivers();
        let complete = rxs
            .iter()
            .filter(|&&rx| {
                let mut got = self.delivered(rx);
                got.sort_unstable();
                expect.iter().all(|s| got.binary_search(s).is_ok())
            })
            .count();
        complete as f64 / rxs.len().max(1) as f64
    }
}

/// Configuration for [`SrmScenario`].
#[derive(Clone)]
pub struct SrmScenarioConfig {
    /// Number of receiver sites.
    pub sites: usize,
    /// Members per site.
    pub receivers_per_site: usize,
    /// Receiver-site parameters (the source site is
    /// [`SiteParams::distant`], the backbone lossless).
    pub site_params: SiteParams,
    /// World seed.
    pub seed: u64,
}

impl Default for SrmScenarioConfig {
    fn default() -> Self {
        SrmScenarioConfig {
            sites: 50,
            receivers_per_site: 20,
            site_params: SiteParams::distant(),
            seed: 1995,
        }
    }
}

/// The same world shape as [`DisScenario`], populated with SRM members.
pub struct SrmScenario {
    /// The simulation.
    pub world: World,
    /// The group.
    pub group: GroupId,
    /// The source member's host.
    pub src_host: HostId,
    /// Receiver sites.
    pub sites: Vec<SiteId>,
    /// Per-site members.
    pub members: Vec<Vec<HostId>>,
    /// Trace metrics from the simulated network (`net_*` counters).
    pub net_metrics: Arc<MetricsRegistry>,
}

impl SrmScenario {
    /// Builds the SRM comparison world.
    pub fn build(config: SrmScenarioConfig) -> Self {
        let group = DisScenario::GROUP;
        let source = DisScenario::SOURCE;
        let mut b = TopologyBuilder::new();
        let source_site = b.site(SiteParams::distant());
        let src_host = b.host(source_site);
        let mut sites = Vec::new();
        let mut member_hosts = Vec::new();
        for _ in 0..config.sites {
            let site = b.site(config.site_params.clone());
            sites.push(site);
            member_hosts.push(b.hosts(site, config.receivers_per_site));
        }
        let mut world = World::new(b.build(), config.seed);
        let net_metrics = Arc::new(MetricsRegistry::default());
        world.set_trace(Tracer::to(net_metrics.clone()));

        // Source member.
        let src_cfg = SrmConfig::new(group, src_host, source, src_host);
        world.add_actor(
            src_host,
            MachineActor::new(SrmMember::new(src_cfg), vec![group]),
        );

        // Receiver members, with delay knowledge to the source.
        let mut members = Vec::new();
        for hosts in &member_hosts {
            let mut site_members = Vec::new();
            for &h in hosts {
                let mut c = SrmConfig::new(group, h, source, src_host);
                let d = world.topology().base_latency(h, src_host);
                c.delay_to.insert(src_host, d);
                c.default_delay = d;
                world.add_actor(h, MachineActor::new(SrmMember::new(c), vec![group]));
                site_members.push(h);
            }
            members.push(site_members);
        }

        SrmScenario {
            world,
            group,
            src_host,
            sites,
            members,
            net_metrics,
        }
    }

    /// Schedules a data transmission from the source member (works
    /// before or after the world has started running).
    pub fn send_at(&mut self, at: SimTime, payload: impl Into<Bytes>) {
        let payload = payload.into();
        super::adapter::call_at(
            &mut self.world,
            self.src_host,
            at,
            move |m: &mut SrmMember, now, out| {
                m.send(now, payload.clone(), out);
            },
        );
    }

    /// All member hosts except the source.
    pub fn all_members(&self) -> Vec<HostId> {
        self.members.iter().flatten().copied().collect()
    }

    /// Recovery latencies across all members.
    pub fn all_recovery_latencies(&self) -> Vec<Duration> {
        self.all_members()
            .iter()
            .flat_map(|&h| {
                self.world
                    .actor::<MachineActor<SrmMember>>(h)
                    .notices
                    .iter()
                    .filter_map(|(_, n)| match n {
                        Notice::Recovered { after, .. } => Some(*after),
                        _ => None,
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dis_scenario_builds_and_disseminates() {
        let mut sc = DisScenario::build(DisScenarioConfig {
            sites: 4,
            receivers_per_site: 3,
            ..DisScenarioConfig::default()
        });
        sc.send_at(SimTime::from_secs(1), "bridge destroyed");
        sc.world.run_until(SimTime::from_secs(5));
        for rx in sc.all_receivers() {
            assert_eq!(sc.delivered(rx), vec![1], "receiver {rx}");
        }
        assert_eq!(sc.completeness(&[1]), 1.0);
        // Primary logged it and the source buffer drained.
        let p = sc.world.actor::<MachineActor<Logger>>(sc.plan.primary);
        assert!(p.machine().has(lbrm_wire::Seq(1)));
        let s = sc.world.actor::<MachineActor<Sender>>(sc.plan.src_host);
        assert_eq!(s.machine().buffered(), 0);
    }

    #[test]
    fn srm_scenario_builds_and_disseminates() {
        let mut sc = SrmScenario::build(SrmScenarioConfig {
            sites: 3,
            receivers_per_site: 2,
            ..SrmScenarioConfig::default()
        });
        sc.send_at(SimTime::from_secs(1), "update");
        sc.world.run_until(SimTime::from_secs(3));
        for m in sc.all_members() {
            let a = sc.world.actor::<MachineActor<SrmMember>>(m);
            assert_eq!(a.deliveries.len(), 1);
        }
    }

    #[test]
    fn centralized_variant_has_no_secondaries() {
        let sc = DisScenario::build(DisScenarioConfig {
            sites: 2,
            receivers_per_site: 2,
            secondary_loggers: false,
            ..DisScenarioConfig::default()
        });
        assert!(sc.plan.secondaries.is_empty());
    }
}
