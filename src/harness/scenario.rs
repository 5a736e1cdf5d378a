//! Ready-made experiment scenarios.
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

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use lbrm_core::baseline::srm::{SrmConfig, SrmMember};
use lbrm_core::heartbeat::HeartbeatConfig;
use lbrm_core::logger::{Logger, LoggerConfig};
use lbrm_core::logstore::Retention;
use lbrm_core::machine::Notice;
use lbrm_core::receiver::{Receiver, ReceiverConfig, ReliabilityMode};
use lbrm_core::sender::{HeartbeatScheme, Sender, SenderConfig};
use lbrm_core::statack::StatAckConfig;
use lbrm_core::trace::{FanoutSink, MetricsRegistry, TraceSink, Tracer};
use lbrm_sim::loss::LossModel;
use lbrm_sim::time::SimTime;
use lbrm_sim::topology::{SiteParams, TopologyBuilder};
use lbrm_sim::world::World;
use lbrm_wire::{GroupId, HostId, SiteId, SourceId};

use super::adapter::MachineActor;

/// Configuration for [`DisScenario`].
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
    /// Heartbeat parameters.
    pub heartbeat: HeartbeatConfig,
    /// Variable (LBRM) or fixed (baseline) heartbeats.
    pub scheme: HeartbeatScheme,
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
    /// Log retention at all loggers.
    pub retention: Retention,
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
            heartbeat: HeartbeatConfig::default(),
            scheme: HeartbeatScheme::Variable,
            mode: ReliabilityMode::RecoverAll,
            receiver_nack_delay: Duration::from_millis(30),
            // Paper's RTT picture: local logger a few ms away, primary
            // ~80 ms RTT away.
            site_params: SiteParams::distant(),
            site_params_for: None,
            source_site_params: SiteParams::distant(),
            wan_loss: LossModel::None,
            retention: Retention::All,
            seed: 1995,
        }
    }
}

/// A built DIS evaluation world.
pub struct DisScenario {
    /// The simulation.
    pub world: World,
    /// The multicast group.
    pub group: GroupId,
    /// The data source id.
    pub source: SourceId,
    /// The sender's host.
    pub src_host: HostId,
    /// The primary logging server's host.
    pub primary: HostId,
    /// Replica hosts.
    pub replicas: Vec<HostId>,
    /// Receiver sites.
    pub sites: Vec<SiteId>,
    /// Per-site secondary logger (empty when centralized).
    pub secondaries: Vec<HostId>,
    /// Regional loggers (empty for the two-level hierarchy).
    pub regionals: Vec<HostId>,
    /// Per-site receivers.
    pub receivers: Vec<Vec<HostId>>,
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
        let src_host = b.host(source_site);
        let primary = b.host(source_site);
        let replicas: Vec<HostId> = (0..config.replicas).map(|_| b.host(source_site)).collect();

        let mut sites = Vec::new();
        let mut secondaries = Vec::new();
        let mut receivers = Vec::new();
        let mut site_hosts = Vec::new();
        let mut regional_hosts: Vec<HostId> = Vec::new();
        for i in 0..config.sites {
            let mut params = match &config.site_params_for {
                Some(f) => f(i),
                None => config.site_params.clone(),
            };
            if let Some(fanout) = config.regional_fanout {
                params.region = (i / fanout.max(1)) as u32 + 1;
            }
            let site = b.site(params);
            sites.push(site);
            // A regional logger lives at the first site of each region.
            if let Some(fanout) = config.regional_fanout {
                if i % fanout.max(1) == 0 && config.secondary_loggers {
                    regional_hosts.push(b.host(site));
                }
            }
            let sec = if config.secondary_loggers {
                Some(b.host(site))
            } else {
                None
            };
            let rxs = b.hosts(site, config.receivers_per_site);
            site_hosts.push((sec, rxs));
        }
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

        // Primary logger (+ replicas).
        let mut primary_cfg = LoggerConfig::primary(Self::GROUP, Self::SOURCE, primary, src_host);
        primary_cfg.retention = config.retention;
        primary_cfg.replicas = replicas.clone();
        let mut primary_logger = Logger::new(primary_cfg);
        primary_logger.set_tracer(Tracer::to(primary_sink.clone()));
        world.add_actor(
            primary,
            MachineActor::new(primary_logger, vec![Self::GROUP]),
        );
        for &r in &replicas {
            let mut c = LoggerConfig::replica(Self::GROUP, Self::SOURCE, r, primary, src_host);
            c.retention = config.retention;
            c.replicas = replicas.iter().copied().filter(|&x| x != r).collect();
            let mut lg = Logger::new(c);
            lg.set_tracer(Tracer::to(primary_sink.clone()));
            world.add_actor(r, MachineActor::new(lg, vec![]));
        }

        // Regional loggers (three-level hierarchy, §7): parent = primary.
        // Their requesters are child loggers at other sites, so the
        // site-scoped re-multicast shortcut must stay off.
        for &reg in &regional_hosts {
            let mut c = LoggerConfig::secondary(Self::GROUP, Self::SOURCE, reg, primary, src_host);
            c.retention = config.retention;
            c.level = 1;
            c.site_remulticast = false;
            let mut lg = Logger::new(c);
            lg.set_tracer(Tracer::to(secondary_sink.clone()));
            world.add_actor(reg, MachineActor::new(lg, vec![Self::GROUP]));
        }

        // Sites.
        for (site_idx, (sec, rxs)) in site_hosts.iter().enumerate() {
            if let Some(sec) = sec {
                // Site secondaries fetch from their regional logger when
                // one exists, else straight from the primary.
                let parent = match config.regional_fanout {
                    Some(fanout) => regional_hosts[site_idx / fanout.max(1)],
                    None => primary,
                };
                let mut c =
                    LoggerConfig::secondary(Self::GROUP, Self::SOURCE, *sec, parent, src_host);
                c.retention = config.retention;
                c.level = if config.regional_fanout.is_some() {
                    2
                } else {
                    1
                };
                let mut lg = Logger::new(c);
                lg.set_tracer(Tracer::to(secondary_sink.clone()));
                world.add_actor(*sec, MachineActor::new(lg, vec![Self::GROUP]));
                secondaries.push(*sec);
            }
            let mut site_rxs = Vec::new();
            for &rx in rxs {
                let targets = match sec {
                    Some(s) => vec![*s, primary],
                    None => vec![primary],
                };
                let mut c = ReceiverConfig::new(Self::GROUP, Self::SOURCE, rx, src_host, targets);
                c.mode = config.mode;
                c.nack_delay = config.receiver_nack_delay;
                let mut machine = Receiver::new(c);
                machine.set_tracer(Tracer::to(receiver_sink.clone()));
                world.add_actor(rx, MachineActor::new(machine, vec![Self::GROUP]));
                site_rxs.push(rx);
            }
            receivers.push(site_rxs);
        }

        // Sender last, so its startup Acker Selection reaches secondaries
        // that have already joined the group.
        let mut sender_cfg = SenderConfig::new(Self::GROUP, Self::SOURCE, src_host, primary);
        sender_cfg.heartbeat = config.heartbeat;
        sender_cfg.scheme = config.scheme;
        sender_cfg.statack = config.statack.clone();
        sender_cfg.replicas = replicas.clone();
        sender_cfg.require_replica_ack = !replicas.is_empty();
        let mut sender = Sender::new(sender_cfg);
        sender.set_tracer(Tracer::to(sender_sink.clone()));
        world.add_actor(src_host, MachineActor::new(sender, vec![]));

        DisScenario {
            world,
            group: Self::GROUP,
            source: Self::SOURCE,
            src_host,
            primary,
            replicas,
            sites,
            secondaries,
            regionals: regional_hosts,
            receivers,
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
            self.src_host,
            at,
            move |s: &mut Sender, now, out| {
                s.send(now, payload.clone(), out);
            },
        );
    }

    /// Every receiver host, flattened.
    pub fn all_receivers(&self) -> Vec<HostId> {
        self.receivers.iter().flatten().copied().collect()
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
    /// Session message interval.
    pub session_interval: Duration,
    /// Receiver-site parameters.
    pub site_params: SiteParams,
    /// Source-site parameters.
    pub source_site_params: SiteParams,
    /// Backbone loss.
    pub wan_loss: LossModel,
    /// World seed.
    pub seed: u64,
}

impl Default for SrmScenarioConfig {
    fn default() -> Self {
        SrmScenarioConfig {
            sites: 50,
            receivers_per_site: 20,
            session_interval: Duration::from_millis(250),
            site_params: SiteParams::distant(),
            source_site_params: SiteParams::distant(),
            wan_loss: LossModel::None,
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
        let source_site = b.site(config.source_site_params.clone());
        let src_host = b.host(source_site);
        let mut sites = Vec::new();
        let mut member_hosts = Vec::new();
        for _ in 0..config.sites {
            let site = b.site(config.site_params.clone());
            sites.push(site);
            member_hosts.push(b.hosts(site, config.receivers_per_site));
        }
        b.wan_loss(config.wan_loss.clone());
        let mut world = World::new(b.build(), config.seed);
        let net_metrics = Arc::new(MetricsRegistry::default());
        world.set_trace(Tracer::to(net_metrics.clone()));

        // Source member.
        let mut src_cfg = SrmConfig::new(group, src_host, source, src_host);
        src_cfg.session_interval = config.session_interval;
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
                c.session_interval = config.session_interval;
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
        let p = sc.world.actor::<MachineActor<Logger>>(sc.primary);
        assert!(p.machine().has(lbrm_wire::Seq(1)));
        let s = sc.world.actor::<MachineActor<Sender>>(sc.src_host);
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
        assert!(sc.secondaries.is_empty());
    }
}
