//! Live doctor scenario: real UDP endpoints with a sidecar attached.
//!
//! This is the workload behind `trace_doctor --live`: a sender, a
//! primary logger, and N receivers, placed by one centralized
//! [`GroupPlan`], run as real endpoint threads (UDP
//! multicast on loopback when the environment allows it, the in-process
//! [`Hub`] otherwise), with every receiver's transport wrapped in a
//! seeded [`LossyTransport`] so NACK recovery actually happens. All
//! machines trace into one [`FanoutSink`] feeding the
//! [`DoctorSidecar`]'s non-blocking sink, a [`MetricsRegistry`], and an
//! optional capture — and an optional [`AdminServer`] answers HTTP on
//! the side while the traffic flows.

use std::collections::BTreeMap;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lbrm::harness::{DisScenario, DisScenarioConfig, GroupPlan, Role};
use lbrm::net::{EndpointEvent, GroupMap, Hub, LossyTransport, Transport, UdpTransport};
use lbrm_core::sender::Sender;
use lbrm_core::trace::doctor::{DoctorFinish, DoctorHandle};
use lbrm_core::trace::{
    AdminServer, DoctorConfig, DoctorSidecar, FanoutSink, MetricsRegistry, TraceSink, Tracer,
};
use lbrm_wire::HostId;

/// Tunables for one live run.
pub struct LiveOptions {
    /// Receiver endpoints (each behind its own lossy wrapper).
    pub receivers: usize,
    /// Data packets to publish.
    pub packets: u64,
    /// Per-receiver induced data-loss rate.
    pub loss: f64,
    /// Seed for the loss processes (receiver i derives its own stream).
    pub seed: u64,
    /// Gap between publishes.
    pub spacing: Duration,
    /// How long to wait for stragglers after the last publish.
    pub settle: Duration,
    /// Force the in-process hub even if UDP multicast would work.
    pub use_hub: bool,
    /// Bind the HTTP admin surface here (e.g. `"127.0.0.1:0"`).
    pub admin_addr: Option<String>,
    /// Extra sink fanned in serially (e.g. a `JsonLinesSink` capture).
    pub capture: Option<Arc<dyn TraceSink>>,
    /// Sidecar tuning.
    pub doctor: DoctorConfig,
}

impl Default for LiveOptions {
    fn default() -> Self {
        LiveOptions {
            receivers: 3,
            packets: 40,
            loss: 0.15,
            seed: 42,
            spacing: Duration::from_millis(25),
            settle: Duration::from_secs(5),
            use_hub: false,
            admin_addr: None,
            capture: None,
            doctor: DoctorConfig::default(),
        }
    }
}

/// What the in-flight callback gets to see.
pub struct LiveAir {
    /// Query surface of the running sidecar.
    pub doctor: DoctorHandle,
    /// Where the admin server actually bound (when requested).
    pub admin_addr: Option<SocketAddr>,
}

/// The completed run.
pub struct LiveOutcome {
    /// Final report, record count and drop accounting from the sidecar.
    pub finish: DoctorFinish,
    /// Packets the receivers' applications saw (recoveries included).
    pub delivered: u64,
    /// Of those, how many arrived via recovery.
    pub recovered: u64,
    /// Data packets the lossy wrappers discarded.
    pub induced_drops: u64,
    /// Which transport actually ran: `"udp"` or `"hub"`.
    pub transport: &'static str,
    /// The registry the scenario's gauges and counters landed in.
    pub registry: Arc<MetricsRegistry>,
    /// Still-running admin server (drop it to stop serving); callers
    /// may keep it alive to serve the final snapshot after the run.
    pub admin: Option<AdminServer>,
}

struct DriveStats {
    delivered: u64,
    recovered: u64,
    induced_drops: u64,
}

/// Runs the scenario, invoking `during` once while traffic is in
/// flight (after the last publish, before shutdown). Prefers real UDP
/// multicast on loopback and falls back to the in-process hub when the
/// environment forbids it (bind or join failure), so the harness runs
/// everywhere.
///
/// # Errors
///
/// Only admin-surface bind failures are fatal; transport trouble falls
/// back to the hub.
pub fn run_live(opts: LiveOptions, during: impl FnOnce(&LiveAir)) -> std::io::Result<LiveOutcome> {
    let sidecar = DoctorSidecar::spawn(opts.doctor.clone());
    let registry = Arc::new(MetricsRegistry::default());
    sidecar.register_registry("live", Arc::clone(&registry));

    let mut sinks: Vec<Arc<dyn TraceSink>> = vec![
        sidecar.sink() as Arc<dyn TraceSink>,
        Arc::clone(&registry) as Arc<dyn TraceSink>,
    ];
    if let Some(c) = &opts.capture {
        sinks.push(Arc::clone(c));
    }
    // One record at a time: capture order and doctor arrival order stay
    // identical even with endpoint threads tracing concurrently.
    let tracer = Tracer::to(Arc::new(FanoutSink::new(sinks)));

    let admin = match &opts.admin_addr {
        Some(a) => Some(AdminServer::bind(a.as_str(), sidecar.handle())?),
        None => None,
    };
    let air = LiveAir {
        doctor: sidecar.handle(),
        admin_addr: admin.as_ref().map(AdminServer::local_addr),
    };
    let during = || during(&air);

    // The group: one sender, one primary logger, `receivers` receivers.
    let config = DisScenarioConfig {
        sites: 1,
        receivers_per_site: opts.receivers,
        secondary_loggers: false,
        ..DisScenarioConfig::default()
    };
    // Placed once on hub ids 1, 2, ... to count its hosts; the hub run
    // keeps those ids, a UDP run re-places it on the bound sockets.
    let mut hosts = 0;
    GroupPlan::place(&config, |_| {
        hosts += 1;
        HostId(hosts)
    });
    let udp = if opts.use_hub {
        None
    } else {
        let bound = bind_udp(hosts);
        if bound.is_none() {
            eprintln!("live doctor: UDP multicast unavailable, using in-process hub");
        }
        bound
    };
    let (transport, stats) = match udp {
        Some(transports) => {
            // Every transport is bound before any row is attached, so a
            // failed bind leaves no rows behind for the hub run.
            for t in &transports {
                t.attach_gauges(&registry);
            }
            ("udp", drive(&config, transports, &tracer, &opts, during))
        }
        None => {
            let hub = Hub::new();
            let transports = (1..=hosts).map(|h| hub.attach(HostId(h))).collect();
            ("hub", drive(&config, transports, &tracer, &opts, during))
        }
    };

    let finish = sidecar.finish();
    Ok(LiveOutcome {
        finish,
        delivered: stats.delivered,
        recovered: stats.recovered,
        induced_drops: stats.induced_drops,
        transport,
        registry,
        admin,
    })
}

/// Receiver `i`'s loss stream: decorrelated from the others but fully
/// determined by the run seed.
fn rx_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Binds `count` UDP transports on a group port of the run's own,
/// probing that multicast join actually works here. `None` means "this
/// environment can't do it — use the hub".
///
/// Every endpoint joins the group port with `SO_REUSEADDR`, so two runs
/// on one port would each hear the other's stream. The port is one the
/// kernel just handed out, released again for the endpoints to share.
fn bind_udp(count: u64) -> Option<Vec<UdpTransport>> {
    let port = UdpSocket::bind((Ipv4Addr::UNSPECIFIED, 0))
        .and_then(|s| s.local_addr())
        .ok()?
        .port();
    let mut transports = (0..count)
        .map(|_| UdpTransport::bind(Ipv4Addr::LOCALHOST, GroupMap::new(port)).ok())
        .collect::<Option<Vec<_>>>()?;
    let probe = transports.first_mut()?;
    probe.join(DisScenario::GROUP).ok()?;
    probe.leave(DisScenario::GROUP).ok()?;
    Some(transports)
}

/// Places `config`'s group on the hosts of `transports`, spawns its
/// endpoints (each receiver's transport behind its own seeded lossy
/// wrapper), publishes the traffic, and shuts everything down cleanly;
/// transport-agnostic.
fn drive<T: Transport>(
    config: &DisScenarioConfig,
    transports: Vec<T>,
    tracer: &Tracer,
    opts: &LiveOptions,
    during: impl FnOnce(),
) -> DriveStats {
    let mut hosts = transports.iter().map(Transport::local_host);
    let plan = GroupPlan::place(config, |_| {
        hosts.next().expect("one transport per planned host")
    });
    let mut transports: BTreeMap<HostId, T> = transports
        .into_iter()
        .map(|t| (t.local_host(), t))
        .collect();
    let mut induced = Vec::new();
    let group = plan.spawn(
        |role| {
            let t = transports
                .remove(&role.host())
                .expect("one transport per planned host");
            // Only receivers lose data; the others' wrappers drop nothing.
            if !matches!(role, Role::Receiver(_)) {
                return LossyTransport::new(t, 0.0, 0);
            }
            let lossy = LossyTransport::new(t, opts.loss, rx_seed(opts.seed, induced.len()));
            induced.push(lossy.shared_dropped());
            lossy
        },
        |_| tracer.clone(),
        Instant::now(),
    );

    let delivered = Arc::new(AtomicU64::new(0));
    let recovered = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let mut collectors = Vec::new();
    for (_, mut handle) in group.receivers {
        let (d, r, s) = (
            Arc::clone(&delivered),
            Arc::clone(&recovered),
            Arc::clone(&stop),
        );
        // The collector owns the handle: it drains events until told to
        // stop, and dropping the handle is what shuts the endpoint down.
        collectors.push(std::thread::spawn(move || {
            while !s.load(Ordering::Relaxed) {
                if let Some(EndpointEvent::Delivery(dv)) =
                    handle.event_timeout(Duration::from_millis(25))
                {
                    d.fetch_add(1, Ordering::Relaxed);
                    if dv.recovered {
                        r.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }));
    }

    // Let endpoint threads and group joins settle before the first send.
    std::thread::sleep(Duration::from_millis(100));
    for i in 0..opts.packets {
        let payload = Bytes::from(format!("live-{i}").into_bytes());
        let _ = group
            .sender
            .call(move |s: &mut Sender, now, out| s.send(now, payload, out));
        std::thread::sleep(opts.spacing);
    }

    during();

    // Wait for stragglers: induced losses recover through the logger.
    let target = opts.packets * opts.receivers as u64;
    let deadline = Instant::now() + opts.settle;
    while delivered.load(Ordering::Relaxed) < target && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    // Grace for trailing settlement traces to be emitted.
    std::thread::sleep(Duration::from_millis(150));

    stop.store(true, Ordering::Relaxed);
    for c in collectors {
        let _ = c.join();
    }
    drop(group.sender);
    drop(group.loggers);
    for t in group.threads {
        let _ = t.join();
    }
    DriveStats {
        delivered: delivered.load(Ordering::Relaxed),
        recovered: recovered.load(Ordering::Relaxed),
        induced_drops: induced.iter().map(|c| c.load(Ordering::Relaxed)).sum(),
    }
}
