//! Live doctor scenario: real UDP endpoints with a sidecar attached.
//!
//! This is the workload behind `trace_doctor --live`: a sender, a
//! primary logger, and N receivers run as real endpoint threads (UDP
//! multicast on loopback when the environment allows it, the in-process
//! [`Hub`] otherwise), with every receiver's transport wrapped in a
//! seeded [`LossyTransport`] so NACK recovery actually happens. All
//! machines trace into one [`FanoutSink`] feeding the
//! [`DoctorSidecar`]'s non-blocking sink, a [`MetricsRegistry`], and an
//! optional capture — and an optional [`AdminServer`] answers HTTP on
//! the side while the traffic flows.

use std::net::{Ipv4Addr, SocketAddr};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lbrm::net::{Endpoint, EndpointEvent, GroupMap, Hub, LossyTransport, Transport, UdpTransport};
use lbrm_core::logger::{Logger, LoggerConfig};
use lbrm_core::receiver::{Receiver, ReceiverConfig};
use lbrm_core::sender::{Sender, SenderConfig};
use lbrm_core::trace::doctor::{DoctorFinish, DoctorHandle};
use lbrm_core::trace::{
    AdminServer, DoctorConfig, DoctorSidecar, FanoutSink, MetricsRegistry, TraceSink, Tracer,
};
use lbrm_wire::{GroupId, HostId, SourceId};

const GROUP: GroupId = GroupId(9);
const SRC: SourceId = SourceId(1);

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
    /// UDP group port (each concurrent run needs its own).
    pub port: u16,
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
            port: 49_501,
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
    let origin = Instant::now();
    let mut during = Some(during);
    let mut induced: Vec<Arc<AtomicU64>> = Vec::new();

    let mut transport = "hub";
    let mut stats = None;
    if !opts.use_hub {
        if let Some((s, l, rs)) = bind_udp(&opts, &registry, &mut induced) {
            transport = "udp";
            stats = Some(drive(s, l, rs, &tracer, origin, &opts, || {
                if let Some(f) = during.take() {
                    f(&air);
                }
            }));
        } else {
            eprintln!("live doctor: UDP multicast unavailable, using in-process hub");
        }
    }
    let stats = match stats {
        Some(s) => s,
        None => {
            induced.clear();
            let hub = Hub::new();
            let sender_t = hub.attach(HostId(1));
            let logger_t = hub.attach(HostId(2));
            let rxs: Vec<_> = (0..opts.receivers)
                .map(|i| {
                    let lossy = LossyTransport::new(
                        hub.attach(HostId(3 + i as u64)),
                        opts.loss,
                        rx_seed(opts.seed, i),
                    );
                    induced.push(lossy.shared_dropped());
                    lossy
                })
                .collect();
            drive(sender_t, logger_t, rxs, &tracer, origin, &opts, || {
                if let Some(f) = during.take() {
                    f(&air);
                }
            })
        }
    };

    let finish = sidecar.finish();
    Ok(LiveOutcome {
        finish,
        delivered: stats.delivered,
        recovered: stats.recovered,
        induced_drops: induced.iter().map(|c| c.load(Ordering::Relaxed)).sum(),
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

/// Binds all UDP transports, probing that multicast join actually works
/// here; attaches each endpoint's receive *and* send rows to `registry`,
/// so `/stats` exposes the live datagrams-vs-packets ratio (the bundling
/// savings) per endpoint. `None` means "this environment can't do it —
/// use the hub".
fn bind_udp(
    opts: &LiveOptions,
    registry: &MetricsRegistry,
    induced: &mut Vec<Arc<AtomicU64>>,
) -> Option<(
    UdpTransport,
    UdpTransport,
    Vec<LossyTransport<UdpTransport>>,
)> {
    let bind = || UdpTransport::bind(Ipv4Addr::LOCALHOST, GroupMap::new(opts.port)).ok();
    let probe = |t: &mut UdpTransport| t.join(GROUP).is_ok();

    let sender_t = bind()?;
    let mut logger_t = bind()?;
    if !probe(&mut logger_t) {
        return None;
    }
    sender_t.attach_gauges(registry);
    logger_t.attach_gauges(registry);
    let mut rxs = Vec::with_capacity(opts.receivers);
    for i in 0..opts.receivers {
        let t = bind()?;
        t.attach_gauges(registry);
        let lossy = LossyTransport::new(t, opts.loss, rx_seed(opts.seed, i));
        induced.push(lossy.shared_dropped());
        rxs.push(lossy);
    }
    Some((sender_t, logger_t, rxs))
}

/// Spawns the endpoints, publishes the traffic, and shuts everything
/// down cleanly; transport-agnostic.
fn drive<S: Transport, L: Transport, R: Transport>(
    sender_t: S,
    logger_t: L,
    rx_ts: Vec<R>,
    tracer: &Tracer,
    origin: Instant,
    opts: &LiveOptions,
    during: impl FnOnce(),
) -> DriveStats {
    let src_host = sender_t.local_host();
    let log_host = logger_t.local_host();
    let mut endpoints = Vec::new();

    let (mut ep, sender) = Endpoint::new(
        Sender::new(SenderConfig::new(GROUP, SRC, src_host, log_host)),
        sender_t,
        vec![],
    );
    ep.set_tracer(tracer.clone());
    ep.set_origin(origin);
    endpoints.push(ep.spawn());

    let (mut ep, logger) = Endpoint::new(
        Logger::new(LoggerConfig::primary(GROUP, SRC, log_host, src_host)),
        logger_t,
        vec![GROUP],
    );
    ep.set_tracer(tracer.clone());
    ep.set_origin(origin);
    endpoints.push(ep.spawn());

    let delivered = Arc::new(AtomicU64::new(0));
    let recovered = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let mut collectors = Vec::new();
    for rx_t in rx_ts {
        let rx_host = rx_t.local_host();
        let (mut ep, mut handle) = Endpoint::new(
            Receiver::new(ReceiverConfig::new(
                GROUP,
                SRC,
                rx_host,
                src_host,
                vec![log_host],
            )),
            rx_t,
            vec![GROUP],
        );
        ep.set_tracer(tracer.clone());
        ep.set_origin(origin);
        endpoints.push(ep.spawn());
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
        let _ = sender.call(move |s: &mut Sender, now, out| s.send(now, payload, out));
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
    drop(sender);
    drop(logger);
    for ep in endpoints {
        let _ = ep.join();
    }
    DriveStats {
        delivered: delivered.load(Ordering::Relaxed),
        recovered: recovered.load(Ordering::Relaxed),
    }
}
