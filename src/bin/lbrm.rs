//! `lbrm` — run LBRM endpoints over real UDP multicast from the shell.
//!
//! ```text
//! lbrm logger --group 1 --interface 127.0.0.1          # primary logging server
//! lbrm send   --group 1 --primary 127.0.0.1:PORT      # read lines from stdin, publish
//! lbrm recv   --group 1 --primary 127.0.0.1:PORT      # print deliveries
//! ```
//!
//! Start the logger first; it prints the `--primary` address the other
//! roles need. The sender publishes one data packet per stdin line and
//! keeps the variable-heartbeat promise while idle; receivers recover
//! losses from the logger and report freshness transitions.

use std::net::{Ipv4Addr, SocketAddrV4};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use lbrm::core::heartbeat::HeartbeatConfig;
use lbrm::core::logger::{Logger, LoggerConfig};
use lbrm::core::receiver::{Receiver, ReceiverConfig};
use lbrm::core::sender::{Sender, SenderConfig};
use lbrm::core::trace::{
    AdminServer, DoctorConfig, DoctorSidecar, FanoutSink, MetricsRegistry, TraceSink, Tracer,
};
use lbrm::net::{addr_of, host_of, Endpoint, EndpointEvent, GroupMap, Transport, UdpTransport};
use lbrm::wire::{GroupId, SourceId};

const USAGE: &str = "\
lbrm — Log-Based Receiver-Reliable Multicast

USAGE:
    lbrm <ROLE> [OPTIONS]

ROLES:
    logger    run a primary logging server (start this first)
    send      publish one data packet per stdin line
    recv      subscribe and print deliveries

OPTIONS:
    --group <N>            multicast group id (default 1)
    --source <N>           source id (default 1)
    --port <P>             group UDP port (default 48195)
    --interface <IP>       IPv4 interface to bind (default 127.0.0.1)
    --primary <IP:PORT>    the logger's unicast address (send/recv)
    --maxit-ms <MS>        receiver freshness bound (default 250)
    --h-min-ms <MS>        heartbeat h_min (default 250)
    --h-max-s <S>          heartbeat h_max (default 32)
    --admin-addr <IP:PORT> attach the live doctor sidecar and serve its
                           HTTP admin surface here (/stats, /healthz,
                           /timelines/live, /anomalies/tail, /mem); any
                           role
";

struct Opts {
    role: String,
    group: GroupId,
    source: SourceId,
    port: u16,
    interface: Ipv4Addr,
    primary: Option<SocketAddrV4>,
    maxit: Duration,
    h_min: Duration,
    h_max: Duration,
    admin_addr: Option<String>,
}

fn parse_opts() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let role = args.next().ok_or("missing role")?;
    let mut opts = Opts {
        role,
        group: GroupId(1),
        source: SourceId(1),
        port: GroupMap::DEFAULT_PORT,
        interface: Ipv4Addr::LOCALHOST,
        primary: None,
        maxit: Duration::from_millis(250),
        h_min: Duration::from_millis(250),
        h_max: Duration::from_secs(32),
        admin_addr: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--group" => opts.group = GroupId(value()?.parse().map_err(|e| format!("{e}"))?),
            "--source" => opts.source = SourceId(value()?.parse().map_err(|e| format!("{e}"))?),
            "--port" => opts.port = value()?.parse().map_err(|e| format!("{e}"))?,
            "--interface" => opts.interface = value()?.parse().map_err(|e| format!("{e}"))?,
            "--primary" => opts.primary = Some(value()?.parse().map_err(|e| format!("{e}"))?),
            "--maxit-ms" => {
                opts.maxit = Duration::from_millis(value()?.parse().map_err(|e| format!("{e}"))?)
            }
            "--h-min-ms" => {
                opts.h_min = Duration::from_millis(value()?.parse().map_err(|e| format!("{e}"))?)
            }
            "--h-max-s" => {
                opts.h_max = Duration::from_secs(value()?.parse().map_err(|e| format!("{e}"))?)
            }
            "--admin-addr" => opts.admin_addr = Some(value()?),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    HeartbeatConfig {
        h_min: opts.h_min,
        h_max: opts.h_max,
        ..HeartbeatConfig::default()
    }
    .check()?;
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}\n");
            }
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The live doctor riding along with one role: sidecar, HTTP admin
/// surface, and the tracer the endpoint's machine should emit into.
/// Keep it alive for the process lifetime — dropping it stops both the
/// worker and the admin thread.
struct DoctorAttachment {
    _sidecar: DoctorSidecar,
    _admin: AdminServer,
    tracer: Tracer,
}

fn attach_doctor(addr: &str, transport: &UdpTransport) -> std::io::Result<DoctorAttachment> {
    let sidecar = DoctorSidecar::spawn(DoctorConfig::default());
    let registry = Arc::new(MetricsRegistry::default());
    sidecar.register_registry("udp", Arc::clone(&registry));
    transport.attach_gauges(&registry);
    let tracer = Tracer::to(Arc::new(FanoutSink::new(vec![
        sidecar.sink() as Arc<dyn TraceSink>,
        registry as Arc<dyn TraceSink>,
    ])));
    let admin = AdminServer::bind(addr, sidecar.handle())?;
    eprintln!("doctor admin surface at http://{}/", admin.local_addr());
    Ok(DoctorAttachment {
        _sidecar: sidecar,
        _admin: admin,
        tracer,
    })
}

fn run(opts: Opts) -> std::io::Result<()> {
    let map = GroupMap::new(opts.port);
    let mut transport = UdpTransport::bind(opts.interface, map)?;
    let me = transport.local_host();
    let doctor = match &opts.admin_addr {
        Some(addr) => Some(attach_doctor(addr, &transport)?),
        None => None,
    };
    match opts.role.as_str() {
        "logger" => {
            transport.join(opts.group)?;
            eprintln!(
                "logging server up at {} (pass `--primary {}` to send/recv)",
                transport.local_addr(),
                transport.local_addr()
            );
            // The logger treats the sender's unicast handoffs and the
            // multicast stream alike; the source host is learned from
            // traffic, so use a placeholder until then: the paper's
            // primary only needs the source address for fetch-back,
            // which the handoff provides implicitly via NACK replies.
            let cfg = LoggerConfig::primary(opts.group, opts.source, me, me);
            let (mut ep, mut handle) = Endpoint::new(Logger::new(cfg), transport, vec![]);
            if let Some(d) = &doctor {
                ep.set_tracer(d.tracer.clone());
            }
            ep.spawn();
            loop {
                match handle.event() {
                    Some(EndpointEvent::Notice(n)) => eprintln!("notice: {n:?}"),
                    Some(_) => {}
                    None => break,
                }
            }
            Ok(())
        }
        "send" => {
            let primary = opts.primary.ok_or_else(|| {
                std::io::Error::other("send needs --primary (run `lbrm logger` first)")
            })?;
            let mut cfg = SenderConfig::new(opts.group, opts.source, me, host_of(primary));
            cfg.heartbeat.h_min = opts.h_min;
            cfg.heartbeat.h_max = opts.h_max;
            let (mut ep, handle) = Endpoint::new(Sender::new(cfg), transport, vec![]);
            if let Some(d) = &doctor {
                ep.set_tracer(d.tracer.clone());
            }
            ep.spawn();
            eprintln!(
                "publishing to {} via logger {primary}; type lines, ^D to end",
                opts.group
            );
            // The endpoint heartbeats on its own thread while we block
            // on stdin here.
            use std::io::BufRead;
            for line in std::io::stdin().lock().lines() {
                let Ok(l) = line else { break };
                let payload = Bytes::from(l.clone());
                handle.call(move |s: &mut Sender, now, out| s.send(now, payload.clone(), out))?;
                eprintln!("sent: {l}");
            }
            // Keep heartbeating briefly so receivers confirm the tail.
            std::thread::sleep(Duration::from_secs(1));
            Ok(())
        }
        "recv" => {
            let primary = opts.primary.ok_or_else(|| {
                std::io::Error::other("recv needs --primary (run `lbrm logger` first)")
            })?;
            transport.join(opts.group)?;
            let mut cfg = ReceiverConfig::new(
                opts.group,
                opts.source,
                me,
                host_of(primary),
                vec![host_of(primary)],
            );
            cfg.maxit = opts.maxit;
            cfg.heartbeat.h_min = opts.h_min;
            cfg.heartbeat.h_max = opts.h_max;
            let (mut ep, mut handle) = Endpoint::new(Receiver::new(cfg), transport, vec![]);
            if let Some(d) = &doctor {
                ep.set_tracer(d.tracer.clone());
            }
            ep.spawn();
            eprintln!(
                "listening on {} (logger {})",
                opts.group,
                addr_of(host_of(primary))
            );
            loop {
                match handle.event() {
                    Some(EndpointEvent::Delivery(d)) => println!(
                        "#{}{}: {}",
                        d.seq.raw(),
                        if d.recovered { " (recovered)" } else { "" },
                        String::from_utf8_lossy(&d.payload)
                    ),
                    Some(EndpointEvent::Notice(n)) => eprintln!("notice: {n:?}"),
                    None => break,
                }
            }
            Ok(())
        }
        other => Err(std::io::Error::other(format!(
            "unknown role {other}\n\n{USAGE}"
        ))),
    }
}
