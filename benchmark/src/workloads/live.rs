//! `live_fresh` and `live_repair`: real endpoints over loopback UDP
//! multicast, driven open loop.
//!
//! `live_fresh` is the loss-free fast path DIS users live on: a sender,
//! a primary logger and two receivers; `net` (command pickup, send,
//! reader-thread hand-off, event channel) and `wire` dominate, and the
//! repair machinery never runs. `live_repair` adds a secondary logger
//! and drops a seeded 10 % of the data each receiver gets, so traffic
//! leaves the fast path: gap tracking, NACK, logger serve, unicast
//! return. The same layers used differently — a fast-path gain that
//! costs the repair path shows here.
//!
//! Arrivals are Poisson, not periodic: a fixed period phase-locks with
//! the endpoint's 10 ms receive tick and turns the result into a
//! per-run random constant. Latency is timed from each publish's *due*
//! time, so a stalled generator cannot hide queueing.

use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lbrm_core::logger::{Logger, LoggerConfig};
use lbrm_core::machine::{Machine, Notice};
use lbrm_core::receiver::{Receiver, ReceiverConfig};
use lbrm_core::sender::{Sender, SenderConfig};
use lbrm_net::{
    Endpoint, EndpointEvent, EndpointHandle, GroupMap, LossyTransport, Transport, UdpTransport,
};
use lbrm_wire::{GroupId, HostId, SourceId};

use super::{Bare, Plan, Probed, Snapshot, TraceSpan, Wrap};
use crate::env;
use crate::gen;
use crate::probe::{epoch, now_ns, thread_id, Recorder, Role, Stamps};
use crate::report::RunResult;
use crate::stats;

const GROUP: GroupId = GroupId(7);
const SRC: SourceId = SourceId(1);
const RECEIVERS: usize = 2;
/// Untimed packets published before the clock starts.
const WARMUP: u32 = 20;
/// A publish still undelivered this long after the last one was posted
/// counts as failed.
const DRAIN: Duration = Duration::from_secs(3);
/// The generator is "noisy" when it ran later than this at its p99.
const NOISY_LATE_US: f64 = 2000.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Fresh,
    Repair,
}

impl Variant {
    fn name(self) -> &'static str {
        match self {
            Variant::Fresh => "live_fresh",
            Variant::Repair => "live_repair",
        }
    }
    fn rate(self) -> f64 {
        match self {
            Variant::Fresh => 1000.0,
            Variant::Repair => 500.0,
        }
    }
    fn loss(self) -> f64 {
        match self {
            Variant::Fresh => 0.0,
            Variant::Repair => 0.10,
        }
    }
}

/// What a receiver's application saw, as its collector thread logged it.
#[derive(Default)]
struct Collected {
    /// (seq, arrival on the process clock, came through recovery).
    deliveries: Vec<(u32, u64, bool)>,
    /// `Notice::Recovered.after` per repaired seq, nanoseconds.
    repairs: Vec<(u32, u64)>,
    wrong_payloads: u64,
}

/// What the generator can see of a collector while it runs.
#[derive(Default)]
struct Progress {
    tid: AtomicU64,
    warm: AtomicU32,
    timed: AtomicU32,
}

/// Drains one receiver handle until told to stop. It owns the handle:
/// dropping it on exit is what shuts the endpoint down.
fn collect<M: Machine + Send + 'static>(
    mut handle: EndpointHandle<M>,
    payloads: Arc<Vec<Bytes>>,
    progress: Arc<Progress>,
    stop: Arc<AtomicBool>,
) -> JoinHandle<Collected> {
    std::thread::spawn(move || {
        progress.tid.store(thread_id(), Relaxed);
        let mut c = Collected::default();
        while !stop.load(Relaxed) {
            match handle.event_timeout(Duration::from_millis(20)) {
                Some(EndpointEvent::Delivery(d)) => {
                    let at = now_ns();
                    let seq = d.seq.raw();
                    if payloads.get(seq as usize) != Some(&d.payload) {
                        c.wrong_payloads += 1;
                    }
                    c.deliveries.push((seq, at, d.recovered));
                    let counter = if seq > WARMUP {
                        &progress.timed
                    } else {
                        &progress.warm
                    };
                    counter.fetch_add(1, Relaxed);
                }
                Some(EndpointEvent::Notice(Notice::Recovered { seq, after })) => {
                    c.repairs.push((seq.raw(), after.as_nanos() as u64));
                }
                _ => {}
            }
        }
        c
    })
}

/// The measurements of one repetition.
struct Rep {
    setup_s: f64,
    window_s: f64,
    publishes: u64,
    attempted: u64,
    failed: u64,
    /// due → app-visible delivery, fresh deliveries only, nanoseconds.
    fresh_ns: Vec<u64>,
    repair_ns: Vec<u64>,
    deliveries: u64,
    late_ns: Vec<u64>,
    traced: Option<Traced>,
}

/// What only a probed repetition yields.
#[derive(Default)]
struct Traced {
    /// cmd_pickup, tx_to_rx_machine, rx_machine_to_app.
    stages: [Vec<u64>; 3],
    stage_residual: f64,
    /// detect_to_nack_tx, nack_tx_to_logger, logger_serve, retrans_tx_to_rx.
    repair_stages: [Vec<u64>; 4],
    spans: Vec<TraceSpan>,
    /// Probe readings over the timed window, and the window's wall time
    /// summed over the endpoint threads.
    window: Option<(Snapshot, u64)>,
}

/// Sleeps, then spins, until the process clock reads `due`.
fn wait_until(due: u64) {
    loop {
        let now = now_ns();
        if now >= due {
            return;
        }
        let ahead = due - now;
        if ahead > 300_000 {
            std::thread::sleep(Duration::from_nanos(ahead - 200_000));
        } else {
            std::thread::yield_now();
        }
    }
}

/// One repetition: build the endpoints, warm up, publish `window_s`
/// seconds of Poisson arrivals, drain, tear down.
fn repetition<W: Wrap>(
    wrap: &W,
    variant: Variant,
    seed: u64,
    rep: u64,
    port: u16,
    window_s: f64,
    errors: &mut Vec<String>,
) -> Result<Rep, String> {
    let schedule = gen::poisson_schedule(seed, 0x9000 + rep, variant.rate(), window_s);
    let first_timed = WARMUP + 1;
    let last_seq = WARMUP + schedule.len() as u32;
    // Index = seq; slot 0 is never published.
    let payloads: Arc<Vec<Bytes>> = Arc::new(
        (0..=last_seq)
            .map(|seq| gen::payload(seed ^ (rep << 32), seq))
            .collect(),
    );

    let setup_start = Instant::now();
    let bind = || {
        UdpTransport::bind(Ipv4Addr::LOCALHOST, GroupMap::new(port))
            .map_err(|e| format!("UDP bind on loopback failed: {e}"))
    };
    let (sender_t, primary_t) = (bind()?, bind()?);
    let secondary_t = match variant {
        Variant::Repair => Some(bind()?),
        Variant::Fresh => None,
    };
    let rx_ts: Vec<UdpTransport> = (0..RECEIVERS).map(|_| bind()).collect::<Result<_, _>>()?;
    let (src_host, primary_host) = (sender_t.local_host(), primary_t.local_host());
    let rx_hosts: Vec<HostId> = rx_ts.iter().map(Transport::local_host).collect();
    if let Some(rec) = wrap.recorder() {
        rec.set_receiver_hosts(rx_hosts.clone());
    }

    let mut endpoints: Vec<JoinHandle<std::io::Result<()>>> = Vec::new();
    let (mut ep, sender) = Endpoint::new(
        wrap.machine(
            Sender::new(SenderConfig::new(GROUP, SRC, src_host, primary_host)),
            Role::Sender,
        ),
        wrap.transport(sender_t, Role::Sender),
        vec![],
    );
    ep.set_origin(epoch());
    endpoints.push(ep.spawn());

    // Receivers ask the nearest logger first: the secondary when there
    // is one, then the primary.
    let mut targets = vec![primary_host];
    let mut loggers = vec![(
        LoggerConfig::primary(GROUP, SRC, primary_host, src_host),
        primary_t,
    )];
    if let Some(t) = secondary_t {
        let host = t.local_host();
        targets.insert(0, host);
        loggers.push((
            LoggerConfig::secondary(GROUP, SRC, host, primary_host, src_host),
            t,
        ));
    }
    let mut logger_handles = Vec::new();
    for (cfg, t) in loggers {
        let (mut ep, handle) = Endpoint::new(
            wrap.machine(Logger::new(cfg), Role::Logger),
            wrap.transport(t, Role::Logger),
            vec![GROUP],
        );
        ep.set_origin(epoch());
        endpoints.push(ep.spawn());
        logger_handles.push(handle);
    }

    let stop = Arc::new(AtomicBool::new(false));
    let mut collectors = Vec::new();
    let mut progress = Vec::new();
    for (i, t) in rx_ts.into_iter().enumerate() {
        let mut cfg = ReceiverConfig::new(GROUP, SRC, rx_hosts[i], src_host, targets.clone());
        // With the default 30 ms the repair latency is 30 ms plus noise,
        // a constant no optimisation can move; at 0 it is the system's
        // own thread hops. Stated in the run's notes.
        cfg.nack_delay = Duration::ZERO;
        let loss_seed = seed ^ (rep << 8) ^ (i as u64 + 1);
        let lossy = LossyTransport::new(t, variant.loss(), loss_seed);
        let (mut ep, handle) = Endpoint::new(
            wrap.machine(Receiver::new(cfg), Role::Receiver(i)),
            wrap.transport(lossy, Role::Receiver(i)),
            vec![GROUP],
        );
        ep.set_origin(epoch());
        endpoints.push(ep.spawn());
        let p = Arc::new(Progress::default());
        progress.push(p.clone());
        collectors.push(collect(handle, payloads.clone(), p, stop.clone()));
    }

    let out_of_order = Arc::new(AtomicBool::new(false));
    let publish = |seq: u32| -> Result<(), String> {
        let payload = payloads[seq as usize].clone();
        let bad = out_of_order.clone();
        sender
            .call(move |m: &mut W::M<Sender>, now, out| {
                if W::publish(m, now, payload, out) != seq {
                    bad.store(true, Relaxed);
                }
            })
            .map_err(|e| format!("sender endpoint is gone: {e}"))
    };
    // Warm-up, untimed: once every receiver has delivered half of it,
    // every receiver has joined, so (late-join rule) every timed
    // sequence number is owed to every receiver.
    for seq in 1..first_timed {
        publish(seq)?;
        std::thread::sleep(Duration::from_millis(3));
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while !progress.iter().all(|p| p.warm.load(Relaxed) >= WARMUP / 2) {
        if Instant::now() > deadline {
            return Err("warm-up packets never reached every receiver".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(30));
    let setup_s = setup_start.elapsed().as_secs_f64();

    // Timed window.
    let mut bench_tids = vec![thread_id()];
    bench_tids.extend(progress.iter().map(|p| p.tid.load(Relaxed)));
    let snap_start = wrap.recorder().map(|rec| Snapshot::take(rec, &bench_tids));
    let t0 = now_ns() + 2_000_000;
    let mut late_ns = Vec::with_capacity(schedule.len());
    let mut posted = Vec::with_capacity(schedule.len());
    for (i, off) in schedule.iter().enumerate() {
        let due = t0 + off;
        wait_until(due);
        publish(first_timed + i as u32)?;
        let at = now_ns();
        posted.push(at);
        late_ns.push(at - due);
    }
    // Drain: every receiver owes every timed sequence number.
    let drain_until = Instant::now() + DRAIN;
    let owed = schedule.len() as u32;
    while !progress.iter().all(|p| p.timed.load(Relaxed) >= owed) && Instant::now() < drain_until {
        std::thread::sleep(Duration::from_millis(2));
    }
    let window_end = now_ns();
    let snap = wrap
        .recorder()
        .zip(snap_start)
        .map(|(rec, start)| Snapshot::take(rec, &bench_tids).since(start));

    // Let trailing notices reach the collectors, then tear down: the
    // collectors own the receiver handles, so stopping them closes the
    // receiver endpoints; dropping the other handles closes the rest.
    std::thread::sleep(Duration::from_millis(20));
    stop.store(true, Relaxed);
    let collected: Vec<Collected> = collectors
        .into_iter()
        .map(|c| {
            c.join()
                .map_err(|_| "collector thread panicked".to_string())
        })
        .collect::<Result<_, _>>()?;
    drop(sender);
    drop(logger_handles);
    for ep in endpoints {
        match ep.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => errors.push(format!("endpoint failed: {e}")),
            Err(_) => errors.push("endpoint thread panicked".into()),
        }
    }
    std::thread::sleep(super::READER_EXIT);
    if out_of_order.load(Relaxed) {
        errors.push(
            "the sender used a sequence number other than the one the generator expected".into(),
        );
    }

    // Oracle and samples.
    let due_of = |seq: u32| t0 + schedule[(seq - first_timed) as usize];
    let mut out = Rep {
        setup_s,
        window_s,
        publishes: schedule.len() as u64,
        attempted: 0,
        failed: 0,
        fresh_ns: Vec::new(),
        repair_ns: Vec::new(),
        deliveries: 0,
        late_ns,
        traced: None,
    };
    let mut app_at: Vec<Vec<u64>> = Vec::new();
    for (r, c) in collected.iter().enumerate() {
        let mut at = vec![0u64; last_seq as usize + 1];
        for (seq, t, recovered) in &c.deliveries {
            if *seq == 0 || *seq > last_seq {
                errors.push(format!("receiver {r} delivered unpublished seq {seq}"));
                continue;
            }
            if std::mem::replace(&mut at[*seq as usize], *t) != 0 {
                errors.push(format!("receiver {r} delivered seq {seq} twice"));
            }
            if *seq >= first_timed {
                out.deliveries += 1;
                if !recovered {
                    out.fresh_ns.push(t.saturating_sub(due_of(*seq)));
                }
            }
        }
        let missing = (first_timed..=last_seq)
            .filter(|s| at[*s as usize] == 0)
            .count() as u64;
        out.attempted += u64::from(owed);
        out.failed += missing + c.wrong_payloads;
        if c.wrong_payloads > 0 {
            errors.push(format!(
                "receiver {r}: {} payloads differ from what was published",
                c.wrong_payloads
            ));
        }
        if missing > 0 {
            errors.push(format!(
                "receiver {r} never delivered {missing} of the timed packets"
            ));
        }
        out.repair_ns.extend(
            c.repairs
                .iter()
                .filter(|(seq, _)| *seq >= first_timed)
                .map(|(_, after)| *after),
        );
        app_at.push(at);
    }

    if let (Some(rec), Some(window)) = (wrap.recorder(), snap) {
        let endpoint_wall_ns = (window_end - t0) * rec.endpoint_tids().len() as u64;
        let mut t = stage_budget(rec, first_timed..=last_seq, &due_of, &posted, &app_at);
        t.window = Some((window, endpoint_wall_ns));
        out.traced = Some(t);
    }
    Ok(out)
}

/// Joins the stamps of one probed repetition per sequence number into
/// stage samples. The publish stages share one clock and one id, so
/// their per-publish sum *is* the end-to-end sample.
fn stage_budget(
    rec: &Recorder,
    timed: std::ops::RangeInclusive<u32>,
    due_of: &dyn Fn(u32) -> u64,
    posted: &[u64],
    app_at: &[Vec<u64>],
) -> Traced {
    let mut t = Traced::default();
    let st = &rec.stamps;
    let first = *timed.start();
    let mut uid = 1u64 << 40;
    let (mut sum_e2e, mut sum_stages) = (0u128, 0u128);
    for seq in timed {
        let (due, posted) = (due_of(seq), posted[(seq - first) as usize]);
        let Some(cmd) = Stamps::get(&st.cmd, seq as usize) else {
            continue;
        };
        for (r, app) in app_at.iter().enumerate() {
            let app = app[seq as usize];
            let slot = st.at(r, seq);
            if let (Some(rx), true) = (Stamps::get(&st.rx_machine, slot), app != 0) {
                // Fresh path: due → posted → cmd → receiver machine → app.
                if Stamps::get(&st.rx_retrans, slot).is_none()
                    && cmd >= posted
                    && rx >= cmd
                    && app >= rx
                {
                    let stages = [cmd - posted, rx - cmd, app - rx];
                    for (v, s) in t.stages.iter_mut().zip(stages) {
                        v.push(s);
                    }
                    sum_e2e += u128::from(app - due);
                    sum_stages += u128::from(posted - due)
                        + stages.iter().map(|s| u128::from(*s)).sum::<u128>();
                    let names = [
                        "gen_late",
                        "cmd_pickup",
                        "tx_to_rx_machine",
                        "rx_machine_to_app",
                    ];
                    let edges = [due, posted, cmd, rx, app];
                    let mut parent = 0;
                    for (i, name) in names.iter().enumerate() {
                        uid += 1;
                        t.spans.push(TraceSpan {
                            layer: if i == 0 { "bench" } else { "net" },
                            name,
                            uid,
                            parent,
                            id: u64::from(seq),
                            start_ns: edges[i],
                            end_ns: edges[i + 1],
                        });
                        parent = uid;
                    }
                }
            }
            // Repair path: detect → NACK out → logger in → Retrans out → receiver.
            let edges = [
                Stamps::get(&st.detect, slot),
                Stamps::get(&st.nack_tx, slot),
                Stamps::get(&st.logger_rx, slot),
                Stamps::get(&st.retrans_tx, slot),
                Stamps::get(&st.rx_retrans, slot),
            ];
            if let [Some(a), Some(b), Some(c), Some(d), Some(e)] = edges {
                if a <= b && b <= c && c <= d && d <= e {
                    let names = [
                        "detect_to_nack_tx",
                        "nack_tx_to_logger",
                        "logger_serve",
                        "retrans_tx_to_rx",
                    ];
                    let edges = [a, b, c, d, e];
                    let mut parent = 0;
                    for (i, name) in names.iter().enumerate() {
                        t.repair_stages[i].push(edges[i + 1] - edges[i]);
                        uid += 1;
                        t.spans.push(TraceSpan {
                            layer: "net",
                            name,
                            uid,
                            parent,
                            id: u64::from(seq),
                            start_ns: edges[i],
                            end_ns: edges[i + 1],
                        });
                        parent = uid;
                    }
                }
            }
        }
    }
    // Means telescope exactly; this is the check that they do.
    t.stage_residual = if sum_e2e == 0 {
        0.0
    } else {
        (sum_e2e as f64 - sum_stages as f64).abs() / sum_e2e as f64
    };
    t
}

fn p50_us(ns: &[u64]) -> f64 {
    let mut v = ns.to_vec();
    stats::latency_of(&mut v, 50.0).p50_us
}

pub fn run(plan: &Plan, variant: Variant) -> Result<RunResult, String> {
    let mut result = plan.result(variant.name());
    env::multicast_probe(plan.port_base)?;
    result.notes.push(format!(
        "transport=udp-loopback open loop, Poisson {} publishes/s, {RECEIVERS} receivers, induced receive loss {}, nack_delay=0, {} B payload",
        variant.rate(),
        variant.loss(),
        gen::PAYLOAD_LEN
    ));

    // Untraced: eight repetitions (four when half the budget goes to
    // the probed repetition).
    let (reps, window_s) = if plan.traced {
        (4, plan.seconds / 8.0)
    } else {
        (8, plan.seconds / 8.0)
    };
    let mut port = plan.port_base + 1;
    let mut next_port = || {
        port += 1;
        port
    };
    let mut done: Vec<Rep> = Vec::new();
    let mut noisy = 0;
    // Warm-up repetition, discarded: first-use costs of the process
    // (thread stacks, socket buffers, the allocator) land here.
    repetition(
        &Bare,
        variant,
        plan.seed,
        99,
        next_port(),
        0.3,
        &mut Vec::new(),
    )?;
    for rep in 0..reps {
        let mut errors = Vec::new();
        let mut r = repetition(
            &Bare,
            variant,
            plan.seed,
            rep,
            next_port(),
            window_s,
            &mut errors,
        )?;
        let mut late = r.late_ns.clone();
        if stats::latency_of(&mut late, 99.0).tail_us > NOISY_LATE_US && errors.is_empty() {
            // The generator itself was descheduled: re-run once.
            noisy += 1;
            r = repetition(
                &Bare,
                variant,
                plan.seed,
                rep + 100,
                next_port(),
                window_s,
                &mut errors,
            )?;
        }
        result.errors.append(&mut errors);
        done.push(r);
    }

    let mut fresh_p50 = Vec::new();
    let mut fresh_p99 = Vec::new();
    let mut repair_p50 = Vec::new();
    let mut repair_p99 = Vec::new();
    let mut late_p99 = Vec::new();
    let (mut samples, mut repairs) = (0, 0);
    let mut tail_p = 99.0;
    for r in &mut done {
        let l = stats::latency_of(&mut r.fresh_ns, 99.0);
        fresh_p50.push(l.p50_us);
        fresh_p99.push(l.tail_us);
        samples += l.n;
        if variant == Variant::Repair {
            let l = stats::latency_of(&mut r.repair_ns, 99.0);
            repair_p50.push(l.p50_us);
            repair_p99.push(l.tail_us);
            repairs += l.n;
            tail_p = l.tail_p;
        }
        late_p99.push(stats::latency_of(&mut r.late_ns, 99.0).tail_us);
        result.attempted += r.attempted;
        result.failed += r.failed;
    }
    let per_s: Vec<f64> = done
        .iter()
        .map(|r| r.deliveries as f64 / r.window_s)
        .collect();
    let setup: Vec<f64> = done.iter().map(|r| r.setup_s).collect();
    let m = &mut result.metrics;
    m.put("publish_deliver_p50_us", &fresh_p50);
    m.put("publish_deliver_p99_us", &fresh_p99);
    match variant {
        Variant::Fresh => m.put("latency_p50_us", &fresh_p50),
        Variant::Repair => {
            m.put("latency_p50_us", &repair_p50);
            m.put("repair_p50_us", &repair_p50);
            m.put("repair_p99_us", &repair_p99);
        }
    }
    m.put("throughput_per_s", &per_s);
    m.put("setup_s", &setup);
    m.put("bench.gen_late_p99_us", &late_p99);
    result.notes.push(format!(
        "{} repetitions x {window_s:.2}s; {samples} fresh deliveries, {repairs} repairs (tail p{tail_p}); {noisy} noisy repetitions re-run",
        done.len()
    ));

    if plan.traced {
        let rec = Recorder::new(
            plan.span_cap,
            4096,
            RECEIVERS,
            (plan.seconds * variant.rate()) as usize + 4096,
        );
        let mut errors = Vec::new();
        let mut r = repetition(
            &Probed(rec.clone()),
            variant,
            plan.seed,
            50,
            next_port(),
            plan.seconds * 0.5,
            &mut errors,
        )?;
        result.errors.append(&mut errors);
        result.attempted += r.attempted;
        result.failed += r.failed;
        let t = r.traced.take().expect("probed repetition");
        if t.stage_residual > 0.02 {
            result.errors.push(format!(
                "publish stages do not add up to the end-to-end samples (residual {})",
                t.stage_residual
            ));
        }
        let traced_p50 = stats::latency_of(
            if variant == Variant::Repair {
                &mut r.repair_ns
            } else {
                &mut r.fresh_ns
            },
            50.0,
        )
        .p50_us;
        let m = &mut result.metrics;
        m.put_one("net.stage.cmd_pickup_us_p50", p50_us(&t.stages[0]));
        m.put_one("net.stage.tx_to_rx_machine_us_p50", p50_us(&t.stages[1]));
        m.put_one("net.stage.rx_machine_to_app_us_p50", p50_us(&t.stages[2]));
        m.put_one("bench.stage_residual_ratio", t.stage_residual);
        if variant == Variant::Repair {
            m.put_one(
                "net.repair.detect_to_nack_tx_us_p50",
                p50_us(&t.repair_stages[0]),
            );
            m.put_one(
                "net.repair.nack_tx_to_logger_us_p50",
                p50_us(&t.repair_stages[1]),
            );
            m.put_one(
                "net.repair.logger_serve_us_p50",
                p50_us(&t.repair_stages[2]),
            );
            m.put_one(
                "net.repair.retrans_tx_to_rx_us_p50",
                p50_us(&t.repair_stages[3]),
            );
        }
        if let Some((window, endpoint_wall_ns)) = &t.window {
            super::put_net(m, window, r.publishes, *endpoint_wall_ns);
        }
        let base = if variant == Variant::Repair {
            stats::median(&repair_p50)
        } else {
            stats::median(&fresh_p50)
        };
        m.put_one("bench.trace_overhead_ratio", traced_p50 / base);
        result.notes.push(format!(
            "traced: {} publish stage joins, {} repair joins, residual {:.5}",
            t.stages[0].len(),
            t.repair_stages[0].len(),
            t.stage_residual
        ));
        let cap = plan.span_cap.min(t.spans.len());
        super::finish_traced(plan, variant.name(), &rec, &t.spans[..cap], &mut result);
    }
    Ok(result)
}
