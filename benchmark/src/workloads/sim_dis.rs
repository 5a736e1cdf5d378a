//! `sim_dis`: the paper's 50-site × 20-receiver DIS scenario in the
//! deterministic simulator, 5 % loss on every inbound tail circuit.
//!
//! Every paper experiment runs on this path. `sim`, `harness`, `core`
//! and `trace` do all the work; `net` does none and `wire` only sizes
//! packets. Publishes arrive with seeded exponential gaps (mean 300 ms),
//! so both back-to-back data and heartbeat-filled silences occur.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lbrm::harness::{DisScenario, DisScenarioConfig, MachineActor};
use lbrm_core::logger::{Logger, LoggerConfig};
use lbrm_core::machine::{Actions, Delivery, Machine, Notice};
use lbrm_core::receiver::{Receiver, ReceiverConfig};
use lbrm_core::sender::{Sender, SenderConfig};
use lbrm_core::time::Time;
use lbrm_core::trace::{
    analyze::{analyze, AnalyzeConfig},
    CollectorSink, MetricsRegistry, OnlineAnalyzer, OnlineConfig, TraceRecord, TraceSink, Tracer,
};
use lbrm_sim::loss::LossModel;
use lbrm_sim::time::SimTime;
use lbrm_sim::topology::{SiteParams, TopologyBuilder};
use lbrm_sim::world::World;
use lbrm_wire::HostId;

use super::Plan;
use crate::gen::{self, Rng};
use crate::host;
use crate::probe::{Counter, Kind, Recorder, Role, TimedActor, TimedMachine, TimedSink};
use crate::report::RunResult;
use crate::stats;

const SITES: usize = 50;
const RECEIVERS_PER_SITE: usize = 20;
const PUBLISHES: u32 = 200;
const MEAN_GAP_S: f64 = 0.3;
const TAIL_LOSS: f64 = 0.05;
const SETTLE: Duration = Duration::from_secs(5);

/// The generated input: when each sequence number is published.
struct Inputs {
    seed: u64,
    send_at: Vec<SimTime>,
    horizon: SimTime,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed, 0x51D);
        let mut t = 1.0;
        let send_at: Vec<SimTime> = (0..PUBLISHES)
            .map(|_| {
                t += rng.exp(MEAN_GAP_S);
                SimTime::from_secs_f64(t)
            })
            .collect();
        let horizon = send_at[send_at.len() - 1].saturating_add(SETTLE);
        Inputs {
            seed,
            send_at,
            horizon,
        }
    }

    fn payload(&self, seq: u32) -> Bytes {
        gen::payload(self.seed, seq)
    }
}

fn site_params() -> SiteParams {
    SiteParams {
        tail_in_loss: LossModel::rate(TAIL_LOSS),
        ..SiteParams::distant()
    }
}

fn scenario(inputs: &Inputs, sink: Option<Arc<dyn TraceSink>>) -> DisScenario {
    let mut sc = DisScenario::build_with_sink(
        DisScenarioConfig {
            sites: SITES,
            receivers_per_site: RECEIVERS_PER_SITE,
            secondary_loggers: true,
            site_params: site_params(),
            seed: inputs.seed,
            ..DisScenarioConfig::default()
        },
        sink,
    );
    for (i, at) in inputs.send_at.iter().enumerate() {
        sc.send_at(*at, inputs.payload(i as u32 + 1));
    }
    sc
}

/// What one repetition observed, for the oracle and the metrics.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    events: u64,
    /// Virtual loss-detected → recovered latencies, all receivers.
    recoveries_ns: Vec<u64>,
    deliveries: u64,
}

/// The protocol's promise, checked per receiver: every sequence number
/// from the first one it delivered onward arrived, exactly once, with
/// the payload that was published (late-join rule, `backfill = 0`: with
/// 5 % loss some sites legitimately never see seq 1).
fn check_deliveries<'a>(
    inputs: &Inputs,
    receivers: impl Iterator<Item = (HostId, &'a [(SimTime, Delivery)])>,
    errors: &mut Vec<String>,
) -> (u64, u64) {
    let (mut expected, mut missing) = (0u64, 0u64);
    for (host, deliveries) in receivers {
        let mut seen = vec![false; PUBLISHES as usize + 1];
        for (_, d) in deliveries {
            let seq = d.seq.raw();
            if seq == 0 || seq > PUBLISHES {
                errors.push(format!("receiver {host} delivered unpublished seq {seq}"));
            } else if std::mem::replace(&mut seen[seq as usize], true) {
                errors.push(format!("receiver {host} delivered seq {seq} twice"));
            } else if d.payload != inputs.payload(seq) {
                errors.push(format!(
                    "receiver {host} seq {seq}: payload differs from what was published"
                ));
            }
        }
        let first = seen.iter().position(|s| *s).unwrap_or(1);
        expected += (PUBLISHES as usize + 1 - first) as u64;
        let lost = seen[first..].iter().filter(|s| !**s).count() as u64;
        if lost > 0 {
            errors.push(format!(
                "receiver {host} never delivered {lost} packets after its first"
            ));
        }
        missing += lost;
    }
    (expected, missing)
}

fn recovery_ns<'a>(notices: impl Iterator<Item = &'a (SimTime, Notice)>) -> Vec<u64> {
    notices
        .filter_map(|(_, n)| match n {
            Notice::Recovered { after, .. } => Some(after.as_nanos() as u64),
            _ => None,
        })
        .collect()
}

struct Rep {
    setup_s: f64,
    run_s: f64,
    observed: Observed,
}

/// One untraced repetition through the public scenario API.
fn run_scenario(inputs: &Inputs, result: &mut RunResult, full_oracle: bool) -> Rep {
    let t0 = Instant::now();
    let mut sc = scenario(inputs, None);
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    sc.world.run_until(inputs.horizon);
    let run_s = t1.elapsed().as_secs_f64();
    let receivers = sc.all_receivers();
    let actor = |rx: HostId| sc.world.actor::<MachineActor<Receiver>>(rx);
    let deliveries = receivers
        .iter()
        .map(|rx| actor(*rx).deliveries.len() as u64)
        .sum();
    if full_oracle {
        let (expected, missing) = check_deliveries(
            inputs,
            receivers
                .iter()
                .map(|rx| (*rx, actor(*rx).deliveries.as_slice())),
            &mut result.errors,
        );
        result.attempted += expected;
        result.failed += missing;
    }
    Rep {
        setup_s,
        run_s,
        observed: Observed {
            events: sc.world.events_processed(),
            recoveries_ns: recovery_ns(receivers.iter().flat_map(|rx| actor(*rx).notices.iter())),
            deliveries,
        },
    }
}

/// Folds of the captured trace per host-speed probe.
const FOLDS_PER_BATCH: u32 = 16;

/// Folds `records` through the streaming correlator, in batches each
/// preceded by a host-speed probe, until `budget` is spent. Per batch:
/// (records/s as measured, host slowdown at the time).
fn fold_forensics(
    records: &[TraceRecord],
    budget: Duration,
    result: &mut RunResult,
) -> Vec<(f64, f64)> {
    let start = Instant::now();
    let mut batches = Vec::new();
    let mut recovered = None;
    while batches.is_empty() || start.elapsed() < budget {
        let slow = host::slowdown();
        let t = Instant::now();
        for _ in 0..FOLDS_PER_BATCH {
            let mut a = OnlineAnalyzer::new(OnlineConfig::default());
            for r in records {
                a.push_record(r);
            }
            let report = a.finish();
            if *recovered.get_or_insert(report.recovered) != report.recovered {
                result
                    .errors
                    .push("forensics fold is not repeatable".into());
            }
        }
        let folded = records.len() as f64 * f64::from(FOLDS_PER_BATCH);
        batches.push((folded / t.elapsed().as_secs_f64(), slow));
    }
    batches
}

pub fn run(plan: &Plan) -> RunResult {
    let mut result = plan.result("sim_dis");
    result.notes.push(format!(
        "simulator, {SITES} sites x {RECEIVERS_PER_SITE} receivers, secondaries on, {TAIL_LOSS} tail-in loss, {PUBLISHES} publishes, exponential gaps mean {MEAN_GAP_S}s"
    ));
    let inputs = Inputs::new(plan.seed);
    let budget = Duration::from_secs_f64(plan.seconds);
    // Traced runs spend 80 % of the budget on the untraced baseline; the
    // probed world, the tracing-off legs and the kernels take the rest.
    let untraced = if plan.traced {
        budget.mul_f64(0.8)
    } else {
        budget
    };

    // Warm-up repetition, discarded; it runs the full oracle.
    let first = run_scenario(&inputs, &mut result, true).observed;

    let start = Instant::now();
    let mut reps = Vec::new();
    let mut slowdowns = Vec::new();
    while reps.is_empty() || start.elapsed() < untraced.mul_f64(0.75) {
        slowdowns.push(host::slowdown());
        let rep = run_scenario(&inputs, &mut result, false);
        if rep.observed != first {
            result.errors.push(format!(
                "repetition differs for one seed: {} events / {} recoveries, first had {} / {}",
                rep.observed.events,
                rep.observed.recoveries_ns.len(),
                first.events,
                first.recoveries_ns.len()
            ));
        }
        reps.push(rep);
    }
    let events_per_s: Vec<f64> = reps.iter().map(|r| first.events as f64 / r.run_s).collect();
    // What the host would have done undisturbed (see `host`).
    let events_per_s_norm: Vec<f64> = events_per_s
        .iter()
        .zip(&slowdowns)
        .map(|(rate, slow)| rate * slow)
        .collect();
    let mut rec_ns = first.recoveries_ns.clone();
    let lat = stats::latency_of(&mut rec_ns, 99.0);

    // Forensics: capture one trace of the same scenario, fold it.
    let collector = Arc::new(CollectorSink::default());
    let mut sc = scenario(&inputs, Some(collector.clone()));
    sc.world.run_until(inputs.horizon);
    drop(sc);
    let records = collector.take();
    let folds = fold_forensics(&records, untraced.mul_f64(0.25), &mut result);
    let fold_rates: Vec<f64> = folds.iter().map(|(rate, _)| *rate).collect();
    slowdowns.extend(folds.iter().map(|(_, slow)| *slow));

    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let m = &mut result.metrics;
    m.put("throughput_per_s", &events_per_s_norm);
    m.put("sim_events_per_s", &events_per_s);
    m.put("bench.host_slowdown", &slowdowns);
    // Virtual-time recovery latency is a constant of the protocol's
    // timers (it reads the same for every seed) and the wall time of a
    // repetition is the reciprocal of the throughput above, so the
    // latency this workload gates is the other thing its user waits
    // for: the streaming correlator, per 1 000 trace records.
    let fold_us_per_1k: Vec<f64> = folds
        .iter()
        .map(|(rate, slow)| 1e9 / (rate * slow))
        .collect();
    m.put("latency_p50_us", &fold_us_per_1k);
    m.put_one("sim_recovery_p50_ms", lat.p50_us / 1e3);
    m.put_one("sim_recovery_p99_ms", lat.tail_us / 1e3);
    m.put("forensics_records_per_s", &fold_rates);
    m.put("setup_s", &setup);
    m.put("harness.build_s", &setup);
    m.put_one("sim.events", first.events as f64);
    result.notes.push(format!(
        "{} events, {} recoveries (virtual p{}), {} deliveries per repetition; {} repetitions; {} trace records per fold, {} batches of 16 folds; throughput_per_s and latency_p50_us are host-speed normalised",
        first.events,
        first.recoveries_ns.len(),
        lat.tail_p,
        first.deliveries,
        reps.len(),
        records.len(),
        fold_rates.len()
    ));

    if plan.traced {
        traced(
            plan,
            &inputs,
            &first,
            stats::median(&events_per_s),
            &records,
            &mut result,
        );
    }
    result
}

/// How the mirrored world installs its actors: bare, or wrapped in the
/// probes. (The public scenario builder fixes the actor types, so a
/// world with wrappers has to be assembled here from the same parts.)
trait Install {
    fn sender(&mut self, w: &mut World, host: HostId, m: Sender, inputs: &Inputs);
    fn logger(&mut self, w: &mut World, host: HostId, m: Logger);
    fn receiver(&mut self, w: &mut World, host: HostId, idx: usize, m: Receiver);
    /// The tracer feeding one role's registry (disabled = tracing off).
    fn tracer(&self, registry: Arc<MetricsRegistry>) -> Tracer;
}

/// Schedules every publish of `inputs` on a sender actor.
fn script<M: Machine + 'static>(
    actor: &mut MachineActor<M>,
    inputs: &Inputs,
    send: impl Fn(&mut M, Time, Bytes, &mut Actions) + Send + Copy + 'static,
) {
    for (i, at) in inputs.send_at.iter().enumerate() {
        let payload = inputs.payload(i as u32 + 1);
        actor.schedule(*at, move |m: &mut M, now, out| {
            send(m, now, payload.clone(), out)
        });
    }
}

struct BareWorld {
    tracing: bool,
}

impl Install for BareWorld {
    fn sender(&mut self, w: &mut World, host: HostId, m: Sender, inputs: &Inputs) {
        let mut actor = MachineActor::new(m, vec![]);
        script(&mut actor, inputs, |s: &mut Sender, now, p, out| {
            s.send(now, p, out)
        });
        w.add_actor(host, actor);
    }
    fn logger(&mut self, w: &mut World, host: HostId, m: Logger) {
        w.add_actor(host, MachineActor::new(m, vec![DisScenario::GROUP]));
    }
    fn receiver(&mut self, w: &mut World, host: HostId, _idx: usize, m: Receiver) {
        w.add_actor(host, MachineActor::new(m, vec![DisScenario::GROUP]));
    }
    fn tracer(&self, registry: Arc<MetricsRegistry>) -> Tracer {
        if self.tracing {
            Tracer::to(registry)
        } else {
            Tracer::disabled()
        }
    }
}

struct ProbedWorld {
    rec: Arc<Recorder>,
    events: Arc<AtomicU64>,
}

type ProbedActor<M> = TimedActor<MachineActor<TimedMachine<M>>>;

impl ProbedWorld {
    fn wrap<M: Machine + Send + 'static>(
        &self,
        actor: MachineActor<TimedMachine<M>>,
    ) -> ProbedActor<M> {
        TimedActor::new(actor, self.rec.clone(), self.events.clone())
    }

    fn machine<M: Machine>(&self, m: M, role: Role) -> TimedMachine<M> {
        TimedMachine::new(m, role, self.rec.clone())
    }
}

impl Install for ProbedWorld {
    fn sender(&mut self, w: &mut World, host: HostId, m: Sender, inputs: &Inputs) {
        let mut actor = MachineActor::new(self.machine(m, Role::Sender), vec![]);
        script(
            &mut actor,
            inputs,
            |s: &mut TimedMachine<Sender>, now, p, out| {
                s.call(now, out, |s, out| s.send(now, p, out))
            },
        );
        w.add_actor(host, self.wrap(actor));
    }
    fn logger(&mut self, w: &mut World, host: HostId, m: Logger) {
        let groups = vec![DisScenario::GROUP];
        w.add_actor(
            host,
            self.wrap(MachineActor::new(self.machine(m, Role::Logger), groups)),
        );
    }
    fn receiver(&mut self, w: &mut World, host: HostId, idx: usize, m: Receiver) {
        let groups = vec![DisScenario::GROUP];
        let m = self.machine(m, Role::Receiver(idx));
        w.add_actor(host, self.wrap(MachineActor::new(m, groups)));
    }
    fn tracer(&self, registry: Arc<MetricsRegistry>) -> Tracer {
        Tracer::to(Arc::new(TimedSink::new(registry, self.rec.clone())))
    }
}

struct Mirror {
    world: World,
    src_host: HostId,
    receivers: Vec<HostId>,
}

/// Assembles the `sim_dis` world from `TopologyBuilder` + `add_actor`,
/// in the order and with the configurations `DisScenario::build` uses.
fn build_mirror(inputs: &Inputs, install: &mut dyn Install) -> Mirror {
    let (group, source) = (DisScenario::GROUP, DisScenario::SOURCE);
    let mut b = TopologyBuilder::new();
    let source_site = b.site(SiteParams::distant());
    let src_host = b.host(source_site);
    let primary = b.host(source_site);
    let sites: Vec<(HostId, Vec<HostId>)> = (0..SITES)
        .map(|_| {
            let site = b.site(site_params());
            (b.host(site), b.hosts(site, RECEIVERS_PER_SITE))
        })
        .collect();
    let mut world = World::new(b.build(), inputs.seed);

    let registry = || Arc::new(MetricsRegistry::default());
    let net = registry();
    world.set_trace(install.tracer(net.clone()));
    world.set_gauges(net);
    let (sender_t, primary_t, secondary_t, receiver_t) = (
        install.tracer(registry()),
        install.tracer(registry()),
        install.tracer(registry()),
        install.tracer(registry()),
    );

    let mut lg = Logger::new(LoggerConfig::primary(group, source, primary, src_host));
    lg.set_tracer(primary_t);
    install.logger(&mut world, primary, lg);
    let mut receivers = Vec::new();
    for (sec, rxs) in &sites {
        let mut c = LoggerConfig::secondary(group, source, *sec, primary, src_host);
        c.level = 1;
        let mut lg = Logger::new(c);
        lg.set_tracer(secondary_t.clone());
        install.logger(&mut world, *sec, lg);
        for rx in rxs {
            let c = ReceiverConfig::new(group, source, *rx, src_host, vec![*sec, primary]);
            let mut m = Receiver::new(c);
            m.set_tracer(receiver_t.clone());
            install.receiver(&mut world, *rx, receivers.len(), m);
            receivers.push(*rx);
        }
    }
    let mut s = Sender::new(SenderConfig::new(group, source, src_host, primary));
    s.set_tracer(sender_t);
    install.sender(&mut world, src_host, s, inputs);
    // `DisScenario::send_at` arms each publish twice (the actor's script
    // and a world timer); the mirror does the same so event counts match.
    for (i, at) in inputs.send_at.iter().enumerate() {
        world.schedule_timer(src_host, *at, i as u64 + 1);
    }
    Mirror {
        world,
        src_host,
        receivers,
    }
}

/// Events/s of the bare mirror, tracing on or off.
fn bare_rate(inputs: &Inputs, tracing: bool) -> f64 {
    let mut mirror = build_mirror(inputs, &mut BareWorld { tracing });
    let t = Instant::now();
    mirror.world.run_until(inputs.horizon);
    mirror.world.events_processed() as f64 / t.elapsed().as_secs_f64()
}

fn traced(
    plan: &Plan,
    inputs: &Inputs,
    first: &Observed,
    untraced_events_per_s: f64,
    records: &[TraceRecord],
    result: &mut RunResult,
) {
    // The probed world: every actor, machine and sink wrapped.
    let rec = Recorder::new(plan.span_cap, 4096, 0, 0);
    let mut install = ProbedWorld {
        rec: rec.clone(),
        events: Arc::new(AtomicU64::new(0)),
    };
    let mut mirror = build_mirror(inputs, &mut install);
    let t = Instant::now();
    let horizon = inputs.horizon;
    let world = &mut mirror.world;
    rec.span(Kind::SimRun, 0, || world.run_until(horizon));
    let traced_s = t.elapsed().as_secs_f64();

    let n_events = mirror.world.events_processed();
    let actor = |rx: HostId| mirror.world.actor::<ProbedActor<Receiver>>(rx).inner();
    let (expected, missing) = check_deliveries(
        inputs,
        mirror
            .receivers
            .iter()
            .map(|rx| (*rx, actor(*rx).deliveries.as_slice())),
        &mut result.errors,
    );
    result.attempted += expected;
    result.failed += missing;
    let deliveries: usize = mirror
        .receivers
        .iter()
        .map(|rx| actor(*rx).deliveries.len())
        .sum();
    let sent = mirror
        .world
        .actor::<ProbedActor<Sender>>(mirror.src_host)
        .inner()
        .machine()
        .inner()
        .last_seq();
    if sent.map(|s| s.raw()) != Some(PUBLISHES) {
        result.errors.push(format!(
            "probed sender published up to {sent:?}, not {PUBLISHES}"
        ));
    }
    if n_events != first.events {
        // Not an oracle failure: the scenario builder may legitimately
        // change; say so, because the per-layer split then describes a
        // slightly different world than `sim_events_per_s` does.
        result.notes.push(format!(
            "NOTE mirrored world processed {n_events} events, the scenario {}",
            first.events
        ));
    }

    let run = rec.totals(Kind::SimRun);
    let actors = rec.totals(Kind::Actor);
    let sink = rec.totals(Kind::Sink);
    let per_event = |ns: u64| ns as f64 / n_events.max(1) as f64;
    let m = &mut result.metrics;
    m.put_one("sim.step_ns_per_event", per_event(run.total_ns));
    m.put_one("sim.self_ns_per_event", per_event(run.self_ns));
    m.put_one("harness.actor_ns_per_event", per_event(actors.self_ns));
    m.put_one("sim.queue_depth_max", mirror.world.queue_depth_max() as f64);
    m.put_one(
        "sim.events_per_delivery",
        n_events as f64 / deliveries.max(1) as f64,
    );
    m.put_one("trace.sink_ns_per_record", sink.ns_per_call());
    m.put_one(
        "trace.records_per_event",
        sink.calls as f64 / n_events.max(1) as f64,
    );
    m.put_one(
        "bench.trace_overhead_ratio",
        untraced_events_per_s / (n_events as f64 / traced_s),
    );

    // Tracing on vs off, on the bare mirror, alternating.
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        on.push(bare_rate(inputs, true));
        off.push(bare_rate(inputs, false));
    }
    m.put_one(
        "trace.registry_cost_ratio",
        stats::median(&on) / stats::median(&off),
    );

    // The two correlators over the captured trace.
    let t = Instant::now();
    let mut a = OnlineAnalyzer::new(OnlineConfig::default());
    for r in records {
        a.push_record(r);
    }
    let online = a.finish();
    m.put_one(
        "trace.online_ns_per_record",
        t.elapsed().as_nanos() as f64 / records.len().max(1) as f64,
    );
    let t = Instant::now();
    let batch = analyze(records, &AnalyzeConfig::default());
    m.put_one(
        "trace.analyze_ns_per_record",
        t.elapsed().as_nanos() as f64 / records.len().max(1) as f64,
    );
    if online.recovered != batch.recovered || online.recovered != first.recoveries_ns.len() {
        result.errors.push(format!(
            "correlators disagree on recoveries: online {}, batch {}, receivers {}",
            online.recovered,
            batch.recovered,
            first.recoveries_ns.len()
        ));
    }

    result.notes.push(format!(
        "traced: {} spans of {} actor callbacks retained; counters: {} actor packets",
        rec.spans().len(),
        actors.calls,
        rec.counter(Counter::ActorPackets)
    ));
    super::finish_traced(plan, "sim_dis", &rec, &[], result);
}
