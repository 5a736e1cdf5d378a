//! The four workloads and what they share.

use std::io::Write as _;
use std::path::PathBuf;

use std::sync::Arc;

use bytes::Bytes;
use lbrm_core::machine::{Actions, Machine};
use lbrm_core::sender::Sender;
use lbrm_core::time::Time;
use lbrm_net::Transport;

use crate::env;
use crate::probe::{
    Counter, Kind, KindTotals, Recorder, Role, Stamps, TimedMachine, TimedTransport,
};
use crate::report::{Metrics, RunResult};

pub mod kernels;
pub mod live;
pub mod logger_udp;
pub mod sim_dis;

/// The UDP transport's reader threads are detached and notice shutdown
/// on a 50 ms tick. Waiting them out after every repetition keeps
/// repetitions from overlapping — and keeps `peak_rss_mb` steady: a
/// thread spawned while an old one lingers gets a fresh allocator arena,
/// which made the high-water mark a matter of timing (38–54 MB).
pub const READER_EXIT: std::time::Duration = std::time::Duration::from_millis(60);

/// Everything one workload run is told.
#[derive(Debug, Clone)]
pub struct Plan {
    /// All randomness of the inputs derives from this.
    pub seed: u64,
    /// Measurement time, excluding set-up and warm-up.
    pub seconds: f64,
    /// Install the probes and report per-layer metrics.
    pub traced: bool,
    /// First UDP port this run may use (it takes up to 64 above it).
    pub port_base: u16,
    /// Where trace and result files go.
    pub out_dir: PathBuf,
    /// Spans retained in full per traced run (totals cover all spans).
    pub span_cap: usize,
}

impl Plan {
    pub fn result(&self, workload: &str) -> RunResult {
        RunResult {
            workload: workload.to_string(),
            seed: self.seed,
            traced: self.traced,
            ..RunResult::default()
        }
    }
}

pub fn run(workload: &str, plan: &Plan) -> Result<RunResult, String> {
    let mut result = match workload {
        "sim_dis" => sim_dis::run(plan),
        "live_fresh" => live::run(plan, live::Variant::Fresh)?,
        "live_repair" => live::run(plan, live::Variant::Repair)?,
        "logger_udp" => logger_udp::run(plan)?,
        other => return Err(format!("unknown workload {other}")),
    };
    result.metrics.put_one("peak_rss_mb", env::peak_rss_mb());
    result
        .metrics
        .put_one("bench.loadavg_1m", env::loadavg_1m());
    Ok(result)
}

/// Bare or probed endpoints, chosen at compile time so the untraced run
/// contains no probe code at all.
pub trait Wrap: 'static {
    type M<X: Machine + Send + 'static>: Machine + Send + 'static;
    type T<X: Transport>: Transport;
    fn machine<X: Machine + Send + 'static>(&self, m: X, role: Role) -> Self::M<X>;
    fn transport<X: Transport>(&self, t: X, role: Role) -> Self::T<X>;
    /// `Sender::send` through the wrapper; the sequence number it used.
    fn publish(m: &mut Self::M<Sender>, now: Time, payload: Bytes, out: &mut Actions) -> u32;
    fn recorder(&self) -> Option<&Arc<Recorder>>;
}

pub struct Bare;

impl Wrap for Bare {
    type M<X: Machine + Send + 'static> = X;
    type T<X: Transport> = X;
    fn machine<X: Machine + Send + 'static>(&self, m: X, _: Role) -> X {
        m
    }
    fn transport<X: Transport>(&self, t: X, _: Role) -> X {
        t
    }
    fn publish(m: &mut Sender, now: Time, payload: Bytes, out: &mut Actions) -> u32 {
        let seq = m.next_seq().raw();
        m.send(now, payload, out);
        seq
    }
    fn recorder(&self) -> Option<&Arc<Recorder>> {
        None
    }
}

pub struct Probed(pub Arc<Recorder>);

impl Wrap for Probed {
    type M<X: Machine + Send + 'static> = TimedMachine<X>;
    type T<X: Transport> = TimedTransport<X>;
    fn machine<X: Machine + Send + 'static>(&self, m: X, role: Role) -> TimedMachine<X> {
        TimedMachine::new(m, role, self.0.clone())
    }
    fn transport<X: Transport>(&self, t: X, role: Role) -> TimedTransport<X> {
        TimedTransport::new(t, role, self.0.clone())
    }
    fn publish(m: &mut TimedMachine<Sender>, now: Time, payload: Bytes, out: &mut Actions) -> u32 {
        let seq = m.inner().next_seq().raw();
        Stamps::set(&m.recorder().stamps.cmd, seq as usize, now.nanos());
        m.call(now, out, |s, out| s.send(now, payload, out));
        seq
    }
    fn recorder(&self) -> Option<&Arc<Recorder>> {
        Some(&self.0)
    }
}

/// Cumulative probe readings, taken at both ends of the timed window.
#[derive(Clone, Copy)]
pub struct Snapshot {
    pub machines: KindTotals,
    pub sends: KindTotals,
    pub recvs: KindTotals,
    pub recv_empty: u64,
    pub sut_cpu_ns: u64,
    pub sut_threads: usize,
    pub endpoint_cpu_ns: u64,
}

impl Snapshot {
    /// `bench_tids`: the generator and the collectors, which are not
    /// part of the system under test.
    pub fn take(rec: &Recorder, bench_tids: &[u64]) -> Snapshot {
        let (sut_threads, sut_cpu_ns) = env::sut_threads(bench_tids);
        Snapshot {
            machines: rec.totals_of(&Kind::MACHINES),
            sends: rec.totals(Kind::NetSend),
            recvs: rec.totals(Kind::NetRecv),
            recv_empty: rec.counter(Counter::RecvEmpty),
            sut_cpu_ns,
            sut_threads,
            endpoint_cpu_ns: rec
                .endpoint_tids()
                .iter()
                .map(|t| env::thread_cpu_ns(*t))
                .sum(),
        }
    }

    pub fn since(self, start: Snapshot) -> Snapshot {
        let sub = |a: KindTotals, b: KindTotals| KindTotals {
            calls: a.calls - b.calls,
            total_ns: a.total_ns - b.total_ns,
            self_ns: a.self_ns - b.self_ns,
        };
        Snapshot {
            machines: sub(self.machines, start.machines),
            sends: sub(self.sends, start.sends),
            recvs: sub(self.recvs, start.recvs),
            recv_empty: self.recv_empty - start.recv_empty,
            sut_cpu_ns: self.sut_cpu_ns.saturating_sub(start.sut_cpu_ns),
            sut_threads: self.sut_threads,
            endpoint_cpu_ns: self.endpoint_cpu_ns.saturating_sub(start.endpoint_cpu_ns),
        }
    }
}

/// `core.*` metrics from the machine spans of a traced run. Machine
/// time excludes the trace sinks it called into (they have their own
/// spans), so the layers add up.
fn put_core(m: &mut Metrics, rec: &Recorder) {
    let per_call = |kinds: &[Kind]| {
        let t = rec.totals_of(kinds);
        t.self_ns as f64 / t.calls.max(1) as f64
    };
    let logger = [Kind::LoggerIngest, Kind::LoggerNack, Kind::LoggerOther];
    m.put_one("core.sender.ns_per_call", per_call(&[Kind::SenderCall]));
    m.put_one("core.logger.ns_per_call", per_call(&logger));
    m.put_one("core.receiver.ns_per_call", per_call(&[Kind::ReceiverCall]));
    m.put_one("core.logger.ns_per_ingest", per_call(&[Kind::LoggerIngest]));
    m.put_one("core.logger.ns_per_nack", per_call(&[Kind::LoggerNack]));
    m.put_one(
        "core.logger.ns_per_retrans",
        rec.totals(Kind::LoggerNack).self_ns as f64
            / rec.counter(Counter::LoggerRetrans).max(1) as f64,
    );
    let machines = rec.totals_of(&Kind::MACHINES);
    m.put_one(
        "core.actions_per_call",
        rec.counter(Counter::Actions) as f64 / machines.calls.max(1) as f64,
    );
    m.put_one(
        "core.receiver.nacks_per_loss",
        rec.counter(Counter::ReceiverNacks) as f64
            / rec.counter(Counter::ReceiverLosses).max(1) as f64,
    );
    m.put_one(
        "core.receiver.dup_repairs",
        rec.counter(Counter::DupRepairs) as f64,
    );
}

/// `net.*` metrics from the probe readings over one timed window of
/// `ops` operations; `endpoint_wall_ns` is that window's wall time summed
/// over the endpoint threads.
fn put_net(m: &mut Metrics, w: &Snapshot, ops: u64, endpoint_wall_ns: u64) {
    let ops = ops.max(1) as f64;
    m.put_one("net.send_ns_per_call", w.sends.ns_per_call());
    m.put_one(
        "net.recv_wait_share",
        w.recvs.total_ns as f64 / endpoint_wall_ns.max(1) as f64,
    );
    m.put_one(
        "net.recv_empty_ratio",
        w.recv_empty as f64 / w.recvs.calls.max(1) as f64,
    );
    m.put_one("net.threads", w.sut_threads as f64);
    m.put_one("net.cpu_us_per_op", w.sut_cpu_ns as f64 / 1e3 / ops);
    let inside = w.machines.total_ns + w.sends.total_ns;
    m.put_one(
        "net.endpoint_self_us_per_op",
        w.endpoint_cpu_ns.saturating_sub(inside) as f64 / 1e3 / ops,
    );
}

/// What every traced run ends with: the machine spans as `core.*`, the
/// codec replayed over the captured packet mix, the log-store kernels,
/// and the trace file.
fn finish_traced(
    plan: &Plan,
    workload: &str,
    rec: &Recorder,
    stages: &[TraceSpan],
    result: &mut RunResult,
) {
    put_core(&mut result.metrics, rec);
    kernels::wire_replay(&rec.packets(), &mut result.metrics);
    kernels::logstore(plan.seed, &mut result.metrics);
    write_trace(plan, workload, rec, stages, result);
}

/// A span as written to the trace file.
#[derive(Clone, Copy)]
pub struct TraceSpan {
    pub layer: &'static str,
    pub name: &'static str,
    pub uid: u64,
    pub parent: u64,
    /// Shared by all spans of one publish, repair or simulated event.
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Writes `trace-<workload>.json`: per-kind totals with self time, then
/// every retained span. A failure to write is reported, not fatal — the
/// metrics do not depend on the file.
fn write_trace(
    plan: &Plan,
    workload: &str,
    rec: &Recorder,
    stages: &[TraceSpan],
    result: &mut RunResult,
) {
    let path = plan.out_dir.join(format!("trace-{workload}.json"));
    let write = || -> std::io::Result<usize> {
        std::fs::create_dir_all(&plan.out_dir)?;
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        write!(
            f,
            "{{\"workload\":\"{workload}\",\"seed\":{},\"clock\":\"ns since process start\",\"totals\":[",
            plan.seed
        )?;
        for (i, k) in Kind::ALL.iter().enumerate() {
            let (layer, name) = k.layer_and_name();
            let t = rec.totals(*k);
            write!(
                f,
                "{}{{\"layer\":\"{layer}\",\"name\":\"{name}\",\"calls\":{},\"total_ns\":{},\"self_ns\":{}}}",
                if i > 0 { "," } else { "" },
                t.calls,
                t.total_ns,
                t.self_ns
            )?;
        }
        write!(f, "],\"spans\":[")?;
        let spans = rec.spans();
        let all = spans
            .iter()
            .map(|s| {
                let (layer, name) = s.kind.layer_and_name();
                TraceSpan {
                    layer,
                    name,
                    uid: s.uid,
                    parent: s.parent,
                    id: s.id,
                    start_ns: s.start_ns,
                    end_ns: s.end_ns,
                }
            })
            .chain(stages.iter().map(|s| TraceSpan { ..*s }));
        let mut n = 0;
        for s in all {
            write!(
                f,
                "{}\n{{\"layer\":\"{}\",\"name\":\"{}\",\"span\":{},\"parent\":{},\"id\":{},\"start_ns\":{},\"end_ns\":{}}}",
                if n > 0 { "," } else { "" },
                s.layer,
                s.name,
                s.uid,
                s.parent,
                s.id,
                s.start_ns,
                s.end_ns
            )?;
            n += 1;
        }
        writeln!(f, "\n]}}")?;
        f.flush()?;
        Ok(n)
    };
    match write() {
        Ok(n) => result
            .notes
            .push(format!("wrote {n} spans to {}", path.display())),
        Err(e) => result
            .notes
            .push(format!("NOTE could not write {}: {e}", path.display())),
    }
}
