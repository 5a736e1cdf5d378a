//! `logger_udp`: the paper's Table 3 experiment. One primary logger
//! endpoint on a real UDP socket, saturated by this thread through one
//! raw `UdpSocket`.
//!
//! Closed loop with a fixed window, so the logger never idles (a
//! one-in-flight ping-pong measures the scheduler, not the logger).
//! Three phases on one log: *ingest* (`Data` in, one `LogAck` back,
//! window 32, retention `Count(65 536)` so pruning runs and memory stays
//! flat), *serve* (single-sequence `Nack` → one `Retrans`, window 32,
//! over the newest 4 096 entries) and *span* (16-sequence `Nack` → 16
//! `Retrans`, window 4). Writes beside reads beside bundled reads on
//! one layer, so a gain for one that costs another shows. The log
//! store, the logger machine and the codec's bundle path do most of the
//! work here and almost none in `live_fresh`.

use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use lbrm_core::logger::{Logger, LoggerConfig};
use lbrm_core::logstore::Retention;
use lbrm_net::{host_of, Endpoint, GroupMap, Transport, UdpTransport};
use lbrm_wire::{
    decode_bundle, decode_bytes, encode_into, is_bundle, EpochId, GroupId, HostId, Packet, Seq,
    SeqRange, SourceId,
};

use super::{Bare, Plan, Probed, Snapshot, Wrap};
use crate::env;
use crate::gen::{self, Rng};
use crate::host;
use crate::probe::{epoch, now_ns, thread_id, Recorder, Role};
use crate::report::RunResult;
use crate::stats;

const GROUP: GroupId = GroupId(3);
const SRC: SourceId = SourceId(1);
const INGEST_WINDOW: usize = 32;
const SERVE_WINDOW: usize = 32;
const SPAN_WINDOW: usize = 4;
const SPAN: u32 = 16;
/// Reads address the newest entries of the log.
const HOT: u32 = 4096;
/// A request unanswered this long has failed.
const TIMEOUT: Duration = Duration::from_millis(200);
/// Marks a request given up on after [`TIMEOUT`].
const ABANDONED: u64 = u64::MAX;
/// This many timeouts in a row and the logger is taken for dead.
const MAX_SILENCES: u32 = 10;

/// The benchmark's side of the socket.
struct Client {
    sock: UdpSocket,
    logger: SocketAddr,
    me: HostId,
    seed: u64,
    scratch: BytesMut,
    buf: Vec<u8>,
    datagrams: u64,
    packets: u64,
    decode_fail: u64,
}

impl Client {
    fn send(&mut self, p: &Packet) -> Result<(), String> {
        self.scratch.clear();
        encode_into(p, &mut self.scratch).map_err(|e| format!("encode: {e}"))?;
        self.sock
            .send_to(&self.scratch, self.logger)
            .map(|_| ())
            .map_err(|e| format!("send to the logger: {e}"))
    }

    fn data(&self, seq: u32) -> Packet {
        Packet::Data {
            group: GROUP,
            source: SRC,
            seq: Seq(seq),
            epoch: EpochId(0),
            payload: gen::payload(self.seed, seq),
        }
    }

    fn nack(&self, first: u32, last: u32) -> Packet {
        Packet::Nack {
            group: GROUP,
            source: SRC,
            requester: self.me,
            ranges: vec![SeqRange {
                first: Seq(first),
                last: Seq(last),
            }],
        }
    }

    /// Fills `inbox` with the packets of the next datagram; leaves it
    /// empty when [`TIMEOUT`] passes first.
    fn recv(&mut self, inbox: &mut Vec<Packet>) -> Result<(), String> {
        inbox.clear();
        let n = match self.sock.recv_from(&mut self.buf) {
            Ok((n, _)) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(());
            }
            Err(e) => return Err(format!("receive from the logger: {e}")),
        };
        self.datagrams += 1;
        let datagram = Bytes::copy_from_slice(&self.buf[..n]);
        if is_bundle(&datagram) {
            match decode_bundle(&datagram) {
                Ok(ps) => inbox.extend(ps),
                Err(_) => self.decode_fail += 1,
            }
        } else {
            match decode_bytes(datagram) {
                Ok(p) => inbox.push(p),
                Err(_) => self.decode_fail += 1,
            }
        }
        self.packets += inbox.len() as u64;
        Ok(())
    }
}

/// The outcome of one closed-loop phase.
#[derive(Default)]
struct Phase {
    ops: u64,
    failed: u64,
    elapsed_s: f64,
    /// Reply packets received (= `ops` except in the span phase).
    replies: u64,
    rtt_ns: Vec<u64>,
}

impl Phase {
    fn per_s(&self, count: u64) -> f64 {
        count as f64 / self.elapsed_s
    }
}

/// Ingest: `Data` in, cumulative `LogAck` back. Runs for `dur` and at
/// least until `min_ops` packets are acknowledged; `next` is the next
/// unused sequence number, advanced past what was sent.
fn ingest(
    c: &mut Client,
    next: &mut u32,
    dur: Duration,
    min_ops: u64,
    errors: &mut Vec<String>,
) -> Result<Phase, String> {
    let mut out = Phase::default();
    let start = Instant::now();
    let first = *next;
    let mut acked = first - 1;
    let sending =
        |acked: u32, now: Instant| now - start < dur || u64::from(acked + 1 - first) < min_ops;
    for _ in 0..INGEST_WINDOW {
        c.send(&c.data(*next))?;
        *next += 1;
    }
    let mut inbox = Vec::new();
    let mut silences = 0;
    while acked + 1 < *next {
        let before = acked;
        c.recv(&mut inbox)?;
        if inbox.is_empty() {
            // TIMEOUT passed in silence: everything in flight failed.
            // Offer it again (the log ignores what it already holds).
            out.failed += u64::from(*next - 1 - acked);
            silences += 1;
            if silences == MAX_SILENCES {
                return Err("the logger endpoint stopped acknowledging".into());
            }
            for seq in acked + 1..*next {
                c.send(&c.data(seq))?;
            }
            continue;
        }
        silences = 0;
        for p in &inbox {
            match p {
                Packet::LogAck { primary_seq, .. } => {
                    if primary_seq.raw() >= *next {
                        errors.push(format!(
                            "LogAck for seq {} which was never sent",
                            primary_seq.raw()
                        ));
                    }
                    acked = acked.max(primary_seq.raw());
                }
                // The logger asks its source for what it missed: the
                // protocol's own repair of a dropped datagram.
                Packet::Nack { ranges, .. } => {
                    for seq in ranges.iter().flat_map(|r| r.iter()) {
                        c.send(&c.data(seq.raw()))?;
                    }
                }
                other => errors.push(format!(
                    "ingest: unexpected {} from the logger",
                    other.kind()
                )),
            }
        }
        let now = Instant::now();
        for _ in before..acked {
            if sending(acked, now) {
                c.send(&c.data(*next))?;
                *next += 1;
            }
        }
    }
    out.ops = u64::from(acked + 1 - first);
    out.replies = out.ops;
    out.elapsed_s = start.elapsed().as_secs_f64();
    Ok(out)
}

/// What a read phase asks for.
struct Reads<'a> {
    /// First sequence number of the `HOT` newest entries, and their
    /// payloads.
    base: u32,
    hot: &'a [Bytes],
    /// Sequence numbers per NACK, and NACKs in flight.
    width: u32,
    window: usize,
}

/// Serve and span: NACK `width` sequence numbers at a time from the
/// `HOT` newest entries, `window` requests in flight. Every `Retrans`
/// must be one that was asked for and carry the payload that was logged.
fn read_phase(
    c: &mut Client,
    rng: &mut Rng,
    reads: &Reads<'_>,
    dur: Duration,
    errors: &mut Vec<String>,
) -> Result<Phase, String> {
    let Reads {
        base,
        hot,
        width,
        window,
    } = *reads;
    let slots = HOT / width;
    // An odd stride walks every slot before repeating, so requests in
    // flight never overlap.
    let stride = (rng.next_u64() as u32 % slots) | 1;
    let mut cursor = rng.next_u64() as u32 % slots;
    // Per slot: when it was asked for, and which of its seqs are in.
    let mut asked_at = vec![0u64; slots as usize];
    let mut got = vec![0u32; slots as usize];
    let full = if width == 32 {
        u32::MAX
    } else {
        (1u32 << width) - 1
    };
    let mut out = Phase::default();
    let mut in_flight = 0usize;
    let start = Instant::now();
    let ask = |c: &mut Client, cursor: &mut u32, asked_at: &mut [u64], got: &mut [u32]| {
        let slot = *cursor;
        *cursor = (*cursor + stride) % slots;
        asked_at[slot as usize] = now_ns();
        got[slot as usize] = 0;
        let first = base + slot * width;
        c.send(&c.nack(first, first + width - 1))
    };
    for _ in 0..window {
        ask(c, &mut cursor, &mut asked_at, &mut got)?;
        in_flight += 1;
    }
    let mut inbox = Vec::new();
    let mut silences = 0;
    while in_flight > 0 {
        let mut completed = 0;
        c.recv(&mut inbox)?;
        if inbox.is_empty() {
            // TIMEOUT passed in silence: what was in flight failed; ask
            // for other sequence numbers while time remains.
            out.failed += in_flight as u64;
            silences += 1;
            if silences == MAX_SILENCES {
                return Err("the logger endpoint stopped answering NACKs".into());
            }
            // A late answer to an abandoned request is not a wrong one.
            for at in asked_at.iter_mut().filter(|at| **at != 0) {
                *at = ABANDONED;
            }
            in_flight = 0;
            if start.elapsed() < dur {
                for _ in 0..window {
                    ask(c, &mut cursor, &mut asked_at, &mut got)?;
                    in_flight += 1;
                }
            }
            continue;
        }
        silences = 0;
        let at = now_ns();
        for p in &inbox {
            let Packet::Retrans { seq, payload, .. } = p else {
                errors.push(format!("read: unexpected {} from the logger", p.kind()));
                continue;
            };
            let off = seq.raw().wrapping_sub(base);
            let (slot, bit) = ((off / width) as usize, 1u32 << (off % width));
            if off < HOT && asked_at[slot] == ABANDONED {
                continue;
            }
            if off >= HOT || asked_at[slot] == 0 || got[slot] & bit != 0 {
                errors.push(format!(
                    "Retrans for seq {} which was not requested",
                    seq.raw()
                ));
                continue;
            }
            if *payload != hot[off as usize] {
                errors.push(format!(
                    "Retrans seq {} carries a payload other than the one logged",
                    seq.raw()
                ));
            }
            got[slot] |= bit;
            out.replies += 1;
            if got[slot] == full {
                out.rtt_ns.push(at - asked_at[slot]);
                asked_at[slot] = 0;
                completed += 1;
            }
        }
        out.ops += completed as u64;
        in_flight -= completed;
        if start.elapsed() < dur {
            for _ in 0..completed {
                ask(c, &mut cursor, &mut asked_at, &mut got)?;
                in_flight += 1;
            }
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    Ok(out)
}

struct Rep {
    setup_s: f64,
    ingest: Phase,
    serve: Phase,
    /// Host slowdown around the serve phase (mean of a probe before and
    /// one after).
    serve_slowdown: f64,
    span: Phase,
    span_pkts_per_datagram: f64,
    decode_fail: u64,
    /// Probe readings over the serve phase.
    serve_window: Option<Snapshot>,
}

impl Rep {
    /// Adds this repetition's operations to the run's totals.
    fn count_into(&self, result: &mut RunResult) {
        for p in [&self.ingest, &self.serve, &self.span] {
            result.attempted += p.ops + p.failed;
            result.failed += p.failed;
        }
        result.failed += self.decode_fail;
    }
}

fn repetition<W: Wrap>(
    wrap: &W,
    seed: u64,
    rep: u64,
    port: u16,
    phase: Duration,
    errors: &mut Vec<String>,
) -> Result<Rep, String> {
    let setup_start = Instant::now();
    let sock = UdpSocket::bind(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0))
        .map_err(|e| format!("client bind: {e}"))?;
    sock.set_read_timeout(Some(TIMEOUT))
        .map_err(|e| format!("client socket: {e}"))?;
    let SocketAddr::V4(my_addr) = sock.local_addr().map_err(|e| e.to_string())? else {
        return Err("client socket is not IPv4".into());
    };
    let me = host_of(my_addr);
    let transport = UdpTransport::bind(Ipv4Addr::LOCALHOST, GroupMap::new(port))
        .map_err(|e| format!("UDP bind on loopback failed: {e}"))?;
    let logger_addr = SocketAddr::V4(transport.local_addr());
    let mut cfg = LoggerConfig::primary(GROUP, SRC, transport.local_host(), me);
    cfg.retention = Retention::Count(65_536);
    let (mut ep, handle) = Endpoint::new(
        wrap.machine(Logger::new(cfg), Role::Logger),
        wrap.transport(transport, Role::Logger),
        vec![GROUP],
    );
    ep.set_origin(epoch());
    let endpoint = ep.spawn();
    let mut c = Client {
        sock,
        logger: logger_addr,
        me,
        seed: seed ^ (rep << 32),
        scratch: BytesMut::with_capacity(2048),
        buf: vec![0; 65_536],
        datagrams: 0,
        packets: 0,
        decode_fail: 0,
    };
    let mut rng = Rng::new(seed, 0x106 + rep);
    let mut next = 1u32;
    // Untimed preload, part of set-up: the first packets pay for thread
    // start and the first segments of the log, and the read phases need
    // `HOT` entries to address. It runs under the same LogAck closed
    // loop as the ingest phase (an unpaced preload overflows the socket
    // buffer and the missing sequence numbers then time out).
    // A timeout here (a thread slow to start on a busy host) is retried
    // inside `ingest` and is not an operation of the measured phases.
    ingest(
        &mut c,
        &mut next,
        Duration::ZERO,
        u64::from(2 * HOT),
        errors,
    )?;
    let setup_s = setup_start.elapsed().as_secs_f64();

    let ingest_phase = ingest(&mut c, &mut next, phase, 1, errors)?;
    let base = next - HOT;
    let hot: Vec<Bytes> = (base..next).map(|seq| gen::payload(c.seed, seq)).collect();
    let reads = |width, window| Reads {
        base,
        hot: &hot,
        width,
        window,
    };
    let bench_tids = [thread_id()];
    let snap = wrap.recorder().map(|rec| Snapshot::take(rec, &bench_tids));
    let slow_before = host::slowdown();
    let serve = read_phase(&mut c, &mut rng, &reads(1, SERVE_WINDOW), phase, errors)?;
    let serve_slowdown = (slow_before + host::slowdown()) / 2.0;
    let serve_window = wrap
        .recorder()
        .zip(snap)
        .map(|(rec, start)| Snapshot::take(rec, &bench_tids).since(start));
    let (d0, p0) = (c.datagrams, c.packets);
    let span = read_phase(&mut c, &mut rng, &reads(SPAN, SPAN_WINDOW), phase, errors)?;
    let span_pkts_per_datagram = (c.packets - p0) as f64 / (c.datagrams - d0).max(1) as f64;

    drop(handle);
    match endpoint.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => errors.push(format!("logger endpoint failed: {e}")),
        Err(_) => errors.push("logger endpoint thread panicked".into()),
    }
    std::thread::sleep(super::READER_EXIT);
    if c.decode_fail > 0 {
        errors.push(format!(
            "{} datagrams from the logger did not decode",
            c.decode_fail
        ));
    }
    Ok(Rep {
        setup_s,
        ingest: ingest_phase,
        serve,
        serve_slowdown,
        span,
        span_pkts_per_datagram,
        decode_fail: c.decode_fail,
        serve_window,
    })
}

pub fn run(plan: &Plan) -> Result<RunResult, String> {
    let mut result = plan.result("logger_udp");
    env::multicast_probe(plan.port_base)?;
    result.notes.push(format!(
        "transport=udp-loopback closed loop, one client thread; ingest window {INGEST_WINDOW}, serve window {SERVE_WINDOW}, span {SPAN} x window {SPAN_WINDOW}; retention Count(65536), reads over the newest {HOT}; {} B payload",
        gen::PAYLOAD_LEN
    ));
    // Twenty-four repetitions of three phases (twelve when half the
    // budget goes to the probed repetition). Many short repetitions,
    // each on freshly spawned threads: three busy threads share two
    // cores here, and which two share one is re-drawn per repetition.
    let (reps, phase) = if plan.traced {
        (12, Duration::from_secs_f64(plan.seconds / 72.0))
    } else {
        (24, Duration::from_secs_f64(plan.seconds / 72.0))
    };
    let mut done = Vec::new();
    repetition(
        &Bare,
        plan.seed,
        99,
        plan.port_base + 1,
        Duration::from_millis(100),
        &mut Vec::new(),
    )?;
    for rep in 0..reps {
        done.push(repetition(
            &Bare,
            plan.seed,
            rep,
            plan.port_base + 2 + rep as u16,
            phase,
            &mut result.errors,
        )?);
    }
    let mut rtt_p50 = Vec::new();
    let mut rtt_p99 = Vec::new();
    for r in &mut done {
        let l = stats::latency_of(&mut r.serve.rtt_ns, 99.0);
        rtt_p50.push(l.p50_us);
        rtt_p99.push(l.tail_us);
        r.count_into(&mut result);
    }
    let col = |f: &dyn Fn(&Rep) -> f64| -> Vec<f64> { done.iter().map(f).collect() };
    let serve_per_s = col(&|r| r.serve.per_s(r.serve.ops));
    let m = &mut result.metrics;
    // The two bounded numbers are what the host would have done
    // undisturbed (see `host`); the named ones beside them are as
    // measured.
    let rtt_norm: Vec<f64> = rtt_p50
        .iter()
        .zip(&done)
        .map(|(rtt, r)| rtt / r.serve_slowdown)
        .collect();
    m.put("latency_p50_us", &rtt_norm);
    m.put("serve_rtt_p50_us", &rtt_p50);
    m.put("serve_rtt_p99_us", &rtt_p99);
    m.put(
        "throughput_per_s",
        &col(&|r| r.serve.per_s(r.serve.ops) * r.serve_slowdown),
    );
    m.put("nack_serve_per_s", &serve_per_s);
    m.put("bench.host_slowdown", &col(&|r| r.serve_slowdown));
    m.put("log_ingest_per_s", &col(&|r| r.ingest.per_s(r.ingest.ops)));
    m.put(
        "span_retrans_per_s",
        &col(&|r| r.span.per_s(r.span.replies)),
    );
    m.put("net.pkts_per_datagram", &col(&|r| r.span_pkts_per_datagram));
    m.put("setup_s", &col(&|r| r.setup_s));
    let total = |f: &dyn Fn(&Rep) -> u64| -> u64 { done.iter().map(f).sum() };
    result.notes.push(format!(
        "{} repetitions x 3 phases x {:.2}s; {} ingests, {} serves, {} span requests; throughput_per_s and latency_p50_us are host-speed normalised",
        done.len(),
        phase.as_secs_f64(),
        total(&|r| r.ingest.ops),
        total(&|r| r.serve.ops),
        total(&|r| r.span.ops)
    ));

    if plan.traced {
        let rec = Recorder::new(plan.span_cap, 4096, 0, 0);
        let phase = Duration::from_secs_f64(plan.seconds * 0.5 / 3.0);
        let r = repetition(
            &Probed(rec.clone()),
            plan.seed,
            50,
            plan.port_base + 40,
            phase,
            &mut result.errors,
        )?;
        r.count_into(&mut result);
        let w = r.serve_window.expect("probed repetition");
        let m = &mut result.metrics;
        super::put_net(m, &w, r.serve.ops, (r.serve.elapsed_s * 1e9) as u64);
        m.put_one(
            "bench.trace_overhead_ratio",
            stats::median(&serve_per_s) / r.serve.per_s(r.serve.ops),
        );
        super::finish_traced(plan, "logger_udp", &rec, &[], &mut result);
    }
    Ok(result)
}
