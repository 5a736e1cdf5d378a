//! Persisted performance baseline for the simulator's hot paths.
//!
//! Times the simulator's representative workloads — the DIS scenario's
//! event-loop step rate, dense timer churn on the event queue itself,
//! wire codec encode/decode, the logger's NACK fan-in service path, and
//! the streaming forensics correlator's event-consumption rate — and
//! writes the results to `BENCH_sim.json` at the repo root so
//! regressions are visible in review.
//!
//! ```text
//! perf_baseline            # measure and rewrite BENCH_sim.json
//! perf_baseline --check    # measure and FAIL on a large regression:
//!                          # >25% on the DIS scenario step rate, >60%
//!                          # on the codec and logger microbenches
//! ```
//!
//! `--check` gates hardest on the step rate (the end-to-end number);
//! the codec and logger floors are looser because short microbenches
//! are noisier. All thresholds are loose on purpose: CI machines are
//! noisy, and the committed file may have been produced on different
//! hardware — the check catches order-of-magnitude mistakes (an
//! accidental serialize on the send path, a linear scan in the log),
//! not single-digit-percent drift.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lbrm::harness::{DisScenario, DisScenarioConfig};
use lbrm_bench::experiments::table3_breakdown::{loaded_logger, serve_once};
use lbrm_bench::microbench::bench_function;
use lbrm_core::machine::{Actions, Machine};
use lbrm_sim::loss::LossModel;
use lbrm_sim::queue::EventQueue;
use lbrm_sim::time::SimTime;
use lbrm_sim::topology::SiteParams;
use lbrm_wire::packet::SeqRange;
use lbrm_wire::{
    decode_bytes, encode, encode_bundle, BundleBuilder, EpochId, GroupId, HostId, Packet, Seq,
    SourceId, DEFAULT_BUNDLE_MTU,
};

/// Where the committed baseline lives (repo root).
const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");

/// `--check` fails when the measured step rate drops below this fraction
/// of the committed one.
const CHECK_FLOOR: f64 = 0.75;

/// Looser floor for the codec and logger microbenches: tiny kernels
/// whiplash more under CI noise, so only a >60% collapse (a lost
/// zero-copy, an accidental re-encode) fails the check.
const AUX_CHECK_FLOOR: f64 = 0.40;

/// One measured workload.
#[derive(Debug, Clone, PartialEq)]
struct Workload {
    name: String,
    /// Throughput in events (or iterations) per second.
    events_per_sec: f64,
    /// Wall-clock spent measuring, in seconds.
    wall_secs: f64,
}

/// Runs the DIS scenario once and returns (events processed, wall time).
///
/// Deterministic: fixed seed, fixed loss schedule, so the event count is
/// identical run-to-run and only the wall time varies.
fn dis_scenario_events() -> (u64, Duration) {
    let mut sc = DisScenario::build(DisScenarioConfig {
        sites: 10,
        receivers_per_site: 5,
        secondary_loggers: true,
        site_params: SiteParams {
            tail_in_loss: LossModel::rate(0.05),
            ..SiteParams::distant()
        },
        site_params_for: None::<Arc<dyn Fn(usize) -> SiteParams>>,
        seed: 7,
        ..DisScenarioConfig::default()
    });
    for i in 0..20u64 {
        sc.send_at(
            SimTime::from_millis(1000 + i * 400),
            Bytes::from_static(b"perf-baseline-update"),
        );
    }
    let limit = SimTime::from_secs(60);
    let start = Instant::now();
    let mut events = 0u64;
    while sc.world.now() <= limit && sc.world.step() {
        events += 1;
    }
    (events, start.elapsed())
}

/// DIS scenario step rate: best-of-many runs (the metric `--check`
/// gates on, so take the least noisy sample and accumulate enough wall
/// time that one scheduler hiccup can't dominate the measurement).
fn bench_dis_scenario() -> Workload {
    let mut best_rate = 0.0f64;
    let mut total_wall = Duration::ZERO;
    let mut runs = 0u32;
    while runs < 3 || (total_wall < Duration::from_millis(250) && runs < 100) {
        let (events, wall) = dis_scenario_events();
        total_wall += wall;
        runs += 1;
        best_rate = best_rate.max(events as f64 / wall.as_secs_f64());
    }
    Workload {
        name: "dis_scenario_step".into(),
        events_per_sec: best_rate,
        wall_secs: total_wall.as_secs_f64(),
    }
}

/// How many shards the 1000-site workload runs with here: one per core
/// up to 8, so the committed number reflects the parallel simulator on
/// multi-core boxes and degrades to the serial path on one core.
fn bench_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(1)
}

/// The committed 1000-site × 30-receiver DIS workload: the scale the
/// shard-invariance matrix pins, run through `run_until` so the sharded
/// epoch scheduler (not the serial `step()` path) is what gets timed.
/// The event count is seed-determined and shard-invariant; only wall
/// time varies.
fn dis_1000x30_events(shards: usize) -> (u64, Duration) {
    let mut sc = DisScenario::build(DisScenarioConfig {
        sites: 1_000,
        receivers_per_site: 30,
        site_params: SiteParams {
            tail_in_loss: LossModel::rate(0.05),
            ..SiteParams::distant()
        },
        shards: Some(shards),
        seed: 1995,
        ..DisScenarioConfig::default()
    });
    for i in 0..4u64 {
        sc.send_at(
            SimTime::from_millis(1_000 + i * 400),
            Bytes::from_static(b"perf-baseline-1000x30"),
        );
    }
    let start = Instant::now();
    sc.world.run_until(SimTime::from_millis(3_000));
    (sc.world.events_processed(), start.elapsed())
}

/// Best-of-runs rate for the 1000×30 workload at `shards` shards.
fn dis_1000x30_rate(shards: usize) -> Workload {
    let mut best_rate = 0.0f64;
    let mut total_wall = Duration::ZERO;
    let mut runs = 0u32;
    while runs < 2 || (total_wall < Duration::from_millis(500) && runs < 20) {
        let (events, wall) = dis_1000x30_events(shards);
        total_wall += wall;
        runs += 1;
        best_rate = best_rate.max(events as f64 / wall.as_secs_f64());
    }
    Workload {
        name: "dis_scenario_1000x30".into(),
        events_per_sec: best_rate,
        wall_secs: total_wall.as_secs_f64(),
    }
}

fn bench_dis_1000x30() -> Workload {
    dis_1000x30_rate(bench_shards())
}

/// Dense timer arm/fire churn on the event queue alone: a steady
/// population of timers where every pop re-arms with a delta drawn from
/// the bands the DIS scenario schedules in (same-tick LAN deliveries,
/// 5–80 ms link latencies, the 250 ms heartbeat, multi-second idle
/// backoff). Exercises bucket pushes, cascades, and the ready list
/// without any actor work in the way.
fn bench_event_queue_churn() -> Workload {
    const RESIDENT: usize = 4096;
    const ITERS: u64 = 400_000;
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn delta(r: u64) -> Duration {
        Duration::from_nanos(match r % 10 {
            0..=2 => r % 1_000_000,                  // same tick
            3..=6 => 5_000_000 + r % 75_000_000,     // link latencies
            7..=8 => 250_000_000,                    // h_min heartbeat
            _ => 2_000_000_000 + r % 30_000_000_000, // h_max backoff band
        })
    }
    let run = || {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut s = 0x5EED_CAFE_u64;
        for i in 0..RESIDENT as u64 {
            q.push(SimTime::from_nanos(splitmix(&mut s) % 1_000_000_000), i);
        }
        let start = Instant::now();
        for _ in 0..ITERS {
            let (at, item) = q.pop().expect("queue stays resident");
            q.push(at + delta(splitmix(&mut s)), item);
        }
        std::hint::black_box(q.len());
        start.elapsed()
    };
    let mut best_rate = 0.0f64;
    let mut total_wall = Duration::ZERO;
    let mut runs = 0u32;
    while runs < 3 || (total_wall < Duration::from_millis(250) && runs < 100) {
        let wall = run();
        total_wall += wall;
        runs += 1;
        best_rate = best_rate.max(ITERS as f64 / wall.as_secs_f64());
    }
    Workload {
        name: "event_queue_churn".into(),
        events_per_sec: best_rate,
        wall_secs: total_wall.as_secs_f64(),
    }
}

fn sample_data_packet() -> Packet {
    Packet::Data {
        group: GroupId(1),
        source: SourceId(1),
        seq: Seq(42),
        epoch: EpochId(0),
        payload: Bytes::from(vec![0x5Au8; 128]),
    }
}

fn bench_codec_encode() -> Workload {
    let p = sample_data_packet();
    let start = Instant::now();
    let m = bench_function("codec_encode_data_128B", |b| {
        b.iter(|| encode(&p).expect("encodable"))
    });
    Workload {
        name: "codec_encode_data_128B".into(),
        events_per_sec: m.iters_per_sec(),
        wall_secs: start.elapsed().as_secs_f64(),
    }
}

fn bench_codec_decode() -> Workload {
    // The receive path as the transports actually run it: the datagram
    // arrives as `Bytes` and `decode_bytes` carves the payload out of it
    // zero-copy. Handing each iteration its own `Bytes` is setup, not
    // decoding, so it is batched out of the measurement.
    let wire = encode(&sample_data_packet()).expect("encodable");
    let start = Instant::now();
    let m = bench_function("codec_decode_data_128B", |b| {
        b.iter_batched_ref(
            || Some(wire.clone()),
            |data| decode_bytes(data.take().expect("fresh state")).expect("decodable"),
        )
    });
    Workload {
        name: "codec_decode_data_128B".into(),
        events_per_sec: m.iters_per_sec(),
        wall_secs: start.elapsed().as_secs_f64(),
    }
}

/// How many 128-byte data packets the bundle workloads frame per pass,
/// chosen so the whole run fits one MTU-sized frame (checked by the
/// decode workload's single-frame assertion).
const BUNDLE_RUN: usize = 8;

fn bundle_run_packets() -> Vec<Packet> {
    (1..=BUNDLE_RUN as u32)
        .map(|i| Packet::Data {
            group: GroupId(1),
            source: SourceId(1),
            seq: Seq(i),
            epoch: EpochId(0),
            payload: Bytes::from(vec![0x5Au8; 128]),
        })
        .collect()
}

/// Steady-state bundling rate: a [`BundleBuilder`] framing a run of
/// data packets into MTU-bounded frames, reusing its scratch buffers —
/// the sender/logger emit path with bundling on. Each framed packet
/// counts as one event.
fn bench_bundle_encode() -> Workload {
    let packets = bundle_run_packets();
    let mut builder = BundleBuilder::with_default_mtu();
    let start = Instant::now();
    let m = bench_function("bundle_encode", |b| {
        b.iter(|| {
            let mut sealed = 0usize;
            for p in &packets {
                if let Some(frame) = builder.push(p).expect("bundleable") {
                    sealed += frame.len();
                }
            }
            if let Some(frame) = builder.flush() {
                sealed += frame.len();
            }
            sealed
        })
    });
    Workload {
        name: "bundle_encode".into(),
        events_per_sec: m.iters_per_sec() * BUNDLE_RUN as f64,
        wall_secs: start.elapsed().as_secs_f64(),
    }
}

/// Bundle receive rate: one checksum pass over the frame, then each
/// entry decoded with its payload sliced zero-copy out of the shared
/// datagram allocation. Each unbundled packet counts as one event.
fn bench_bundle_decode() -> Workload {
    let frames = encode_bundle(&bundle_run_packets(), DEFAULT_BUNDLE_MTU).expect("bundleable");
    assert_eq!(frames.len(), 1, "run should fit one frame");
    let frame = frames.into_iter().next().expect("one frame");
    let start = Instant::now();
    let m = bench_function("bundle_decode_zero_copy", |b| {
        b.iter(|| lbrm_wire::decode_bundle(&frame).expect("decodable"))
    });
    Workload {
        name: "bundle_decode_zero_copy".into(),
        events_per_sec: m.iters_per_sec() * BUNDLE_RUN as f64,
        wall_secs: start.elapsed().as_secs_f64(),
    }
}

/// Bundled repair serving: one wide NACK is decoded, the logger's
/// collect-span answers it with a contiguous run of retransmissions,
/// and the run is framed into MTU-full bundles instead of per-packet
/// datagrams — the NACK-storm fast path end to end. Each served
/// retransmission counts as one event.
fn bench_repair_serve_bundled() -> Workload {
    const SPAN: u32 = 16;
    let mut logger = loaded_logger(1024, 128);
    let nacks: Vec<Vec<u8>> = (0..64u32)
        .map(|i| {
            let first = i * SPAN + 1;
            encode(&Packet::Nack {
                group: GroupId(1),
                source: SourceId(1),
                requester: HostId(400 + u64::from(i % 97)),
                ranges: vec![SeqRange {
                    first: Seq(first),
                    last: Seq(first + SPAN - 1),
                }],
            })
            .expect("encodable")
            .to_vec()
        })
        .collect();
    let mut builder = BundleBuilder::with_default_mtu();
    let mut out = Actions::new();
    let mut i = 0usize;
    let start = Instant::now();
    let m = bench_function("repair_serve_bundled", |b| {
        b.iter(|| {
            let nack = decode_bytes(Bytes::from(nacks[i % nacks.len()].clone())).expect("nack");
            i += 1;
            logger.on_packet(lbrm_core::time::Time::ZERO, HostId(400), nack, &mut out);
            let mut bytes = 0usize;
            for a in out.drain(..) {
                if let lbrm_core::machine::Action::Unicast { packet, .. } = a {
                    if let Some(frame) = builder.push(&packet).expect("bundleable") {
                        bytes += frame.len();
                    }
                }
            }
            if let Some(frame) = builder.flush() {
                bytes += frame.len();
            }
            bytes
        })
    });
    Workload {
        name: "repair_serve_bundled".into(),
        events_per_sec: m.iters_per_sec() * SPAN as f64,
        wall_secs: start.elapsed().as_secs_f64(),
    }
}

/// Logger NACK fan-in: decode → log lookup → retransmission encode,
/// rotating requests through a 1,024-entry log.
fn bench_logger_fanin() -> Workload {
    let mut logger = loaded_logger(1024, 128);
    let nacks: Vec<Vec<u8>> = (1..=1024u32)
        .map(|i| {
            encode(&Packet::Nack {
                group: GroupId(1),
                source: SourceId(1),
                requester: HostId(400 + u64::from(i % 97)),
                ranges: vec![SeqRange::single(Seq(i))],
            })
            .expect("encodable")
            .to_vec()
        })
        .collect();
    let mut out = Actions::new();
    let mut i = 0usize;
    let start = Instant::now();
    let m = bench_function("logger_nack_fanin", |b| {
        b.iter(|| {
            let bytes = serve_once(&mut logger, &nacks[i % nacks.len()], &mut out);
            i += 1;
            bytes
        })
    });
    Workload {
        name: "logger_nack_fanin".into(),
        events_per_sec: m.iters_per_sec(),
        wall_secs: start.elapsed().as_secs_f64(),
    }
}

/// Raw log-store serving rate: batched `collect_span` over a loaded
/// store — the kernel under the logger's NACK fan-in, measured without
/// codec or state-machine overhead. A 64-seq window rotates through an
/// 8,192-entry log with a 1-in-8 presence hole so both the present
/// word-scan and the missing-run coalescing run every pass; each served
/// sequence counts as one event.
fn bench_logstore_serve() -> Workload {
    use lbrm_core::logstore::{LogStore, Retention};
    use lbrm_core::time::Time;

    const LOG: u32 = 8_192;
    const WINDOW: u64 = 64;
    let mut store = LogStore::new(Retention::All);
    let payload = Bytes::from(vec![0x5Au8; 128]);
    for i in 1..=LOG {
        if i % 8 != 0 {
            store.insert(Time::ZERO, Seq(i), payload.clone());
        }
    }
    let mut present = Vec::new();
    let mut missing = Vec::new();
    let mut first = 1u32;
    let start = Instant::now();
    let m = bench_function("logstore_serve", |b| {
        b.iter(|| {
            present.clear();
            missing.clear();
            store.collect_span(Seq(first), WINDOW, &mut present, &mut missing);
            first = first % (LOG - WINDOW as u32) + 1;
            std::hint::black_box(present.len() + missing.len())
        })
    });
    Workload {
        name: "logstore_serve".into(),
        // One iteration scans WINDOW sequences.
        events_per_sec: m.iters_per_sec() * WINDOW as f64,
        wall_secs: start.elapsed().as_secs_f64(),
    }
}

/// Election-storm rate: the sender's consensus hot path under repeated
/// leader loss. One sender with four log replicas and a permanently
/// un-acked buffer cycles through full failover rounds — handoff
/// retries time out, `ElectPrepare` fans out, every reachable replica
/// answers `ElectPromise`, the term commits and the buffer re-aims at
/// the winner — which then also never acks, starting the next round.
/// Each committed election (prepare fan-out, promise fan-in, winner
/// selection, term bookkeeping, buffer refill) counts as one event.
/// Time is virtual, so this measures pure state-machine cost.
fn bench_election_storm() -> Workload {
    use lbrm_core::machine::Action;
    use lbrm_core::sender::{Sender, SenderConfig};
    use lbrm_core::time::Time;

    const REPLICAS: u64 = 4;
    const ROUNDS: u64 = 2_000;
    let run = || {
        let replicas: Vec<HostId> = (0..REPLICAS).map(|i| HostId(300 + i)).collect();
        let mut cfg = SenderConfig::new(GroupId(1), SourceId(1), HostId(1), HostId(2));
        cfg.replicas = replicas;
        let mut s = Sender::new(cfg);
        let mut out = Actions::new();
        s.on_start(Time::ZERO, &mut out);
        s.send(Time::ZERO, Bytes::from_static(b"election-storm"), &mut out);
        out.clear();
        let start = Instant::now();
        let mut elected = 0u64;
        while elected < ROUNDS {
            let now = s.next_deadline().expect("sender keeps timers armed");
            s.poll(now, &mut out);
            let prepares: Vec<(HostId, u32)> = out
                .iter()
                .filter_map(|a| match a {
                    Action::Unicast {
                        to,
                        packet: Packet::ElectPrepare { term, .. },
                    } => Some((*to, *term)),
                    _ => None,
                })
                .collect();
            out.clear();
            if prepares.is_empty() {
                continue;
            }
            for &(voter, term) in &prepares {
                s.on_packet(
                    now,
                    voter,
                    Packet::ElectPromise {
                        group: GroupId(1),
                        source: SourceId(1),
                        term,
                        voter,
                        log_end: Seq(voter.raw() as u32),
                    },
                    &mut out,
                );
            }
            out.clear();
            elected += 1;
        }
        std::hint::black_box(s.term());
        start.elapsed()
    };
    let mut best_rate = 0.0f64;
    let mut total_wall = Duration::ZERO;
    let mut runs = 0u32;
    while runs < 3 || (total_wall < Duration::from_millis(250) && runs < 100) {
        let wall = run();
        total_wall += wall;
        runs += 1;
        best_rate = best_rate.max(ROUNDS as f64 / wall.as_secs_f64());
    }
    Workload {
        name: "election_storm".into(),
        events_per_sec: best_rate,
        wall_secs: total_wall.as_secs_f64(),
    }
}

/// Streaming forensics correlation rate: a seeded lossy DIS capture is
/// collected once, then pushed through a fresh [`OnlineAnalyzer`] per
/// run — gap/NACK/repair correlation, histogram folding, reservoir
/// maintenance and resident-byte metering included. This is the
/// events/s a live `reproduce` self-audit or a `trace_doctor`
/// replay sustains per core.
///
/// [`OnlineAnalyzer`]: lbrm_core::trace::OnlineAnalyzer
fn bench_forensics_stream() -> Workload {
    use lbrm_core::trace::{CollectorSink, OnlineAnalyzer, OnlineConfig, TraceSink};

    let collector = Arc::new(CollectorSink::default());
    let mut sc = DisScenario::build_with_sink(
        lbrm_bench::doctor::demo_config(7),
        Some(collector.clone() as Arc<dyn TraceSink>),
    );
    for i in 0..100u64 {
        sc.send_at(
            SimTime::from_millis(1_000 + 250 * i),
            Bytes::from_static(b"forensics-bench-update"),
        );
    }
    sc.world.run_until(SimTime::from_secs(45));
    let records = collector.take();
    assert!(records.len() > 1_000, "capture should have real volume");

    // One timed run is many full correlation passes, so each sample is
    // milliseconds of work rather than a timer-resolution coin flip.
    const PASSES: usize = 25;
    let run = || {
        let start = Instant::now();
        for _ in 0..PASSES {
            let mut analyzer = OnlineAnalyzer::new(OnlineConfig::default());
            for r in &records {
                analyzer.push_record(r);
            }
            std::hint::black_box(analyzer.finish().recovered);
        }
        start.elapsed()
    };
    let mut best_rate = 0.0f64;
    let mut total_wall = Duration::ZERO;
    let mut runs = 0u32;
    while runs < 3 || (total_wall < Duration::from_millis(250) && runs < 100) {
        let wall = run();
        total_wall += wall;
        runs += 1;
        best_rate = best_rate.max((PASSES * records.len()) as f64 / wall.as_secs_f64());
    }
    Workload {
        name: "forensics_stream".into(),
        events_per_sec: best_rate,
        wall_secs: total_wall.as_secs_f64(),
    }
}

/// Renders the workloads as the committed JSON document.
fn to_json(workloads: &[Workload]) -> String {
    let mut s = String::from("{\n  \"workloads\": [\n");
    for (i, w) in workloads.iter().enumerate() {
        s.push_str(&format!(
            "    {{ \"name\": \"{}\", \"events_per_sec\": {:.1}, \"wall_secs\": {:.3} }}{}\n",
            w.name,
            w.events_per_sec,
            w.wall_secs,
            if i + 1 < workloads.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Parses the document [`to_json`] writes. Not a general JSON parser —
/// just enough to read our own output back: scans for `"name"` /
/// `"events_per_sec"` / `"wall_secs"` key-value pairs in order.
fn from_json(doc: &str) -> Vec<Workload> {
    fn str_after<'a>(s: &'a str, key: &str) -> Option<(&'a str, &'a str)> {
        let at = s.find(key)? + key.len();
        let rest = &s[at..];
        let open = rest.find('"')? + 1;
        let rest = &rest[open..];
        let close = rest.find('"')?;
        Some((&rest[..close], &rest[close..]))
    }
    fn num_after<'a>(s: &'a str, key: &str) -> Option<(f64, &'a str)> {
        let at = s.find(key)? + key.len();
        let rest = s[at..].trim_start_matches([':', ' ']);
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
            .unwrap_or(rest.len());
        Some((rest[..end].parse().ok()?, &rest[end..]))
    }
    let mut out = Vec::new();
    let mut rest = doc;
    while let Some((name, after)) = str_after(rest, "\"name\"") {
        let Some((events_per_sec, after)) = num_after(after, "\"events_per_sec\"") else {
            break;
        };
        let Some((wall_secs, after)) = num_after(after, "\"wall_secs\"") else {
            break;
        };
        out.push(Workload {
            name: name.to_string(),
            events_per_sec,
            wall_secs,
        });
        rest = after;
    }
    out
}

/// Every gated workload and its `--check` floor, in measurement order.
const GATES: [(&str, f64); 12] = [
    ("dis_scenario_step", CHECK_FLOOR),
    ("dis_scenario_1000x30", CHECK_FLOOR),
    ("event_queue_churn", AUX_CHECK_FLOOR),
    ("codec_encode_data_128B", AUX_CHECK_FLOOR),
    ("codec_decode_data_128B", AUX_CHECK_FLOOR),
    ("bundle_encode", AUX_CHECK_FLOOR),
    ("bundle_decode_zero_copy", AUX_CHECK_FLOOR),
    ("logger_nack_fanin", AUX_CHECK_FLOOR),
    ("repair_serve_bundled", AUX_CHECK_FLOOR),
    ("logstore_serve", AUX_CHECK_FLOOR),
    ("election_storm", AUX_CHECK_FLOOR),
    ("forensics_stream", AUX_CHECK_FLOOR),
];

fn measure_all() -> Vec<Workload> {
    vec![
        bench_dis_scenario(),
        bench_dis_1000x30(),
        bench_event_queue_churn(),
        bench_codec_encode(),
        bench_codec_decode(),
        bench_bundle_encode(),
        bench_bundle_decode(),
        bench_logger_fanin(),
        bench_repair_serve_bundled(),
        bench_logstore_serve(),
        bench_election_storm(),
        bench_forensics_stream(),
    ]
}

/// Multi-shard speedup gate: on a machine with at least four cores the
/// sharded 1000×30 run must beat the serial one by ≥ 1.5×. On smaller
/// boxes (CI runners are often 1–2 cores) there is no parallelism to
/// measure, so the gate is skipped rather than reporting noise.
fn check_shard_speedup() -> bool {
    const SPEEDUP_FLOOR: f64 = 1.5;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores < 4 {
        println!("check: shard speedup            skipped ({cores} cores < 4)");
        return true;
    }
    let serial = dis_1000x30_rate(1);
    let sharded = dis_1000x30_rate(bench_shards());
    let speedup = sharded.events_per_sec / serial.events_per_sec;
    println!(
        "check: shard speedup            {speedup:.2}x ({:.0} vs {:.0} events/s, floor {SPEEDUP_FLOOR}x)",
        sharded.events_per_sec, serial.events_per_sec
    );
    if speedup < SPEEDUP_FLOOR {
        eprintln!(
            "perf_baseline --check: FAIL — {} shards only {speedup:.2}x over serial",
            bench_shards()
        );
        return false;
    }
    true
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    eprintln!("perf_baseline: measuring {} workloads...", GATES.len());
    let measured = measure_all();
    for w in &measured {
        println!(
            "{:<28} {:>14.1} events/s   ({:.2}s wall)",
            w.name, w.events_per_sec, w.wall_secs
        );
    }

    if check {
        let doc = match std::fs::read_to_string(BASELINE_PATH) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("perf_baseline --check: cannot read {BASELINE_PATH}: {e}");
                std::process::exit(1);
            }
        };
        let committed = from_json(&doc);
        println!();
        let mut failed = false;
        for (name, floor) in GATES {
            let Some(base) = committed.iter().find(|w| w.name == name) else {
                eprintln!("perf_baseline --check: no {name} entry in baseline");
                failed = true;
                continue;
            };
            let now = measured
                .iter()
                .find(|w| w.name == name)
                .expect("measured above");
            let ratio = now.events_per_sec / base.events_per_sec;
            println!(
                "check: {name:<24} {:>14.0} events/s vs committed {:.0} ({}% of baseline, floor {}%)",
                now.events_per_sec,
                base.events_per_sec,
                (ratio * 100.0).round(),
                (floor * 100.0) as u32,
            );
            if ratio < floor {
                eprintln!(
                    "perf_baseline --check: FAIL — {name} regressed below {}% of baseline",
                    (floor * 100.0) as u32
                );
                failed = true;
            }
        }
        if !check_shard_speedup() {
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("check: OK");
    } else {
        std::fs::write(BASELINE_PATH, to_json(&measured)).expect("write BENCH_sim.json");
        println!("\nwrote {BASELINE_PATH}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips() {
        let ws = vec![
            Workload {
                name: "dis_scenario_step".into(),
                events_per_sec: 12345.6,
                wall_secs: 1.234,
            },
            Workload {
                name: "codec_encode_data_128B".into(),
                events_per_sec: 9.9e6,
                wall_secs: 0.5,
            },
        ];
        let doc = to_json(&ws);
        let back = from_json(&doc);
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].name, "dis_scenario_step");
        assert!((back[0].events_per_sec - 12345.6).abs() < 0.1);
        assert!((back[1].events_per_sec - 9.9e6).abs() < 1.0);
        assert!((back[1].wall_secs - 0.5).abs() < 1e-9);
    }

    #[test]
    fn from_json_rejects_garbage_gracefully() {
        assert!(from_json("").is_empty());
        assert!(from_json("{\"workloads\": []}").is_empty());
        // A truncated entry parses nothing rather than panicking.
        assert!(from_json("{\"name\": \"x\", \"events_per_sec\": ").is_empty());
    }

    #[test]
    fn dis_scenario_event_count_is_deterministic() {
        let (a, _) = dis_scenario_events();
        let (b, _) = dis_scenario_events();
        assert_eq!(a, b);
        assert!(a > 1_000, "scenario should generate real work, got {a}");
    }

    #[test]
    fn dis_1000x30_event_count_is_shard_invariant() {
        let (serial, _) = dis_1000x30_events(1);
        let (sharded, _) = dis_1000x30_events(4);
        assert_eq!(serial, sharded);
        assert!(
            serial > 100_000,
            "1000x30 should generate real work, got {serial}"
        );
    }
}
