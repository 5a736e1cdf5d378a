//! Live integration: real UDP endpoints with the doctor sidecar and
//! admin surface attached: while the scenario is in flight every admin
//! route answers with its documented status, and afterwards the
//! sidecar's final report equals the batch analyze of the run's own
//! capture field-for-field, `/stats` serves that report's counters, and
//! no event was dropped at the non-blocking sink.
//!
//! When the environment forbids UDP multicast the harness transparently
//! falls back to the in-process hub — same assertions, so the test
//! never skips.

use std::io::{Read as _, Write as _};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use lbrm_bench::doctor::replay_jsonl;
use lbrm_bench::live::{run_live, LiveOptions, LiveOutcome};
use lbrm_core::trace::analyze::{analyze, parse_json_lines, AnalyzeConfig, RecoveryReport};
use lbrm_core::trace::{DoctorConfig, JsonLinesSink, OnlineConfig, TraceSink};

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect admin");
    write!(stream, "GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
    let mut buf = String::new();
    stream.read_to_string(&mut buf).unwrap();
    let status = buf
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    let body = buf.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (status, body)
}

/// The unsigned integer `/stats` serves under `key`.
fn stats_field(body: &str, key: &str) -> u64 {
    body.split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no {key} in {body}"))
}

/// Field-for-field report equality over the field list of
/// `forensics_stream_sim.rs`'s `assert_reports_identical`, less what
/// depends on arrival order: timelines are matched by `(host, seq)`
/// rather than in close order, and the peak of open timelines is left
/// out.
fn assert_reports_identical(got: &RecoveryReport, want: &RecoveryReport) {
    assert_eq!(got.anomalies, want.anomalies, "anomalies, in order");
    assert_eq!(got.recovered, want.recovered, "recovered");
    assert_eq!(got.abandoned, want.abandoned, "abandoned");
    assert_eq!(got.unrecovered, want.unrecovered, "unrecovered");
    assert_eq!(got.sources, want.sources, "repair attribution");
    assert_eq!(got.duplicate_repairs, want.duplicate_repairs, "dups");
    assert_eq!(got.max_nack_fan_in, want.max_nack_fan_in, "fan-in");
    assert_eq!(got.telescoping, want.telescoping, "telescoping");
    assert_eq!(
        got.truncated_gap_spans, want.truncated_gap_spans,
        "truncated spans"
    );
    assert_eq!(got.fenced_rejects, want.fenced_rejects, "fenced");
    for (name, g, w) in [
        ("detection", &got.detection, &want.detection),
        ("request", &got.request, &want.request),
        ("serve", &got.serve, &want.serve),
        ("return", &got.return_leg, &want.return_leg),
        ("total", &got.total, &want.total),
    ] {
        assert!(!g.is_sampled(), "{name} stage was sampled");
        assert_eq!(g.samples(), w.samples(), "{name} stage");
        assert_eq!(g.percentile(0.95), w.percentile(0.95), "{name} p95");
    }
    let mut g: Vec<_> = got.timelines.iter().collect();
    let mut w: Vec<_> = want.timelines.iter().collect();
    for t in [&mut g, &mut w] {
        t.sort_by_key(|t| (t.host.raw(), t.seq.raw()));
    }
    assert_eq!(g.len(), w.len(), "timelines");
    for (g, w) in g.into_iter().zip(w) {
        assert_eq!(g.render(), w.render(), "rendered timeline");
        assert_eq!(format!("{g:?}"), format!("{w:?}"), "timeline");
    }
    assert_eq!(
        (got.stream.force_evicted, got.stream.aged_out),
        (0, 0),
        "live-state counters"
    );
}

/// Every receiver got every packet, and exactly the induced losses
/// arrived by recovery.
fn assert_delivered_everything(outcome: &LiveOutcome, packets_times_receivers: u64) {
    assert_eq!(
        outcome.delivered, packets_times_receivers,
        "deliveries over {}",
        outcome.transport
    );
    assert_eq!(
        outcome.recovered, outcome.induced_drops,
        "recoveries over {}",
        outcome.transport
    );
}

#[test]
fn live_admin_routes_answer_in_flight_and_match_batch() {
    let capture = Arc::new(JsonLinesSink::buffered());
    let opts = LiveOptions {
        receivers: 2,
        packets: 12,
        loss: 0.25,
        seed: 7,
        spacing: Duration::from_millis(15),
        settle: Duration::from_secs(8),
        admin_addr: Some("127.0.0.1:0".into()),
        capture: Some(capture.clone() as Arc<dyn TraceSink>),
        doctor: DoctorConfig {
            tick: Duration::from_millis(25),
            ..DoctorConfig::default()
        },
        ..LiveOptions::default()
    };

    let outcome = run_live(opts, |air| {
        let addr = air.admin_addr.expect("admin server bound");
        // The five documented routes, mid-flight.
        let (code, body) = http_get(addr, "/stats");
        assert_eq!(code, 200, "{body}");
        assert!(body.contains("\"records\":"), "{body}");
        for path in ["/timelines/live", "/anomalies/tail?n=5", "/mem"] {
            let (code, body) = http_get(addr, path);
            assert_eq!(code, 200, "{path}: {body}");
            assert!(body.starts_with('{'), "{path}: {body}");
        }
        // /healthz is 200 or 503 depending on open gaps right now.
        let (code, body) = http_get(addr, "/healthz");
        assert!(code == 200 || code == 503, "healthz {code}: {body}");
        // Error statuses are part of the contract too.
        assert_eq!(http_get(addr, "/nope").0, 404);
        assert_eq!(http_get(addr, "/anomalies/tail?n=banana").0, 400);
        assert!(air.doctor.ticks() > 0, "sidecar must be ticking in flight");
    })
    .expect("live run");

    assert_delivered_everything(&outcome, 12 * 2);
    assert_eq!(
        outcome.finish.dropped_events, 0,
        "recv loops must never have blocked or overflowed the sink"
    );

    // Fidelity. The sidecar folds records in arrival order, which the
    // endpoint threads do not keep in timestamp order; `analyze` sorts
    // first. So the arrival-order replay of the run's own capture
    // matches the final report exactly, and batch `analyze` matches it
    // field for field on everything the order cannot move.
    let report = &outcome.finish.report;
    let contents = capture.contents();
    let replay = replay_jsonl(contents.as_bytes(), OnlineConfig::default()).expect("replay");
    assert_eq!(format!("{report:?}"), format!("{:?}", replay.report));
    let (records, skipped) = parse_json_lines(&contents);
    assert_eq!(skipped, 0, "capture must be parseable");
    assert_eq!(records.len() as u64, outcome.finish.records);
    assert_reports_identical(report, &analyze(&records, &AnalyzeConfig::default()));

    // The registry heard the same stream (serial fanout).
    assert!(outcome.registry.counter("data_sent") > 0);
    // Admin keeps serving the final snapshot after the run: its
    // counters are the final report's.
    let admin = outcome.admin.as_ref().expect("admin server kept");
    let (code, body) = http_get(admin.local_addr(), "/stats");
    assert_eq!(code, 200);
    assert!(body.contains("\"finished\":true"), "{body}");
    for (key, want) in [
        ("records", outcome.finish.records),
        ("recovered", report.recovered as u64),
        ("abandoned", report.abandoned as u64),
        ("unrecovered", report.unrecovered as u64),
        ("duplicate_repairs", report.duplicate_repairs),
        ("max_nack_fan_in", report.max_nack_fan_in),
        ("anomalies", report.anomalies.len() as u64),
    ] {
        assert_eq!(stats_field(&body, key), want, "/stats {key}");
    }
}

/// Lossy live run over the bundling transports: the send-side rows are
/// attached to the registry, `/stats` reads them in place mid-flight,
/// and the datagram/packet ledger is coherent
/// (bundling can only coalesce, never multiply datagrams). The gauge
/// assertions need real `UdpTransport`s, so they are skipped — loudly —
/// when the environment forces the in-process hub.
#[test]
fn live_bundled_run_publishes_send_gauges() {
    let opts = LiveOptions {
        receivers: 2,
        packets: 15,
        loss: 0.2,
        seed: 23,
        spacing: Duration::from_millis(10),
        settle: Duration::from_secs(8),
        admin_addr: Some("127.0.0.1:0".into()),
        doctor: DoctorConfig {
            tick: Duration::from_millis(25),
            ..DoctorConfig::default()
        },
        ..LiveOptions::default()
    };

    let outcome = run_live(opts, |air| {
        let addr = air.admin_addr.expect("admin server bound");
        let (code, body) = http_get(addr, "/stats");
        assert_eq!(code, 200, "{body}");
        // Mid-flight scrape refreshes the probes, so the per-endpoint
        // send gauges are already visible while traffic flows (the CI
        // live-doctor job polls exactly this).
        if body.contains(".send.packets") {
            assert!(body.contains(".send.datagrams"), "{body}");
            assert!(body.contains(".send.bytes"), "{body}");
        }
    })
    .expect("live run");

    assert_delivered_everything(&outcome, 15 * 2);
    if outcome.transport != "udp" {
        eprintln!("live bundled run: hub fallback, send gauges not exercised");
        return;
    }

    // Every endpoint published its send ledger; datagrams never exceed
    // packets, and at least one endpoint actually sent.
    let gauges = outcome.registry.gauges();
    let senders: Vec<_> = gauges
        .iter()
        .filter(|(k, _)| k.ends_with(".send.packets"))
        .collect();
    assert_eq!(senders.len(), 4, "sender, logger, 2 receivers: {gauges:?}");
    let mut total_packets = 0;
    for (k, packets) in senders {
        let base = k.trim_end_matches("packets");
        let datagrams = gauges[&format!("{base}datagrams")];
        assert!(
            datagrams <= *packets,
            "{k}: bundling can only coalesce ({datagrams} datagrams > {packets} packets)"
        );
        if *packets > 0 {
            assert!(gauges[&format!("{base}bytes")] > 0, "{k}");
        }
        total_packets += *packets;
    }
    assert!(total_packets > 0, "no endpoint sent anything: {gauges:?}");
}

/// The CI live-doctor job's run (seed 77, three receivers, 15 % loss):
/// one receiver loses the stream's first packets. A plan's receivers
/// listen before the sender starts, so it recovers them like any other
/// loss and all 90 deliveries arrive.
#[test]
fn live_receivers_recover_the_streams_first_packets() {
    let opts = LiveOptions {
        packets: 30,
        seed: 77,
        spacing: Duration::from_millis(40),
        settle: Duration::from_secs(6),
        ..LiveOptions::default()
    };
    let outcome = run_live(opts, |_| {}).expect("live run");
    assert_delivered_everything(&outcome, 30 * 3);
    let report = &outcome.finish.report;
    assert!(report.is_clean(), "{:?}", report.anomalies);
}

/// Two runs at once on one host keep their streams apart: each picks a
/// group port of its own, so neither run's receivers hear the other's
/// stream, whose copies would fill their induced drops.
#[test]
fn concurrent_live_runs_keep_their_streams_apart() {
    let run = |seed| {
        std::thread::spawn(move || {
            let opts = LiveOptions {
                receivers: 2,
                packets: 15,
                loss: 0.2,
                seed,
                spacing: Duration::from_millis(10),
                settle: Duration::from_secs(8),
                ..LiveOptions::default()
            };
            run_live(opts, |_| {}).expect("live run")
        })
    };
    let runs = [run(5), run(6)];
    for run in runs {
        let outcome = run.join().expect("live run thread");
        assert_delivered_everything(&outcome, 15 * 2);
        assert!(outcome.induced_drops > 0, "seeded loss induced nothing");
        let report = &outcome.finish.report;
        assert!(report.is_clean(), "{:?}", report.anomalies);
    }
}
