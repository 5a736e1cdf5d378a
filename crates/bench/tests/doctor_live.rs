//! Live integration: real UDP endpoints with the doctor sidecar and
//! admin surface attached (ISSUE acceptance): while the scenario is in
//! flight every admin route answers with its documented status, and
//! afterwards the folded incremental reports equal the batch analyze of
//! the run's own capture field-for-field, with zero events dropped at
//! the non-blocking sink.
//!
//! When the environment forbids UDP multicast the harness transparently
//! falls back to the in-process hub — same assertions, so the test
//! never skips.

use std::io::{Read as _, Write as _};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use lbrm_bench::live::{run_live, LiveOptions};
use lbrm_core::trace::analyze::{analyze, parse_json_lines, AnalyzeConfig};
use lbrm_core::trace::{DoctorConfig, JsonLinesSink, ReportBasis, TraceSink};

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

#[test]
fn live_admin_routes_answer_in_flight_and_fold_matches_batch() {
    let capture = Arc::new(JsonLinesSink::buffered());
    let opts = LiveOptions {
        receivers: 2,
        packets: 12,
        loss: 0.25,
        seed: 7,
        spacing: Duration::from_millis(15),
        settle: Duration::from_secs(8),
        port: 49_611,
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
        // The six documented routes, mid-flight.
        let (code, body) = http_get(addr, "/stats");
        assert_eq!(code, 200, "{body}");
        assert!(body.contains("\"records\":"), "{body}");
        for path in ["/timelines/live", "/anomalies/tail?n=5", "/mem"] {
            let (code, body) = http_get(addr, path);
            assert_eq!(code, 200, "{path}: {body}");
            assert!(body.starts_with('{'), "{path}: {body}");
        }
        // /deltas/last is 200 whether or not a tick has fired yet.
        let (code, _) = http_get(addr, "/deltas/last");
        assert_eq!(code, 200);
        // /healthz is 200 or 503 depending on open gaps right now.
        let (code, body) = http_get(addr, "/healthz");
        assert!(code == 200 || code == 503, "healthz {code}: {body}");
        // Error statuses are part of the contract too.
        assert_eq!(http_get(addr, "/nope").0, 404);
        assert_eq!(http_get(addr, "/anomalies/tail?n=banana").0, 400);
        assert!(air.doctor.ticks() > 0, "sidecar must be ticking in flight");
    })
    .expect("live run");

    assert!(
        outcome.delivered > 0,
        "no deliveries over {}",
        outcome.transport
    );
    assert_eq!(
        outcome.finish.dropped_events, 0,
        "recv loops must never have blocked or overflowed the sink"
    );

    // Fidelity: folded deltas == final report == batch analyze of the
    // run's own capture, field for field.
    let final_basis = ReportBasis::of_report(&outcome.finish.report);
    assert_eq!(outcome.finish.fold.basis, final_basis, "fold diverged");
    let (records, skipped) = parse_json_lines(&capture.contents());
    assert_eq!(skipped, 0, "capture must be parseable");
    assert_eq!(records.len() as u64, outcome.finish.records);
    let batch = analyze(&records, &AnalyzeConfig::default());
    assert_eq!(
        final_basis,
        ReportBasis::of_report(&batch),
        "live incremental path diverged from batch analyze"
    );

    // The registry heard the same stream (serial fanout).
    assert!(outcome.registry.counter("data_sent") > 0);
    // Admin keeps serving the final snapshot after the run.
    if let Some(admin) = &outcome.admin {
        let (code, body) = http_get(admin.local_addr(), "/stats");
        assert_eq!(code, 200);
        assert!(body.contains("\"finished\":true"), "{body}");
    }
}

/// Lossy live run over the bundling transports: the send-side counters are
/// published as gauges the sidecar polls every tick, `/stats` exposes
/// them mid-flight, and the datagram/packet ledger is coherent
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
        port: 49_613,
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

    assert!(
        outcome.delivered > 0,
        "no deliveries over {}",
        outcome.transport
    );
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
