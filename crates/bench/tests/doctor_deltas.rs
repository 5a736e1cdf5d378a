//! Delta-algebra property tests for the live doctor (ISSUE satellite):
//! on randomized seeded lossy-WAN runs, the fold of every incremental
//! [`ReportDelta`] plus the terminal delta must equal the one-shot
//! batch `analyze` report field-for-field, whatever tick boundaries the
//! stream was cut at — and the admin surface's `/anomalies/tail` must
//! list anomalies in exactly the batch report's order.

use std::io::{Read as _, Write as _};
use std::sync::Arc;
use std::time::Duration;

use lbrm::harness::DisScenarioConfig;
use lbrm::sim::loss::LossModel;
use lbrm::sim::time::SimTime;
use lbrm::sim::topology::SiteParams;
use lbrm_bench::doctor::run_scenario;
use lbrm_core::trace::analyze::{analyze, AnalyzeConfig, TraceRecord};
use lbrm_core::trace::{
    fold_deltas, AdminServer, CollectorSink, DeltaTracker, DoctorConfig, DoctorSidecar,
    OnlineAnalyzer, OnlineConfig, ReportBasis, TraceSink,
};

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A randomized lossy-WAN scenario, losses on both tail directions.
fn random_config(rng: &mut u64) -> DisScenarioConfig {
    DisScenarioConfig {
        sites: 3 + (splitmix64(rng) % 3) as usize,
        receivers_per_site: 2 + (splitmix64(rng) % 3) as usize,
        site_params: SiteParams {
            tail_in_loss: LossModel::rate(0.02 + (splitmix64(rng) % 8) as f64 * 0.01),
            tail_out_loss: LossModel::rate((splitmix64(rng) % 4) as f64 * 0.01),
            ..SiteParams::distant()
        },
        receiver_nack_delay: Duration::from_millis(5),
        seed: splitmix64(rng),
        ..DisScenarioConfig::default()
    }
}

/// Collects the trace of one seeded run.
fn capture(config: DisScenarioConfig, until: SimTime) -> Vec<TraceRecord> {
    let collector = Arc::new(CollectorSink::default());
    let _ = run_scenario(
        config,
        15,
        until,
        OnlineConfig::default(),
        Some(collector.clone() as Arc<dyn TraceSink>),
    );
    collector.take()
}

/// The pinned delta semantics: `fold(deltas) + terminal == batch`,
/// field for field, for arbitrary tick boundaries.
#[test]
fn fold_of_deltas_equals_batch_analyze_on_seeded_wan_runs() {
    let mut rng = 0xD0C7_0B07_u64;
    for case in 0..4 {
        // Odd cases cut the run short so open timelines and anomalies
        // cross the terminal delta, not just clean recoveries.
        let until = if case % 2 == 0 {
            SimTime::from_secs(30)
        } else {
            SimTime::from_millis(2_600)
        };
        let records = capture(random_config(&mut rng), until);
        assert!(!records.is_empty(), "case {case}: no trace");
        let batch = analyze(&records, &AnalyzeConfig::default());

        let mut analyzer = OnlineAnalyzer::new(OnlineConfig::default());
        let mut tracker = DeltaTracker::new();
        let mut deltas = Vec::new();
        let mut next_tick = 1 + (splitmix64(&mut rng) % 40) as usize;
        for (i, r) in records.iter().enumerate() {
            analyzer.push_record(r);
            if i + 1 == next_tick {
                deltas.push(tracker.delta_from(&analyzer, 0));
                next_tick += 1 + (splitmix64(&mut rng) % 40) as usize;
            }
        }
        let n = analyzer.records();
        let end = analyzer.end_nanos();
        let report = analyzer.finish();
        deltas.push(tracker.terminal(&report, n, end, 0));

        let fold = fold_deltas(&deltas);
        assert_eq!(
            fold.basis,
            ReportBasis::of_report(&batch),
            "case {case}: folded deltas diverge from batch analyze"
        );
        assert_eq!(fold.records, n, "case {case}: record count");
        // And the terminal fold agrees with the streaming finish too.
        assert_eq!(fold.basis, ReportBasis::of_report(&report), "case {case}");
    }
}

/// Every pre-terminal delta must be committed-only: no unrecovered
/// verdicts before end-of-stream, and anomaly suffixes concatenate to
/// exactly the batch anomaly list (order preserved).
#[test]
fn delta_anomaly_suffixes_concatenate_in_batch_order() {
    let mut rng = 0xFEED_FACE_u64;
    let records = capture(random_config(&mut rng), SimTime::from_millis(2_400));
    let batch = analyze(&records, &AnalyzeConfig::default());

    let mut analyzer = OnlineAnalyzer::new(OnlineConfig::default());
    let mut tracker = DeltaTracker::new();
    let mut concatenated = Vec::new();
    for (i, r) in records.iter().enumerate() {
        analyzer.push_record(r);
        if i % 17 == 0 {
            let d = tracker.delta_from(&analyzer, 0);
            assert_eq!(d.unrecovered, 0, "unrecovered verdict before stream end");
            concatenated.extend(d.new_anomalies);
        }
    }
    let n = analyzer.records();
    let end = analyzer.end_nanos();
    let report = analyzer.finish();
    let terminal = tracker.terminal(&report, n, end, 0);
    assert!(terminal.terminal);
    concatenated.extend(terminal.new_anomalies);
    assert_eq!(concatenated, batch.anomalies);
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
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

/// `/anomalies/tail` over the real HTTP surface lists anomalies in the
/// batch report's order, both for a truncated tail and the full list.
#[test]
fn anomalies_tail_matches_batch_order_over_http() {
    // Heavy loss on both tail directions (repairs get dropped too) and
    // a cut mid-recovery: gaps are guaranteed open at end of stream.
    // The seed scan is deterministic; seed 2 alone yields ~18 anomalies.
    let (records, batch) = [2u64, 1, 7, 42]
        .into_iter()
        .find_map(|seed| {
            let cfg = DisScenarioConfig {
                sites: 4,
                receivers_per_site: 3,
                site_params: SiteParams {
                    tail_in_loss: LossModel::rate(0.35),
                    tail_out_loss: LossModel::rate(0.10),
                    ..SiteParams::distant()
                },
                receiver_nack_delay: Duration::from_millis(5),
                seed,
                ..DisScenarioConfig::default()
            };
            let records = capture(cfg, SimTime::from_millis(2_600));
            let batch = analyze(&records, &AnalyzeConfig::default());
            (batch.anomalies.len() >= 2).then_some((records, batch))
        })
        .expect("no seeded scenario produced ≥ 2 anomalies");

    let sidecar = DoctorSidecar::spawn(DoctorConfig {
        tick: Duration::from_millis(10),
        // Headroom: the test pushes the whole capture in one burst.
        channel_capacity: 1 << 16,
        ..DoctorConfig::default()
    });
    let sink = sidecar.sink();
    for r in &records {
        sink.record(r.at_nanos, r.host, &r.event);
    }
    let admin = AdminServer::bind("127.0.0.1:0", sidecar.handle()).expect("bind admin");
    let addr = admin.local_addr();

    // Wait until the sidecar's provisional snapshot has caught up with
    // the whole stream (its anomaly total matches the batch count).
    let want = batch.anomalies.len();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let (code, body) = http_get(addr, "/anomalies/tail?n=0");
        assert_eq!(code, 200);
        let total: usize = body
            .split("\"total\":")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.trim_end_matches('}').parse().ok())
            .expect("total field");
        if total == want {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "sidecar never caught up: {total} != {want} ({body})"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let extract_details = |body: &str| -> Vec<String> {
        body.split("\"detail\":\"")
            .skip(1)
            .map(|s| s.split('"').next().unwrap().to_string())
            .collect()
    };
    let (code, body) = http_get(addr, &format!("/anomalies/tail?n={}", want + 10));
    assert_eq!(code, 200);
    let batch_details: Vec<String> = batch.anomalies.iter().map(|a| a.describe()).collect();
    // JSON escaping only touches quotes/backslashes/control chars,
    // which describe() strings don't contain.
    assert_eq!(extract_details(&body), batch_details);

    // A short tail is the *last* n in the same order.
    let (code, body) = http_get(addr, "/anomalies/tail?n=2");
    assert_eq!(code, 200);
    assert_eq!(extract_details(&body), batch_details[want - 2..].to_vec());

    drop(admin);
    let finish = sidecar.finish();
    assert_eq!(finish.report.anomalies, batch.anomalies);
    assert_eq!(finish.fold.basis, ReportBasis::of_report(&batch));
}
