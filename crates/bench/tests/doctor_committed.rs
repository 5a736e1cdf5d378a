//! What the live doctor reads from the analyzer at each tick, checked
//! on randomized seeded lossy-WAN runs: the committed anomalies are a
//! prefix of the final report's list whatever point the stream is cut
//! at, every unrecovered verdict in a provisional snapshot before
//! `finish` comes from a still-open timeline (or, under a horizon, from
//! a committed age-out), and the admin surface's `/anomalies/tail`
//! lists anomalies in exactly the batch report's order.

use std::io::{Read as _, Write as _};
use std::sync::Arc;
use std::time::Duration;

use lbrm::harness::DisScenarioConfig;
use lbrm::sim::loss::LossModel;
use lbrm::sim::time::SimTime;
use lbrm::sim::topology::SiteParams;
use lbrm_bench::doctor::run_scenario;
use lbrm_core::trace::analyze::{analyze, AnalyzeConfig, Anomaly, RecoveryReport, TraceRecord};
use lbrm_core::trace::{
    AdminServer, CollectorSink, DoctorConfig, DoctorSidecar, OnlineAnalyzer, OnlineConfig,
    TraceSink,
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

fn unrecovered_gaps(anomalies: &[Anomaly]) -> u64 {
    anomalies
        .iter()
        .filter(|a| matches!(a, Anomaly::UnrecoveredGap { .. }))
        .count() as u64
}

/// Feeds `records` through an analyzer with `cfg`, cutting the stream
/// at random points. At each cut the provisional snapshot's
/// unrecovered verdicts are the still-open timelines plus the committed
/// age-outs, and nothing else. Returns the committed anomalies seen at
/// every cut and the finished report.
fn cut_at_random(
    records: &[TraceRecord],
    cfg: OnlineConfig,
    rng: &mut u64,
    label: &str,
) -> (Vec<Vec<Anomaly>>, RecoveryReport) {
    let mut analyzer = OnlineAnalyzer::new(cfg);
    let mut cuts = Vec::new();
    let mut next_cut = 1 + (splitmix64(rng) % 40) as usize;
    for (i, r) in records.iter().enumerate() {
        analyzer.push_record(r);
        if i + 1 == next_cut {
            let committed = analyzer.committed_anomalies().to_vec();
            let snapshot = analyzer.clone().finish();
            assert_eq!(
                snapshot.unrecovered as u64,
                analyzer.live_timelines() as u64 + unrecovered_gaps(&committed),
                "{label}: record {i}: an unrecovered verdict that is neither open nor committed"
            );
            assert_eq!(
                unrecovered_gaps(&committed),
                snapshot.stream.aged_out,
                "{label}: record {i}: committed gaps are the age-outs"
            );
            cuts.push(committed);
            next_cut += 1 + (splitmix64(rng) % 40) as usize;
        }
    }
    (cuts, analyzer.finish())
}

/// With no horizon (the default), nothing commits as unrecovered before
/// `finish`, and whatever has committed at any cut is a prefix of batch
/// `analyze`'s anomaly list.
#[test]
fn committed_anomalies_are_a_prefix_of_batch_analyze_on_seeded_wan_runs() {
    let mut rng = 0xD0C7_0B07_u64;
    for case in 0..4 {
        // Odd cases cut the run short so open timelines and anomalies
        // cross `finish`, not just clean recoveries.
        let until = if case % 2 == 0 {
            SimTime::from_secs(30)
        } else {
            SimTime::from_millis(2_600)
        };
        let records = capture(random_config(&mut rng), until);
        assert!(!records.is_empty(), "case {case}: no trace");
        let batch = analyze(&records, &AnalyzeConfig::default());

        let label = format!("case {case}");
        let (cuts, report) = cut_at_random(&records, OnlineConfig::default(), &mut rng, &label);
        assert!(!cuts.is_empty(), "{label}: never cut");
        for committed in &cuts {
            assert_eq!(
                unrecovered_gaps(committed),
                0,
                "{label}: verdict before finish"
            );
            assert_eq!(
                &batch.anomalies[..committed.len()],
                &committed[..],
                "{label}: committed anomalies are not a prefix of batch analyze"
            );
        }
        assert_eq!(
            report.anomalies, batch.anomalies,
            "{label}: final anomalies"
        );
    }
}

/// Under a horizon the analyzer does commit gaps mid-stream: each cut's
/// committed list extends the previous one and is a prefix of the
/// analyzer's own final report.
#[test]
fn horizon_age_outs_commit_as_a_growing_prefix_of_the_final_report() {
    let mut rng = 0xFEED_FACE_u64;
    let records = capture(random_config(&mut rng), SimTime::from_millis(2_600));
    let cfg = OnlineConfig {
        horizon_nanos: Some(50 * 1_000_000),
        ..OnlineConfig::default()
    };
    let (cuts, report) = cut_at_random(&records, cfg, &mut rng, "horizon");
    assert!(report.stream.aged_out > 0, "the horizon never closed a gap");
    let mut prev: &[Anomaly] = &[];
    for committed in &cuts {
        assert_eq!(
            &committed[..prev.len()],
            prev,
            "committed list shrank or changed"
        );
        assert_eq!(&report.anomalies[..committed.len()], &committed[..]);
        prev = committed;
    }
    assert!(!prev.is_empty(), "no gap committed before finish");
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

    let finish = sidecar.finish();
    assert_eq!(finish.report.anomalies, batch.anomalies);
    // Finished, `/stats` counts every anomaly of the final report.
    let (code, body) = http_get(addr, "/stats");
    assert_eq!(code, 200);
    assert!(body.contains(&format!("\"anomalies\":{want},")), "{body}");
    drop(admin);
}
