//! Recovery forensics end-to-end: on seeded lossy DIS runs, the trace
//! analyzer's causal timelines must match the wire-level ground truth —
//! every gap the receivers detected closes, every repair is attributed
//! to the server that actually sent it, and the per-stage latencies
//! telescope exactly to the recovery histogram the receivers reported.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use lbrm::harness::{DisScenario, DisScenarioConfig, MachineActor};
use lbrm::sim::loss::LossModel;
use lbrm::sim::time::SimTime;
use lbrm::sim::topology::SiteParams;
use lbrm_core::receiver::Receiver;
use lbrm_core::trace::analyze::{
    analyze, parse_json_lines, AnalyzeConfig, RecoveryOutcome, TraceRecord,
};
use lbrm_core::trace::{CollectorSink, ProtocolEvent, TraceSink};
use lbrm_wire::HostId;

const SENDS: u64 = 20;

fn lossy_run() -> (DisScenario, Arc<CollectorSink>) {
    let collector = Arc::new(CollectorSink::default());
    let mut sc = DisScenario::build_with_sink(
        DisScenarioConfig {
            sites: 6,
            receivers_per_site: 4,
            site_params: SiteParams {
                tail_in_loss: LossModel::rate(0.08),
                ..SiteParams::distant()
            },
            receiver_nack_delay: Duration::from_millis(5),
            seed: 4242,
            ..DisScenarioConfig::default()
        },
        Some(collector.clone() as Arc<dyn TraceSink>),
    );
    for i in 0..SENDS {
        sc.send_at(SimTime::from_millis(1_000 + 400 * i), format!("update-{i}"));
    }
    sc.world.run_until(SimTime::from_secs(60));
    (sc, collector)
}

#[test]
fn forensic_timelines_match_wire_ground_truth() {
    let (sc, collector) = lossy_run();
    let expect: Vec<u32> = (1..=SENDS as u32).collect();
    assert_eq!(sc.completeness(&expect), 1.0, "run must end complete");

    let records = collector.take();
    let report = analyze(&records, &AnalyzeConfig::default());

    // Every detected gap closed: a complete run has zero unrecovered
    // (and zero abandoned — RecoverAll never gives up) timelines.
    assert!(report.is_clean(), "anomalies: {:?}", report.anomalies);
    assert_eq!(report.unrecovered, 0);
    assert_eq!(report.abandoned, 0);
    assert!(report.recovered > 0, "lossy run must exercise recovery");

    // Timeline count matches the receivers' own loss bookkeeping:
    // one timeline per recovery the machines reported.
    let mut machine_recoveries = 0u64;
    for rx in sc.all_receivers() {
        let a = sc.world.actor::<MachineActor<Receiver>>(rx);
        machine_recoveries += a.machine().stats().recovered;
    }
    assert_eq!(report.recovered as u64, machine_recoveries);
    assert_eq!(
        report.recovered as u64,
        sc.receiver_metrics.counter("recovered")
    );

    // Stage-latency consistency: detection + request + serve + return
    // telescopes exactly to the end-to-end latency on every recovered
    // timeline, and the analyzer's total histogram is sample-for-sample
    // the receivers' recovery_latency histogram.
    assert_eq!(report.telescoping, report.recovered);
    assert_eq!(
        report.total.samples(),
        sc.receiver_metrics.recovery_latency().samples(),
        "analyzer total distribution must equal the receivers' histogram"
    );

    // Repair attribution: every repair came from a known server, and in
    // a distributed run with lossless LANs the site secondaries serve
    // them all.
    assert!(
        !report.sources.contains_key("unknown"),
        "unattributed repairs: {:?}",
        report.sources
    );
    let attributed: u64 = report.sources.values().sum();
    assert_eq!(attributed, report.recovered as u64);
    assert!(
        report.sources.contains_key("secondary"),
        "local loss must recover from site secondaries: {:?}",
        report.sources
    );

    // The fan-in at the primary stayed within the paper's one-request-
    // per-site bound (secondaries absorb receiver NACKs).
    assert!(report.max_nack_fan_in <= sc.plan.secondaries.len() as u64 + 2);
}

#[test]
fn jsonl_replay_reproduces_the_live_report() {
    let (_sc, collector) = lossy_run();
    let records = collector.take();
    let live = analyze(&records, &AnalyzeConfig::default());

    // Serialize exactly like JsonLinesSink, replay, re-analyze.
    let text: String = records
        .iter()
        .map(|r| r.event.to_json(r.at_nanos, r.host) + "\n")
        .collect();
    let (replayed, skipped) = parse_json_lines(&text);
    assert_eq!(skipped, 0, "every emitted line must parse");
    assert_eq!(replayed.len(), records.len());
    let re = analyze(&replayed, &AnalyzeConfig::default());

    assert_eq!(re.to_json(), live.to_json(), "replay must be lossless");
    assert_eq!(re.timelines.len(), live.timelines.len());
}

#[test]
fn final_packet_loss_is_detected_by_heartbeat_and_attributed() {
    // The last update is lost on one site's inbound tail. With no later
    // data packet to reveal the gap, detection must come from the
    // sender's variable heartbeats (§2.1) — and §7 repeat-payload
    // heartbeats or a logger retransmission must still close the gap.
    let last_send_ms = 1_000 + 400 * (SENDS - 1);
    let collector = Arc::new(CollectorSink::default());
    let mut sc = DisScenario::build_with_sink(
        DisScenarioConfig {
            sites: 3,
            receivers_per_site: 4,
            site_params_for: Some(Arc::new(move |i| {
                if i == 0 {
                    SiteParams {
                        tail_in_loss: LossModel::outage(
                            SimTime::from_millis(last_send_ms),
                            Duration::from_millis(120),
                        ),
                        ..SiteParams::distant()
                    }
                } else {
                    SiteParams::distant()
                }
            })),
            receiver_nack_delay: Duration::from_millis(5),
            seed: 9,
            ..DisScenarioConfig::default()
        },
        Some(collector.clone() as Arc<dyn TraceSink>),
    );
    for i in 0..SENDS {
        sc.send_at(SimTime::from_millis(1_000 + 400 * i), format!("update-{i}"));
    }
    sc.world.run_until(SimTime::from_secs(60));
    let expect: Vec<u32> = (1..=SENDS as u32).collect();
    assert_eq!(sc.completeness(&expect), 1.0);

    let report = analyze(&collector.take(), &AnalyzeConfig::default());
    assert!(report.is_clean(), "anomalies: {:?}", report.anomalies);

    // The victims' timelines for the final seq: detected strictly after
    // the (lost) original was sent — by heartbeat, since no later data
    // existed — and recovered with a known source.
    let victims: Vec<_> = report
        .timelines
        .iter()
        .filter(|t| t.seq.raw() == SENDS as u32)
        .collect();
    assert!(
        !victims.is_empty(),
        "site-wide tail loss of the final packet must open timelines"
    );
    for t in &victims {
        assert_eq!(t.outcome, RecoveryOutcome::Recovered);
        let sent = t.sent_at_nanos.expect("original send must be on record");
        assert!(
            t.detected_at_nanos > sent,
            "detection can only follow the lost send"
        );
        assert!(
            t.source.label() != "unknown",
            "repair must be attributed: {}",
            t.render()
        );
    }
}

/// Sorts every `RepairDuplicate` (ROADMAP item 1(c)) into double serves
/// — a site secondary unicast the repair to that receiver, then
/// site-multicast the same seq — and the rest, e.g. a re-multicast
/// reaching a receiver that had already recovered the seq elsewhere.
/// Returns `(double_serves, others)`.
fn classify_duplicates(records: &[TraceRecord]) -> (u64, u64) {
    let mut secondaries = BTreeSet::new();
    // (server, seq, receiver) -> first unicast; (server, seq) -> last multicast.
    let mut unicast: BTreeMap<(HostId, u32, HostId), u64> = BTreeMap::new();
    let mut multicast: BTreeMap<(HostId, u32), u64> = BTreeMap::new();
    let (mut double_serves, mut others) = (0, 0);
    for r in records {
        match &r.event {
            ProtocolEvent::RoleAnnounced {
                role: "logger_secondary",
            } => {
                secondaries.insert(r.host);
            }
            ProtocolEvent::RetransServed {
                seq,
                multicast: false,
                to,
            } => {
                unicast
                    .entry((r.host, seq.raw(), *to))
                    .or_insert(r.at_nanos);
            }
            ProtocolEvent::RetransServed {
                seq,
                multicast: true,
                ..
            } => {
                multicast.insert((r.host, seq.raw()), r.at_nanos);
            }
            ProtocolEvent::RepairDuplicate { seq, from } => {
                let served = unicast.get(&(*from, seq.raw(), r.host));
                let remulticast = multicast.get(&(*from, seq.raw()));
                if secondaries.contains(from)
                    && matches!((served, remulticast), (Some(u), Some(m)) if u <= m)
                {
                    double_serves += 1;
                } else {
                    others += 1;
                }
            }
            _ => {}
        }
    }
    (double_serves, others)
}

/// Every duplicate repair in a reduced `sim_dis` world (5 % tail loss,
/// site secondaries on) is a double serve: a secondary that fetched a
/// missing packet serves its pending requesters one `Logger::serve`
/// each, which unicasts to the first `REMULTICAST_THRESHOLD - 1` and
/// site-multicasts on the next, so those first requesters get the seq
/// twice. None is a re-multicast reaching a receiver that had already
/// recovered it some other way.
#[test]
fn duplicate_repairs_are_secondary_double_serves() {
    let collector = Arc::new(CollectorSink::default());
    let mut sc = DisScenario::build_with_sink(
        DisScenarioConfig {
            sites: 10,
            receivers_per_site: 20,
            site_params: SiteParams {
                tail_in_loss: LossModel::rate(0.05),
                ..SiteParams::distant()
            },
            seed: 1995,
            ..DisScenarioConfig::default()
        },
        Some(collector.clone() as Arc<dyn TraceSink>),
    );
    for i in 0..40 {
        sc.send_at(SimTime::from_millis(1_000 + 300 * i), format!("update-{i}"));
    }
    sc.world.run_until(SimTime::from_secs(30));

    let records = collector.take();
    let (double_serves, others) = classify_duplicates(&records);
    let report = analyze(&records, &AnalyzeConfig::default());
    assert_eq!(double_serves + others, report.duplicate_repairs);
    assert!(double_serves > 0, "the run must produce duplicate repairs");
    assert_eq!(
        others, 0,
        "{others} of {} duplicates are not double serves",
        report.duplicate_repairs
    );
}
