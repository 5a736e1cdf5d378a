//! Differential property tests for the forensics correlator. There is
//! one production correlation loop, the one-pass bounded-memory
//! [`OnlineAnalyzer`](lbrm_core::trace::OnlineAnalyzer); `analyze()` is
//! sort + that fold. The straight-line analyzer it replaced lives on
//! here, and only here, as a private [`oracle`] built from public items.
//! On randomized seeded loss patterns both the arrival-order fold and
//! `analyze()` must reproduce the oracle's report exactly — same
//! anomalies in the same order, same outcome counts, same repair
//! attribution, same stage-latency samples, same timelines — and the
//! eviction knobs must actually bound peak resident state without
//! corrupting what is reported.

use std::sync::Arc;
use std::time::Duration;

use lbrm::harness::DisScenarioConfig;
use lbrm::sim::loss::LossModel;
use lbrm::sim::time::SimTime;
use lbrm::sim::topology::SiteParams;
use lbrm_bench::doctor::{demo_run, run_scenario};
use lbrm_core::trace::analyze::{
    analyze, AnalyzeConfig, RecoveryOutcome, RecoveryReport, TraceRecord,
};
use lbrm_core::trace::{CollectorSink, OnlineAnalyzer, OnlineConfig, ProtocolEvent, TraceSink};
use lbrm_wire::{EpochId, HostId, Seq};

mod common;
use common::fnv1a;

/// The reference the correlator is checked against: sort, one
/// straight-line pass over plain maps, exact `Histogram`s, every
/// timeline kept, end-of-run detectors in a fixed order. No eviction, no
/// sampling, no resident-byte metering (`stream.peak_resident_bytes`
/// stays 0).
mod oracle {
    use std::collections::{BTreeMap, BTreeSet};

    use lbrm_core::trace::analyze::{
        AnalyzeConfig, Anomaly, RecoveryOutcome, RecoveryReport, RecoveryTimeline, RepairSource,
        StreamStats, TraceRecord, DUPLICATE_BOUND, MAX_GAP_SPAN, SETTLE_SLACK_NANOS,
    };
    use lbrm_core::trace::{Histogram, ProtocolEvent};
    use lbrm_wire::{HostId, Seq};

    struct OpenRecovery {
        detected_at: u64,
        first_nack_at: Option<u64>,
        nacks_sent: u32,
        served_at: Option<u64>,
        served_by: Option<HostId>,
        repaired_at: Option<u64>,
        source: RepairSource,
    }

    fn close(
        timelines: &mut Vec<RecoveryTimeline>,
        host: HostId,
        seq: Seq,
        open: OpenRecovery,
        sent_at: Option<u64>,
        outcome: RecoveryOutcome,
        latency: Option<u64>,
    ) {
        timelines.push(RecoveryTimeline {
            host,
            seq,
            sent_at_nanos: sent_at,
            detected_at_nanos: open.detected_at,
            first_nack_at_nanos: open.first_nack_at,
            nacks_sent: open.nacks_sent,
            served_at_nanos: open.served_at,
            served_by: open.served_by,
            repaired_at_nanos: open.repaired_at,
            source: open.source,
            outcome,
            recovery_latency_nanos: latency,
        });
    }

    pub fn analyze(records: &[TraceRecord], cfg: &AnalyzeConfig) -> RecoveryReport {
        let out_of_order = records
            .windows(2)
            .filter(|w| w[1].at_nanos < w[0].at_nanos)
            .count() as u64;
        let mut recs: Vec<&TraceRecord> = records.iter().collect();
        recs.sort_by_key(|r| r.at_nanos);
        let end_ns = recs.last().map_or(0, |r| r.at_nanos);
        let mut peak_live = 0u64;

        let mut roles: BTreeMap<u64, &'static str> = BTreeMap::new();
        let mut sent_at: BTreeMap<u32, u64> = BTreeMap::new();
        let mut sent_epoch: BTreeMap<u32, u32> = BTreeMap::new();
        let mut remulticast_at: BTreeMap<u32, u64> = BTreeMap::new();
        let mut settled: BTreeSet<u32> = BTreeSet::new();
        let mut active_epochs: BTreeSet<u32> = BTreeSet::new();
        let mut open: BTreeMap<(u64, u32), OpenRecovery> = BTreeMap::new();
        let mut timelines: Vec<RecoveryTimeline> = Vec::new();
        let mut requests_per_seq: BTreeMap<u32, u64> = BTreeMap::new();
        let mut dups_per_host_seq: BTreeMap<(u64, u32), u64> = BTreeMap::new();
        let mut last_tx: BTreeMap<u64, u64> = BTreeMap::new();
        let mut max_silence: BTreeMap<u64, u64> = BTreeMap::new();
        let mut truncated_gap_spans = 0u64;
        let mut recovered = 0usize;
        let mut abandoned = 0usize;
        // Election forensics: leaders per term, the newest elected term, and
        // (host, seq) serves made under a term older than the newest. A
        // repair from such a serve that a receiver *accepts* is split-brain.
        let mut term_leaders: BTreeMap<u32, HostId> = BTreeMap::new();
        let mut max_term = 0u32;
        let mut stale_serves: BTreeMap<(u64, u32), u32> = BTreeMap::new();
        let mut split_brain: Vec<Anomaly> = Vec::new();
        let mut fenced_rejects = 0u64;

        for r in &recs {
            let h = r.host.raw();
            match &r.event {
                ProtocolEvent::RoleAnnounced { role } => {
                    roles.insert(h, role);
                }
                ProtocolEvent::DataSent { seq, epoch } => {
                    sent_at.entry(seq.raw()).or_insert(r.at_nanos);
                    sent_epoch.entry(seq.raw()).or_insert(epoch.raw());
                    let gap = r.at_nanos - last_tx.get(&h).copied().unwrap_or(r.at_nanos);
                    let m = max_silence.entry(h).or_insert(0);
                    *m = (*m).max(gap);
                    last_tx.insert(h, r.at_nanos);
                }
                ProtocolEvent::HeartbeatSent { .. } => {
                    let gap = r.at_nanos - last_tx.get(&h).copied().unwrap_or(r.at_nanos);
                    let m = max_silence.entry(h).or_insert(0);
                    *m = (*m).max(gap);
                    last_tx.insert(h, r.at_nanos);
                }
                ProtocolEvent::GapDetected { first, last } => {
                    let span = u64::from(last.distance_from(*first)) + 1;
                    if span > MAX_GAP_SPAN {
                        truncated_gap_spans += 1;
                    }
                    for (i, seq) in first.iter_to(*last).enumerate() {
                        if i as u64 >= MAX_GAP_SPAN {
                            break;
                        }
                        open.entry((h, seq.raw())).or_insert(OpenRecovery {
                            detected_at: r.at_nanos,
                            first_nack_at: None,
                            nacks_sent: 0,
                            served_at: None,
                            served_by: None,
                            repaired_at: None,
                            source: RepairSource::Unknown,
                        });
                    }
                    peak_live = peak_live.max(open.len() as u64);
                }
                ProtocolEvent::NackSent {
                    target,
                    first,
                    last,
                    ..
                } => {
                    let span = u64::from(last.distance_from(*first)) + 1;
                    // The paper's implosion bound (§2.2.1, Figure 7) is on
                    // requests reaching the *primary*: local NACKs absorbed
                    // by a site secondary are the mechanism working, not
                    // implosion, so only primary-bound requests count.
                    let upstream = roles.get(&target.raw()).copied() == Some("logger_primary");
                    for (i, seq) in first.iter_to(*last).enumerate() {
                        if i as u64 >= MAX_GAP_SPAN.min(span) {
                            break;
                        }
                        if upstream {
                            *requests_per_seq.entry(seq.raw()).or_insert(0) += 1;
                        }
                        if let Some(o) = open.get_mut(&(h, seq.raw())) {
                            o.first_nack_at.get_or_insert(r.at_nanos);
                            o.nacks_sent += 1;
                        }
                    }
                }
                ProtocolEvent::RetransServed { seq, multicast, to } => {
                    if *multicast {
                        for ((_, s), o) in open.iter_mut() {
                            if *s == seq.raw() {
                                o.served_at.get_or_insert(r.at_nanos);
                                o.served_by.get_or_insert(r.host);
                            }
                        }
                    } else if let Some(o) = open.get_mut(&(to.raw(), seq.raw())) {
                        o.served_at.get_or_insert(r.at_nanos);
                        o.served_by.get_or_insert(r.host);
                    }
                }
                ProtocolEvent::Remulticast { seq, .. } => {
                    remulticast_at.entry(seq.raw()).or_insert(r.at_nanos);
                    for ((_, s), o) in open.iter_mut() {
                        if *s == seq.raw() {
                            o.served_at.get_or_insert(r.at_nanos);
                            o.served_by.get_or_insert(r.host);
                        }
                    }
                }
                ProtocolEvent::RepairReceived { seq, from, kind } => {
                    if *kind == "retrans" {
                        if let Some(&stale) = stale_serves.get(&(from.raw(), seq.raw())) {
                            split_brain.push(Anomaly::SplitBrainServe {
                                seq: *seq,
                                by: *from,
                                term: stale,
                                current: max_term,
                            });
                        }
                    }
                    if let Some(o) = open.get_mut(&(h, seq.raw())) {
                        o.repaired_at = Some(r.at_nanos);
                        o.source = match *kind {
                            "retrans" => match roles.get(&from.raw()).copied() {
                                Some("logger_primary") => RepairSource::Primary,
                                Some("logger_secondary") => RepairSource::Secondary,
                                Some("logger_replica") => RepairSource::Replica,
                                Some("sender") => RepairSource::Sender,
                                _ => RepairSource::Unknown,
                            },
                            "data" => {
                                if remulticast_at
                                    .get(&seq.raw())
                                    .is_some_and(|&t| t <= r.at_nanos)
                                {
                                    RepairSource::Remulticast
                                } else {
                                    RepairSource::LateOriginal
                                }
                            }
                            _ => RepairSource::Unknown,
                        };
                    }
                }
                ProtocolEvent::RepairDuplicate { seq, .. } => {
                    *dups_per_host_seq.entry((h, seq.raw())).or_insert(0) += 1;
                }
                ProtocolEvent::Recovered { seq, latency_nanos } => {
                    if let Some(o) = open.remove(&(h, seq.raw())) {
                        recovered += 1;
                        close(
                            &mut timelines,
                            r.host,
                            *seq,
                            o,
                            sent_at.get(&seq.raw()).copied(),
                            RecoveryOutcome::Recovered,
                            Some(*latency_nanos),
                        );
                    }
                }
                ProtocolEvent::RecoveryAbandoned { seq } => {
                    if let Some(o) = open.remove(&(h, seq.raw())) {
                        abandoned += 1;
                        close(
                            &mut timelines,
                            r.host,
                            *seq,
                            o,
                            sent_at.get(&seq.raw()).copied(),
                            RecoveryOutcome::Abandoned,
                            None,
                        );
                    }
                }
                ProtocolEvent::Settled { seq, .. } => {
                    settled.insert(seq.raw());
                }
                ProtocolEvent::EpochActive { epoch, .. } => {
                    active_epochs.insert(epoch.raw());
                }
                ProtocolEvent::TermElected { term, leader } => {
                    match term_leaders.get(term) {
                        Some(&prev) if prev != *leader => {
                            split_brain.push(Anomaly::TermConflict {
                                term: *term,
                                a: prev,
                                b: *leader,
                            });
                        }
                        Some(_) => {}
                        None => {
                            term_leaders.insert(*term, *leader);
                        }
                    }
                    max_term = max_term.max(*term);
                }
                ProtocolEvent::AuthorityServe { seq, term } if *term < max_term => {
                    stale_serves.insert((h, seq.raw()), *term);
                }
                ProtocolEvent::StaleTermFenced { .. } => {
                    fenced_rejects += 1;
                }
                _ => {}
            }
        }

        // Trailing silence: from the last transmission to end-of-run.
        for (&h, &t) in &last_tx {
            let m = max_silence.entry(h).or_insert(0);
            *m = (*m).max(end_ns.saturating_sub(t));
        }

        let mut anomalies: Vec<Anomaly> = Vec::new();

        // Unrecovered gaps: whatever is still open at end-of-run.
        let mut unrecovered = 0usize;
        let still_open: Vec<((u64, u32), OpenRecovery)> =
            std::mem::take(&mut open).into_iter().collect();
        for ((h, s), o) in still_open {
            unrecovered += 1;
            anomalies.push(Anomaly::UnrecoveredGap {
                host: HostId(h),
                seq: Seq(s),
                detected_at_nanos: o.detected_at,
            });
            close(
                &mut timelines,
                HostId(h),
                Seq(s),
                o,
                sent_at.get(&s).copied(),
                RecoveryOutcome::Unrecovered,
                None,
            );
        }

        // NACK implosion (§2.2.1: distributed logging bounds requests at
        // roughly one per site).
        let secondaries = roles.values().filter(|r| **r == "logger_secondary").count() as u64;
        let nack_bound = cfg
            .nack_fan_in_bound
            .or((secondaries > 0).then_some(secondaries + 2));
        let max_nack_fan_in = requests_per_seq.values().copied().max().unwrap_or(0);
        if let Some(bound) = nack_bound {
            for (&s, &n) in &requests_per_seq {
                if n > bound {
                    anomalies.push(Anomaly::NackImplosion {
                        seq: Seq(s),
                        requests: n,
                        bound,
                    });
                }
            }
        }

        // Duplicate repairs beyond the statistical-ACK expectation. The
        // bound is per receiver: one redundant copy each at many receivers
        // is the expected cost of re-multicast, while one receiver served
        // the same repair many times over means requests are not being
        // suppressed.
        let mut duplicate_repairs = 0u64;
        for (&(host, s), &n) in &dups_per_host_seq {
            duplicate_repairs += n;
            if n > DUPLICATE_BOUND {
                anomalies.push(Anomaly::ExcessDuplicateRepairs {
                    host: HostId(host),
                    seq: Seq(s),
                    duplicates: n,
                    bound: DUPLICATE_BOUND,
                });
            }
        }

        // Heartbeat silence beyond h_max (with 1.5x slack for the last
        // in-flight interval).
        if let Some(h_max) = cfg.h_max_nanos {
            let bound = h_max + h_max / 2;
            for (&h, &gap) in &max_silence {
                if gap > bound {
                    anomalies.push(Anomaly::HeartbeatSilence {
                        host: HostId(h),
                        gap_nanos: gap,
                        h_max_nanos: h_max,
                    });
                }
            }
        }

        // Stalled settlements: data in an active epoch that never settled
        // (ignoring sends within the trailing grace window).
        for (&s, &e) in &sent_epoch {
            if !active_epochs.contains(&e) || settled.contains(&s) {
                continue;
            }
            let at = sent_at.get(&s).copied().unwrap_or(0);
            if at.saturating_add(SETTLE_SLACK_NANOS) < end_ns {
                anomalies.push(Anomaly::StalledSettlement {
                    seq: Seq(s),
                    sent_at_nanos: at,
                });
            }
        }

        // Split-brain detections (term conflicts and accepted stale serves),
        // in stream order, after every other detector.
        anomalies.append(&mut split_brain);

        // Stage histograms over recovered timelines.
        let mut detection = Histogram::default();
        let mut request = Histogram::default();
        let mut serve = Histogram::default();
        let mut return_leg = Histogram::default();
        let mut total = Histogram::default();
        let mut sources: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut telescoping = 0usize;
        for t in &timelines {
            if t.outcome != RecoveryOutcome::Recovered {
                continue;
            }
            if let Some(n) = t.detection_nanos() {
                detection.record(n);
            }
            if let Some(n) = t.request_nanos() {
                request.record(n);
            }
            if let Some(n) = t.serve_nanos() {
                serve.record(n);
            }
            if let Some(n) = t.return_nanos() {
                return_leg.record(n);
            }
            if let Some(n) = t.recovery_latency_nanos {
                total.record(n);
            }
            *sources.entry(t.source.label()).or_insert(0) += 1;
            if t.stages_telescope() {
                telescoping += 1;
            }
        }

        let (detection, request, serve, return_leg, total) = (
            detection.snapshot(),
            request.snapshot(),
            serve.snapshot(),
            return_leg.snapshot(),
            total.snapshot(),
        );

        RecoveryReport {
            timelines,
            recovered,
            abandoned,
            unrecovered,
            detection,
            request,
            serve,
            return_leg,
            total,
            sources,
            duplicate_repairs,
            max_nack_fan_in,
            telescoping,
            truncated_gap_spans,
            fenced_rejects,
            anomalies,
            stream: StreamStats {
                streamed: false,
                peak_live_timelines: peak_live,
                out_of_order,
                ..StreamStats::default()
            },
        }
    }
}

/// The same tiny deterministic generator the analyzer's reservoirs use,
/// here driving the *scenario* parameters so every CI run replays the
/// identical "random" loss patterns.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A randomized lossy-WAN scenario: sites/receivers/loss rates drawn
/// from the generator, losses on both tail directions so NACKs and
/// repairs get dropped too, not just originals.
fn random_config(rng: &mut u64) -> DisScenarioConfig {
    let sites = 3 + (splitmix64(rng) % 4) as usize; // 3..=6
    let receivers = 2 + (splitmix64(rng) % 3) as usize; // 2..=4
    let in_loss = 0.02 + (splitmix64(rng) % 9) as f64 * 0.01; // 2%..=10%
    let out_loss = (splitmix64(rng) % 5) as f64 * 0.01; // 0%..=4%
    DisScenarioConfig {
        sites,
        receivers_per_site: receivers,
        site_params: SiteParams {
            tail_in_loss: LossModel::rate(in_loss),
            tail_out_loss: LossModel::rate(out_loss),
            ..SiteParams::distant()
        },
        receiver_nack_delay: Duration::from_millis(5),
        seed: splitmix64(rng),
        ..DisScenarioConfig::default()
    }
}

/// One seeded run: the report of the analyzer that rode it as a sink
/// (the arrival-order fold) and the records it saw.
fn run_and_capture(
    config: DisScenarioConfig,
    packets: u64,
    until: SimTime,
    cfg: OnlineConfig,
) -> (RecoveryReport, Vec<TraceRecord>) {
    let collector = Arc::new(CollectorSink::default());
    let (run, _) = run_scenario(
        config,
        packets,
        until,
        cfg,
        Some(collector.clone() as Arc<dyn TraceSink>),
    );
    let records = collector.take();
    assert_eq!(run.records, records.len(), "sink and collector disagree");
    (run.report, records)
}

fn fold(records: &[TraceRecord], cfg: OnlineConfig) -> RecoveryReport {
    let mut analyzer = OnlineAnalyzer::new(cfg);
    for r in records {
        analyzer.push_record(r);
    }
    analyzer.finish()
}

/// Field-for-field equality of everything a report says about the
/// protocol. Of `stream`, the peak live-timeline count and the eviction
/// counters are compared; `streamed`, `out_of_order` and
/// `peak_resident_bytes` describe how the records were fed, and each
/// test pins those itself.
fn assert_reports_identical(got: &RecoveryReport, want: &RecoveryReport, label: &str) {
    assert_eq!(
        got.anomalies, want.anomalies,
        "{label}: anomalies, in order"
    );
    assert_eq!(got.recovered, want.recovered, "{label}: recovered");
    assert_eq!(got.abandoned, want.abandoned, "{label}: abandoned");
    assert_eq!(got.unrecovered, want.unrecovered, "{label}: unrecovered");
    assert_eq!(got.sources, want.sources, "{label}: repair attribution");
    assert_eq!(
        got.duplicate_repairs, want.duplicate_repairs,
        "{label}: dups"
    );
    assert_eq!(got.max_nack_fan_in, want.max_nack_fan_in, "{label}: fan-in");
    assert_eq!(got.telescoping, want.telescoping, "{label}: telescoping");
    assert_eq!(
        got.truncated_gap_spans, want.truncated_gap_spans,
        "{label}: truncated spans"
    );
    assert_eq!(got.fenced_rejects, want.fenced_rejects, "{label}: fenced");
    for (name, g, w) in [
        ("detection", &got.detection, &want.detection),
        ("request", &got.request, &want.request),
        ("serve", &got.serve, &want.serve),
        ("return", &got.return_leg, &want.return_leg),
        ("total", &got.total, &want.total),
    ] {
        assert!(!g.is_sampled(), "{label}: {name} stage was sampled");
        assert_eq!(g.samples(), w.samples(), "{label}: {name} stage");
        assert_eq!(
            g.percentile(0.95),
            w.percentile(0.95),
            "{label}: {name} p95"
        );
    }
    assert_eq!(
        got.timelines.len(),
        want.timelines.len(),
        "{label}: timelines"
    );
    for (g, w) in got.timelines.iter().zip(&want.timelines) {
        assert_eq!(g.render(), w.render(), "{label}: rendered timeline");
        assert_eq!(format!("{g:?}"), format!("{w:?}"), "{label}: timeline");
    }
    assert_eq!(
        (
            got.stream.peak_live_timelines,
            got.stream.force_evicted,
            got.stream.aged_out
        ),
        (want.stream.peak_live_timelines, 0, 0),
        "{label}: live-state counters"
    );
}

/// Runs one seeded scenario and checks the arrival-order fold (default,
/// unbounded config) and `analyze()` of its capture against the oracle.
/// Returns the oracle's report and the capture.
fn check_against_oracle(
    config: DisScenarioConfig,
    packets: u64,
    until: SimTime,
    label: &str,
) -> (RecoveryReport, Vec<TraceRecord>) {
    let (online, records) = run_and_capture(config, packets, until, OnlineConfig::default());
    let cfg = AnalyzeConfig::default();
    let reference = oracle::analyze(&records, &cfg);
    let batch = analyze(&records, &cfg);
    assert_reports_identical(&online, &reference, &format!("{label}, fold"));
    assert_reports_identical(&batch, &reference, &format!("{label}, analyze()"));
    assert!(online.stream.streamed);
    assert!(!batch.stream.streamed);
    assert_eq!(online.stream.out_of_order, 0, "{label}: sim emits in order");
    assert_eq!(batch.stream.out_of_order, 0, "{label}");
    (reference, records)
}

/// The core property: the arrival-order fold and `analyze()` of the
/// same seeded run are both indistinguishable from the oracle — across
/// several randomized loss patterns, including runs cut off early.
#[test]
fn streaming_matches_batch_on_randomized_loss_patterns() {
    let mut rng = 0xD15_CAFE_u64;
    let mut exercised_recovery = false;
    for case in 0..5 {
        let config = random_config(&mut rng);
        let packets = 8 + splitmix64(&mut rng) % 9; // 8..=16

        // Odd cases stop 290 ms after the last send instead of running
        // the tail out.
        let until = if case % 2 == 1 {
            SimTime::from_millis(1_000 + 250 * packets + 40)
        } else {
            SimTime::from_secs(40)
        };
        let label = format!(
            "case {case} (seed {}, {} sites x {}, {} packets)",
            config.seed, config.sites, config.receivers_per_site, packets
        );
        let (reference, _) = check_against_oracle(config, packets, until, &label);
        exercised_recovery |= reference.recovered > 0;
    }
    assert!(
        exercised_recovery,
        "at least one randomized pattern must exercise recovery"
    );
}

/// When each loss in `records` was detected. A run replayed to just past
/// one of these instants certainly ends with a timeline open.
fn detection_times(records: &[TraceRecord]) -> Vec<u64> {
    let at: Vec<u64> = records
        .iter()
        .filter(|r| matches!(r.event, ProtocolEvent::GapDetected { .. }))
        .map(|r| r.at_nanos)
        .collect();
    assert!(!at.is_empty(), "the scenario lost nothing");
    at
}

/// The end-of-run drain, differentially: each run is replayed up to
/// 1 ms past one of its own gap detections, so timelines are certainly
/// still open when the stream ends and every report carries
/// unrecovered-gap anomalies in key order.
#[test]
fn runs_cut_mid_recovery_match_the_oracle() {
    let mut rng = 0xC07_5408_u64;
    for case in 0..3 {
        let config = random_config(&mut rng);
        let label = format!(
            "cut case {case} (seed {}, {} sites x {})",
            config.seed, config.sites, config.receivers_per_site
        );
        let (_, full) = check_against_oracle(config.clone(), 16, SimTime::from_secs(40), &label);
        let detections = detection_times(&full);
        let cut = SimTime::from_nanos(detections[detections.len() / 2] + 1_000_000);
        let (reference, _) = check_against_oracle(config, 16, cut, &format!("{label}, cut"));
        assert!(
            reference.unrecovered > 0,
            "{label}: nothing open at the cut"
        );
        assert!(!reference.is_clean());
    }
}

/// What `analyze()` adds to the fold is the sort. Two time-overlapping
/// halves of one capture, each in order, concatenated (two capture
/// files `cat`ed together): `analyze()` must report exactly what it
/// reports for the merged in-order capture, and say the input was out
/// of order. The halves split on 10 ms windows, so records that share a
/// timestamp stay in one half in their original order and the stable
/// sort restores the capture exactly.
#[test]
fn analyze_sorts_a_capture_concatenated_out_of_order() {
    let mut rng = 0x0050_F7ED_u64;
    let config = random_config(&mut rng);
    let (_, full) = run_and_capture(
        config.clone(),
        16,
        SimTime::from_secs(40),
        OnlineConfig::default(),
    );
    // Cut just past the last detection, so recovered timelines and
    // end-of-run anomalies both cross the sort.
    let last = *detection_times(&full).last().expect("non-empty");
    let (_, merged) = run_and_capture(
        config,
        16,
        SimTime::from_nanos(last + 1_000_000),
        OnlineConfig::default(),
    );
    let window = |r: &TraceRecord| r.at_nanos / 10_000_000;
    let (even, odd): (Vec<TraceRecord>, Vec<TraceRecord>) =
        merged.iter().cloned().partition(|r| window(r) % 2 == 0);
    assert!(even.len() > 10 && odd.len() > 10, "both halves need events");
    let concatenated: Vec<TraceRecord> = even.into_iter().chain(odd).collect();

    let cfg = AnalyzeConfig::default();
    let reference = oracle::analyze(&merged, &cfg);
    assert!(
        reference.recovered > 0 && !reference.is_clean(),
        "dull case"
    );
    let sorted = analyze(&concatenated, &cfg);
    assert_reports_identical(&sorted, &reference, "concatenated halves");
    assert_reports_identical(&analyze(&merged, &cfg), &reference, "merged capture");
    assert!(sorted.stream.out_of_order >= 1);
    assert!(!sorted.stream.streamed);

    // The arrival-order fold of the same input is what the sort protects
    // against: it flags the disorder and mis-correlates.
    let unsorted = fold(&concatenated, OnlineConfig::default());
    assert_eq!(unsorted.stream.out_of_order, sorted.stream.out_of_order);
    assert!(unsorted.recovered < reference.recovered);
}

const SENDER: HostId = HostId(1);
const PRIMARY: HostId = HostId(2);
const RX: HostId = HostId(40);

/// A synthetic in-order capture with `losses` recoveries at one
/// receiver, stage latencies varied per packet so percentiles mean
/// something; every 1 000th loss is never repaired.
fn synthetic_capture(losses: u32) -> Vec<TraceRecord> {
    const MS: u64 = 1_000_000;
    let rec = |at_ms: u64, host: HostId, event: ProtocolEvent| TraceRecord {
        at_nanos: at_ms * MS,
        host,
        event,
    };
    let mut v = vec![
        rec(0, SENDER, ProtocolEvent::RoleAnnounced { role: "sender" }),
        rec(
            0,
            PRIMARY,
            ProtocolEvent::RoleAnnounced {
                role: "logger_primary",
            },
        ),
        rec(0, RX, ProtocolEvent::RoleAnnounced { role: "receiver" }),
    ];
    for i in 1..=losses * 3 {
        let seq = Seq(i);
        let t = u64::from(i) * 100;
        v.push(rec(
            t,
            SENDER,
            ProtocolEvent::DataSent {
                seq,
                epoch: EpochId(0),
            },
        ));
        if i % 3 != 0 {
            continue;
        }
        let detected = t + 10;
        let nack = detected + 1 + u64::from(i % 13);
        let served = nack + 2 + u64::from(i % 5);
        let repaired = served + 3 + u64::from(i * 7 % 11);
        v.push(rec(
            detected,
            RX,
            ProtocolEvent::GapDetected {
                first: seq,
                last: seq,
            },
        ));
        v.push(rec(
            nack,
            RX,
            ProtocolEvent::NackSent {
                target: PRIMARY,
                packets: 1,
                first: seq,
                last: seq,
            },
        ));
        if i % 3_000 == 0 {
            continue;
        }
        v.push(rec(
            served,
            PRIMARY,
            ProtocolEvent::RetransServed {
                seq,
                multicast: false,
                to: RX,
            },
        ));
        v.push(rec(
            repaired,
            RX,
            ProtocolEvent::RepairReceived {
                seq,
                from: PRIMARY,
                kind: "retrans",
            },
        ));
        v.push(rec(
            repaired,
            RX,
            ProtocolEvent::Recovered {
                seq,
                latency_nanos: (repaired - detected) * MS,
            },
        ));
    }
    v
}

/// `analyze()` folds with unbounded reservoirs: past the default 4 096
/// it still returns every timeline and exact percentiles, where the
/// default fold (correctly) reports a sample.
#[test]
fn analyze_is_exact_beyond_the_default_reservoir() {
    let records = synthetic_capture(5_000);
    let cfg = AnalyzeConfig::default();
    let reference = oracle::analyze(&records, &cfg);
    assert_eq!(reference.timelines.len(), 5_000);
    assert!(reference.timelines.len() > OnlineConfig::default().timeline_reservoir);
    assert_eq!(reference.unrecovered, 5);
    assert_eq!(reference.telescoping, reference.recovered);

    let batch = analyze(&records, &cfg);
    assert_reports_identical(&batch, &reference, "analyze()");
    let unbounded = fold(
        &records,
        OnlineConfig {
            stage_reservoir: usize::MAX,
            timeline_reservoir: usize::MAX,
            ..OnlineConfig::default()
        },
    );
    assert_reports_identical(&unbounded, &reference, "unbounded fold");

    let sampled = fold(&records, OnlineConfig::default());
    assert!(sampled.total.is_sampled());
    assert_eq!(sampled.timelines.len(), 4_096);
    assert_eq!(sampled.total.count(), reference.total.count());
    assert_eq!(sampled.total.mean(), reference.total.mean());
    assert_eq!(sampled.total.max(), reference.total.max());
    assert_eq!(sampled.anomalies, reference.anomalies);
}

/// The `max_live_timelines` cap is a hard bound on peak resident state,
/// whatever the loss pattern does.
#[test]
fn live_timeline_cap_bounds_peak_state() {
    let mut rng = 0xB0B_5EED_u64;
    let config = random_config(&mut rng);
    let cfg = OnlineConfig {
        max_live_timelines: Some(4),
        ..OnlineConfig::default()
    };
    let (online, _) = run_scenario(config, 16, SimTime::from_secs(40), cfg, None);
    let stream = &online.report.stream;
    assert!(
        stream.peak_live_timelines <= 4,
        "peak {} exceeds the cap",
        stream.peak_live_timelines
    );
    assert!(stream.peak_resident_bytes > 0);
    assert!(online.records > 0);
    // Whatever was evicted is only ever *dropped* accounting, never
    // phantom outcomes: closed timelines still telescope.
    assert_eq!(online.report.telescoping, online.report.recovered);
}

/// Tiny reservoirs downsample which latencies/timelines are *kept*, but
/// the exact totals — counts, means, maxima, anomalies, attribution —
/// must still match the exact report.
#[test]
fn tiny_reservoirs_keep_exact_totals() {
    let mut rng = 0xCA5_CADE_u64;
    let config = random_config(&mut rng);
    let cfg = OnlineConfig {
        stage_reservoir: 8,
        timeline_reservoir: 8,
        ..OnlineConfig::default()
    };
    let (online, records) = run_and_capture(config, 16, SimTime::from_secs(40), cfg);
    let batch = analyze(&records, &AnalyzeConfig::default());
    let o = &online;
    let b = &batch;
    assert_eq!(o.recovered, b.recovered);
    assert_eq!(o.anomalies, b.anomalies);
    assert_eq!(o.sources, b.sources);
    for (name, os, bs) in [
        ("detection", &o.detection, &b.detection),
        ("request", &o.request, &b.request),
        ("serve", &o.serve, &b.serve),
        ("return", &o.return_leg, &b.return_leg),
        ("total", &o.total, &b.total),
    ] {
        assert_eq!(os.count(), bs.count(), "{name}: exact count survives");
        assert_eq!(os.mean(), bs.mean(), "{name}: exact mean survives");
        assert_eq!(os.max(), bs.max(), "{name}: exact max survives");
    }
    assert!(o.timelines.len() <= 8, "timeline reservoir bound");
    assert!(
        b.recovered <= 8 || o.total.is_sampled(),
        "an overfull stage snapshot must say it is sampled"
    );
}

/// Over capacity the reservoirs keep a sample, and the kept timelines
/// come back in close order. `trace_doctor --json` prints only their
/// count, so the whole report's `Debug` rendering is pinned here, as
/// recorded at `ed62318`: the built-in run (40 recoveries) with
/// 16-sample reservoirs, and 5 000 synthetic recoveries with the default
/// 4 096. A change that moves either hash moved the sample or its order.
#[test]
fn sampled_reports_are_pinned_in_close_order() {
    let small = OnlineConfig {
        stage_reservoir: 16,
        timeline_reservoir: 16,
        ..OnlineConfig::default()
    };
    let demo = demo_run(77, small).report;
    let synthetic = fold(&synthetic_capture(5_000), OnlineConfig::default());
    // One receiver recovers its losses in seq order.
    let recovered: Vec<u32> = synthetic
        .timelines
        .iter()
        .filter(|t| t.outcome == RecoveryOutcome::Recovered)
        .map(|t| t.seq.raw())
        .collect();
    assert!(recovered.windows(2).all(|w| w[0] < w[1]));
    for (label, report, want) in [
        ("built-in run", &demo, (7_350, 0xaab1_84a6_e3e0_ab9f)),
        (
            "synthetic capture",
            &synthetic,
            (1_677_217, 0x23a0_a3d9_aeb2_b9aa),
        ),
    ] {
        assert!(report.total.is_sampled(), "{label}");
        let rendered = format!("{report:?}");
        assert_eq!(
            (rendered.len(), fnv1a(rendered.as_bytes())),
            want,
            "{label}: the sampled report moved"
        );
    }
}
