//! Replay goldens: seeded lossy scenarios must replay themselves *byte
//! for byte* — wire-level `NetStats`, per-receiver delivery transcripts,
//! the serialized JSONL trace stream, and metrics registries — and must
//! replay the recorded bytes ([`Golden`]). The goldens are what hold the
//! event order in place: FIFO order among same-instant events, the
//! per-host / per-site RNG streams, and the network model's two-half
//! cross-site evaluation. Moving any of them moves these constants and
//! every EXPERIMENTS.md figure. (The test names predate the serial
//! simulator, when the same runs were compared across shard counts and,
//! before that, queue backends; the event queue's own FIFO and
//! monotonic pop order is unit-tested in `lbrm_sim::queue`.)

use std::sync::Arc;

use lbrm::core::receiver::Receiver;
use lbrm::harness::{DisScenario, DisScenarioConfig, MachineActor};
use lbrm::sim::loss::LossModel;
use lbrm::sim::time::SimTime;
use lbrm::sim::topology::SiteParams;
use lbrm_core::trace::{CollectorSink, TraceSink};

const SENDS: u64 = 20;

/// Everything a run exposes, flattened to comparable (and mostly
/// byte-level) form.
struct RunFingerprint {
    trace_jsonl: String,
    stats: lbrm::sim::stats::NetStats,
    deliveries: Vec<(u64, Vec<u32>)>,
    completeness: f64,
    counters: Vec<std::collections::BTreeMap<&'static str, u64>>,
    events: u64,
    depth_max: usize,
    /// FNV-1a-64 over every receiver's `(host, arrival nanos, seq)`
    /// deliveries, in receiver order and arrival order.
    transcript_fnv: u64,
}

/// `(trace_jsonl.len(), fnv1a64(trace_jsonl), events_processed,
/// completeness)` of one run, recorded when same-instant events became
/// FIFO and a plan's receivers began recovering back to the stream's
/// origin.
type Golden = (usize, u64, u64, f64);

/// A [`Golden`] plus `(queue_depth_max, transcript_fnv)`: what a run
/// whose fan-outs land at different instants pins besides the trace.
type TimedGolden = (usize, u64, u64, f64, usize, u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a64_from(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_from(FNV_OFFSET, bytes)
}

fn fingerprint(config: DisScenarioConfig, horizon: SimTime, sends: u64) -> RunFingerprint {
    let collector = Arc::new(CollectorSink::default());
    let mut sc =
        DisScenario::build_with_sink(config, Some(collector.clone() as Arc<dyn TraceSink>));
    for i in 0..sends {
        sc.send_at(SimTime::from_millis(1_000 + 400 * i), format!("update-{i}"));
    }
    sc.world.run_until(horizon);

    // Serialize the trace exactly as a JsonLinesSink capture would land
    // on disk: identical protocol behavior must give identical bytes.
    let trace_jsonl = collector
        .take()
        .iter()
        .map(|r| r.event.to_json(r.at_nanos, r.host) + "\n")
        .collect::<String>();

    let deliveries = sc
        .all_receivers()
        .into_iter()
        .map(|rx| (rx.raw(), sc.delivered(rx)))
        .collect();
    let transcript_fnv = sc.all_receivers().into_iter().fold(FNV_OFFSET, |h, rx| {
        let actor = sc.world.actor::<MachineActor<Receiver>>(rx);
        actor.deliveries.iter().fold(h, |h, (at, d)| {
            let h = fnv1a64_from(h, &rx.raw().to_le_bytes());
            let h = fnv1a64_from(h, &at.nanos().to_le_bytes());
            fnv1a64_from(h, &d.seq.raw().to_le_bytes())
        })
    });
    let expect: Vec<u32> = (1..=sends as u32).collect();
    RunFingerprint {
        trace_jsonl,
        stats: sc.world.stats().clone(),
        deliveries,
        completeness: sc.completeness(&expect),
        counters: vec![
            sc.sender_metrics.counters(),
            sc.primary_metrics.counters(),
            sc.secondary_metrics.counters(),
            sc.receiver_metrics.counters(),
            sc.net_metrics.counters(),
        ],
        events: sc.world.events_processed(),
        depth_max: sc.world.queue_depth_max(),
        transcript_fnv,
    }
}

fn assert_equal(a: &RunFingerprint, b: &RunFingerprint, label: &str) {
    assert_eq!(
        a.trace_jsonl, b.trace_jsonl,
        "{label}: JSONL trace bytes must match"
    );
    assert_eq!(a.stats, b.stats, "{label}: NetStats must match");
    assert_eq!(
        a.deliveries, b.deliveries,
        "{label}: per-receiver deliveries must match"
    );
    assert_eq!(a.completeness, b.completeness, "{label}");
    assert_eq!(
        a.counters, b.counters,
        "{label}: metrics registries must match"
    );
    assert_eq!(a.events, b.events, "{label}: events processed");
    assert_eq!(a.depth_max, b.depth_max, "{label}: queue depth high-water");
    assert_eq!(
        a.transcript_fnv, b.transcript_fnv,
        "{label}: delivery transcripts"
    );
}

/// Runs `config` twice: the runs must be byte-identical to each other
/// and match `golden`.
fn assert_replays(
    config: DisScenarioConfig,
    horizon: SimTime,
    sends: u64,
    golden: Golden,
    label: &str,
) {
    let a = fingerprint(config.clone(), horizon, sends);
    let b = fingerprint(config, horizon, sends);
    assert_equal(&a, &b, label);
    assert_eq!(
        (
            a.trace_jsonl.len(),
            fnv1a64(a.trace_jsonl.as_bytes()),
            a.events,
            a.completeness
        ),
        golden,
        "{label}: run no longer replays the recorded parent bytes"
    );
}

#[test]
fn dis_scenario_is_backend_and_shard_invariant() {
    assert_replays(
        DisScenarioConfig {
            sites: 6,
            receivers_per_site: 4,
            site_params: SiteParams {
                tail_in_loss: LossModel::rate(0.08),
                ..SiteParams::distant()
            },
            receiver_nack_delay: std::time::Duration::from_millis(5),
            seed: 4242,
            ..DisScenarioConfig::default()
        },
        SimTime::from_secs(60),
        SENDS,
        (54_564, 4_913_338_563_917_364_792, 2_971, 1.0),
        "DIS",
    );
}

#[test]
fn lossy_wan_is_backend_and_shard_invariant() {
    // Backbone loss on top of tail loss: recovery traffic cascades
    // through secondaries and the primary, exercising timer re-arms,
    // retransmission fan-out, and deep queue churn.
    assert_replays(
        DisScenarioConfig {
            sites: 8,
            receivers_per_site: 5,
            secondary_loggers: true,
            site_params: SiteParams {
                tail_in_loss: LossModel::rate(0.12),
                tail_out_loss: LossModel::rate(0.04),
                ..SiteParams::distant()
            },
            seed: 90210,
            ..DisScenarioConfig::default()
        },
        SimTime::from_secs(60),
        SENDS,
        (123_209, 12_843_769_973_094_524_841, 4_823, 1.0),
        "lossy WAN",
    );
}

/// A short-horizon slice of the 1000-site × 30-receiver scale point:
/// replay must hold at scale, not just on toy topologies.
#[test]
fn dis_1000x30_short_horizon_is_shard_invariant() {
    assert_replays(
        DisScenarioConfig {
            sites: 1_000,
            receivers_per_site: 30,
            site_params: SiteParams {
                tail_in_loss: LossModel::rate(0.05),
                ..SiteParams::distant()
            },
            seed: 1995,
            ..DisScenarioConfig::default()
        },
        SimTime::from_millis(1_600),
        2,
        (2_983_413, 17_635_558_834_158_559_070, 127_141, 0.953),
        "1000x30",
    );
}

/// Runs a 6-site × 5-receiver world with secondaries and a 10 % lossy
/// inbound tail under `site_params`' LAN, twice, and pins its trace,
/// events, completeness, queue depth high-water mark and each
/// receiver's timed delivery transcript.
fn assert_lan_golden(lan: SiteParams, golden: TimedGolden, label: &str) {
    let config = DisScenarioConfig {
        sites: 6,
        receivers_per_site: 5,
        secondary_loggers: true,
        site_params: SiteParams {
            tail_in_loss: LossModel::rate(0.1),
            ..lan
        },
        seed: 4747,
        ..DisScenarioConfig::default()
    };
    let horizon = SimTime::from_secs(60);
    let a = fingerprint(config.clone(), horizon, SENDS);
    let b = fingerprint(config, horizon, SENDS);
    assert_equal(&a, &b, label);
    assert_eq!(
        (
            a.trace_jsonl.len(),
            fnv1a64(a.trace_jsonl.as_bytes()),
            a.events,
            a.completeness,
            a.depth_max,
            a.transcript_fnv
        ),
        golden,
        "{label}: run no longer replays the recorded bytes"
    );
}

/// Jittered, lossy LANs with secondaries re-multicasting repairs: the
/// LAN deliveries of one multicast land at different instants, and
/// some never land. In the goldens above every site fans a copy out to
/// all its members at one instant.
#[test]
fn jittered_lossy_lan_fan_out_replays() {
    assert_lan_golden(
        SiteParams {
            lan_loss: LossModel::rate(0.05),
            jitter: std::time::Duration::from_millis(3),
            ..SiteParams::distant()
        },
        (
            100_048,
            16_189_794_214_173_998_102,
            3_514,
            1.0,
            116,
            10_259_245_888_106_434_656,
        ),
        "jittered LAN",
    );
}

/// Lossy LANs without jitter: a site's surviving members still share
/// one arrival instant, so a fan-out reaches them with gaps where the
/// LAN dropped a copy.
#[test]
fn lossy_lan_fan_out_replays() {
    assert_lan_golden(
        SiteParams {
            lan_loss: LossModel::rate(0.1),
            ..SiteParams::distant()
        },
        (
            105_715,
            15_434_723_397_581_865_203,
            3_404,
            1.0,
            114,
            14_447_328_004_772_100_262,
        ),
        "lossy LAN",
    );
}
