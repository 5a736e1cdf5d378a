//! Shard-count differential: the sharded parallel world must replay the
//! serial one *byte for byte*. Seeded lossy scenarios are executed under
//! every `{1, 2, 8 shards}` leg; everything observable — wire-level
//! `NetStats`, per-receiver delivery transcripts, the serialized JSONL
//! trace stream, and metrics registries — must be identical across all
//! legs. This is what lets `LBRM_SIM_SHARDS` be a pure wall-clock knob:
//! it may not change a single byte of any result. (The event queue's own
//! pop order is held to a binary-heap oracle in `lbrm_sim::queue`'s unit
//! tests; the test names below predate that move.)

use std::sync::Arc;

use lbrm::harness::{DisScenario, DisScenarioConfig};
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
}

fn fingerprint(
    config: DisScenarioConfig,
    shards: usize,
    horizon: SimTime,
    sends: u64,
) -> RunFingerprint {
    let collector = Arc::new(CollectorSink::default());
    let mut sc = DisScenario::build_with_sink(
        DisScenarioConfig {
            shards: Some(shards),
            ..config
        },
        Some(collector.clone() as Arc<dyn TraceSink>),
    );
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
}

/// Runs `config` under `{1, 2, 8}` shards and asserts every leg is
/// byte-identical to the serial run.
fn assert_shard_invariant(config: DisScenarioConfig, label: &str) {
    let horizon = SimTime::from_secs(60);
    let base = fingerprint(config.clone(), 1, horizon, SENDS);
    assert!(
        !base.trace_jsonl.is_empty(),
        "{label}: differential must compare real traffic"
    );
    for shards in [2usize, 8] {
        let leg = fingerprint(config.clone(), shards, horizon, SENDS);
        assert_equal(&base, &leg, &format!("{label} [x{shards}]"));
    }
}

#[test]
fn dis_scenario_is_backend_and_shard_invariant() {
    assert_shard_invariant(
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
        "DIS",
    );
}

#[test]
fn lossy_wan_is_backend_and_shard_invariant() {
    // Backbone loss on top of tail loss: recovery traffic cascades
    // through secondaries and the primary, exercising timer re-arms,
    // retransmission fan-out, and deep queue churn.
    assert_shard_invariant(
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
        "lossy WAN",
    );
}

/// A short-horizon slice of the committed 1000-site × 30-receiver
/// benchmark workload: the determinism guarantee must hold at the scale
/// the bench actually runs, not just on toy topologies.
#[test]
fn dis_1000x30_short_horizon_is_shard_invariant() {
    let config = DisScenarioConfig {
        sites: 1_000,
        receivers_per_site: 30,
        site_params: SiteParams {
            tail_in_loss: LossModel::rate(0.05),
            ..SiteParams::distant()
        },
        seed: 1995,
        ..DisScenarioConfig::default()
    };
    let horizon = SimTime::from_millis(1_600);
    let sends = 2;
    let base = fingerprint(config.clone(), 1, horizon, sends);
    assert!(!base.trace_jsonl.is_empty());
    for shards in [2usize, 8] {
        let leg = fingerprint(config.clone(), shards, horizon, sends);
        assert_equal(&base, &leg, &format!("1000x30 [x{shards}]"));
    }
}
