//! Bundle-framing check at scenario scale: on the seeded DIS and
//! lossy-WAN scenarios (the same ones the shard differential uses) the
//! simulator's framing ledger must show real coalescing — fewer frames
//! than packets — at a bounded byte cost: 8 header bytes per frame plus a
//! 2-byte prefix per packet over the one-datagram-per-packet
//! counterfactual. Framing never feeds back into the event stream (the
//! meter only observes sends), so there is no second leg to compare; the
//! test names predate the removal of the on/off switch.

use lbrm::harness::{DisScenario, DisScenarioConfig};
use lbrm::sim::loss::LossModel;
use lbrm::sim::time::SimTime;
use lbrm::sim::topology::SiteParams;

const SENDS: u64 = 20;

fn assert_coalesces(config: DisScenarioConfig, label: &str) {
    let mut sc = DisScenario::build(config);
    // DIS-style ticks: a burst of entity updates per frame boundary.
    // Same-instant sends are what PDU bundling coalesces, on the data
    // path directly and on the repair path whenever one NACK's span is
    // answered in a run.
    for i in 0..SENDS {
        sc.send_at(
            SimTime::from_millis(1_000 + 400 * (i / 4)),
            format!("update-{i}"),
        );
    }
    sc.world.run_until(SimTime::from_secs(60));

    let b = sc.world.bundle_stats();
    assert!(
        b.frames < b.packets,
        "{label}: bundling must coalesce something (frames {} vs packets {})",
        b.frames,
        b.packets
    );
    assert_eq!(
        b.per_kind.values().map(|k| k.frames).sum::<u64>(),
        b.frames,
        "{label}: per-kind frames sum to the total"
    );
    assert!(
        b.bytes_bundled <= b.bytes_unbundled + 8 * b.frames + 2 * b.packets,
        "{label}: bundled bytes = unbundled + bounded framing overhead"
    );
}

#[test]
fn dis_scenario_is_bundle_mode_invariant() {
    assert_coalesces(
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
fn lossy_wan_is_bundle_mode_invariant() {
    // Backbone loss on top of tail loss: recovery cascades through
    // secondaries and the primary, so the meter sees dense same-instant
    // repair runs — the traffic bundling exists for.
    assert_coalesces(
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
