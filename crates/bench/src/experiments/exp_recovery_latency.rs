//! **§2.2.2 recovery latency** — local recovery beats wide-area
//! recovery by an order of magnitude.
//!
//! The paper's ping measurements: a secondary logger a few miles away is
//! 3–4 ms RTT; the primary 1,500 miles away is ~80 ms RTT, so recovering
//! from the local log cuts retransmission latency ~10×. We reproduce the
//! intra-site loss case: a handful of receivers at one site miss a
//! packet (their site's secondary logger has it), and recover either
//! from the secondary (distributed) or from the faraway primary
//! (centralized). Latencies come from the scenario's receiver-side
//! [`lbrm_core::trace::MetricsRegistry`] histogram.

use std::sync::Arc;
use std::time::Duration;

use lbrm::harness::{DisScenario, DisScenarioConfig};
use lbrm_core::trace::analyze::{analyze, AnalyzeConfig};
use lbrm_core::trace::CollectorSink;
use lbrm_sim::time::SimTime;
use lbrm_sim::topology::SiteParams;

use crate::report::{fmt_dur, mean, percentile, Table};

/// Recovery latencies for the affected receivers under one variant.
pub fn run_variant(distributed: bool, seed: u64) -> Vec<Duration> {
    let forensics = Arc::new(CollectorSink::default());
    let mut sc = DisScenario::build_with_sink(
        DisScenarioConfig {
            sites: 10,
            receivers_per_site: 10,
            secondary_loggers: distributed,
            // Paper's RTT picture: distant sites (~80 ms RTT to the
            // source site), fast LANs.
            site_params: SiteParams::distant(),
            source_site_params: SiteParams::distant(),
            // Keep the deliberate reorder-tolerance delay small so the
            // comparison isolates the RTT-to-logger difference the
            // paper measured with ping.
            receiver_nack_delay: Duration::from_millis(5),
            seed,
            ..DisScenarioConfig::default()
        },
        Some(forensics.clone()),
    );
    sc.send_at(SimTime::from_secs(1), "one");
    sc.send_at(SimTime::from_secs(5), "two"); // missed by the victims
    sc.send_at(SimTime::from_secs(9), "three");

    // Five receivers at site 0 are deaf exactly while #2 is delivered —
    // receiver-local loss: everyone else (including the site's secondary
    // logger) has the packet.
    let victims: Vec<_> = sc.plan.receivers[0].iter().copied().take(5).collect();
    sc.world.run_until(SimTime::from_millis(4_900));
    for &v in &victims {
        sc.world.crash(v);
    }
    sc.world.run_until(SimTime::from_millis(5_800));
    for &v in &victims {
        sc.world.revive(v);
    }
    sc.world.run_until(SimTime::from_secs(30));

    // Only the victims lose anything, so the scenario-wide trace
    // histogram is exactly their recovery-latency distribution.
    let latencies = sc.receiver_metrics.recovery_latency().samples();
    assert_eq!(
        latencies.len() as u64,
        sc.receiver_metrics.counter("recovered"),
        "histogram and counter must agree"
    );
    assert_eq!(
        sc.completeness(&[1, 2, 3]),
        1.0,
        "all receivers must end complete"
    );
    // Self-audit: replay the full event stream through the forensic
    // analyzer — every detected gap must close, every repair must be
    // attributable to a known server, and no anomaly may fire.
    let report = analyze(&forensics.take(), &AnalyzeConfig::default());
    assert!(report.is_clean(), "forensics: {:?}", report.anomalies);
    assert_eq!(report.unrecovered, 0, "unrecovered gaps in trace");
    assert!(
        !report.sources.contains_key("unknown"),
        "unattributed repairs: {:?}",
        report.sources
    );
    latencies
}

/// Runs the experiment.
pub fn run() -> String {
    let dist = run_variant(true, 21);
    let central = run_variant(false, 21);

    let mut out = String::new();
    out.push_str(
        "§2.2.2: recovery latency for intra-site loss —\n\
         local secondary logger vs faraway primary\n\n",
    );
    let mut t = Table::new(&["variant", "n", "mean", "p95"]);
    t.row(&[
        "distributed (local logger)".into(),
        format!("{}", dist.len()),
        fmt_dur(mean(&dist)),
        fmt_dur(percentile(&dist, 95.0)),
    ]);
    t.row(&[
        "centralized (primary only)".into(),
        format!("{}", central.len()),
        fmt_dur(mean(&central)),
        fmt_dur(percentile(&central, 95.0)),
    ]);
    out.push_str(&t.render());
    let speedup = mean(&central).as_secs_f64() / mean(&dist).as_secs_f64().max(1e-9);
    out.push_str(&format!(
        "\nLocal recovery is {speedup:.1}x faster (paper: \"an order of magnitude\",\n\
         3-4 ms local RTT vs ~80 ms to a primary 1,500 miles away).\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_recovery_is_much_faster() {
        let dist = run_variant(true, 5);
        let central = run_variant(false, 5);
        assert!(!dist.is_empty() && !central.is_empty());
        let speedup = mean(&central).as_secs_f64() / mean(&dist).as_secs_f64();
        assert!(
            speedup > 4.0,
            "speedup only {speedup:.1}x: {:?} vs {:?}",
            mean(&dist),
            mean(&central)
        );
    }
}
