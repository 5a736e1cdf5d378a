//! The chaos scenario matrix: consensus-hardened primary failover
//! under injected faults, audited by the recovery forensics.
//!
//! Each shape builds a small DIS world with three primary-log replicas
//! (election quorum 2) and lossy receiver tails, drives a fixed data
//! schedule, injects one failure pattern mid-stream — crash, partition,
//! double failure, restart-with-empty-log, or repeated crash/re-elect
//! churn — and then verifies the two properties the election layer must
//! preserve:
//!
//! 1. **Full delivery**: every receiver ends with the complete stream.
//! 2. **Clean forensics**: the collected trace passes the doctor's
//!    anomaly sweep — no unrecovered gaps, no stalled settlements, and
//!    in particular no split-brain double-serve (a repair accepted from
//!    a logger whose term authority had already been superseded).
//!
//! The matrix (`run_matrix`) crosses every shape with multiple seeds;
//! the `chaos` binary gates CI on it.

use std::sync::Arc;
use std::time::Duration;

use lbrm::harness::{DisScenario, DisScenarioConfig, MachineActor};
use lbrm_core::logger::Logger;
use lbrm_core::machine::Notice;
use lbrm_core::sender::Sender;
use lbrm_core::trace::analyze::{analyze, AnalyzeConfig, CollectorSink, RecoveryReport};
use lbrm_core::trace::{TraceSink, Tracer};
use lbrm_sim::loss::LossModel;
use lbrm_sim::time::SimTime;
use lbrm_sim::topology::SiteParams;

/// Every failure shape in the matrix, in run order.
pub const SHAPES: [&str; 5] = [
    "primary-crash",
    "partition-stale-primary",
    "primary-replica-crash",
    "replica-rejoin",
    "crash-churn",
];

/// Data packets each scenario sends (250 ms spacing from t = 1 s).
pub const PACKETS: u64 = 20;

/// Virtual end time: failures land mid-stream, the tail leaves room for
/// the last election, retargeted NACK retries, and settlement.
const UNTIL: SimTime = SimTime::from_secs(45);

/// The chaos world: receivers recover straight from the primary (no
/// site secondaries), so the primary's serving authority — the thing
/// the election fences — is on the critical recovery path. Three
/// replicas give an election quorum of 2, surviving any single failure.
pub fn chaos_config(seed: u64) -> DisScenarioConfig {
    DisScenarioConfig {
        sites: 3,
        receivers_per_site: 3,
        secondary_loggers: false,
        replicas: 3,
        site_params: SiteParams {
            tail_in_loss: LossModel::rate(0.05),
            ..SiteParams::distant()
        },
        receiver_nack_delay: Duration::from_millis(5),
        seed,
        ..DisScenarioConfig::default()
    }
}

/// Outcome of one (shape, seed) cell.
pub struct ChaosOutcome {
    /// The failure shape.
    pub shape: &'static str,
    /// World seed.
    pub seed: u64,
    /// Fraction of receivers that delivered the complete stream.
    pub completeness: f64,
    /// Elections the sender committed (terms elected).
    pub elections: usize,
    /// Stale-term packets rejected by fencing, from the forensics.
    pub fenced_rejects: u64,
    /// The doctor's forensic report over the collected trace.
    pub report: RecoveryReport,
    /// Trace records analyzed.
    pub records: usize,
}

impl ChaosOutcome {
    /// The CI gate: full delivery and a clean forensic verdict.
    pub fn passed(&self) -> bool {
        self.completeness == 1.0 && self.report.is_clean()
    }

    /// One line for the matrix summary.
    pub fn render(&self) -> String {
        format!(
            "{:<26} seed {:<4} {} (completeness {:.2}, {} elections, {} fenced, {} anomalies)",
            self.shape,
            self.seed,
            if self.passed() { "PASS" } else { "FAIL" },
            self.completeness,
            self.elections,
            self.fenced_rejects,
            self.report.anomalies.len(),
        )
    }

    /// JSON object for the per-scenario report artifact.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"shape\":\"{}\",\"seed\":{},\"passed\":{},\
             \"completeness\":{},\"elections\":{},\"fenced_rejects\":{},\
             \"records\":{},\"report\":{}}}",
            self.shape,
            self.seed,
            self.passed(),
            self.completeness,
            self.elections,
            self.fenced_rejects,
            self.records,
            self.report.to_json(),
        )
    }
}

/// Restarts a crashed replica as a fresh process: same host, empty log,
/// parented at the *current* primary (a restarted process reads current
/// cluster config). It catches up through replication pushes and
/// gap-fetches from its parent.
fn restart_replica(sc: &mut DisScenario, host: lbrm_wire::HostId, sink: Arc<dyn TraceSink>) {
    let current = sc
        .world
        .actor::<MachineActor<Sender>>(sc.plan.src_host)
        .machine()
        .primary();
    let mut lg = Logger::new(sc.plan.replica(host, current));
    lg.set_tracer(Tracer::to(sink));
    sc.world.restart(host, MachineActor::new(lg, vec![]));
}

/// The chaos world for `seed`, tracing into `sink`, with its data
/// schedule queued.
fn scenario(seed: u64, sink: Arc<dyn TraceSink>) -> DisScenario {
    let mut sc = DisScenario::build_with_sink(chaos_config(seed), Some(sink));
    for i in 0..PACKETS {
        sc.send_at(SimTime::from_millis(1_000 + 250 * i), format!("update-{i}"));
    }
    sc
}

/// Runs one cell of the matrix.
///
/// # Panics
///
/// On an unknown shape name.
pub fn run_shape(shape: &'static str, seed: u64) -> ChaosOutcome {
    let collector = Arc::new(CollectorSink::default());
    let mut sc = scenario(seed, collector.clone());
    match shape {
        // The primary dies while NACKs are in flight to it; the sender
        // must elect a replica and receivers must finish recovery there.
        "primary-crash" => {
            sc.world.run_until(SimTime::from_millis(2_100));
            sc.world.crash(sc.plan.primary);
        }
        // Only the old primary is cut off — sender, replicas, and every
        // receiver stay on the majority side, elect a new term, and
        // fence the stale primary. After the heal the deposed primary
        // must converge (step down), not double-serve.
        "partition-stale-primary" => {
            sc.world.run_until(SimTime::from_millis(2_100));
            sc.world.partition(&[sc.plan.primary]);
            sc.world.run_until(SimTime::from_secs(8));
            sc.world.heal();
        }
        // Primary and one replica fail together: the two survivors
        // still form a quorum (2 of 3) at the election timeout.
        "primary-replica-crash" => {
            sc.world.run_until(SimTime::from_millis(2_100));
            sc.world.crash(sc.plan.primary);
            sc.world.crash(sc.plan.replicas[0]);
        }
        // A replica dies, the primary dies, a new term is elected among
        // the survivors — then the lost replica comes back as a fresh
        // process with an empty log and must catch up under the new
        // leadership.
        "replica-rejoin" => {
            sc.world.run_until(SimTime::from_millis(1_500));
            sc.world.crash(sc.plan.replicas[0]);
            sc.world.run_until(SimTime::from_millis(2_100));
            sc.world.crash(sc.plan.primary);
            sc.world.run_until(SimTime::from_secs(10));
            let rejoined = sc.plan.replicas[0];
            restart_replica(&mut sc, rejoined, collector.clone());
        }
        // Repeated crash/re-elect churn: the first elected leader dies
        // too — while data is still flowing, so the sender's un-acked
        // buffer re-triggers detection — forcing a second, higher term.
        "crash-churn" => {
            sc.world.run_until(SimTime::from_millis(2_100));
            sc.world.crash(sc.plan.primary);
            // Advance in fixed steps (identical event processing to one
            // big run) until the first election commits, then kill the
            // new leader mid-stream.
            let mut t = 2_500u64;
            let first = loop {
                sc.world.run_until(SimTime::from_millis(t));
                let p = sc
                    .world
                    .actor::<MachineActor<Sender>>(sc.plan.src_host)
                    .machine()
                    .primary();
                if p != sc.plan.primary || t >= 8_000 {
                    break p;
                }
                t += 250;
            };
            if first != sc.plan.primary {
                sc.world.crash(first);
            }
        }
        other => panic!("unknown chaos shape: {other}"),
    }
    sc.world.run_until(UNTIL);

    let records = collector.take();
    let report = analyze(&records, &AnalyzeConfig::default());
    let expect: Vec<u32> = (1..=PACKETS as u32).collect();
    let sender = sc.world.actor::<MachineActor<Sender>>(sc.plan.src_host);
    let elections = sender
        .notices
        .iter()
        .filter(|(_, n)| matches!(n, Notice::TermElected { .. }))
        .count();
    ChaosOutcome {
        shape,
        seed,
        completeness: sc.completeness(&expect),
        elections,
        fenced_rejects: report.fenced_rejects,
        records: records.len(),
        report,
    }
}

/// Runs the full matrix: every shape crossed with `seeds`.
pub fn run_matrix(seeds: &[u64]) -> Vec<ChaosOutcome> {
    let mut out = Vec::new();
    for &shape in &SHAPES {
        for &seed in seeds {
            out.push(run_shape(shape, seed));
        }
    }
    out
}

/// Wraps the matrix outcomes as one JSON report document.
pub fn matrix_to_json(outcomes: &[ChaosOutcome]) -> String {
    let cells: Vec<String> = outcomes.iter().map(|o| o.to_json()).collect();
    format!(
        "{{\"passed\":{},\"cells\":[{}]}}",
        outcomes.iter().all(|o| o.passed()),
        cells.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One representative cell per tier-1 run: the full matrix is CI's
    /// chaos job; here we pin the hardest shape (partition + heal with a
    /// stale primary) end to end.
    #[test]
    fn partition_stale_primary_cell_is_clean() {
        let o = run_shape("partition-stale-primary", 1);
        assert!(
            o.passed(),
            "completeness {:.2}, anomalies {:?}",
            o.completeness,
            o.report.anomalies
        );
        assert!(o.elections >= 1, "an election must have committed");
    }

    /// With no fault injected, every receiver gets the whole stream. At
    /// these seeds a whole site loses the stream's first packets on its
    /// tail circuit, and recovers them back to the origin.
    #[test]
    fn the_fault_free_world_recovers_the_streams_first_packets() {
        use lbrm_core::receiver::Receiver;
        let expect: Vec<u32> = (1..=PACKETS as u32).collect();
        for seed in [4, 6, 9, 23, 32, 33, 40] {
            let mut sc = scenario(seed, Arc::new(CollectorSink::default()));
            sc.world.run_until(UNTIL);
            assert_eq!(sc.completeness(&expect), 1.0, "seed {seed}");
            let recovered_first = sc.all_receivers().into_iter().any(|rx| {
                let rx = sc.world.actor::<MachineActor<Receiver>>(rx);
                rx.deliveries
                    .iter()
                    .any(|(_, d)| d.seq.raw() == 1 && d.recovered)
            });
            assert!(recovered_first, "seed {seed}: no receiver lost seq 1");
        }
    }

    #[test]
    fn matrix_json_shape() {
        let o = run_shape("primary-crash", 2);
        let json = matrix_to_json(std::slice::from_ref(&o));
        assert!(json.starts_with("{\"passed\":"));
        assert!(json.contains("\"shape\":\"primary-crash\""));
    }
}
