//! Runs every experiment — in parallel across cores, reported in a fixed
//! order — regenerating all tables and figures of the paper's evaluation
//! in one go (used to fill EXPERIMENTS.md), then closes with a
//! protocol-trace summary and a recovery-forensics report from one seeded
//! lossy run (whose full event stream is saved to
//! `target/reproduce_trace.jsonl` for `trace_doctor` replay).

use std::io::BufWriter;
use std::sync::Arc;

use lbrm_bench::doctor;
use lbrm_bench::experiments as e;
use lbrm_core::trace::{JsonLinesSink, OnlineConfig, TraceSink};
use lbrm_sim::time::SimTime;

type Experiment = fn() -> String;

/// One seeded lossy run, reported entirely through the trace layer:
/// per-role [`lbrm_core::trace::MetricsRegistry`] aggregates, the sim's
/// queue gauges, and the forensic analyzer's recovery report — produced
/// by the streaming correlator riding the live run as a sink, the same
/// bounded-memory path `trace_doctor` uses.
fn trace_summary() -> String {
    let path = "target/reproduce_trace.jsonl";
    let jsonl: Option<Arc<JsonLinesSink<BufWriter<std::fs::File>>>> = std::fs::File::create(path)
        .ok()
        .map(|f| Arc::new(JsonLinesSink::new(BufWriter::new(f))));
    let (run, sc) = doctor::run_scenario(
        doctor::demo_config(77),
        20,
        SimTime::from_secs(30),
        OnlineConfig::default(),
        jsonl.clone().map(|s| s as Arc<dyn TraceSink>),
    );
    let mut out = String::from(
        "Protocol observability: per-role trace registries after a seeded\n\
         run (6 sites x 5 receivers, 5% tail-circuit loss, 20 packets).\n\n",
    );
    for (role, reg) in [
        ("sender", &sc.sender_metrics),
        ("primary+replicas", &sc.primary_metrics),
        ("secondaries", &sc.secondary_metrics),
        ("receivers", &sc.receiver_metrics),
        ("network", &sc.net_metrics),
    ] {
        out.push_str(role);
        out.push('\n');
        out.push_str(&reg.render());
        out.push('\n');
    }
    out.push_str("Recovery forensics (trace_doctor over the same stream):\n\n");
    out.push_str(&run.report.render());
    assert!(
        run.report.is_clean(),
        "reproduce trace not clean: {:?}",
        run.report.anomalies
    );
    // The capture is replayable: `trace_doctor target/reproduce_trace.jsonl`.
    if let Some(sink) = jsonl {
        sink.flush();
        out.push_str(&format!("\nFull event stream saved to {path}\n"));
    }
    out
}

fn main() {
    let sections: Vec<(&str, Experiment)> = vec![
        ("Figure 4", e::fig4_heartbeat_overhead::run),
        ("Figure 5", e::fig5_overhead_ratio::run),
        ("Table 1", e::table1_backoff::run),
        ("Table 2", e::table2_estimation::run),
        ("Table 3", e::table3_breakdown::run),
        (
            "Figure 7 / §2.2.2 NACK reduction",
            e::fig7_nack_reduction::run,
        ),
        ("§2.2.2 recovery latency", e::exp_recovery_latency::run),
        ("§2.1.1 burst detection bound", e::exp_burst_detection::run),
        (
            "§2.3 statistical acknowledgement",
            e::exp_statistical_ack::run,
        ),
        ("§2.3.3 group-size churn", e::exp_group_churn::run),
        ("§6 wb comparison", e::exp_wb_comparison::run),
        ("§7 hierarchy ablation", e::exp_hierarchy::run),
        ("§2.2.1 re-multicast ablation", e::exp_remulticast::run),
        ("§2.1.2 DIS scenario", e::exp_dis_scenario::run),
        ("PDU bundling NACK storm", e::exp_bundle_storm::run),
        ("Trace-layer summary", trace_summary),
    ];
    // Sections are independent experiments, so they run on all cores;
    // `run_sections` hands back (name, body) in input order and nothing
    // prints until every body is in, so stdout — and the trace capture,
    // written by the single `trace_summary` section — stays byte-identical
    // to a serial run.
    for (name, body) in lbrm_bench::parallel::run_sections(sections) {
        println!("{}", "=".repeat(72));
        println!("== {name}");
        println!("{}", "=".repeat(72));
        println!("{body}");
    }
}
