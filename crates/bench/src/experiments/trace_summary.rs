//! **Trace-layer summary** — one seeded lossy run, reported entirely
//! through the trace layer: per-role
//! [`lbrm_core::trace::MetricsRegistry`] aggregates, the sim's queue
//! gauges, and the forensic analyzer's recovery report — produced by the
//! streaming correlator riding the live run as a sink, the same
//! bounded-memory path `trace_doctor` uses. The full event stream is
//! saved to the workspace's `target/reproduce_trace.jsonl` for
//! `trace_doctor` replay.

use std::fs::{self, File};
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::doctor;
use lbrm_core::trace::{JsonLinesSink, OnlineConfig, TraceSink};
use lbrm_sim::time::SimTime;

/// Creates the capture file under the workspace's `target/`, wherever
/// the process was started, and the path to show for it: relative when
/// it lies below the current directory, as it does from the workspace
/// root.
fn create_capture() -> io::Result<(PathBuf, File)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target");
    fs::create_dir_all(&dir)?;
    let path = dir.canonicalize()?.join("reproduce_trace.jsonl");
    let file = File::create(&path)?;
    let cwd = std::env::current_dir()?;
    let shown = path.strip_prefix(cwd).map(Path::to_path_buf);
    Ok((shown.unwrap_or(path), file))
}

/// Runs the experiment.
pub fn run() -> String {
    let capture = match create_capture() {
        Ok((path, f)) => Some((path, Arc::new(JsonLinesSink::new(BufWriter::new(f))))),
        Err(e) => {
            eprintln!("warning: trace capture not saved: {e}");
            None
        }
    };
    let (run, sc) = doctor::run_scenario(
        doctor::demo_config(77),
        20,
        SimTime::from_secs(30),
        OnlineConfig::default(),
        capture
            .as_ref()
            .map(|(_, s)| s.clone() as Arc<dyn TraceSink>),
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
    if let Some((path, sink)) = capture {
        sink.flush();
        out.push_str(&format!(
            "\nFull event stream saved to {}\n",
            path.display()
        ));
    }
    out
}
