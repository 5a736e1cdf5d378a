//! `trace_doctor` — recovery forensics over a protocol-event stream.
//!
//! Replays a `JsonLinesSink` capture (pass the file path) or runs the
//! built-in seeded lossy DIS scenario, correlates the events into
//! per-`(host, seq)` recovery timelines, and reports per-stage latency
//! histograms, the repair-source breakdown, and any protocol-health
//! anomalies (unrecovered gaps, NACK implosion, excess duplicate
//! repairs, heartbeat silence, stalled settlements).
//!
//! ```text
//! trace_doctor [TRACE.jsonl] [--seed N] [--json] [--write-json PATH]
//!              [--assert-clean] [--batch]
//!              [--max-live-timelines N] [--horizon-ms N] [--reservoir N]
//!              [--mem-budget BYTES[K|M|G]]
//!              [--sites N] [--receivers N] [--packets N]
//!              [--write-trace PATH]
//!              [--live [--admin-addr HOST:PORT] [--loss RATE]
//!               [--spacing-ms N] [--settle-ms N] [--linger-ms N]
//!               [--hub] [--port N]]
//!              [--follow TRACE.jsonl [--quiet-ms N]]
//! ```
//!
//! `--live` runs real endpoint threads (UDP multicast on loopback when
//! available, the in-process hub otherwise, or always with `--hub`)
//! with the doctor sidecar attached, induced receiver-side data loss
//! (`--loss`), and — with `--admin-addr` — the hand-rolled HTTP admin
//! surface (`/stats`, `/timelines/live`, `/anomalies/tail?n=`, `/mem`,
//! `/healthz`) answering while traffic flows. Under `--assert-clean` a
//! live run also fails if the sidecar shed any event.
//! `--follow` tails a *growing* capture through the same incremental
//! path, stopping once the file has been quiet for `--quiet-ms`.
//!
//! There is one correlator, the streaming `OnlineAnalyzer`: one record
//! at a time in bounded memory, in arrival order, with
//! `--max-live-timelines` / `--horizon-ms` / `--reservoir` controlling
//! eviction and sampling. `--batch` does not select another engine: it
//! materializes the capture named on the command line, sorts it by
//! timestamp and folds it through the same correlator with nothing
//! evicted or sampled (`analyze()`). That only changes the answer for a
//! capture that is out of timestamp order — a multi-thread live capture
//! or two files concatenated — so it needs a capture path and rejects
//! the eviction/sampling flags, `--follow` and `--live`.
//! `--mem-budget` exits nonzero when the analyzer's peak resident state
//! exceeds the budget (the CI memory gate); `--assert-clean` exits
//! nonzero on any anomaly. `--sites`/`--receivers`/`--packets` scale
//! the built-in scenario (CI uses this to generate a ≥1M-event capture
//! via `--write-trace`).

use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use lbrm_bench::doctor::{
    demo_config, follow_jsonl, parse_bytes, replay_jsonl, run_scenario, DoctorRun,
};
use lbrm_bench::live::{run_live, LiveOptions};
use lbrm_core::trace::analyze::{analyze, parse_json_lines, AnalyzeConfig};
use lbrm_core::trace::{DoctorConfig, JsonLinesSink, OnlineConfig, TraceSink};
use lbrm_sim::time::SimTime;

struct Args {
    file: Option<String>,
    seed: u64,
    json: bool,
    write_json: Option<String>,
    assert_clean: bool,
    batch: bool,
    max_live_timelines: Option<usize>,
    horizon_ms: Option<u64>,
    reservoir: Option<usize>,
    mem_budget: Option<u64>,
    sites: Option<u32>,
    receivers: Option<u32>,
    packets: u64,
    write_trace: Option<String>,
    live: bool,
    admin_addr: Option<String>,
    follow: bool,
    quiet_ms: u64,
    loss: f64,
    spacing_ms: u64,
    settle_ms: u64,
    linger_ms: u64,
    hub: bool,
    port: u16,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        file: None,
        seed: 77,
        json: false,
        write_json: None,
        assert_clean: false,
        batch: false,
        max_live_timelines: None,
        horizon_ms: None,
        reservoir: None,
        mem_budget: None,
        sites: None,
        receivers: None,
        packets: 20,
        write_trace: None,
        live: false,
        admin_addr: None,
        follow: false,
        quiet_ms: 2_000,
        loss: 0.15,
        spacing_ms: 25,
        settle_ms: 5_000,
        linger_ms: 0,
        hub: false,
        port: 49_501,
    };
    let mut it = std::env::args().skip(1);
    let next_val = |name: &str, it: &mut dyn Iterator<Item = String>| {
        it.next().ok_or(format!("{name} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                args.seed = next_val("--seed", &mut it)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--json" => args.json = true,
            "--write-json" => {
                args.write_json = Some(next_val("--write-json", &mut it)?);
            }
            "--assert-clean" => args.assert_clean = true,
            "--batch" => args.batch = true,
            "--max-live-timelines" => {
                args.max_live_timelines = Some(
                    next_val("--max-live-timelines", &mut it)?
                        .parse()
                        .map_err(|e| format!("--max-live-timelines: {e}"))?,
                );
            }
            "--horizon-ms" => {
                args.horizon_ms = Some(
                    next_val("--horizon-ms", &mut it)?
                        .parse()
                        .map_err(|e| format!("--horizon-ms: {e}"))?,
                );
            }
            "--reservoir" => {
                args.reservoir = Some(
                    next_val("--reservoir", &mut it)?
                        .parse()
                        .map_err(|e| format!("--reservoir: {e}"))?,
                );
            }
            "--mem-budget" => {
                args.mem_budget = Some(
                    parse_bytes(&next_val("--mem-budget", &mut it)?)
                        .map_err(|e| format!("--mem-budget: {e}"))?,
                );
            }
            "--sites" => {
                args.sites = Some(
                    next_val("--sites", &mut it)?
                        .parse()
                        .map_err(|e| format!("--sites: {e}"))?,
                );
            }
            "--receivers" => {
                args.receivers = Some(
                    next_val("--receivers", &mut it)?
                        .parse()
                        .map_err(|e| format!("--receivers: {e}"))?,
                );
            }
            "--packets" => {
                args.packets = next_val("--packets", &mut it)?
                    .parse()
                    .map_err(|e| format!("--packets: {e}"))?;
            }
            "--write-trace" => {
                args.write_trace = Some(next_val("--write-trace", &mut it)?);
            }
            "--live" => args.live = true,
            "--admin-addr" => {
                args.admin_addr = Some(next_val("--admin-addr", &mut it)?);
            }
            "--follow" => args.follow = true,
            "--quiet-ms" => {
                args.quiet_ms = next_val("--quiet-ms", &mut it)?
                    .parse()
                    .map_err(|e| format!("--quiet-ms: {e}"))?;
            }
            "--loss" => {
                args.loss = next_val("--loss", &mut it)?
                    .parse()
                    .map_err(|e| format!("--loss: {e}"))?;
            }
            "--spacing-ms" => {
                args.spacing_ms = next_val("--spacing-ms", &mut it)?
                    .parse()
                    .map_err(|e| format!("--spacing-ms: {e}"))?;
            }
            "--settle-ms" => {
                args.settle_ms = next_val("--settle-ms", &mut it)?
                    .parse()
                    .map_err(|e| format!("--settle-ms: {e}"))?;
            }
            "--linger-ms" => {
                args.linger_ms = next_val("--linger-ms", &mut it)?
                    .parse()
                    .map_err(|e| format!("--linger-ms: {e}"))?;
            }
            "--hub" => args.hub = true,
            "--port" => {
                args.port = next_val("--port", &mut it)?
                    .parse()
                    .map_err(|e| format!("--port: {e}"))?;
            }
            "--help" | "-h" => {
                return Err("usage: trace_doctor [TRACE.jsonl] [--seed N] [--json] \
                     [--write-json PATH] [--assert-clean] [--batch] \
                     [--max-live-timelines N] [--horizon-ms N] [--reservoir N] \
                     [--mem-budget BYTES[K|M|G]] [--sites N] [--receivers N] \
                     [--packets N] [--write-trace PATH] \
                     [--live [--admin-addr HOST:PORT] [--loss RATE] [--spacing-ms N] \
                     [--settle-ms N] [--linger-ms N] [--hub] [--port N]] \
                     [--follow TRACE.jsonl [--quiet-ms N]]"
                    .into());
            }
            other if !other.starts_with('-') && args.file.is_none() => {
                args.file = Some(other.to_owned());
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.admin_addr.is_some() && !args.live {
        return Err("--admin-addr requires --live".into());
    }
    if args.follow && args.live {
        return Err("--follow and --live are mutually exclusive".into());
    }
    if args.follow && args.file.is_none() {
        return Err("--follow needs a capture path to tail".into());
    }
    if args.batch {
        // --batch sorts a whole capture and folds it with nothing
        // evicted or sampled; anything else it was combined with would
        // be silently ignored.
        if args.file.is_none() {
            return Err("--batch needs a capture path to sort".into());
        }
        if args.follow || args.live {
            return Err("--batch cannot be combined with --follow or --live".into());
        }
        if args.max_live_timelines.is_some()
            || args.horizon_ms.is_some()
            || args.reservoir.is_some()
        {
            return Err(
                "--batch never evicts or samples: drop --max-live-timelines, \
                 --horizon-ms and --reservoir, or drop --batch"
                    .into(),
            );
        }
    }
    Ok(args)
}

fn online_config(args: &Args) -> OnlineConfig {
    let mut cfg = OnlineConfig {
        analyze: AnalyzeConfig::default(),
        max_live_timelines: args.max_live_timelines,
        horizon_nanos: args.horizon_ms.map(|ms| ms * 1_000_000),
        ..OnlineConfig::default()
    };
    if let Some(r) = args.reservoir {
        cfg.stage_reservoir = r;
        cfg.timeline_reservoir = r;
    }
    cfg
}

fn run(args: &Args) -> Result<DoctorRun, String> {
    match &args.file {
        Some(path) if args.batch => {
            let (records, skipped) = parse_json_lines(
                &std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
            );
            Ok(DoctorRun {
                report: analyze(&records, &AnalyzeConfig::default()),
                records: records.len(),
                skipped,
            })
        }
        Some(path) => {
            // Stream the capture line-by-line: replaying a million-event
            // JSONL file costs the open timelines, not the file.
            let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
            let run = replay_jsonl(std::io::BufReader::new(file), online_config(args))
                .map_err(|e| format!("{path}: {e}"))?;
            let late = run.report.stream.out_of_order;
            if late > 0 {
                eprintln!(
                    "trace_doctor: {late} records in {path} are out of timestamp order and were \
                     correlated as they arrived; rerun with --batch to sort the capture first"
                );
            }
            Ok(run)
        }
        None => {
            let mut config = demo_config(args.seed);
            if let Some(s) = args.sites {
                config.sites = s as usize;
            }
            if let Some(r) = args.receivers {
                config.receivers_per_site = r as usize;
            }
            // Sends run at 250 ms spacing from t = 1 s; leave the tail
            // room the demo run gives its 20 packets over 30 s.
            let until = SimTime::from_millis((1_000 + 250 * args.packets + 25_000).max(30_000));
            let capture: Option<Arc<JsonLinesSink<std::io::BufWriter<std::fs::File>>>> =
                match &args.write_trace {
                    Some(path) => {
                        let f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
                        Some(Arc::new(JsonLinesSink::new(std::io::BufWriter::new(f))))
                    }
                    None => None,
                };
            let extra = capture.clone().map(|s| s as Arc<dyn TraceSink>);
            let run = run_scenario(config, args.packets, until, online_config(args), extra).0;
            if let Some(sink) = capture {
                sink.flush();
            }
            Ok(run)
        }
    }
}

/// Tails a growing capture (`--follow`), stopping once the file has
/// been quiet for `--quiet-ms`.
fn run_follow(args: &Args) -> Result<DoctorRun, String> {
    let path = args.file.as_deref().expect("checked in parse_args");
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let quiet = Duration::from_millis(args.quiet_ms.max(1));
    follow_jsonl(
        std::io::BufReader::new(file),
        online_config(args),
        Duration::from_millis(25),
        |p| p.quiet_for >= quiet,
    )
    .map_err(|e| format!("{path}: {e}"))
}

/// Runs the real-endpoint scenario (`--live`) with the doctor sidecar
/// attached and, optionally, the HTTP admin surface bound. Returns the
/// run plus whether `--assert-clean` failed on events dropped at the
/// sidecar sink.
fn run_live_cmd(args: &Args) -> Result<(DoctorRun, bool), String> {
    let capture: Option<Arc<JsonLinesSink<std::io::BufWriter<std::fs::File>>>> =
        match &args.write_trace {
            Some(path) => {
                let f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
                Some(Arc::new(JsonLinesSink::new(std::io::BufWriter::new(f))))
            }
            None => None,
        };
    let opts = LiveOptions {
        receivers: args.receivers.map(|r| r as usize).unwrap_or(3),
        packets: args.packets,
        loss: args.loss,
        seed: args.seed,
        spacing: Duration::from_millis(args.spacing_ms),
        settle: Duration::from_millis(args.settle_ms),
        port: args.port,
        use_hub: args.hub,
        admin_addr: args.admin_addr.clone(),
        capture: capture.clone().map(|s| s as Arc<dyn TraceSink>),
        doctor: DoctorConfig::default(),
    };
    let linger = Duration::from_millis(args.linger_ms);
    let outcome = run_live(opts, |air| {
        if let Some(addr) = air.admin_addr {
            println!("trace_doctor: admin surface listening on http://{addr}/");
        }
        if !linger.is_zero() {
            std::thread::sleep(linger);
        }
    })
    .map_err(|e| format!("--live: {e}"))?;
    if let Some(sink) = capture {
        sink.flush();
    }

    let dropped = outcome.finish.dropped_events;
    eprintln!(
        "trace_doctor: live over {} — {} delivered ({} recovered), {} induced drops, \
         {} sink drops, {} records",
        outcome.transport,
        outcome.delivered,
        outcome.recovered,
        outcome.induced_drops,
        dropped,
        outcome.finish.records,
    );
    let failed = args.assert_clean && dropped > 0;
    if failed {
        eprintln!("trace_doctor: --assert-clean failed: {dropped} events dropped at the sink");
    }
    let records = outcome.finish.records as usize;
    Ok((
        DoctorRun {
            report: outcome.finish.report,
            records,
            skipped: 0,
        },
        failed,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut live_failed = false;
    let doc = if args.live {
        match run_live_cmd(&args) {
            Ok((d, failed)) => {
                live_failed = failed;
                d
            }
            Err(msg) => {
                eprintln!("trace_doctor: {msg}");
                return ExitCode::FAILURE;
            }
        }
    } else if args.follow {
        match run_follow(&args) {
            Ok(d) => d,
            Err(msg) => {
                eprintln!("trace_doctor: {msg}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match run(&args) {
            Ok(d) => d,
            Err(msg) => {
                eprintln!("trace_doctor: {msg}");
                return ExitCode::FAILURE;
            }
        }
    };

    if args.json {
        println!("{}", doc.to_json());
    } else {
        let order = if args.batch {
            "sorted"
        } else {
            "arrival order"
        };
        if args.live {
            println!(
                "trace_doctor: live endpoint scenario, seed {} ({} records, incremental)\n",
                args.seed, doc.records
            );
        } else if args.follow {
            println!(
                "trace_doctor: followed {} ({} records, {} malformed lines skipped, incremental)\n",
                args.file.as_deref().unwrap_or("?"),
                doc.records,
                doc.skipped
            );
        } else {
            match &args.file {
                Some(path) => println!(
                    "trace_doctor: {path} ({} records, {} malformed lines skipped, {order})\n",
                    doc.records, doc.skipped
                ),
                None => println!(
                    "trace_doctor: built-in lossy DIS scenario, seed {} ({} records, {order})\n",
                    args.seed, doc.records
                ),
            }
        }
        print!("{}", doc.report.render());
    }
    if let Some(path) = &args.write_json {
        if let Err(e) = std::fs::File::create(path).and_then(|mut f| {
            f.write_all(doc.to_json().as_bytes())?;
            f.write_all(b"\n")
        }) {
            eprintln!("trace_doctor: {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let mut failed = live_failed;
    if let Some(budget) = args.mem_budget {
        let peak = doc.report.stream.peak_resident_bytes;
        if peak > budget {
            eprintln!(
                "trace_doctor: --mem-budget failed: peak resident {peak} bytes > budget {budget}"
            );
            failed = true;
        }
    }
    if let Some(cap) = args.max_live_timelines {
        let peak = doc.report.stream.peak_live_timelines;
        if peak > cap as u64 {
            eprintln!("trace_doctor: live-timeline budget failed: peak {peak} > cap {cap}");
            failed = true;
        }
    }
    if args.assert_clean && !doc.report.is_clean() {
        eprintln!(
            "trace_doctor: --assert-clean failed: {} anomalies",
            doc.report.anomalies.len()
        );
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
