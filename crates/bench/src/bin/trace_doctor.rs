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
//!               [--hub]]
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

use std::fmt::Display;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::process::ExitCode;
use std::str::FromStr;
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
}

/// The value after `flag`, parsed.
fn value<T: FromStr>(flag: &str, it: &mut impl Iterator<Item = String>) -> Result<T, String>
where
    T::Err: Display,
{
    let v = it.next().ok_or(format!("{flag} needs a value"))?;
    v.parse().map_err(|e| format!("{flag}: {e}"))
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
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let it = &mut it;
        match a.as_str() {
            "--seed" => args.seed = value(&a, it)?,
            "--json" => args.json = true,
            "--write-json" => args.write_json = Some(value(&a, it)?),
            "--assert-clean" => args.assert_clean = true,
            "--batch" => args.batch = true,
            "--max-live-timelines" => args.max_live_timelines = Some(value(&a, it)?),
            "--horizon-ms" => args.horizon_ms = Some(value(&a, it)?),
            "--reservoir" => args.reservoir = Some(value(&a, it)?),
            "--mem-budget" => {
                let budget: String = value(&a, it)?;
                args.mem_budget = Some(parse_bytes(&budget).map_err(|e| format!("{a}: {e}"))?);
            }
            "--sites" => args.sites = Some(value(&a, it)?),
            "--receivers" => args.receivers = Some(value(&a, it)?),
            "--packets" => args.packets = value(&a, it)?,
            "--write-trace" => args.write_trace = Some(value(&a, it)?),
            "--live" => args.live = true,
            "--admin-addr" => args.admin_addr = Some(value(&a, it)?),
            "--follow" => args.follow = true,
            "--quiet-ms" => args.quiet_ms = value(&a, it)?,
            "--loss" => args.loss = value(&a, it)?,
            "--spacing-ms" => args.spacing_ms = value(&a, it)?,
            "--settle-ms" => args.settle_ms = value(&a, it)?,
            "--linger-ms" => args.linger_ms = value(&a, it)?,
            "--hub" => args.hub = true,
            "--help" | "-h" => {
                return Err("usage: trace_doctor [TRACE.jsonl] [--seed N] [--json] \
                     [--write-json PATH] [--assert-clean] [--batch] \
                     [--max-live-timelines N] [--horizon-ms N] [--reservoir N] \
                     [--mem-budget BYTES[K|M|G]] [--sites N] [--receivers N] \
                     [--packets N] [--write-trace PATH] \
                     [--live [--admin-addr HOST:PORT] [--loss RATE] [--spacing-ms N] \
                     [--settle-ms N] [--linger-ms N] [--hub]] \
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
    let default = OnlineConfig::default();
    OnlineConfig {
        max_live_timelines: args.max_live_timelines,
        horizon_nanos: args.horizon_ms.map(|ms| ms * 1_000_000),
        reservoir: args.reservoir.unwrap_or(default.reservoir),
        ..default
    }
}

/// The `--write-trace` capture, when asked for.
fn write_trace(args: &Args) -> Result<Option<Arc<JsonLinesSink<BufWriter<File>>>>, String> {
    let Some(path) = &args.write_trace else {
        return Ok(None);
    };
    let f = File::create(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(Some(Arc::new(JsonLinesSink::new(BufWriter::new(f)))))
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
            let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
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
            let capture = write_trace(args)?;
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
    let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
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
    let capture = write_trace(args)?;
    let opts = LiveOptions {
        receivers: args.receivers.map(|r| r as usize).unwrap_or(3),
        packets: args.packets,
        loss: args.loss,
        seed: args.seed,
        spacing: Duration::from_millis(args.spacing_ms),
        settle: Duration::from_millis(args.settle_ms),
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
    let outcome = if args.live {
        run_live_cmd(&args)
    } else if args.follow {
        run_follow(&args).map(|d| (d, false))
    } else {
        run(&args).map(|d| (d, false))
    };
    let (doc, live_failed) = match outcome {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("trace_doctor: {msg}");
            return ExitCode::FAILURE;
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
        if let Err(e) = File::create(path).and_then(|mut f| {
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
