//! Recovery forensics: the shared driver behind the `trace_doctor`
//! binary and the experiments' self-audit.
//!
//! Every path here feeds the one correlator, the streaming
//! [`OnlineAnalyzer`] — one record at a time in bounded memory, whether
//! replaying a `JsonLinesSink` capture ([`replay_jsonl`]), tailing a
//! growing one ([`follow_jsonl`]) or plugged straight into a live
//! [`DisScenario`] as a sink ([`run_scenario`]). A capture that has to
//! be sorted by timestamp first goes through
//! [`lbrm_core::trace::analyze::analyze`], which materializes, sorts and
//! then folds through the same correlator.
//!
//! [`OnlineAnalyzer`]: lbrm_core::trace::OnlineAnalyzer

use std::io::BufRead;
use std::sync::Arc;
use std::time::Duration;

use lbrm::harness::{DisScenario, DisScenarioConfig};
use lbrm_core::trace::analyze::RecoveryReport;
use lbrm_core::trace::json;
use lbrm_core::trace::{FanoutSink, OnlineAnalyzerSink, OnlineConfig, TraceSink};
use lbrm_sim::loss::LossModel;
use lbrm_sim::time::SimTime;
use lbrm_sim::topology::SiteParams;

/// Outcome of one doctor pass.
pub struct DoctorRun {
    /// The forensic analysis.
    pub report: RecoveryReport,
    /// Trace records analyzed.
    pub records: usize,
    /// Malformed replay lines skipped (always 0 for live runs).
    pub skipped: usize,
}

impl DoctorRun {
    /// Wraps the report JSON with replay bookkeeping.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.field("records", self.records)
                .field("skipped", self.skipped)
                .field("report", &self.report);
        })
    }
}

/// Replays a `JsonLinesSink` capture from a buffered reader through the
/// streaming analyzer: [`follow_jsonl`] stopped at the first EOF. Each
/// parsed line is pushed and dropped, so the whole pass holds one line
/// buffer, the open timelines, and the analyzer's bounded reservoirs —
/// never a record vector or the file as text. Blank lines are ignored;
/// malformed non-blank lines (a truncated final line from an unflushed
/// writer, say) are counted as skipped.
///
/// # Errors
///
/// Propagates reader I/O errors.
pub fn replay_jsonl<R: BufRead>(reader: R, cfg: OnlineConfig) -> std::io::Result<DoctorRun> {
    follow_jsonl(reader, cfg, Duration::ZERO, |_| true)
}

/// What [`follow_jsonl_into`] hands the stop predicate between polls.
#[derive(Debug, Clone, Copy)]
pub struct FollowProgress {
    /// Complete records parsed and fed so far.
    pub records: u64,
    /// Malformed complete lines skipped so far.
    pub skipped: usize,
    /// Time since the file last yielded a complete line.
    pub quiet_for: Duration,
}

/// Tails a growing `JsonLinesSink` capture, feeding each complete line
/// into `sink` as it appears (the same incremental path a live sidecar
/// consumes). A final line without a trailing newline is treated as
/// in-flight: it is buffered across polls and only parsed — or counted
/// as skipped — once the follow stops, so a writer caught mid-`write`
/// never corrupts the stream. Polls every `poll` at EOF until `stop`
/// returns true; returns `(records, skipped)`.
///
/// # Errors
///
/// Propagates reader I/O errors.
pub fn follow_jsonl_into<R: BufRead>(
    mut reader: R,
    sink: &dyn TraceSink,
    poll: Duration,
    mut stop: impl FnMut(&FollowProgress) -> bool,
) -> std::io::Result<(u64, usize)> {
    let mut progress = FollowProgress {
        records: 0,
        skipped: 0,
        quiet_for: Duration::ZERO,
    };
    // Partial tail carried across polls; read_line appends to it, so a
    // line split across two writes reassembles for free.
    let mut pending = String::new();
    let feed = |l: &str, progress: &mut FollowProgress| {
        if l.trim().is_empty() {
            return;
        }
        match lbrm_core::trace::analyze::parse_json_line(l) {
            Some(r) => {
                sink.record(r.at_nanos, r.host, &r.event);
                progress.records += 1;
            }
            None => progress.skipped += 1,
        }
    };
    loop {
        let n = reader.read_line(&mut pending)?;
        if n == 0 {
            if stop(&progress) {
                break;
            }
            std::thread::sleep(poll);
            progress.quiet_for += poll;
            continue;
        }
        if !pending.ends_with('\n') {
            // Hit EOF mid-line; keep accumulating on the next poll.
            continue;
        }
        let l = pending.trim_end_matches(['\n', '\r']).to_string();
        pending.clear();
        feed(&l, &mut progress);
        progress.quiet_for = Duration::ZERO;
    }
    // Whatever is left at stop time is either a complete line the
    // writer never terminated (parse it) or torn mid-write (skip it).
    let tail = std::mem::take(&mut pending);
    feed(&tail, &mut progress);
    Ok((progress.records, progress.skipped))
}

/// Tails a growing capture through the streaming analyzer —
/// `trace_doctor --follow`. See [`follow_jsonl_into`] for line
/// semantics.
///
/// # Errors
///
/// Propagates reader I/O errors.
pub fn follow_jsonl<R: BufRead>(
    reader: R,
    cfg: OnlineConfig,
    poll: Duration,
    stop: impl FnMut(&FollowProgress) -> bool,
) -> std::io::Result<DoctorRun> {
    let online = OnlineAnalyzerSink::new(cfg);
    let (records, skipped) = follow_jsonl_into(reader, &online, poll, stop)?;
    Ok(DoctorRun {
        report: online.finish(),
        records: records as usize,
        skipped,
    })
}

/// The doctor's built-in workload: a small DIS scenario with 5%
/// tail-circuit loss — every site sees losses, every recovery path
/// (secondary serve, parent fetch, late original) gets exercised.
pub fn demo_config(seed: u64) -> DisScenarioConfig {
    DisScenarioConfig {
        sites: 6,
        receivers_per_site: 5,
        site_params: SiteParams {
            tail_in_loss: LossModel::rate(0.05),
            ..SiteParams::distant()
        },
        receiver_nack_delay: Duration::from_millis(5),
        seed,
        ..DisScenarioConfig::default()
    }
}

/// Builds `config` with an [`OnlineAnalyzerSink`] injected (fanned out
/// with `extra` when given, e.g. a `JsonLinesSink` capturing a
/// replayable trace), sends `packets` updates at 250 ms spacing from
/// t = 1 s and runs to `until`: the trace is correlated as it is
/// emitted and no record vector ever exists. This is how `reproduce`
/// self-audits.
pub fn run_scenario(
    config: DisScenarioConfig,
    packets: u64,
    until: SimTime,
    cfg: OnlineConfig,
    extra: Option<Arc<dyn TraceSink>>,
) -> (DoctorRun, DisScenario) {
    let online = Arc::new(OnlineAnalyzerSink::new(cfg));
    let sink: Arc<dyn TraceSink> = match extra {
        Some(e) => Arc::new(FanoutSink::new(vec![
            online.clone() as Arc<dyn TraceSink>,
            e,
        ])),
        None => online.clone(),
    };
    let mut sc = DisScenario::build_with_sink(config, Some(sink));
    for i in 0..packets {
        sc.send_at(SimTime::from_millis(1_000 + 250 * i), format!("update-{i}"));
    }
    sc.world.run_until(until);
    let records = online.records() as usize;
    let run = DoctorRun {
        report: online.finish(),
        records,
        skipped: 0,
    };
    (run, sc)
}

/// The built-in seeded lossy run (what `trace_doctor` executes when not
/// given a replay file).
pub fn demo_run(seed: u64, cfg: OnlineConfig) -> DoctorRun {
    run_scenario(demo_config(seed), 20, SimTime::from_secs(30), cfg, None).0
}

/// Parses a byte size with an optional K/M/G (KiB/MiB/GiB) suffix, as
/// accepted by `trace_doctor --mem-budget`. Bare numbers are bytes;
/// suffixes are case-insensitive and may be spelled `K`, `KB`, or `KiB`
/// (all binary multiples).
///
/// # Errors
///
/// Returns a usage message for an unknown suffix or a malformed number.
pub fn parse_bytes(s: &str) -> Result<u64, String> {
    let (num, mult) = match s.trim_end_matches(|c: char| c.is_ascii_alphabetic()) {
        n if n.len() == s.len() => (n, 1u64),
        n => match s[n.len()..].to_ascii_uppercase().as_str() {
            "K" | "KIB" | "KB" => (n, 1024),
            "M" | "MIB" | "MB" => (n, 1024 * 1024),
            "G" | "GIB" | "GB" => (n, 1024 * 1024 * 1024),
            suffix => return Err(format!("unknown size suffix: {suffix}")),
        },
    };
    num.parse::<u64>()
        .map(|n| n * mult)
        .map_err(|e| format!("{s}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbrm_core::trace::analyze::{analyze, parse_json_lines, AnalyzeConfig};
    use lbrm_core::trace::{CollectorSink, JsonLinesSink};

    #[test]
    fn parse_bytes_accepts_every_suffix_form() {
        assert_eq!(parse_bytes("0"), Ok(0));
        assert_eq!(parse_bytes("123"), Ok(123));
        assert_eq!(parse_bytes("2K"), Ok(2 * 1024));
        assert_eq!(parse_bytes("2kb"), Ok(2 * 1024));
        assert_eq!(parse_bytes("2KiB"), Ok(2 * 1024));
        assert_eq!(parse_bytes("3M"), Ok(3 * 1024 * 1024));
        assert_eq!(parse_bytes("3mib"), Ok(3 * 1024 * 1024));
        assert_eq!(parse_bytes("1G"), Ok(1024 * 1024 * 1024));
        assert_eq!(parse_bytes("1gb"), Ok(1024 * 1024 * 1024));
    }

    #[test]
    fn parse_bytes_rejects_malformed_sizes() {
        assert!(parse_bytes("12T")
            .unwrap_err()
            .contains("unknown size suffix"));
        assert!(parse_bytes("12XB")
            .unwrap_err()
            .contains("unknown size suffix"));
        // All-alphabetic input strips to an empty number, which must not
        // silently parse as zero.
        assert!(parse_bytes("K").is_err());
        assert!(parse_bytes("").is_err());
        assert!(parse_bytes("-5").is_err());
        assert!(parse_bytes("1.5M").is_err());
        assert!(parse_bytes("12 M").is_err());
    }

    /// Runs the demo scenario for `seed` and returns its JSONL capture.
    fn captured(seed: u64) -> String {
        let sink = Arc::new(JsonLinesSink::buffered());
        let _ = run_scenario(
            demo_config(seed),
            10,
            SimTime::from_secs(20),
            OnlineConfig::default(),
            Some(sink.clone() as Arc<dyn TraceSink>),
        );
        let text = sink.contents();
        assert!(!text.is_empty(), "capture should have events");
        text
    }

    /// Materialize, sort, fold: what `trace_doctor --batch` does.
    fn analyze_jsonl(text: &str) -> DoctorRun {
        let (records, skipped) = parse_json_lines(text);
        DoctorRun {
            report: analyze(&records, &AnalyzeConfig::default()),
            records: records.len(),
            skipped,
        }
    }

    #[test]
    fn streaming_replay_matches_whole_string() {
        let mut text = captured(77);
        // Exercise the skip path too: blank lines plus a truncated final
        // line from an "unflushed writer".
        text.push_str("\n\n{\"truncated\": ");
        let whole = replay_jsonl(text.as_bytes(), OnlineConfig::default())
            .expect("in-memory read cannot fail");
        // A tiny buffer forces many refills, proving the line reassembly.
        let streamed = replay_jsonl(
            std::io::BufReader::with_capacity(64, text.as_bytes()),
            OnlineConfig::default(),
        )
        .expect("in-memory read cannot fail");
        assert_eq!(streamed.records, whole.records);
        assert_eq!(streamed.skipped, whole.skipped);
        assert_eq!(whole.skipped, 1, "exactly the truncated line");
        assert_eq!(streamed.to_json(), whole.to_json());
        let parsed = analyze_jsonl(&text);
        assert_eq!(
            (whole.records, whole.skipped),
            (parsed.records, parsed.skipped)
        );
    }

    #[test]
    fn online_replay_matches_batch_replay() {
        let mut text = captured(78);
        text.push_str("\n\n{\"truncated\": ");
        let batch = analyze_jsonl(&text);
        let online = replay_jsonl(
            std::io::BufReader::with_capacity(64, text.as_bytes()),
            OnlineConfig::default(),
        )
        .expect("in-memory read cannot fail");
        assert_eq!(online.records, batch.records);
        assert_eq!(online.skipped, batch.skipped);
        assert_eq!(online.report.recovered, batch.report.recovered);
        assert_eq!(online.report.anomalies, batch.report.anomalies);
        assert_eq!(online.report.sources, batch.report.sources);
        assert!(online.report.stream.streamed);
        assert!(!batch.report.stream.streamed);
        assert!(online.report.stream.peak_resident_bytes < batch.report.stream.peak_resident_bytes);
    }

    #[test]
    fn live_online_sink_matches_collected_batch() {
        let collector = Arc::new(CollectorSink::default());
        let (online, _) = run_scenario(
            demo_config(79),
            10,
            SimTime::from_secs(20),
            OnlineConfig::default(),
            Some(collector.clone() as Arc<dyn TraceSink>),
        );
        let records = collector.take();
        let batch = analyze(&records, &AnalyzeConfig::default());
        assert_eq!(online.records, records.len());
        assert_eq!(online.report.recovered, batch.recovered);
        assert_eq!(online.report.abandoned, batch.abandoned);
        assert_eq!(online.report.anomalies, batch.anomalies);
        assert_eq!(online.report.telescoping, batch.telescoping);
        assert_eq!(online.report.total.samples(), batch.total.samples());
    }

    /// Satellite: `--follow` semantics. A writer thread appends the
    /// capture in mid-line chunks while the follower reads; the final
    /// line is left truncated (no newline, torn JSON). The follow must
    /// reassemble every split line, count exactly the torn tail as
    /// skipped, and report what a one-shot replay of the complete lines
    /// reports.
    #[test]
    fn follow_tails_a_growing_capture_with_a_torn_final_line() {
        use std::io::Write as _;

        let text = captured(80);
        let complete_lines = text.lines().count();
        assert!(complete_lines > 10, "capture should have events");

        let path = std::env::temp_dir().join(format!(
            "lbrm_follow_{}_{:x}.jsonl",
            std::process::id(),
            complete_lines
        ));
        std::fs::write(&path, "").unwrap();

        // Append in chunks that deliberately tear lines: flush after an
        // arbitrary byte count, not at line boundaries, then finish with
        // a torn half-record and no newline.
        let writer_path = path.clone();
        let writer_text = text.clone();
        let writer = std::thread::spawn(move || {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&writer_path)
                .unwrap();
            for chunk in writer_text.as_bytes().chunks(97) {
                f.write_all(chunk).unwrap();
                f.flush().unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
            f.write_all(b"{\"at_nanos\":12,\"truncat").unwrap();
            f.flush().unwrap();
        });

        let reader = std::io::BufReader::new(std::fs::File::open(&path).unwrap());
        let followed = follow_jsonl(
            reader,
            OnlineConfig::default(),
            Duration::from_millis(2),
            // Stop only once the writer is done and the file has gone
            // quiet — before that, EOF just means "not written yet".
            |p| p.quiet_for >= Duration::from_millis(50),
        )
        .expect("follow cannot fail on a local file");
        writer.join().unwrap();
        let _ = std::fs::remove_file(&path);

        let batch = analyze_jsonl(&text);
        assert_eq!(followed.records, batch.records);
        assert_eq!(followed.records, complete_lines);
        assert_eq!(followed.skipped, 1, "exactly the torn final line");
        assert_eq!(followed.report.recovered, batch.report.recovered);
        assert_eq!(followed.report.anomalies, batch.report.anomalies);
        assert_eq!(followed.report.sources, batch.report.sources);
    }

    #[test]
    fn demo_run_is_clean_and_attributed() {
        let run = demo_run(77, OnlineConfig::default());
        assert!(run.report.is_clean(), "{:?}", run.report.anomalies);
        assert!(run.report.recovered > 0);
        assert_eq!(run.report.unrecovered, 0);
        assert!(run.records > 0);
        assert!(run.to_json().contains("\"clean\":true"));
    }
}
