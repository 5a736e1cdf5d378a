//! CLI contract tests for the `trace_doctor` binary: `--mem-budget`
//! size parsing must reject malformed values with a usage error (not
//! silently misread a budget), `--assert-clean` must turn protocol
//! anomalies into a nonzero exit code for CI, and `--batch` — "sort
//! this capture first", not an engine — must refuse every combination
//! it cannot honour.

use std::io::Write as _;
use std::process::{Command, Output};

use lbrm_core::trace::analyze::{analyze, parse_json_lines, AnalyzeConfig, RecoveryReport};
use lbrm_core::trace::ProtocolEvent;
use lbrm_wire::{EpochId, HostId, Seq};

mod common;
use common::fnv1a;

fn doctor(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace_doctor"))
        .args(args)
        .output()
        .expect("spawn trace_doctor")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// What `--batch` computes: parse, sort, fold.
fn analyze_jsonl(text: &str) -> RecoveryReport {
    analyze(&parse_json_lines(text).0, &AnalyzeConfig::default())
}

fn write_trace(name: &str, lines: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "lbrm-doctor-cli-{}-{name}.jsonl",
        std::process::id()
    ));
    let mut f = std::fs::File::create(&path).expect("create temp trace");
    f.write_all(lines.as_bytes()).expect("write temp trace");
    path
}

/// A minimal anomaly-free capture: one data packet, no open recoveries.
fn clean_trace() -> String {
    ProtocolEvent::DataSent {
        seq: Seq(1),
        epoch: EpochId(0),
    }
    .to_json(1_000_000, HostId(1))
        + "\n"
}

/// A capture with a gap that is never repaired: the analyzer must close
/// it as an `unrecovered_gap` anomaly at end-of-run.
fn unclean_trace() -> String {
    let src = HostId(1);
    let rx = HostId(2);
    let mut s = String::new();
    for seq in [1u32, 3] {
        s += &ProtocolEvent::DataSent {
            seq: Seq(seq),
            epoch: EpochId(0),
        }
        .to_json(u64::from(seq) * 1_000_000, src);
        s.push('\n');
    }
    s += &ProtocolEvent::GapDetected {
        first: Seq(2),
        last: Seq(2),
    }
    .to_json(4_000_000, rx);
    s.push('\n');
    s
}

#[test]
fn malformed_mem_budget_is_a_usage_error() {
    for bad in ["12T", "1.5M", "K", "12XB"] {
        let out = doctor(&["--mem-budget", bad]);
        assert!(!out.status.success(), "--mem-budget {bad} must be rejected");
        let err = stderr(&out);
        assert!(
            err.contains("--mem-budget"),
            "error must name the flag: {err}"
        );
    }
    let out = doctor(&["--mem-budget", "12T"]);
    assert!(stderr(&out).contains("unknown size suffix"));
}

#[test]
fn mem_budget_without_value_is_a_usage_error() {
    let out = doctor(&["--mem-budget"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("needs a value"), "{}", stderr(&out));
}

#[test]
fn well_formed_mem_budget_suffixes_are_accepted() {
    let path = write_trace("budget-ok", &clean_trace());
    // A generous budget in every suffix form: all must parse and pass.
    for budget in ["1073741824", "1048576K", "1024M", "1G"] {
        let out = doctor(&[path.to_str().unwrap(), "--mem-budget", budget]);
        assert!(
            out.status.success(),
            "--mem-budget {budget} should parse and pass: {}",
            stderr(&out)
        );
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn assert_clean_exit_codes_follow_the_report() {
    let clean = clean_trace();
    let unclean = unclean_trace();
    // Anchor the fixtures to the analyzer before trusting exit codes.
    assert!(analyze_jsonl(&clean).is_clean());
    assert!(!analyze_jsonl(&unclean).is_clean());

    let clean_path = write_trace("clean", &clean);
    let unclean_path = write_trace("unclean", &unclean);

    let out = doctor(&[clean_path.to_str().unwrap(), "--assert-clean", "--json"]);
    assert!(
        out.status.success(),
        "clean trace must exit 0: {}",
        stderr(&out)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"clean\":true"));

    let out = doctor(&[unclean_path.to_str().unwrap(), "--assert-clean"]);
    assert!(!out.status.success(), "anomalies must fail --assert-clean");
    assert!(
        stderr(&out).contains("--assert-clean failed"),
        "{}",
        stderr(&out)
    );

    // Without the flag the same anomalies only get reported.
    let out = doctor(&[unclean_path.to_str().unwrap()]);
    assert!(out.status.success(), "reporting mode must exit 0");

    let _ = std::fs::remove_file(clean_path);
    let _ = std::fs::remove_file(unclean_path);
}

/// `--batch` means "materialize this capture and sort it first" and
/// nothing else, so every combination it used to ignore silently is a
/// usage error: no capture to sort, a capture that is still growing or
/// live, or the eviction/sampling flags a never-evicting fold has no
/// use for.
#[test]
fn batch_rejects_everything_it_would_ignore() {
    let path = write_trace("batch-usage", &clean_trace());
    let file = path.to_str().unwrap();
    let cases: [(&[&str], &str); 6] = [
        (&["--batch"], "capture path"),
        (
            &[file, "--batch", "--max-live-timelines", "8"],
            "--max-live-timelines",
        ),
        (&[file, "--batch", "--horizon-ms", "500"], "--horizon-ms"),
        (&[file, "--batch", "--reservoir", "16"], "--reservoir"),
        (&["--batch", "--follow", file], "--follow"),
        (&[file, "--batch", "--live"], "--live"),
    ];
    for (args, names) in cases {
        let out = doctor(args);
        assert!(!out.status.success(), "{args:?} must be rejected");
        let err = stderr(&out);
        assert!(err.contains("--batch"), "{args:?}: {err}");
        assert!(err.contains(names), "{args:?} must name {names}: {err}");
        assert!(
            out.stdout.is_empty(),
            "{args:?}: usage errors print no report"
        );
    }
    // On its own, with a capture, it is accepted.
    let out = doctor(&[file, "--batch", "--assert-clean"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let _ = std::fs::remove_file(path);
}

/// The engine selector is gone: there is one correlator.
#[test]
fn stream_flag_is_an_unknown_argument() {
    let out = doctor(&["--stream"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("unknown argument: --stream"),
        "{}",
        stderr(&out)
    );
}

/// A replay in arrival order of a capture that is out of timestamp
/// order says so once on stderr and names the fix; `--batch` sorts it
/// and reports what the in-order capture reports.
#[test]
fn out_of_order_replay_hints_at_batch() {
    let rx = HostId(2);
    let line = |at_ms: u64, event: ProtocolEvent| event.to_json(at_ms * 1_000_000, rx) + "\n";
    let seq = Seq(2);
    let detected = line(
        4,
        ProtocolEvent::GapDetected {
            first: seq,
            last: seq,
        },
    );
    let recovered = line(
        9,
        ProtocolEvent::Recovered {
            seq,
            latency_nanos: 5_000_000,
        },
    );
    // The recovery is written before the detection it closes, as when a
    // second thread's file is appended after the first's.
    let shuffled = write_trace("shuffled", &format!("{recovered}{detected}"));
    let ordered = write_trace("ordered", &format!("{detected}{recovered}"));

    let out = doctor(&[shuffled.to_str().unwrap(), "--json"]);
    assert!(out.status.success(), "a hint is not a failure");
    let err = stderr(&out);
    assert_eq!(err.matches("--batch").count(), 1, "one hint: {err}");
    assert!(err.contains("out of timestamp order"), "{err}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"unrecovered\":1"));

    let out = doctor(&[
        shuffled.to_str().unwrap(),
        "--batch",
        "--json",
        "--assert-clean",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(!stderr(&out).contains("--batch"), "no hint once sorted");
    let sorted = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(sorted.contains("\"recovered\":1"), "{sorted}");
    assert!(sorted.contains("\"out_of_order\":1"), "{sorted}");

    let out = doctor(&[ordered.to_str().unwrap(), "--json"]);
    assert!(stderr(&out).is_empty(), "in-order replay: no hint");
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"recovered\":1"));

    let _ = std::fs::remove_file(shuffled);
    let _ = std::fs::remove_file(ordered);
}

/// The built-in run's JSON report, with the default reservoirs and with
/// `--reservoir 16` (which samples its 40 recoveries), is byte-identical
/// to the one recorded at `ed62318` (sha256 `eec65d69…` and
/// `f7c66c19…`). A change that moves either hash moved a figure of the
/// forensics report; re-record it on purpose.
#[test]
fn json_report_is_pinned() {
    for (args, want) in [
        (&["--json"][..], (777, 0x3f26_c90e_2fc8_c127)),
        (
            &["--reservoir", "16", "--json"][..],
            (777, 0x979b_49a7_c882_3e70),
        ),
    ] {
        let out = doctor(args);
        assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        assert_eq!(
            (out.stdout.len(), fnv1a(&out.stdout)),
            want,
            "trace_doctor {args:?} moved"
        );
    }
}
