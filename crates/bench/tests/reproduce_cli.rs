//! CLI contract tests for the `reproduce` binary: `--only <key>` prints
//! exactly that section of the full report, and anything it does not
//! understand — an unknown key, `--only` without a value, an unknown
//! flag — is a usage error (exit 2, key list on stderr) rather than a
//! silent full run; and the full report and its trace capture are pinned
//! byte for byte.

use std::path::Path;
use std::process::{Command, Output};

use lbrm_bench::experiments;

mod common;
use common::fnv1a;

fn reproduce(args: &[&str], cwd: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn reproduce")
}

#[test]
fn only_prints_that_section_under_the_full_runs_banner() {
    let out = reproduce(&["--only", "table1_backoff"], Path::new("."));
    assert!(out.status.success(), "{:?}", out.status);
    let rule = "=".repeat(72);
    let expected = format!(
        "{rule}\n== Table 1\n{rule}\n{}\n",
        experiments::table1_backoff::run()
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
}

#[test]
fn bad_arguments_are_usage_errors_naming_the_keys() {
    for args in [&["--only", "nope"][..], &["--only"], &["--frobnicate"]] {
        let out = reproduce(args, Path::new("."));
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            out.stdout.is_empty(),
            "{args:?}: no experiment may have run"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: reproduce"), "{args:?}: {stderr}");
        for (key, ..) in experiments::ALL {
            assert!(stderr.contains(key), "{args:?}: {key} missing: {stderr}");
        }
    }
}

/// The full report is byte-identical to the one recorded at `483ccf9`
/// (stdout sha256 `a75c0bc7…`), its capture to the one recorded when
/// same-instant events became FIFO (sha256 `1d9313f4…`), and the capture
/// goes to the workspace's `target/`, not to wherever the process
/// happened to start: from an unrelated directory the "saved to" line
/// still names a file that exists. That line's absolute path differs per
/// checkout, so it is left out of the stdout hash. A change that moves
/// either hash moved a figure or the event order; re-record it on
/// purpose.
#[test]
fn full_report_is_pinned_and_saved_from_any_working_directory() {
    let cwd = std::env::temp_dir().join(format!("lbrm_reproduce_cli_{}", std::process::id()));
    std::fs::create_dir_all(&cwd).unwrap();
    let out = reproduce(&[], &cwd);
    std::fs::remove_dir_all(&cwd).unwrap();
    assert!(out.status.success(), "{:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    const SAVED: &str = "Full event stream saved to ";
    let saved = stdout
        .lines()
        .find_map(|l| l.strip_prefix(SAVED))
        .unwrap_or_else(|| panic!("no capture line: {stdout}"));
    assert!(Path::new(saved).is_absolute(), "{saved}");
    let capture = std::fs::read(saved).expect("capture exists");
    let report: String = stdout
        .split_inclusive('\n')
        .filter(|l| !l.starts_with(SAVED))
        .collect();
    assert_eq!(
        (report.len(), fnv1a(report.as_bytes())),
        (15_511, 0xadf2_d9d9_4f3a_69c0),
        "reproduce stdout moved"
    );
    assert_eq!(
        (capture.len(), fnv1a(&capture)),
        (44_206, 0xbcac_f7a7_f625_5810),
        "target/reproduce_trace.jsonl moved"
    );
}
