//! CLI contract tests for the `reproduce` binary: `--only <key>` prints
//! exactly that section of the full report, and anything it does not
//! understand — an unknown key, `--only` without a value, an unknown
//! flag — is a usage error (exit 2, key list on stderr) rather than a
//! silent full run.

use std::path::Path;
use std::process::{Command, Output};

use lbrm_bench::experiments;

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

/// The capture goes to the workspace's `target/`, not to wherever the
/// process happened to start: from an unrelated directory the "saved to"
/// line still names a file that exists.
#[test]
fn trace_capture_is_saved_from_any_working_directory() {
    let cwd = std::env::temp_dir().join(format!("lbrm_reproduce_cli_{}", std::process::id()));
    std::fs::create_dir_all(&cwd).unwrap();
    let out = reproduce(&["--only", "trace_summary"], &cwd);
    std::fs::remove_dir_all(&cwd).unwrap();
    assert!(out.status.success(), "{:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let saved = stdout
        .lines()
        .find_map(|l| l.strip_prefix("Full event stream saved to "))
        .unwrap_or_else(|| panic!("no capture line: {stdout}"));
    assert!(Path::new(saved).is_absolute(), "{saved}");
    let len = std::fs::metadata(saved).expect("capture exists").len();
    assert!(len > 0, "{saved} is empty");
}
