//! CLI contract tests for the `chaos` binary: asking for help is not an
//! error (usage on stdout, exit 0), while an unknown argument — the
//! retired `--backend` axis included — is a usage error on stderr with a
//! nonzero exit, so a stale CI invocation fails loudly instead of
//! silently running the default matrix.

use std::process::{Command, Output};

mod common;
use common::fnv1a;

fn chaos(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chaos"))
        .args(args)
        .output()
        .expect("spawn chaos")
}

#[test]
fn help_prints_usage_to_stdout_and_succeeds() {
    for flag in ["--help", "-h"] {
        let out = chaos(&[flag]);
        assert!(out.status.success(), "{flag}: {:?}", out.status);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: chaos"), "{flag}: {stdout}");
        assert!(!stdout.contains("--backend"), "{flag}: {stdout}");
        assert!(out.stderr.is_empty(), "{flag}: help is not an error");
    }
}

#[test]
fn unknown_arguments_are_usage_errors() {
    for args in [&["--backend", "heap"][..], &["--frobnicate"]] {
        let out = chaos(args);
        assert!(!out.status.success(), "{args:?} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown argument: {}", args[0])),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("usage: chaos"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: no cell may have run");
    }
}

/// Two cells' JSON document, byte-identical to the one recorded at
/// `fbc8586`: its cell objects, the nested forensic report and the
/// `completeness` float as `Display` prints it.
#[test]
fn json_matrix_is_pinned() {
    let out = chaos(&["--shape", "primary-crash", "--seeds", "1,2", "--json"]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        (out.stdout.len(), fnv1a(&out.stdout)),
        (1774, 0x441e_faa3_ece3_c6b3),
        "chaos --json moved"
    );
}
