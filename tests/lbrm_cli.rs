//! The `lbrm` binary answers bad heartbeat options with its usage error
//! (exit 1), not a panic.

use std::process::{Command, Stdio};

fn lbrm(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lbrm"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("run lbrm");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn heartbeat_options_outside_the_schedule_are_usage_errors() {
    for (flag, value, rule) in [
        ("--h-min-ms", "0", "h_min must be positive"),
        ("--h-max-s", "0", "h_max must be >= h_min"),
    ] {
        let (code, stderr) = lbrm(&["send", "--primary", "127.0.0.1:9", flag, value]);
        assert_eq!(code, Some(1), "{flag} {value}: {stderr}");
        assert!(stderr.contains(&format!("error: {rule}")), "{stderr}");
        assert!(stderr.contains("USAGE:"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}
