//! The `lbrm` binary answers bad heartbeat options with its usage error
//! (exit 1), not a panic, and its admin surface serves the endpoint's
//! transport rows.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
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

/// A role's `/stats` lists its transport's send ledger next to the
/// receive drops, under the endpoint's address.
#[test]
fn admin_stats_serve_the_endpoints_send_and_receive_rows() {
    let mut logger = Command::new(env!("CARGO_BIN_EXE_lbrm"))
        .args(["logger", "--port", "49451", "--admin-addr", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run lbrm");
    let mut lines = BufReader::new(logger.stderr.take().unwrap()).lines();
    let mut after = |prefix: &str| {
        lines
            .by_ref()
            .map_while(Result::ok)
            .find_map(|l| l.strip_prefix(prefix).map(|rest| rest.to_owned()))
    };
    let admin =
        after("doctor admin surface at http://").map(|a| a.trim_end_matches('/').to_owned());
    let endpoint =
        after("logging server up at ").and_then(|l| l.split(' ').next().map(str::to_owned));
    let (Some(admin), Some(endpoint)) = (admin, endpoint) else {
        let _ = logger.kill();
        let _ = logger.wait();
        eprintln!("skipping admin /stats check: the logger could not join loopback multicast");
        return;
    };

    let mut stream = TcpStream::connect(admin.as_str()).expect("connect admin");
    write!(stream, "GET /stats HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    let _ = logger.kill();
    let _ = logger.wait();

    assert!(reply.starts_with("HTTP/1.0 200"), "{reply}");
    for row in ["send.packets", "send.datagrams", "recv.truncated"] {
        let key = ["\"net", &endpoint, row].join(".") + "\":";
        assert!(reply.contains(&key), "no {key} in {reply}");
    }
}
