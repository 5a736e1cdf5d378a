//! Environment guard and process accounting. The benchmark refuses to
//! produce numbers it could not stand behind: a debug build, ambient
//! `LBRM_*` knobs, or a host where loopback UDP multicast does not work
//! (there is no hub fallback — hub numbers must never appear under
//! these metric names).

use std::net::Ipv4Addr;
use std::time::Duration;

use bytes::Bytes;
use lbrm_net::{GroupMap, Transport, UdpTransport};
use lbrm_wire::{EpochId, GroupId, Packet, Seq, SourceId, TtlScope};

/// Refuses to run under conditions that would change what is measured.
pub fn guard() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("debug build: run with `cargo run --release`".into());
    }
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("LBRM_"))
        .collect();
    if !knobs.is_empty() {
        return Err(format!(
            "{} set: the ledger measures the defaults, unset it",
            knobs.join(", ")
        ));
    }
    Ok(())
}

/// Proves that a multicast datagram sent on loopback reaches a joined
/// socket of this process, on `port`.
pub fn multicast_probe(port: u16) -> Result<(), String> {
    let group = GroupId(1);
    let bind = || {
        UdpTransport::bind(Ipv4Addr::LOCALHOST, GroupMap::new(port))
            .map_err(|e| format!("UDP bind on loopback failed: {e}"))
    };
    let (mut tx, mut rx) = (bind()?, bind()?);
    rx.join(group)
        .map_err(|e| format!("multicast join on loopback failed: {e}"))?;
    let probe = Packet::Heartbeat {
        group,
        source: SourceId(1),
        seq: Seq(0),
        epoch: EpochId(0),
        hb_index: 0,
        payload: Bytes::new(),
    };
    for _ in 0..5 {
        tx.send_multicast(TtlScope::Site, &probe)
            .map_err(|e| format!("multicast send on loopback failed: {e}"))?;
        if let Ok(Some((_, got))) = rx.recv_timeout(Duration::from_millis(200)) {
            if got == probe {
                return Ok(());
            }
        }
    }
    Err("loopback UDP multicast delivers nothing here; refusing to fall back to the hub".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// High-water resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// On-CPU nanoseconds of one thread of this process, from schedstat.
pub fn thread_cpu_ns(tid: u64) -> u64 {
    std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Live threads of this process other than `exclude` (the load
/// generator and the collectors): how many, and their summed on-CPU
/// time. These are the threads of the system under test.
pub fn sut_threads(exclude: &[u64]) -> (usize, u64) {
    let mut threads = 0;
    let mut cpu = 0;
    if let Ok(dir) = std::fs::read_dir("/proc/self/task") {
        for entry in dir.flatten() {
            let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
                continue;
            };
            if !exclude.contains(&tid) {
                cpu += thread_cpu_ns(tid);
                threads += 1;
            }
        }
    }
    (threads, cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_accounting_reads_procfs() {
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
        let me = crate::probe::thread_id();
        assert!(me > 0);
        assert!(sut_threads(&[]).0 >= 1);
    }
}
