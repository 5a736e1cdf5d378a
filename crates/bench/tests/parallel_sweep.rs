//! The parallel experiment sweeps must be invisible in the output: a
//! report produced with the scoped-thread fan-out is byte-for-byte the
//! report a serial sweep produces.

use lbrm_bench::experiments::{exp_hierarchy, fig4_heartbeat_overhead};
use lbrm_bench::parallel::{par_map, par_map_with_threads};
use lbrm_core::heartbeat::HeartbeatConfig;

#[test]
fn parallel_sweep_matches_serial_byte_for_byte() {
    // Sweep real simulation points (scaled down for test time) through
    // the forced-multithreaded path and a plain serial map.
    let dts = vec![0.5, 2.0, 10.0, 60.0];
    let serial: Vec<String> = dts
        .iter()
        .map(|&dt| {
            format!(
                "{:.4}",
                fig4_heartbeat_overhead::simulated_rate(dt, HeartbeatConfig::default())
            )
        })
        .collect();
    let parallel = par_map_with_threads(dts, 4, |dt| {
        format!(
            "{:.4}",
            fig4_heartbeat_overhead::simulated_rate(dt, HeartbeatConfig::default())
        )
    });
    assert_eq!(serial.join("\n"), parallel.join("\n"));
}

#[test]
fn hierarchy_sweep_is_order_stable_under_threads() {
    let levels = vec![1u8, 2, 3];
    let serial: Vec<(u64, f64)> = levels
        .iter()
        .map(|&l| exp_hierarchy::run_level(6, 3, 3, l, 29))
        .collect();
    let threaded = par_map_with_threads(levels.clone(), 3, |l| {
        exp_hierarchy::run_level(6, 3, 3, l, 29)
    });
    let auto = par_map(levels, |l| exp_hierarchy::run_level(6, 3, 3, l, 29));
    assert_eq!(serial, threaded);
    assert_eq!(serial, auto);
}

#[test]
fn full_report_is_deterministic_across_runs() {
    // run() uses par_map internally; two invocations must render the
    // identical report, regardless of worker scheduling.
    let a = exp_hierarchy::run();
    let b = exp_hierarchy::run();
    assert_eq!(a, b);
}
