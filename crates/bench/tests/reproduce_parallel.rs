//! `reproduce` fans the sections of [`lbrm_bench::experiments::ALL`] out
//! with [`lbrm_bench::parallel::run_sections`]; the rendered report must
//! stay byte-identical to a serial run — same bodies, same order — and
//! the registry must be the whole section list.

use std::collections::BTreeSet;

use lbrm_bench::experiments::{Experiment, ALL};
use lbrm_bench::parallel::run_sections;

#[test]
fn parallel_sections_match_serial_bytes() {
    let cheap = [
        "table1_backoff",
        "exp_burst_detection",
        "exp_statistical_ack",
    ];
    let sections: Vec<Experiment> = ALL
        .iter()
        .copied()
        .filter(|(key, ..)| cheap.contains(key))
        .collect();
    assert_eq!(sections.len(), cheap.len());
    let serial: Vec<(&'static str, String)> = sections
        .iter()
        .map(|&(_, title, run)| (title, run()))
        .collect();
    let parallel = run_sections(&sections);
    assert_eq!(parallel, serial, "fan-out must not change report bytes");
}

/// Every experiment module is registered exactly once under its own
/// name, so nothing `reproduce` can run is missing from `--only` and no
/// module sits outside the full report.
#[test]
fn registry_lists_every_experiment_module_once() {
    let modules: BTreeSet<&str> = include_str!("../src/experiments/mod.rs")
        .lines()
        .filter_map(|l| l.strip_prefix("pub mod ")?.strip_suffix(';'))
        .collect();
    assert!(modules.len() >= 15, "mod.rs parse went wrong: {modules:?}");
    let keys: BTreeSet<&str> = ALL.iter().map(|&(key, ..)| key).collect();
    assert_eq!(keys.len(), ALL.len(), "duplicate key in ALL");
    assert_eq!(keys, modules, "ALL and experiments/mod.rs disagree");
    let titles: BTreeSet<&str> = ALL.iter().map(|&(_, title, _)| title).collect();
    assert_eq!(titles.len(), ALL.len(), "duplicate section title in ALL");
}
