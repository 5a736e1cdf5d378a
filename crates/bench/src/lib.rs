//! Experiment harness regenerating every table and figure in the LBRM
//! paper's evaluation.
//!
//! Each experiment lives in [`experiments`] as a `run()` function
//! returning a formatted report, listed once in [`experiments::ALL`];
//! `src/bin/reproduce.rs` runs them all, or one with `--only <key>`.
//! Performance is measured elsewhere: `benchmark/` (with
//! `BENCHMARK.json`) is the repository's only perf surface.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod doctor;
pub mod experiments;
pub mod live;
pub mod report;
