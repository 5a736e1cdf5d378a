//! `chaos` — the consensus-failover chaos scenario matrix.
//!
//! Runs every failure shape (primary crash mid-NACK-service, partition
//! then heal with a stale primary, simultaneous primary + replica
//! failure, replica rejoin with an empty log, repeated crash/re-elect
//! churn) across one or more seeds, audits each run with the recovery
//! forensics, and exits nonzero if any cell fails — incomplete delivery
//! or a non-clean forensic verdict
//! (unrecovered gaps, stalled settlements, split-brain double-serve).
//!
//! ```text
//! chaos [--shape NAME] [--seeds N,N,...] [--json] [--write-json PATH]
//! ```

use std::io::Write as _;
use std::process::ExitCode;

use lbrm_bench::chaos::{matrix_to_json, run_shape, ChaosOutcome, SHAPES};

const USAGE: &str = "usage: chaos [--shape NAME] [--seeds N,N,...] [--json] [--write-json PATH]";

struct Args {
    shape: Option<String>,
    seeds: Vec<u64>,
    json: bool,
    write_json: Option<String>,
}

/// `Ok(None)` when `--help` was asked for.
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        shape: None,
        seeds: vec![1, 2, 3],
        json: false,
        write_json: None,
    };
    let mut it = std::env::args().skip(1);
    let next_val = |name: &str, it: &mut dyn Iterator<Item = String>| {
        it.next().ok_or(format!("{name} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--shape" => args.shape = Some(next_val("--shape", &mut it)?),
            "--seeds" => {
                args.seeds = next_val("--seeds", &mut it)?
                    .split(',')
                    .map(|s| s.trim().parse::<u64>().map_err(|e| format!("--seeds: {e}")))
                    .collect::<Result<_, _>>()?;
                if args.seeds.is_empty() {
                    return Err("--seeds needs at least one seed".into());
                }
            }
            "--json" => args.json = true,
            "--write-json" => args.write_json = Some(next_val("--write-json", &mut it)?),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument: {other}\n{USAGE}")),
        }
    }
    if let Some(s) = &args.shape {
        if !SHAPES.contains(&s.as_str()) {
            return Err(format!("--shape: unknown shape {s:?} (known: {SHAPES:?})"));
        }
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let shapes: Vec<&'static str> = match &args.shape {
        Some(s) => SHAPES.iter().copied().filter(|k| k == s).collect(),
        None => SHAPES.to_vec(),
    };
    let mut outcomes: Vec<ChaosOutcome> = Vec::new();
    for shape in shapes {
        for &seed in &args.seeds {
            let o = run_shape(shape, seed);
            if !args.json {
                println!("{}", o.render());
            }
            outcomes.push(o);
        }
    }
    let json = matrix_to_json(&outcomes);
    if args.json {
        println!("{json}");
    }
    if let Some(path) = &args.write_json {
        if let Err(e) = std::fs::File::create(path).and_then(|mut f| {
            f.write_all(json.as_bytes())?;
            f.write_all(b"\n")
        }) {
            eprintln!("chaos: {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let failed: Vec<&ChaosOutcome> = outcomes.iter().filter(|o| !o.passed()).collect();
    if failed.is_empty() {
        if !args.json {
            println!("chaos: all {} cells clean", outcomes.len());
        }
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "chaos: {}/{} cells failed the clean-failover gate",
            failed.len(),
            outcomes.len()
        );
        ExitCode::FAILURE
    }
}
