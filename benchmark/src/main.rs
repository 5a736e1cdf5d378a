//! The LBRM performance ledger. See `README.md` beside this package and
//! `BENCHMARK.json` at the root of the repository.
//!
//! ```text
//! lbrm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! lbrm-benchmark run <workload|all> [--seed n] [--seconds s] [--traced] [--sets k] [--quick]
//! lbrm-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is the driver's: one workload, one run, the result as
//! the last line of standard output. `run` is for people: it prints
//! every metric with its unit, median, quartiles and repetition count,
//! and writes the results under `--out`.

mod contract;
mod env;
mod gen;
mod host;
mod json;
mod probe;
mod report;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use contract::contract;
use json::Json;
use report::{ResultSet, RunResult};
use workloads::Plan;

const DEFAULT_SEED: u64 = 1995;
const USAGE: &str = "usage:
  lbrm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--port-base p] [--out dir]
  lbrm-benchmark run <workload|all> [--seed n] [--seconds s] [--traced] [--sets k] [--quick] [--port-base p] [--out dir]
  lbrm-benchmark compare <a.json> <b.json>
workloads: sim_dis live_fresh live_repair logger_udp";

struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    sets: usize,
    quick: bool,
    port_base: u16,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        positional: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        traced: false,
        sets: 1,
        quick: false,
        port_base: 47_100,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        let bad = |v: &str| format!("{arg}: cannot read {v:?}");
        match arg.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a number")?;
                a.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                let s: f64 = v.parse().map_err(|_| bad(&v))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&v));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--traced" => a.traced = true,
            "--quick" => a.quick = true,
            "--sets" => {
                let v = value("a count")?;
                a.sets = v.parse().ok().filter(|n| *n >= 1).ok_or_else(|| bad(&v))?;
            }
            "--port-base" => {
                let v = value("a port")?;
                a.port_base = v
                    .parse()
                    .ok()
                    .filter(|p| (1024..65_000).contains(p))
                    .ok_or_else(|| bad(&v))?;
            }
            "--out" => a.out = PathBuf::from(value("a directory")?),
            s if s.starts_with("--") => return Err(format!("unknown option {s}")),
            _ => a.positional.push(arg.clone()),
        }
    }
    Ok(a)
}

impl Args {
    fn seconds(&self) -> f64 {
        match (self.seconds, self.quick) {
            (Some(s), _) => s,
            (None, true) => 2.0,
            (None, false) => contract().run_seconds as f64,
        }
    }

    fn plan(&self) -> Plan {
        Plan {
            seed: self.seed,
            seconds: self.seconds(),
            traced: self.traced,
            port_base: self.port_base,
            out_dir: self.out.clone(),
            span_cap: 200_000,
        }
    }
}

fn result_path(out: &Path, workload: &str, traced: bool) -> PathBuf {
    out.join(format!(
        "result-{workload}{}.json",
        if traced { "+trace" } else { "" }
    ))
}

/// The driver's form: one workload, in this process.
fn run_one(args: &Args, workload: &str) -> Result<ExitCode, String> {
    env::guard()?;
    if !contract().workloads.iter().any(|w| w == workload) {
        return Err(format!("unknown workload {workload}\n{USAGE}"));
    }
    println!(
        "lbrm-benchmark workload={workload} seed={} seconds={} trace={} nproc={} loadavg_1m={} port_base={}",
        args.seed,
        args.seconds(),
        u8::from(args.traced),
        env::nproc(),
        env::loadavg_1m(),
        args.port_base
    );
    let result = workloads::run(workload, &args.plan())?;
    print!("{}", result.render());
    let line = result.driver_line()?;
    if result.correct() {
        // Best effort: the file serves `run all` and `compare`, the
        // driver only reads the line below.
        let path = result_path(&args.out, workload, args.traced);
        if let Err(e) = std::fs::create_dir_all(&args.out)
            .and_then(|()| std::fs::write(&path, result.to_json().render()))
        {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    println!("{line}");
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("oracle violated: results are not valid and were not written");
        ExitCode::FAILURE
    })
}

/// Re-executes this program once per workload (so `peak_rss_mb` is each
/// workload's own) and gathers the result files.
fn run_set(args: &Args, workloads: &[String], set: usize) -> Result<ResultSet, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut results = ResultSet::new();
    for w in workloads {
        for traced in [false, true] {
            if traced && !args.traced {
                continue;
            }
            let path = result_path(&args.out, w, traced);
            let _ = std::fs::remove_file(&path);
            let status = Command::new(&exe)
                .args(["--workload", w])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds().to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .args(["--port-base", &args.port_base.to_string()])
                .arg("--out")
                .arg(&args.out)
                .stdin(Stdio::null())
                .status()
                .map_err(|e| format!("cannot run {w}: {e}"))?;
            if !status.success() {
                return Err(format!("{w} failed ({status})"));
            }
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let key = format!("{w}{}", if traced { "+trace" } else { "" });
            results.insert(key, RunResult::from_json(&Json::parse(&text)?)?);
        }
    }
    let path = args.out.join(format!("results-set{set}.json"));
    std::fs::write(&path, report::set_to_json(&results).render())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(results)
}

fn run_command(args: &Args) -> Result<ExitCode, String> {
    env::guard()?;
    let target = args.positional.get(1).ok_or(USAGE)?;
    let workloads: Vec<String> = if target == "all" {
        contract().workloads.clone()
    } else {
        vec![target.clone()]
    };
    let mut sets = Vec::new();
    for set in 1..=args.sets {
        sets.push(run_set(args, &workloads, set)?);
    }
    let mut moved = 0;
    for pair in sets.windows(2) {
        let (table, n) = report::compare(&pair[0], &pair[1]);
        println!("{table}");
        moved += n;
    }
    if moved > 0 {
        eprintln!("{moved} end-to-end metrics disagree between sets beyond their bound");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn compare_command(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err(USAGE.into());
    };
    let load = |p: &String| -> Result<ResultSet, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{p}: {e}"))?;
        // A single run's file is a set of one.
        if doc.get("workload").is_some() {
            let r = RunResult::from_json(&doc)?;
            return Ok([(r.workload.clone(), r)].into());
        }
        report::set_from_json(&doc)
    };
    let (table, moved) = report::compare(&load(a)?, &load(b)?);
    print!("{table}");
    Ok(if moved > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        match (args.positional.first().map(String::as_str), &args.workload) {
            (None, Some(w)) => run_one(&args, w),
            (Some("run"), None) => run_command(&args),
            (Some("compare"), None) => compare_command(&args),
            _ => Err(USAGE.into()),
        }
    });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("lbrm-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
