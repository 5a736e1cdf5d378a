//! Runs every experiment in [`lbrm_bench::experiments::ALL`] — in
//! parallel across cores, reported in that fixed order — regenerating
//! all tables and figures of the paper's evaluation in one go (used to
//! fill EXPERIMENTS.md). `reproduce --only <key>` runs one of them.

use lbrm_bench::experiments::ALL;

/// Usage error: names every valid key on stderr and exits 2.
fn usage(problem: &str) -> ! {
    let keys: Vec<&str> = ALL.iter().map(|&(key, ..)| key).collect();
    eprintln!("{problem}\nusage: reproduce [--only <key>]");
    eprintln!("keys: {}", keys.join(" "));
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let selected = match args[..] {
        [] => ALL,
        ["--only", key] => match ALL.iter().position(|&(k, ..)| k == key) {
            Some(i) => &ALL[i..=i],
            None => usage(&format!("unknown experiment: {key}")),
        },
        _ => usage(&format!("bad arguments: {}", args.join(" "))),
    };
    // Sections are independent experiments, so they run on all cores;
    // `run_sections` hands back (title, body) in input order and nothing
    // prints until every body is in, so stdout — and the trace capture,
    // written by the single `trace_summary` section — stays byte-identical
    // to a serial run.
    for (title, body) in lbrm_bench::parallel::run_sections(selected) {
        println!("{}", "=".repeat(72));
        println!("== {title}");
        println!("{}", "=".repeat(72));
        println!("{body}");
    }
}
