//! Dependency-free parallel map for experiment sweeps.
//!
//! Experiment binaries sweep an independent variable (heartbeat interval,
//! site count, hierarchy depth) and run one full simulation per point.
//! The points share no state, so they are embarrassingly parallel — but
//! the container has no rayon and crates.io is unreachable, so this is a
//! small `std::thread::scope` fan-out instead.
//!
//! Results are merged **in input order**: `par_map(items, f)` returns
//! exactly what `items.into_iter().map(f).collect()` would, so report
//! rendering downstream stays byte-identical to a serial run. On a
//! single-core host (or for trivially small sweeps) it falls back to the
//! serial path outright.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use crate::experiments::Experiment;

/// Number of worker threads a sweep of `n` items would use.
///
/// At most one thread per item, at most `available_parallelism`, and 1
/// (serial) when the host reports a single core.
fn thread_count(n: usize) -> usize {
    let cores = thread::available_parallelism().map_or(1, |c| c.get());
    cores.min(n).max(1)
}

/// Maps `f` over `items` on a scoped thread pool, preserving input order.
///
/// Falls back to a plain serial map when the host has one core or there
/// is at most one item. The closure must be `Sync` because all workers
/// share it; items are handed out through an atomic work index so a slow
/// point does not stall the others.
pub fn par_map<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let threads = thread_count(items.len());
    par_map_with_threads(items, threads, f)
}

/// [`par_map`] with an explicit worker count (`threads <= 1` is serial).
///
/// Exposed so tests can force the multi-threaded path even on a
/// single-core host.
pub fn par_map_with_threads<I, T, F>(items: Vec<I>, threads: usize, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }

    let n = items.len();
    let work: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());

    thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= n {
                    break;
                }
                let item = work[idx]
                    .lock()
                    .expect("work slot poisoned")
                    .take()
                    .expect("work slot claimed twice");
                let out = f(item);
                results.lock().expect("result slot poisoned")[idx] = Some(out);
            });
        }
    });

    results
        .into_inner()
        .expect("results poisoned")
        .into_iter()
        .map(|r| r.expect("worker skipped a slot"))
        .collect()
}

/// Runs experiments concurrently, returning `(section title, body)` in
/// input order.
///
/// This is `reproduce`'s whole-experiment fan-out: each section is an
/// independent experiment (its own worlds, own seeds), so they can run on
/// all cores while the rendered report — printed only after every body is
/// collected — stays byte-identical to a serial run.
pub fn run_sections(sections: &[Experiment]) -> Vec<(&'static str, String)> {
    let bodies = par_map(sections.to_vec(), |(_, _, run)| run());
    let titles = sections.iter().map(|&(_, title, _)| title);
    titles.zip(bodies).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_sections_keeps_names_with_bodies_in_order() {
        fn a() -> String {
            "alpha".into()
        }
        fn b() -> String {
            "beta".into()
        }
        fn c() -> String {
            "gamma".into()
        }
        let got = run_sections(&[("a", "A", a), ("b", "B", b), ("c", "C", c)]);
        assert_eq!(
            got,
            vec![
                ("A", "alpha".to_string()),
                ("B", "beta".to_string()),
                ("C", "gamma".to_string())
            ]
        );
    }

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..64).collect();
        let expect: Vec<u64> = items.iter().map(|i| i * i).collect();
        // Force the threaded path regardless of host core count.
        let got = par_map_with_threads(items, 4, |i| i * i);
        assert_eq!(got, expect);
    }

    #[test]
    fn matches_serial_map_for_stateful_work() {
        // Each point runs a small deterministic computation; parallel and
        // serial schedules must agree element-for-element.
        let f = |seed: u64| {
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for _ in 0..1000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            x
        };
        let items: Vec<u64> = (0..17).collect();
        let serial: Vec<u64> = items.iter().copied().map(f).collect();
        assert_eq!(par_map_with_threads(items.clone(), 8, f), serial);
        assert_eq!(par_map(items, f), serial);
    }

    #[test]
    fn handles_empty_and_single() {
        let none: Vec<u32> = vec![];
        assert_eq!(par_map(none, |x| x + 1), Vec::<u32>::new());
        assert_eq!(par_map(vec![41], |x| x + 1), vec![42]);
        assert_eq!(par_map_with_threads(vec![41], 8, |x| x + 1), vec![42]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let got = par_map_with_threads(vec![1, 2, 3], 32, |x| x * 10);
        assert_eq!(got, vec![10, 20, 30]);
    }
}
