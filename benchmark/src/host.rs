//! Host-speed probe. A fixed, register-only, high-IPC kernel timed next
//! to every CPU-bound repetition.
//!
//! Why it exists: the sandbox this ledger runs in gives each vCPU a
//! varying share of a physical core. When the core's other hyperthread
//! is busy, identical `sim_dis` repetitions take 200 ms or 350 ms in
//! regimes that last from seconds to minutes, while latency-bound code
//! (a dependent ALU chain, a pointer chase) barely moves. A kernel that
//! keeps many independent integer chains in flight feels the same
//! squeeze the workloads do: over 8 minutes of 20-second windows the
//! simulator's repetition time spread 0.23 raw and 0.04 once divided by
//! this kernel's time (README, "Host-speed normalisation").
//!
//! The probe touches no memory beyond its registers and calls nothing
//! of the program under test, so no change to the repository can move
//! it.

use std::hint::black_box;
use std::time::Instant;

/// Iterations per probe: about a millisecond.
const ITERATIONS: u64 = 400_000;

/// What one iteration costs on an undisturbed core of the host this
/// ledger landed on (Xeon @ 2.1 GHz, fastest of ~1 600 probes). Only a
/// scale: parent and change are always measured on one host, and on
/// this one it makes normalised numbers read as "on an undisturbed
/// core".
pub const REFERENCE_NS_PER_ITERATION: f64 = 2.62;

/// Times the kernel once; nanoseconds per iteration.
fn probe_ns_per_iteration() -> f64 {
    let mut v: [u64; 8] = black_box([1, 2, 3, 4, 5, 6, 7, 8]);
    let start = Instant::now();
    for i in 0..ITERATIONS {
        for (k, x) in v.iter_mut().enumerate() {
            *x = x
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i ^ k as u64);
        }
    }
    black_box(v);
    start.elapsed().as_nanos() as f64 / ITERATIONS as f64
}

/// How much slower than the reference the host is right now (≥ ~1; 1.5
/// means the core currently delivers two thirds of its speed). Rates
/// measured next to this probe are multiplied by it, durations divided.
pub fn slowdown() -> f64 {
    probe_ns_per_iteration() / REFERENCE_NS_PER_ITERATION
}
