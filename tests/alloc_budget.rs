//! Heap-allocation budget of the simulator's steady state.
//!
//! A counting `#[global_allocator]` over [`System`] wraps the whole test
//! binary, so this file is its own test target: nothing else may
//! allocate while the budget is measured. The scenario is the ledger's
//! `sim_dis` shape — 50 sites × 20 receivers, 5 % loss on every inbound
//! tail circuit, 200 publishes — and only `run_until` is counted, so
//! building the world and scheduling the publishes are free.
//!
//! The budget is allocations per simulator event. A simulated hop counts
//! its traffic in dense arrays and reuses its fan-out lists and its
//! machine's action buffer, so what remains is the machines' own state
//! (log entries, gap lists, NACK range lists) and the event queue's
//! growth. The measured figure is printed so the budget can be
//! tightened as that shrinks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bytes::Bytes;
use lbrm::harness::{DisScenario, DisScenarioConfig};
use lbrm::sim::loss::LossModel;
use lbrm::sim::time::SimTime;
use lbrm::sim::topology::SiteParams;

/// Counts every `alloc` and `realloc` (including zeroed allocations)
/// and forwards to the system allocator.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter has no
// effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Most heap allocations allowed per processed simulator event.
const BUDGET_PER_EVENT: f64 = 0.2;

#[test]
fn dis_scenario_stays_within_its_allocation_budget() {
    const PUBLISHES: u64 = 200;
    let mut sc = DisScenario::build(DisScenarioConfig {
        sites: 50,
        receivers_per_site: 20,
        site_params: SiteParams {
            tail_in_loss: LossModel::rate(0.05),
            ..SiteParams::distant()
        },
        seed: 7,
        ..DisScenarioConfig::default()
    });
    let gap = Duration::from_millis(300);
    for i in 1..=PUBLISHES {
        sc.send_at(
            SimTime::from_secs(1) + gap * i as u32,
            Bytes::from_static(b"entity state update"),
        );
    }
    let horizon = SimTime::from_secs(1) + gap * PUBLISHES as u32 + Duration::from_secs(5);

    let before = ALLOCS.load(Ordering::Relaxed);
    sc.world.run_until(horizon);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    let events = sc.world.events_processed();
    assert!(events > 100_000, "the scenario ran: {events} events");
    let per_event = allocs as f64 / events as f64;
    println!("alloc_budget: {allocs} allocations over {events} events = {per_event:.3} per event (budget {BUDGET_PER_EVENT})");
    assert!(
        per_event <= BUDGET_PER_EVENT,
        "{per_event:.3} allocations per simulator event exceeds the budget of {BUDGET_PER_EVENT}"
    );
}
