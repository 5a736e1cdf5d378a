//! Heap-allocation budgets: the simulator's steady state, and recording
//! into a metrics registry.
//!
//! A counting `#[global_allocator]` over [`System`] wraps the whole test
//! binary, so this file is its own test target. It counts per thread: a
//! measurement sees only what its own test thread allocates, not the
//! test harness or the other case running beside it. The scenario is the
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
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use lbrm::core::trace::{CollectorSink, MetricsRegistry, TraceSink};
use lbrm::harness::{DisScenario, DisScenarioConfig};
use lbrm::sim::loss::LossModel;
use lbrm::sim::time::SimTime;
use lbrm::sim::topology::SiteParams;

/// Counts every `alloc` and `realloc` (including zeroed allocations)
/// on the calling thread and forwards to the system allocator.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

/// Allocations the calling thread has made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter has no
// effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

/// Most heap allocations allowed per processed simulator event: 0.097
/// are measured, and a fan-out that allocated its recipient list per
/// queue entry instead of recycling it would read 0.126.
const BUDGET_PER_EVENT: f64 = 0.12;

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

    let before = allocs();
    sc.world.run_until(horizon);
    let allocs = allocs() - before;

    let events = sc.world.events_processed();
    assert!(events > 100_000, "the scenario ran: {events} events");
    let per_event = allocs as f64 / events as f64;
    println!("alloc_budget: {allocs} allocations over {events} events = {per_event:.3} per event (budget {BUDGET_PER_EVENT})");
    assert!(
        per_event <= BUDGET_PER_EVENT,
        "{per_event:.3} allocations per simulator event exceeds the budget of {BUDGET_PER_EVENT}"
    );
}

/// Counting an event is an atomic add in a slot the event table names,
/// and a histogram reserves its whole reservoir at its first sample:
/// once each key has been recorded, recording a lossy run's whole trace
/// again into the same registry allocates nothing.
#[test]
fn recording_into_a_registry_allocates_nothing() {
    let trace = Arc::new(CollectorSink::default());
    let mut sc = DisScenario::build_with_sink(
        DisScenarioConfig {
            sites: 6,
            receivers_per_site: 4,
            site_params: SiteParams {
                tail_in_loss: LossModel::rate(0.08),
                ..SiteParams::distant()
            },
            seed: 4242,
            ..DisScenarioConfig::default()
        },
        Some(trace.clone()),
    );
    for i in 0..20 {
        sc.send_at(SimTime::from_millis(1_000 + 400 * i), format!("update-{i}"));
    }
    sc.world.run_until(SimTime::from_secs(60));
    let records = trace.take();

    let registry = MetricsRegistry::default();
    let mut keys = BTreeSet::new();
    for r in &records {
        if keys.insert(r.event.key()) {
            registry.record(r.at_nanos, r.host, &r.event);
        }
    }
    assert!(
        keys.contains("recovered"),
        "the run fed a histogram: {keys:?}"
    );

    let before = allocs();
    for r in &records {
        registry.record(r.at_nanos, r.host, &r.event);
    }
    let allocs = allocs() - before;
    println!(
        "alloc_budget: {allocs} allocations over {} records of {} keys",
        records.len(),
        keys.len()
    );
    assert_eq!(allocs, 0, "recording into a registry allocated");
}
