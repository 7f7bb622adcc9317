//! Allocation budget of the localization pass: one
//! `Controller::localize_with_telemetry` on the congested serve preset may
//! allocate the `per_victim` rows it hands back — one route vector per
//! victim — plus at most [`FIXED`] more. Six are counted today: the traffic
//! and confidence maps it builds from the analysis, the two sorted fold
//! orders, the `per_victim` map and the ranking. The localizer's tables are
//! dense over the fabric's switch numbers, each switch's score is computed
//! once an epoch, and healthy flows route through one reused buffer, so
//! nothing else grows with the evidence. Counted with a global allocator,
//! the pattern of the root `tests/alloc_audit.rs`.

use chamelemon::Controller;
use chm_scenarios::{ReplayMode, Scenario, ScenarioStack};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations one localization may make beyond its `per_victim` rows.
const FIXED: u64 = 8;

struct CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);

// chm-lint: allow(unsafe-block, "counting-allocator shim: implementing GlobalAlloc is inherently unsafe and this type exists only in this test binary")
unsafe impl GlobalAlloc for CountingAlloc {
    // chm-lint: allow(unsafe-block, "counts the call then delegates to System.alloc with the caller's layout unchanged")
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    // chm-lint: allow(unsafe-block, "pure delegation to System.dealloc; pointer and layout come straight from the caller")
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    // chm-lint: allow(unsafe-block, "counts the call then delegates to System.realloc with the caller's arguments unchanged")
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn calls_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = CALLS.load(Ordering::SeqCst);
    let out = f();
    (CALLS.load(Ordering::SeqCst) - before, out)
}

#[test]
fn one_localization_allocates_its_rows_and_a_constant() {
    // The congested preset `serve_steady` serves: 600 flows, eight queue
    // slots, a microburst and a slow-drain ToR.
    let s = Scenario::serve_congested(20647, 600);
    let base = s.base_trace();
    let mut stack = ScenarioStack::new(&s);
    let mut most_victims = 0;
    for _ in 0..12 {
        let epoch = stack.simulator.current_epoch();
        let trace = s.trace_for_epoch(&base, epoch);
        let plan = s.plan_for_epoch(&trace, epoch);
        let report = stack.replay(&trace, &plan, &s.impairments, ReplayMode::Burst, &|| 0.0);
        let closed = stack.controller.close_epoch(
            &mut stack.edges,
            report.epoch,
            None,
            &report.queue_depth,
            Controller::reconfigure,
            None,
        );
        // One more pass over the same evidence, on tables that have
        // already seen every switch: a steady-state localization.
        let (calls, l) = calls_during(|| {
            stack
                .controller
                .localize_with_telemetry(&closed.analysis, &report.queue_depth)
        });
        let rows = l.expect("the stack enables localization").per_victim.len() as u64;
        assert!(
            calls <= rows + FIXED,
            "epoch {epoch}: {calls} allocations for {rows} per-victim rows (budget rows + {FIXED})"
        );
        most_victims = most_victims.max(rows);
    }
    assert!(
        most_victims > 10 * FIXED,
        "the preset must localize victims: {most_victims}"
    );
}
