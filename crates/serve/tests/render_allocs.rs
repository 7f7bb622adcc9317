//! Allocation budget of the three telemetry renders `chm-serve` performs per
//! epoch: the `--metrics` record line, the `--metrics-out` line and the
//! `--prom-out` Prometheus snapshot. Each render writes straight into the
//! `String`s it returns, so what it allocates is those `String`s and their
//! growth — never a temporary per series or per span row. Counted with a
//! global allocator that exists only in this test binary.

use chm_scenarios::Scenario;
use chm_serve::{FaultPlan, ServeConfig, ServeRuntime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// chm-lint: allow(unsafe-block, "counting-allocator shim: implementing GlobalAlloc is inherently unsafe and this type exists only in this test binary")
unsafe impl GlobalAlloc for CountingAlloc {
    // chm-lint: allow(unsafe-block, "bumps a counter then delegates to System.alloc with the caller's layout unchanged")
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's layout goes to the system allocator unchanged.
        unsafe { System.alloc(layout) }
    }
    // chm-lint: allow(unsafe-block, "pure delegation to System.dealloc; pointer and layout come straight from the caller")
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc`/`realloc` above, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    // chm-lint: allow(unsafe-block, "bumps a counter then delegates to System.realloc with the caller's arguments unchanged")
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's arguments go to the system allocator unchanged;
        // `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// What growing a `String` from empty to `len` bytes may cost: one
/// allocation for the first 8 bytes plus one per doubling.
fn growth(len: usize) -> u64 {
    u64::from(len.div_ceil(8).next_power_of_two().trailing_zeros()) + 1
}

/// One `#[test]` on purpose: the allocation counter is process-global, and
/// concurrently running tests would land their allocations in each other's
/// measured windows.
#[test]
fn an_epochs_three_renders_allocate_only_their_output_strings() {
    // The `chm-serve --scenario congested` preset under standard faults.
    let scenario = Scenario::builder("serve_congested")
        .seed(7)
        .flows(600)
        .congestion()
        .queue_model(8)
        .microburst(0.3, 2)
        .slow_drain_tor(1, 0.55)
        .build();
    let mut rt = ServeRuntime::new(ServeConfig::new(scenario, FaultPlan::standard(7)));
    for _ in 0..24 {
        rt.step();
    }
    // The budget is the output `String`s and their growth: `to_jsonl` and
    // `prom_snapshot` grow one each; `jsonl_line` grows four no longer than
    // its line — the metrics object, the span object, the span walk's path
    // buffer and the line that joins the two objects. A temporary per row
    // (21 series, dozens of span rows) overshoots it.
    let (mut spent, mut budget) = (u64::MAX, u64::MAX);
    // Minimum over a few epochs: a one-time process-level allocation can
    // land in any single window; a render that allocates per row shows up in
    // every one.
    for _ in 0..3 {
        let record = rt.step();
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let line = record.to_jsonl();
        let obs_line = rt.obs().jsonl_line(record.epoch);
        let prom = rt.obs().prom_snapshot();
        spent = spent.min(ALLOCATIONS.load(Ordering::SeqCst) - before);
        budget = budget.min(growth(line.len()) + 4 * growth(obs_line.len()) + growth(prom.len()));
    }
    assert!(
        spent <= budget,
        "{spent} allocations for one epoch's renders, budget {budget}"
    );
}
