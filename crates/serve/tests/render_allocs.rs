//! Allocation budget of the three telemetry renders `chm-serve` performs per
//! epoch: the `--metrics` record line, the `--metrics-out` line and the
//! `--prom-out` Prometheus snapshot. Each render writes straight into the
//! one `String` it returns, reserved once — `to_jsonl` at a fixed size, the
//! other two from the previous render's length — so once the stream is warm
//! an epoch's renders make exactly three allocator calls: no temporary per
//! series or per span row, no intermediate object string, no span path
//! buffer and no doubling growth. (Before the reservation, 35: the metrics
//! object, the span object and the path buffer each grew from empty, and the
//! line that joined them.) Counted with the workspace's counting global
//! allocator, `chm_counting_alloc`.

use chm_counting_alloc::CountingAlloc;
use chm_scenarios::Scenario;
use chm_serve::{FaultPlan, ServeConfig, ServeRuntime};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

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
    // Warm: the stream has rendered before, so each render knows its size.
    for _ in 0..24 {
        let record = rt.step();
        drop((record.to_jsonl(), rt.obs().jsonl_line(record.epoch), rt.obs().prom_snapshot()));
    }
    // Minimum over a few epochs: a one-time process-level allocation can
    // land in any single window; a render that allocates per row, or grows
    // its output, shows up in every one.
    let mut spent = u64::MAX;
    for _ in 0..3 {
        let record = rt.step();
        let before = ALLOC.calls();
        let line = record.to_jsonl();
        let obs_line = rt.obs().jsonl_line(record.epoch);
        let prom = rt.obs().prom_snapshot();
        spent = spent.min(ALLOC.calls() - before);
        drop((line, obs_line, prom));
    }
    assert_eq!(spent, 3, "one allocation per render, three in all; measured {spent}");
}
