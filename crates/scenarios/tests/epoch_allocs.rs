//! Allocation count of a steady-state serve epoch — the replay and the
//! controller's `close_epoch` (collect, analyze, decide, flip, localize) —
//! does not follow the victim count. The congested serve preset and the
//! same preset at three times the flows with 40 % of them planned victims
//! make their epochs in mean allocation counts at most [`SLACK`] apart,
//! though the second has more than three times the victims and localizes
//! more than twice as many. (At 600 flows the preset's queues already make
//! over 40 % of the flows victims, so three times the victims needs more
//! flows; past ~800 localized victims the sketches stop decoding them.)
//!
//! Nothing in the epoch allocates per victim: the replay's victim table is
//! three exactly-sized vectors and its per-flow scratch persists in the
//! simulator, the queue telemetry moves into the report, and the
//! localization's `VictimRoutes` is one flat table. What is left to differ
//! is the doubling growth of the vectors and maps that the decoded
//! flowsets fill, a step per factor of two: measured 82 → 96 allocations
//! at 261 → 1 110 victims (706 localized), 53 → 54 of them in the replay.
//! Counted with the workspace's counting global allocator,
//! `chm_counting_alloc`.

use chamelemon::Controller;
use chm_counting_alloc::CountingAlloc;
use chm_scenarios::{ReplayMode, Scenario, ScenarioStack};
use chm_workloads::VictimSelection;

/// How far apart the two presets' mean allocation counts may be.
const SLACK: f64 = 16.0;

/// Epochs run before counting, so the sketches, the localizer's tables and
/// the simulator's scratch have seen the scenario.
const WARM: u64 = 4;
/// Epochs counted.
const COUNTED: u64 = 12;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Means over the counted epochs of `s`: allocations of one `replay` +
/// `close_epoch`, ground-truth victims, and localized victims.
fn epoch_allocs(s: &Scenario) -> (f64, f64, f64) {
    let base = s.base_trace();
    let mut stack = ScenarioStack::new(s);
    let (mut calls, mut victims, mut localized) = (0, 0, 0);
    for _ in 0..WARM + COUNTED {
        let epoch = stack.simulator.current_epoch();
        let trace = s.trace_for_epoch(&base, epoch);
        let plan = s.plan_for_epoch(&trace, epoch);
        let (n, (truth, found)) = ALLOC.calls_during(|| {
            let report = stack.replay(&trace, &plan, &s.impairments, ReplayMode::Burst, &|| 0.0);
            let closed = stack.controller.close_epoch(
                &mut stack.edges,
                report.epoch,
                None,
                &report.queue_depth,
                Controller::reconfigure,
                None,
            );
            let found = closed.localization.expect("the stack enables localization");
            (report.lost.len(), found.per_victim.len())
        });
        if epoch >= WARM {
            calls += n;
            victims += truth;
            localized += found;
        }
    }
    let mean = |x: usize| x as f64 / COUNTED as f64;
    (
        calls as f64 / COUNTED as f64,
        mean(victims),
        mean(localized),
    )
}

#[test]
fn an_epoch_allocates_the_same_at_three_times_the_victims() {
    let few = Scenario::serve_congested(20647, 600);
    let many = Scenario::builder("serve_congested_many_victims")
        .seed(20647)
        .flows(1800)
        .congestion()
        .queue_model(8)
        .microburst(0.3, 2)
        .slow_drain_tor(1, 0.55)
        .loss(VictimSelection::RandomRatio(0.4), 0.05)
        .build();
    let (calls_few, victims_few, found_few) = epoch_allocs(&few);
    let (calls_many, victims_many, found_many) = epoch_allocs(&many);
    assert!(
        victims_many >= 3.0 * victims_few && found_many >= 2.0 * found_few,
        "the second preset must have 3x the victims and localize 2x as many: \
         {victims_few} ({found_few} localized) vs {victims_many} ({found_many})"
    );
    assert!(
        (calls_many - calls_few).abs() <= SLACK,
        "{calls_few} allocations an epoch at {victims_few} victims, \
         {calls_many} at {victims_many} (at most {SLACK} apart)"
    );
}
