//! Allocation budget of the localization pass: one
//! `Controller::localize_with_telemetry` on the congested serve preset makes
//! at most [`BUDGET`] allocations, however many victims it localizes — one
//! per structure it builds: the traffic and confidence maps it reads off the
//! analysis, the victims' sorted fold order (which becomes the rows of the
//! `VictimRoutes` it hands back), the table's row bounds and its one shared
//! switch list (sized exactly: the fold sums the route lengths), the healthy
//! flows' sorted fold order, and the ranking. The localizer's tables are
//! dense over the fabric's switch numbers, each switch's score is computed
//! once an epoch, and every route is built in one reused buffer and ranked
//! in place in the shared list, so nothing grows with the evidence. Counted
//! with the workspace's counting global allocator, `chm_counting_alloc`.

use chamelemon::Controller;
use chm_counting_alloc::CountingAlloc;
use chm_scenarios::{ReplayMode, Scenario, ScenarioStack};

/// Allocations one localization may make, whatever its victim count.
const BUDGET: u64 = 7;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn one_localization_allocates_a_constant() {
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
        let (calls, l) = ALLOC.calls_during(|| {
            stack
                .controller
                .localize_with_telemetry(&closed.analysis, &report.queue_depth)
        });
        let rows = l.expect("the stack enables localization").per_victim.len();
        assert!(
            calls <= BUDGET,
            "epoch {epoch}: {calls} allocations for {rows} victims (budget {BUDGET})"
        );
        most_victims = most_victims.max(rows);
    }
    assert!(
        most_victims > 80,
        "the preset must localize victims: {most_victims}"
    );
}
