//! The serial `Simulator` keeps its per-flow scratch from epoch to epoch;
//! nothing may leak through it. An impaired scenario — queue model,
//! duplication, reordering and clock skew, so the fate masks are filled and
//! read, plus churn so the flows change — replays epoch after epoch on one
//! simulator, and each epoch again on a fresh simulator placed at that
//! epoch with `set_epoch`, over a copy of the same edge sites. Reports and
//! both sketch groups of every edge must come out equal, under either
//! walker.

use chm_netsim::{ReplayMode, Simulator, SiteArray};
use chm_scenarios::{Scenario, ScenarioStack};
use chm_workloads::VictimSelection;

#[test]
fn a_kept_scratch_replays_as_a_fresh_simulator() {
    let s = Scenario::builder("kept_scratch")
        .seed(0x5c7a)
        .flows(800)
        .loss(VictimSelection::RandomRatio(0.2), 0.1)
        .queue_model(8)
        .microburst(0.3, 2)
        .duplication(0.05)
        .reordering(0.3, 6)
        .clock_skew(0.2)
        .churn(0.2)
        .build();
    let base = s.base_trace();
    let mut stack = ScenarioStack::new(&s);
    let mut victims = 0;
    for epoch in 0..10u64 {
        assert_eq!(stack.simulator.current_epoch(), epoch);
        let trace = s.trace_for_epoch(&base, epoch);
        let plan = s.plan_for_epoch(&trace, epoch);
        let mode = if epoch % 2 == 0 {
            ReplayMode::Burst
        } else {
            ReplayMode::PerPacket
        };
        let mut fresh_edges = stack.edges.clone();
        let sim = &stack.simulator;
        let mut fresh = Simulator::new(sim.topology.clone(), sim.config.clone());
        fresh.set_epoch(epoch);

        let kept = stack.simulator.run_epoch_scenario(
            &trace,
            &plan,
            &s.impairments,
            mode,
            &mut SiteArray(&mut stack.edges),
        );
        let want = fresh.run_epoch_scenario(
            &trace,
            &plan,
            &s.impairments,
            mode,
            &mut SiteArray(&mut fresh_edges),
        );
        assert!(kept == want, "epoch {epoch}: report");
        assert!(
            !kept.queue_depth.is_empty(),
            "epoch {epoch}: the queue exports telemetry"
        );
        for (i, (a, b)) in stack.edges.iter().zip(&fresh_edges).enumerate() {
            for ts in [0, 1] {
                assert!(
                    a.group(ts) == b.group(ts),
                    "epoch {epoch}: edge {i} group {ts}"
                );
            }
        }
        victims += kept.lost.len();
    }
    assert!(victims > 500, "the scenario must make victims: {victims}");
}
