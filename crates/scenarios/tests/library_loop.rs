//! The library loop and the scorer loop are one epoch body: a
//! `chamelemon::ChameleMon` fed each epoch's trace and loss plan must stage
//! the same runtimes, report the same victims and reach the same decode
//! verdicts as `ScenarioStack::step_epoch` over the same scenario — serial
//! and sharded.

use chamelemon::config::DataPlaneConfig;
use chamelemon::ChameleMon;
use chm_netsim::{Sharding, SimConfig};
use chm_scenarios::{ReplayMode, Scenario, ScenarioStack, CFG_SALT};
use chm_workloads::VictimSelection;

/// A clean fabric and control channel, with traffic that keeps the
/// controller re-dividing memory: flows churn, a flood arrives every fourth
/// epoch, and a third of the flows lose packets.
fn scenario() -> Scenario {
    Scenario::builder("library_loop")
        .seed(29)
        .epochs(14)
        .flows(800)
        .loss(VictimSelection::RandomRatio(0.3), 0.05)
        .churn(0.2)
        .flood(4, 1_500, 2)
        .build()
}

fn assert_loops_agree(sharding: Option<Sharding>) {
    let s = scenario();
    let mut stack = ScenarioStack::new(&s);
    if let Some(sharding) = sharding {
        stack.set_sharding(sharding);
    }
    // What `ScenarioStack::new` builds, through the library's constructor.
    let mut system = ChameleMon::new(
        DataPlaneConfig::small(s.seed ^ CFG_SALT),
        s.build_topology(),
        SimConfig { epoch_ms: 50.0, seed: s.seed ^ 0x51b },
    );
    let base = s.base_trace();
    let mut partitions = Vec::new();
    for epoch in 0..s.epochs {
        let trace = s.trace_for_epoch(&base, epoch);
        let plan = s.plan_for_epoch(&trace, epoch);
        let lib = system.run_epoch(&trace, &plan);
        let scored = stack.step_epoch(&s, &base, ReplayMode::Burst);
        let at = format!("{sharding:?} epoch {epoch}");
        assert_eq!(lib.report.epoch, scored.report.epoch, "{at}: epoch index");
        assert_eq!(lib.staged_runtime.partition, scored.staged.partition, "{at}: partition");
        assert_eq!(
            lib.staged_runtime.sample_rate().to_bits(),
            scored.staged.sample_rate().to_bits(),
            "{at}: sample rate"
        );
        assert_eq!(lib.analysis.loss_report, scored.loss_report, "{at}: loss report");
        assert_eq!(lib.analysis.fully_decoded(), scored.metrics.decode_ok, "{at}: decode verdict");
        partitions.push(lib.staged_runtime.partition);
    }
    partitions.dedup();
    assert!(partitions.len() > 1, "the scenario never reconfigured: {partitions:?}");
}

#[test]
fn the_library_loop_matches_the_scorer_serially() {
    assert_loops_agree(None);
}

#[test]
fn the_library_loop_matches_the_sharded_scorer() {
    assert_loops_agree(Some(Sharding { shards: 3, workers: 2 }));
}
