//! The differential harness: for **every** scenario in the golden matrix,
//! the per-packet replay and the burst replay must be observationally
//! identical — same ground-truth epoch reports, same collected sketch
//! state on every edge switch every epoch, same controller decode, same
//! staged reconfigurations, same scores. This is the PR-2 burst-replay
//! equivalence contract extended across the full adversarial matrix: it
//! holds because impairments are realized above the hook boundary, never
//! inside one replay path.

use chm_scenarios::{standard_matrix, ReplayMode, Scenario, ScenarioStack};

/// Steps both replay modes epoch by epoch and asserts bit-identical
/// observables throughout.
fn assert_differential(s: &Scenario) {
    let mut per_packet = ScenarioStack::new(s);
    let mut burst = ScenarioStack::new(s);
    let base = s.base_trace();
    for _ in 0..s.epochs {
        let a = per_packet.step_epoch(s, &base, ReplayMode::PerPacket);
        let b = burst.step_epoch(s, &base, ReplayMode::Burst);
        let e = a.report.epoch;
        let name = &s.name;
        assert_eq!(a.report.epoch, b.report.epoch, "{name}: epoch index");
        assert_eq!(a.report.delivered, b.report.delivered, "{name} e{e}: delivered");
        assert_eq!(a.report.lost, b.report.lost, "{name} e{e}: lost");
        assert_eq!(a.report.dropped_at, b.report.dropped_at, "{name} e{e}: dropped_at");
        assert_eq!(
            a.report.hops_histogram, b.report.hops_histogram,
            "{name} e{e}: hops histogram"
        );
        assert_eq!(
            a.report.queue_depth, b.report.queue_depth,
            "{name} e{e}: queue-depth telemetry"
        );
        assert_eq!(a.received, b.received, "{name} e{e}: report-loss mask");
        assert_eq!(a.collected.len(), b.collected.len(), "{name} e{e}: edges");
        for (i, (ga, gb)) in a.collected.iter().zip(&b.collected).enumerate() {
            assert_eq!(ga.runtime, gb.runtime, "{name} e{e} edge{i}: runtime");
            assert_eq!(ga.classifier, gb.classifier, "{name} e{e} edge{i}: classifier");
            assert_eq!(
                ga.ingress_pkts, gb.ingress_pkts,
                "{name} e{e} edge{i}: ingress counter"
            );
            assert_eq!(
                ga.egress_pkts, gb.egress_pkts,
                "{name} e{e} edge{i}: egress counter"
            );
            assert_eq!(ga.up_hh, gb.up_hh, "{name} e{e} edge{i}: up_hh");
            assert_eq!(ga.up_hl, gb.up_hl, "{name} e{e} edge{i}: up_hl");
            assert_eq!(ga.up_ll, gb.up_ll, "{name} e{e} edge{i}: up_ll");
            assert_eq!(ga.down_hl, gb.down_hl, "{name} e{e} edge{i}: down_hl");
            assert_eq!(ga.down_ll, gb.down_ll, "{name} e{e} edge{i}: down_ll");
        }
        assert_eq!(a.loss_report, b.loss_report, "{name} e{e}: loss report");
        assert_eq!(a.localization, b.localization, "{name} e{e}: localization");
        assert_eq!(a.staged, b.staged, "{name} e{e}: staged runtime");
        assert_eq!(a.metrics, b.metrics, "{name} e{e}: metrics");
    }
}

/// Shrinks a matrix scenario to differential-test size (the equivalence is
/// exact at any size; small keeps the full matrix fast).
fn shrink(mut s: Scenario) -> Scenario {
    s.n_flows = 300;
    s.epochs = 3;
    s
}

#[test]
fn burst_replay_is_byte_identical_across_the_whole_matrix() {
    for s in standard_matrix(true).into_iter().map(shrink) {
        assert_differential(&s);
    }
}

#[test]
fn differential_holds_under_maximal_impairment_intensity() {
    // Crank every impairment far beyond the matrix's calibrated levels —
    // equivalence is structural, not parametric.
    let s = Scenario::builder("torture")
        .seed(0xBAD)
        .flows(200)
        .epochs(4)
        .loss(chm_workloads::VictimSelection::RandomRatio(0.3), 0.2)
        .gilbert_elliott(0.2, 0.3, 0.05, 0.9)
        .duplication(0.5)
        .reordering(0.8, 32)
        .clock_skew(0.4)
        .report_loss(0.5)
        .churn(0.4)
        .flood(2, 20, 3_000)
        .victim_drift(0.5)
        .incast(0.4, 5)
        .derate_switch(chm_netsim::SwitchRole::Aggregation, 1, 0.2)
        .rolling_tor(1, 0.3)
        .build();
    assert_differential(&s);
}

#[test]
fn differential_holds_under_queue_torture() {
    // The time-resolved layer at full intensity — a synchronized microburst
    // on top of a slow-draining ToR with RED early drop, composed with
    // every channel impairment and workload dynamic. Equivalence is
    // structural: the slotted fates realize above the hook boundary like
    // everything else.
    let s = Scenario::builder("queue-torture")
        .seed(0xBA_D0_0B)
        .flows(200)
        .epochs(4)
        .loss(chm_workloads::VictimSelection::RandomRatio(0.2), 0.1)
        .queue_model(6)
        .microburst(0.6, 2)
        .slow_drain_tor(2, 0.35)
        .queue_red(0.2, 1.5, 0.3)
        .gilbert_elliott(0.1, 0.3, 0.02, 0.7)
        .duplication(0.3)
        .reordering(0.5, 16)
        .clock_skew(0.3)
        .report_loss(0.3)
        .churn(0.3)
        .flood(2, 15, 2_000)
        .victim_drift(0.4)
        .incast(0.3, 4)
        .build();
    assert_differential(&s);
}

#[test]
fn scenario_runs_are_deterministic_per_seed() {
    let s = shrink(standard_matrix(true).remove(9));
    let a = chm_scenarios::run(&s, ReplayMode::Burst);
    let b = chm_scenarios::run(&s, ReplayMode::Burst);
    assert_eq!(a, b, "same seed must reproduce bit-identical results");
    let mut s2 = s.clone();
    s2.seed ^= 1;
    let c = chm_scenarios::run(&s2, ReplayMode::Burst);
    assert_ne!(
        a.epochs, c.epochs,
        "a different seed must realize a different run"
    );
}
