//! The sharded differential harness: a [`ScenarioStack`] replays on the
//! sharded engine — one shard, or any layout `set_sharding` gives it — and
//! must be observationally identical to the serial reference,
//! `Simulator::run_epoch_scenario` driven directly here over a stack's own
//! edges and controller — same ground-truth reports, same collected sketch
//! state on every edge every epoch, same decode, localization and staged
//! reconfigurations — and score the same at every layout, for **every**
//! scenario in the golden matrix, on **every** fabric of the topology zoo,
//! in **both** replay modes.

use chamelemon::{ClosedEpoch, CollectedGroup, Controller, Localization, RuntimeConfig};
use chm_common::FiveTuple;
use chm_netsim::sim::EpochReport;
use chm_netsim::{Sharding, SiteArray};
use chm_scenarios::{
    standard_matrix, EpochTrace, ReplayMode, Scenario, ScenarioStack, TopologySpec,
};
use chm_workloads::{Trace, VictimSelection};
use std::collections::HashMap;

/// What the serial reference observes of one epoch.
struct Reference {
    report: EpochReport<FiveTuple>,
    received: Vec<bool>,
    collected: Vec<CollectedGroup<FiveTuple>>,
    loss_report: HashMap<FiveTuple, u64>,
    localization: Localization<FiveTuple>,
    staged: RuntimeConfig,
}

/// One epoch of `s` on the serial reference: the stack's parts stepped by
/// hand — the serial driver over its edges, then the epoch body
/// `ScenarioStack::step_epoch` closes with, over the same report-loss
/// channel.
fn reference_epoch(
    stack: &mut ScenarioStack,
    s: &Scenario,
    base: &Trace<FiveTuple>,
    mode: ReplayMode,
) -> Reference {
    let epoch = stack.simulator.current_epoch();
    let trace = s.trace_for_epoch(base, epoch);
    let plan = s.plan_for_epoch(&trace, epoch);
    let mut hooks = SiteArray(&mut stack.edges);
    let imp = &s.impairments;
    let report = stack.simulator.run_epoch_scenario(&trace, &plan, imp, mode, &mut hooks);
    let received = s.reports_received(report.epoch, stack.edges.len());
    let ts_bit = (report.epoch & 1) as u8;
    let collected = stack.edges.iter().map(|e| e.collect_group(ts_bit)).collect();
    let ClosedEpoch { analysis, staged, localization, .. } = stack.controller.close_epoch(
        &mut stack.edges,
        report.epoch,
        Some(&received),
        &report.queue_depth,
        Controller::reconfigure,
        None,
    );
    let localization = localization.expect("the stack enables localization");
    let loss_report = analysis.loss_report;
    Reference { report, received, collected, loss_report, localization, staged }
}

/// Asserts that one stepped epoch observes what the reference did.
fn assert_matches(want: &Reference, got: &EpochTrace, tag: &str) {
    assert_eq!(want.report, got.report, "{tag}: epoch report");
    assert_eq!(want.received, got.received, "{tag}: report-loss mask");
    assert_eq!(want.collected.len(), got.collected.len(), "{tag}: edge count");
    for (i, (ga, gb)) in want.collected.iter().zip(&got.collected).enumerate() {
        assert_eq!(ga.runtime, gb.runtime, "{tag} edge{i}: runtime");
        assert_eq!(ga.classifier, gb.classifier, "{tag} edge{i}: classifier");
        assert_eq!(ga.ingress_pkts, gb.ingress_pkts, "{tag} edge{i}: ingress counter");
        assert_eq!(ga.egress_pkts, gb.egress_pkts, "{tag} edge{i}: egress counter");
        assert_eq!(ga.up_hh, gb.up_hh, "{tag} edge{i}: up_hh");
        assert_eq!(ga.up_hl, gb.up_hl, "{tag} edge{i}: up_hl");
        assert_eq!(ga.up_ll, gb.up_ll, "{tag} edge{i}: up_ll");
        assert_eq!(ga.down_hl, gb.down_hl, "{tag} edge{i}: down_hl");
        assert_eq!(ga.down_ll, gb.down_ll, "{tag} edge{i}: down_ll");
    }
    assert_eq!(want.loss_report, got.loss_report, "{tag}: loss report");
    assert_eq!(want.localization, got.localization, "{tag}: localization");
    assert_eq!(want.staged, got.staged, "{tag}: staged runtime");
}

/// Steps the serial reference, a default (one-shard) stack and a stack at
/// `sharding` epoch by epoch: both stacks must observe what the reference
/// does, and score alike.
fn assert_sharded_identical(s: &Scenario, sharding: Sharding, mode: ReplayMode) {
    let mut reference = ScenarioStack::new(s);
    let mut single = ScenarioStack::new(s);
    let mut sharded = ScenarioStack::new(s);
    sharded.set_sharding(sharding);
    let base = s.base_trace();
    for _ in 0..s.epochs {
        let want = reference_epoch(&mut reference, s, &base, mode);
        let a = single.step_epoch(s, &base, mode);
        let b = sharded.step_epoch(s, &base, mode);
        let e = want.report.epoch;
        let name = &s.name;
        assert_matches(&want, &a, &format!("{name} e{e} {mode:?} one shard"));
        let tag = format!("{name} e{e} {mode:?} {sharding:?}");
        assert_matches(&want, &b, &tag);
        assert_eq!(a.metrics, b.metrics, "{tag}: metrics");
    }
}

/// Shrinks a matrix scenario to differential-test size (the equivalence is
/// exact at any size; small keeps the full matrix fast).
fn shrink(mut s: Scenario) -> Scenario {
    s.n_flows = 300;
    s.epochs = 2;
    s
}

/// Every scenario of the golden adversarial matrix, both replay modes, on
/// a shard count that does not divide the edge count (the asymmetric case)
/// with more workers than the host has cores.
#[test]
fn sharded_stack_matches_serial_across_the_whole_matrix() {
    for s in standard_matrix(true).into_iter().map(shrink) {
        for mode in [ReplayMode::PerPacket, ReplayMode::Burst] {
            assert_sharded_identical(&s, Sharding { shards: 3, workers: 2 }, mode);
        }
    }
}

/// The topology-sweep fabrics under the shared adversarial shape
/// (congestion coupling + a structural hot spot, like the bench sweep),
/// at several shard counts including more shards than some fabrics have
/// edge switches.
#[test]
fn sharded_stack_matches_serial_on_every_sweep_fabric() {
    let fabrics: Vec<(&str, TopologySpec)> = vec![
        ("testbed", TopologySpec::Testbed),
        ("fat-tree-k4", TopologySpec::KaryFatTree { k: 4 }),
        ("fat-tree-k8", TopologySpec::KaryFatTree { k: 8 }),
        ("leaf-spine-8x4", TopologySpec::LeafSpine { n_leaf: 8, n_spine: 4, hosts_per_leaf: 2 }),
        ("leaf-spine-asym", TopologySpec::LeafSpine { n_leaf: 6, n_spine: 3, hosts_per_leaf: 4 }),
        ("abilene-wan", TopologySpec::AbileneWan { hosts_per_node: 2 }),
    ];
    for (i, (name, spec)) in fabrics.into_iter().enumerate() {
        let b = Scenario::builder(name)
            .seed(0xFAB0 ^ i as u64)
            .topology(spec)
            .flows(300)
            .epochs(2)
            .loss(VictimSelection::RandomRatio(0.1), 0.05)
            .congestion();
        let s = match spec {
            TopologySpec::AbileneWan { hosts_per_node } => {
                let hub = chm_netsim::WanGraph::abilene(hosts_per_node).hub();
                b.derate_switch(chm_netsim::SwitchRole::Edge, hub, 0.3)
            }
            _ => b.derate_switch(chm_netsim::SwitchRole::Core, 0, 0.3),
        }
        .build();
        for sharding in [Sharding::of(2), Sharding { shards: 5, workers: 2 }] {
            assert_sharded_identical(&s, sharding, ReplayMode::Burst);
        }
        // Per-packet on one sharding keeps the fabric axis covered in both
        // modes without doubling the suite's runtime.
        assert_sharded_identical(&s, Sharding::of(3), ReplayMode::PerPacket);
    }
}
