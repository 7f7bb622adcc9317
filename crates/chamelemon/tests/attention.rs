//! End-to-end tests of the full ChameleMon loop over the simulated testbed:
//! capture → collect → analyze → shift attention (§2's four steps).

use chamelemon::config::DataPlaneConfig;
use chamelemon::control::NetworkState;
use chamelemon::ChameleMon;
use chm_common::FiveTuple;
use chm_workloads::{testbed_trace, LossPlan, Trace, VictimSelection, WorkloadKind};
use std::collections::HashMap;

fn truth_losses(plan: &LossPlan<FiveTuple>) -> usize {
    plan.num_victims()
}

#[test]
fn healthy_network_reports_exact_losses() {
    let mut sys = ChameleMon::testbed(DataPlaneConfig::small(1));
    let trace = testbed_trace(WorkloadKind::Dctcp, 800, 8, 2);
    let plan = LossPlan::build(&trace, VictimSelection::RandomRatio(0.05), 0.02, 3);

    // Let the controller settle for a few epochs.
    let mut last = None;
    for _ in 0..4 {
        last = Some(sys.run_epoch(&trace, &plan));
    }
    let out = last.unwrap();
    assert_eq!(sys.controller.state(), NetworkState::Healthy);

    // Every victim flow must be reported with its exact loss count: in the
    // healthy state ChameleMon monitors *all* victim flows.
    let reported = &out.analysis.loss_report;
    assert_eq!(reported.len(), truth_losses(&plan), "victim count mismatch");
    for (f, &lost) in out.report.lost.iter() {
        assert_eq!(reported.get(f), Some(&lost), "flow {f:?}");
    }
}

#[test]
fn edge_port_counters_account_for_every_packet() {
    // The collected ingress/egress port counters are exact: summed over
    // the edges, ingress equals the packets sent and the ingress−egress
    // asymmetry equals the fabric's total loss. (Exact equality needs a
    // duplication-free fabric — ChameleMon::run_epoch is one; fabric
    // duplicates would inflate egress.)
    let mut sys = ChameleMon::testbed(DataPlaneConfig::small(7));
    let trace = testbed_trace(WorkloadKind::Vl2, 600, 8, 8);
    let plan = LossPlan::build(&trace, VictimSelection::RandomRatio(0.1), 0.05, 9);
    for _ in 0..3 {
        let out = sys.run_epoch(&trace, &plan);
        let ingress: u64 = out.analysis.edge_ingress.iter().sum();
        let egress: u64 = out.analysis.edge_egress.iter().sum();
        assert_eq!(ingress, out.report.total_sent());
        assert_eq!(ingress - egress, out.report.lost.values().sum::<u64>());
    }
}

#[test]
fn accumulation_tasks_work_alongside_loss_detection() {
    let mut sys = ChameleMon::testbed(DataPlaneConfig::small(4));
    let trace = testbed_trace(WorkloadKind::Vl2, 600, 8, 5);
    let plan = LossPlan::build(&trace, VictimSelection::RandomRatio(0.03), 0.02, 6);
    let mut outcome = None;
    for _ in 0..3 {
        outcome = Some(sys.run_epoch(&trace, &plan));
    }
    let out = outcome.unwrap();

    // Cardinality estimate should track the number of flows.
    let est = out.analysis.est_flows;
    let re = (est - 600.0).abs() / 600.0;
    assert!(re < 0.25, "cardinality {est} vs 600 (re {re:.2})");

    // Flow-size estimates for the largest flows should be close.
    let truth: HashMap<FiveTuple, u64> = trace.size_map();
    let top = trace.top_n(10);
    let collected: Vec<_> = sys.edges.iter().map(|e| e.collect_group(0)).collect();
    let _ = &collected; // sizes come from the analysis HH flowsets
    for &(f, true_size) in &top.flows {
        let est = chamelemon::tasks::heavy_hitters(&out.analysis, 0)
            .get(&f)
            .copied()
            .unwrap_or(0);
        if est > 0 {
            let re = (est as f64 - true_size as f64).abs() / true_size as f64;
            assert!(re < 0.2, "flow {f:?}: est {est} vs {true_size}");
        }
        let _ = truth.get(&f);
    }
}

#[test]
fn overload_transitions_to_ill_and_samples() {
    // Small data plane + many victim flows: the controller cannot monitor
    // all victims and must shift to the ill state (§4.3.1 step 2).
    let mut sys = ChameleMon::testbed(DataPlaneConfig::small(7));
    let trace = testbed_trace(WorkloadKind::Dctcp, 6_000, 8, 8);
    let plan = LossPlan::build(&trace, VictimSelection::RandomRatio(0.5), 0.05, 9);

    let mut became_ill_at = None;
    for epoch in 0..6 {
        let out = sys.run_epoch(&trace, &plan);
        let _ = out;
        if sys.controller.state() == NetworkState::Ill && became_ill_at.is_none() {
            became_ill_at = Some(epoch);
        }
    }
    let when = became_ill_at.expect("controller never transitioned to ill");
    assert!(when <= 3, "took {when} epochs to notice the ill state");

    let rt = sys.controller.deployed_runtime();
    assert!(rt.partition.m_ll > 0, "ill state must allocate LL encoders");
    assert!(rt.tl > 1, "ill state must select HLs via Tl > 1");
}

#[test]
fn recovery_transitions_back_to_healthy() {
    let mut sys = ChameleMon::testbed(DataPlaneConfig::small(10));
    let trace = testbed_trace(WorkloadKind::Dctcp, 6_000, 8, 11);
    let bad = LossPlan::build(&trace, VictimSelection::RandomRatio(0.5), 0.05, 12);
    let good = LossPlan::build(&trace, VictimSelection::RandomRatio(0.01), 0.02, 13);

    for _ in 0..6 {
        sys.run_epoch(&trace, &bad);
    }
    assert_eq!(sys.controller.state(), NetworkState::Ill);

    let mut recovered_after = None;
    for epoch in 0..6 {
        sys.run_epoch(&trace, &good);
        if sys.controller.state() == NetworkState::Healthy {
            recovered_after = Some(epoch);
            break;
        }
    }
    let when = recovered_after.expect("controller never recovered");
    assert!(when <= 3, "took {when} epochs to recover (paper: ≤ 3)");
    let rt = sys.controller.deployed_runtime();
    assert_eq!(rt.partition.m_ll, 0, "healthy state has no LL encoder");
    assert_eq!(rt.tl, 1, "healthy state sets Tl to 1");
}

#[test]
fn reconfiguration_applies_next_epoch_not_current() {
    let mut sys = ChameleMon::testbed(DataPlaneConfig::small(14));
    let trace = testbed_trace(WorkloadKind::Hadoop, 3_000, 8, 15);
    let plan = LossPlan::none();

    let first = sys.run_epoch(&trace, &plan);
    // Epoch 0 ran under the initial configuration regardless of what the
    // controller decided afterwards.
    assert_eq!(first.config_in_effect.th, 1);
    let second = sys.run_epoch(&trace, &plan);
    // The runtime staged after epoch 0's analysis is what the controller
    // considers deployed while epoch 1 runs.
    assert_eq!(second.config_in_effect, first.staged_runtime);
}

/// Keep a deterministic CACHE-workload smoke test: extreme skew must not
/// crash or wedge the state machine.
#[test]
fn cache_workload_smoke() {
    let mut sys = ChameleMon::testbed(DataPlaneConfig::small(16));
    let trace: Trace<FiveTuple> = testbed_trace(WorkloadKind::Cache, 4_000, 8, 17);
    let plan = LossPlan::build(&trace, VictimSelection::RandomRatio(0.1), 0.02, 18);
    for _ in 0..5 {
        let out = sys.run_epoch(&trace, &plan);
        // Loss report never invents flows that exist nowhere.
        for f in out.analysis.loss_report.keys() {
            assert!(trace.flows.iter().any(|(g, _)| g == f), "ghost flow {f:?}");
        }
    }
}

/// Figure 20's response time spans analyze + decide only. Under a clock
/// that ticks by one per read, the reads outside that window are exactly
/// the collect span's two, the reconfigure span's closing read (after
/// stage and flip) and the localize span's two; the window's own opening
/// read is the sixth.
#[test]
fn response_time_covers_analyze_and_decide_only() {
    let mut sys = ChameleMon::testbed(DataPlaneConfig::small(1));
    let trace = testbed_trace(WorkloadKind::Dctcp, 800, 8, 2);
    let plan = LossPlan::build(&trace, VictimSelection::RandomRatio(0.05), 0.02, 3);
    assert_eq!(sys.run_epoch(&trace, &plan).response_time_s, None, "no clock, no time");
    let mut reads = 0u32;
    let out = sys.run_epoch_with_clock(&trace, &plan, &mut || {
        reads += 1;
        f64::from(reads)
    });
    assert_eq!(out.response_time_s, Some(f64::from(reads - 6)));
}
