//! Network-wide measurement-task tests over the full simulated testbed:
//! the §4.2 tasks computed from sketches collected across all four edge
//! switches, validated against the trace's ground truth.

use chamelemon::config::DataPlaneConfig;
use chamelemon::{tasks, ChameleMon, CollectedGroup, EpochAnalysis};
use chm_common::metrics::{detection_score, relative_error, size_entropy, size_histogram};
use chm_common::FiveTuple;
use chm_netsim::Fabric;
use chm_workloads::trace::ip_host;
use chm_workloads::{testbed_trace, LossPlan, Trace, WorkloadKind};
use std::collections::{HashMap, HashSet};

struct Run {
    analysis: EpochAnalysis<FiveTuple>,
    collected: Vec<CollectedGroup<FiveTuple>>,
    truth: HashMap<FiveTuple, u64>,
}

/// Settles thresholds over two epochs, then replays one more epoch by hand
/// (no flip) so the collected sketches stay available for task queries.
fn run_once(trace: &Trace<FiveTuple>, seed: u64) -> Run {
    let mut sys = ChameleMon::testbed(DataPlaneConfig::small(seed));
    let plan = LossPlan::none();
    sys.run_epoch(trace, &plan);
    sys.run_epoch(trace, &plan);
    let ts = sys.simulator.current_ts_bit();
    let topo = sys.simulator.topology.clone();
    for &(f, pkts) in &trace.flows {
        let in_edge = topo.edge_of_host(ip_host(f.src_ip) as usize);
        let out_edge = topo.edge_of_host(ip_host(f.dst_ip) as usize);
        for _ in 0..pkts {
            let h = sys.edges[in_edge].on_ingress(&f, ts);
            sys.edges[out_edge].on_egress(&f, ts, h);
        }
    }
    let collected: Vec<_> = sys.edges.iter().map(|e| e.collect_group(ts)).collect();
    let analysis = sys.controller.analyze_epoch(&collected);
    Run { analysis, collected, truth: trace.size_map() }
}

#[test]
fn network_wide_heavy_hitters() {
    let trace = testbed_trace(WorkloadKind::Vl2, 3_000, 8, 31);
    let r = run_once(&trace, 31);
    let delta_h = 300u64;
    let truth_hh: HashSet<FiveTuple> = r
        .truth
        .iter()
        .filter(|(_, &v)| v > delta_h)
        .map(|(&f, _)| f)
        .collect();
    assert!(!truth_hh.is_empty(), "VL2 draw should contain heavy hitters");
    let reported = tasks::heavy_hitters(&r.analysis, delta_h);
    let score = detection_score(reported.keys().copied(), &truth_hh);
    assert!(score.f1 > 0.9, "HH F1 {:.3} ({} true)", score.f1, truth_hh.len());
}

#[test]
fn network_wide_flow_sizes() {
    let trace = testbed_trace(WorkloadKind::Dctcp, 2_000, 8, 32);
    let r = run_once(&trace, 32);
    let mut total_re = 0.0;
    for (&f, &true_size) in r.truth.iter() {
        let est = tasks::flow_size(&r.analysis, &r.collected, &f);
        total_re += (est as f64 - true_size as f64).abs() / true_size as f64;
    }
    let are = total_re / r.truth.len() as f64;
    assert!(are < 0.3, "flow-size ARE {are:.3}");
}

#[test]
fn network_wide_cardinality_and_entropy() {
    let trace = testbed_trace(WorkloadKind::Hadoop, 4_000, 8, 33);
    let r = run_once(&trace, 33);
    let card = tasks::cardinality(&r.collected);
    assert!(
        relative_error(4_000.0, card) < 0.2,
        "cardinality {card:.0} vs 4000"
    );
    let max = r.truth.values().copied().max().unwrap() as usize;
    let true_dist = size_histogram(&r.truth, max);
    let true_h = size_entropy(&true_dist);
    let est_h = tasks::entropy(&r.analysis);
    assert!(
        relative_error(true_h, est_h) < 0.35,
        "entropy {est_h:.3} vs {true_h:.3}"
    );
}

#[test]
fn network_wide_heavy_changes() {
    let a = testbed_trace(WorkloadKind::Dctcp, 1_500, 8, 34);
    // Epoch B: same flows, but the top flows collapse to a single packet.
    let mut b = a.clone();
    let top: HashSet<FiveTuple> = a.top_n(10).flows.iter().map(|&(f, _)| f).collect();
    for (f, s) in b.flows.iter_mut() {
        if top.contains(f) {
            *s = 1;
        }
    }
    let ra = run_once(&a, 35);
    let rb = run_once(&b, 35);
    let delta_c = 150;
    let truth: HashSet<FiveTuple> = a
        .flows
        .iter()
        .filter(|(f, s)| top.contains(f) && s.abs_diff(1) > delta_c)
        .map(|&(f, _)| f)
        .collect();
    assert!(!truth.is_empty(), "top flows must exceed the change threshold");
    let changes =
        tasks::heavy_changes(&ra.analysis, &ra.collected, &rb.analysis, &rb.collected, delta_c);
    let score = detection_score(changes, &truth);
    assert!(score.recall > 0.85, "heavy-change recall {:.3}", score.recall);
}
