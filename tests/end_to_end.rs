//! Cross-crate integration tests: the complete ChameleMon pipeline plus the
//! baseline comparisons, exercised together the way the evaluation uses
//! them.

use chamelemon::config::DataPlaneConfig;
use chamelemon::ChameleMon;
use chm_baselines::{AccumulationSketch, CmSketch, ElasticSketch, FlowRadar, LossDetector, LossRadar};
use chm_common::metrics::{average_relative_error, detection_score};
use chm_fermat::{FermatConfig, FermatSketch};
use chm_tower::{TowerConfig, TowerSketch};
use chm_workloads::{caida_like_trace, testbed_trace, LossPlan, VictimSelection, WorkloadKind};
use std::collections::{HashMap, HashSet};

/// The three loss detectors, given adequate memory, agree exactly on the
/// victim set and per-flow loss counts.
#[test]
fn loss_detectors_agree_on_ground_truth() {
    let trace = caida_like_trace(3_000, 1);
    // Random victims (not the largest) keep the per-packet replay and the
    // LossRadar memory requirement small.
    let plan = LossPlan::build(&trace, VictimSelection::RandomN(60), 0.05, 2);
    let (delivered, lost) = plan.apply_to_trace(&trace, 3);

    // FermatSketch pair.
    let cfg = FermatConfig::standard(200, 50);
    let mut up = FermatSketch::<u32>::new(cfg);
    let mut down = FermatSketch::<u32>::new(cfg);
    // FlowRadar + LossRadar.
    let mut fr = FlowRadar::<u32>::new(256 * 1024, 51);
    let mut lr = LossRadar::<u32>::new(64 * 1024, 52);

    for (&f, &d) in &delivered {
        let l = lost.get(&f).copied().unwrap_or(0);
        up.insert_weighted(&f, (d + l) as i64);
        down.insert_weighted(&f, d as i64);
        for seq in 0..(d + l) as u32 {
            fr.observe_upstream(&f, seq);
            lr.observe_upstream(&f, seq);
            if seq as u64 >= l {
                fr.observe_downstream(&f, seq);
                lr.observe_downstream(&f, seq);
            }
        }
    }
    up.sub_assign_sketch(&down);
    let fermat = up.decode();
    assert!(fermat.success);
    let fermat_losses: HashMap<u32, u64> =
        fermat.flows.iter().map(|(&f, &c)| (f, c as u64)).collect();
    let fr_losses = fr.decode_losses().expect("FlowRadar decode");
    let lr_losses = lr.decode_losses().expect("LossRadar decode");

    assert_eq!(fermat_losses, lost);
    assert_eq!(fr_losses, lost);
    assert_eq!(lr_losses, lost);
}

/// Tower+Fermat flow-size accuracy is competitive with (not wildly worse
/// than) CM and Elastic at equal memory — the Figure-11 sanity check.
#[test]
fn tower_fermat_competitive_on_flow_size() {
    let trace = caida_like_trace(20_000, 4);
    let truth = trace.size_map();
    let stream = trace.packet_stream(5);
    let budget = 200_000;

    let th = 250u64;
    let mut tower = TowerSketch::new(&TowerConfig::sized(budget * 3 / 4, 6));
    let mut fermat = FermatSketch::<u32>::new(FermatConfig::standard(budget / 4 / 8 / 3, 7));
    let mut cm = CmSketch::new(budget, 8);
    let mut elastic = ElasticSketch::<u32>::new(budget, 9);

    for f in &stream {
        let size = tower.insert_and_query(*f as u64);
        if size >= th {
            fermat.insert(f);
        }
        AccumulationSketch::<u32>::insert(&mut cm, f);
        elastic.insert(f);
    }
    let hh = fermat.decode();
    assert!(hh.success, "HH encoder must decode at this load");

    let tf_est: HashMap<u32, u64> = truth
        .keys()
        .map(|f| {
            let e = match hh.flows.get(f) {
                Some(&q) => th + q.max(0) as u64,
                None => tower.query_clamped(*f as u64),
            };
            (*f, e)
        })
        .collect();
    let cm_est: HashMap<u32, u64> = truth
        .keys()
        .map(|f| (*f, AccumulationSketch::<u32>::estimate(&cm, f)))
        .collect();
    let el_est: HashMap<u32, u64> = truth.keys().map(|f| (*f, elastic.estimate(f))).collect();

    let are_tf = average_relative_error(&truth, &tf_est);
    let are_cm = average_relative_error(&truth, &cm_est);
    let are_el = average_relative_error(&truth, &el_est);
    // The paper reports Tower+Fermat beating CM by ~4.5x at 200 KB; we only
    // assert the ordering and a sane absolute level here.
    assert!(are_tf < are_cm, "Tower+Fermat {are_tf:.3} vs CM {are_cm:.3}");
    assert!(are_tf < 1.0, "Tower+Fermat ARE {are_tf:.3}");
    let _ = are_el;
}

/// Heavy hitters detected by Tower+Fermat match ground truth with high F1.
#[test]
fn tower_fermat_heavy_hitter_f1() {
    let trace = caida_like_trace(20_000, 10);
    let truth = trace.size_map();
    let delta_h = 500u64;
    let truth_hh: HashSet<u32> = truth
        .iter()
        .filter(|(_, &v)| v > delta_h)
        .map(|(&f, _)| f)
        .collect();
    assert!(!truth_hh.is_empty());

    let th = 250u64;
    let mut tower = TowerSketch::new(&TowerConfig::sized(150_000, 11));
    let mut fermat = FermatSketch::<u32>::new(FermatConfig::standard(2_000, 12));
    for (f, pkts) in &trace.flows {
        for _ in 0..*pkts {
            if tower.insert_and_query(*f as u64) >= th {
                fermat.insert(f);
            }
        }
    }
    let hh = fermat.decode();
    assert!(hh.success);
    let reported: Vec<u32> = hh
        .flows
        .iter()
        .filter(|(_, &q)| th + q.max(0) as u64 > delta_h)
        .map(|(&f, _)| f)
        .collect();
    let score = detection_score(reported, &truth_hh);
    assert!(score.f1 > 0.95, "F1 {:.4}", score.f1);
}

/// The full system loop works on every workload family.
#[test]
fn full_loop_on_all_workloads() {
    for (i, w) in WorkloadKind::ALL.into_iter().enumerate() {
        let mut sys = ChameleMon::testbed(DataPlaneConfig::small(100 + i as u64));
        let trace = testbed_trace(w, 1_500, 8, 200 + i as u64);
        let plan =
            LossPlan::build(&trace, VictimSelection::RandomRatio(0.05), 0.02, 300 + i as u64);
        let mut last_reported = 0;
        for _ in 0..4 {
            let out = sys.run_epoch(&trace, &plan);
            last_reported = out.analysis.loss_report.len();
        }
        assert!(
            last_reported > 0,
            "{}: no victims reported after settling",
            w.name()
        );
    }
}

/// Loss reports never hallucinate: every reported victim is a planned
/// victim, across several epochs and workloads.
#[test]
fn no_false_victims_after_settling() {
    let mut sys = ChameleMon::testbed(DataPlaneConfig::small(500));
    let trace = testbed_trace(WorkloadKind::Vl2, 1_000, 8, 501);
    let plan = LossPlan::build(&trace, VictimSelection::RandomRatio(0.08), 0.03, 502);
    for _ in 0..5 {
        let out = sys.run_epoch(&trace, &plan);
        if out.analysis.hh_decode_ok && out.analysis.hl_flowset.is_some() {
            for f in out.analysis.loss_report.keys() {
                assert!(
                    plan.victims.contains_key(f),
                    "reported non-victim {f:?} as victim"
                );
            }
        }
    }
}
