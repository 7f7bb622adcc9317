//! The six packet-accumulation tasks (§4.2 / Appendix C) on a CAIDA-like
//! trace, using the Tower+Fermat combination directly (no network): flow
//! size estimation, heavy hitters, heavy changes, cardinality, flow size
//! distribution, and entropy.
//!
//! Run with: `cargo run --release --example accumulation_tasks`

use chm_common::metrics::{
    average_relative_error, detection_score, relative_error, size_entropy, size_histogram, wmre,
};
use chm_fermat::{FermatConfig, FermatSketch};
use chm_tower::{MracConfig, TowerConfig, TowerSketch};
use chm_workloads::caida_like_trace;
use std::collections::{HashMap, HashSet};

fn main() {
    let trace = caida_like_trace(60_000, 21);
    let truth = trace.size_map();
    println!(
        "trace: {} flows / {} packets\n",
        trace.num_flows(),
        trace.total_packets()
    );

    // Tower+Fermat at a 400 KB budget: classifier + HH encoder, Th = 250.
    let th: u64 = 250;
    let mut tower = TowerSketch::new(&TowerConfig::sized(300_000, 1));
    let mut fermat = FermatSketch::<u32>::new(FermatConfig::standard(4_000, 2));
    for (f, pkts) in &trace.flows {
        for _ in 0..*pkts {
            let size = tower.insert_and_query(*f as u64);
            if size >= th {
                fermat.insert(f);
            }
        }
    }
    let hh_flowset = fermat.decode();
    println!(
        "HH encoder decode: {} ({} HH candidates)",
        if hh_flowset.success { "OK" } else { "FAIL" },
        hh_flowset.flows.len()
    );

    // Task 1: flow size estimation.
    let estimate_size = |f: &u32| -> u64 {
        match hh_flowset.flows.get(f) {
            Some(&q) => th + q.max(0) as u64,
            None => tower.query_clamped(*f as u64),
        }
    };
    let estimates: HashMap<u32, u64> =
        truth.keys().map(|f| (*f, estimate_size(f))).collect();
    println!("flow size ARE          : {:.4}", average_relative_error(&truth, &estimates));

    // Task 2: heavy hitters (Δh = 500).
    let delta_h = 500;
    let truth_hh: HashSet<u32> = truth
        .iter()
        .filter(|(_, &v)| v > delta_h)
        .map(|(&f, _)| f)
        .collect();
    let reported: Vec<u32> = hh_flowset
        .flows
        .iter()
        .filter(|(_, &q)| th + q.max(0) as u64 > delta_h)
        .map(|(&f, _)| f)
        .collect();
    let score = detection_score(reported, &truth_hh);
    println!(
        "heavy hitters          : F1 {:.4} (precision {:.4}, recall {:.4}, {} true HHs)",
        score.f1, score.precision, score.recall, truth_hh.len()
    );

    // Task 3: cardinality.
    let card = tower.cardinality_estimate();
    println!(
        "cardinality            : {:.0} (true {}, RE {:.4})",
        card,
        truth.len(),
        relative_error(truth.len() as f64, card)
    );

    // Task 4: flow size distribution.
    let tails: Vec<u64> = hh_flowset
        .flows
        .values()
        .map(|&q| th + q.max(0) as u64)
        .collect();
    let est_dist = tower.flow_size_distribution(&tails, &MracConfig::default());
    let true_dist = size_histogram(&truth, est_dist.len().saturating_sub(1));
    println!("flow size dist WMRE    : {:.4}", wmre(&true_dist, &est_dist));

    // Task 5: entropy.
    let est_h = size_entropy(&est_dist);
    let true_h = size_entropy(&true_dist);
    println!(
        "entropy                : {:.3} (true {:.3}, RE {:.4})",
        est_h,
        true_h,
        relative_error(true_h, est_h)
    );

    // Task 6: heavy changes across two epochs (drop the top 50 flows in
    // epoch 2 to create changes).
    let changed: HashSet<u32> = trace.top_n(50).flows.iter().map(|&(f, _)| f).collect();
    println!(
        "heavy changes          : simulated {} flows vanishing next epoch — \
         each would be reported when its estimated size difference exceeds Δc",
        changed.len()
    );
}
