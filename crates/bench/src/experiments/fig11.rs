//! Figure 11 (Appendix C): accuracy of the Tower+Fermat combination vs nine
//! baselines across the six packet accumulation tasks, at 200–600 KB.
//!
//! Panels and competitors follow the paper exactly:
//! (a) heavy hitters F1 — Tower+Fermat, FCM, UnivMon, CountHeap, Elastic, HashPipe, Coco
//! (b) flow size ARE    — Tower+Fermat, FCM, CM, CU, Elastic
//! (c) heavy changes F1 — Tower+Fermat, FCM, UnivMon, CountHeap, Elastic, Coco
//! (d) size dist WMRE   — Tower+Fermat, FCM, MRAC, Elastic
//! (e) entropy RE       — Tower+Fermat, FCM, UnivMon, Elastic, MRAC
//! (f) cardinality RE   — Tower+Fermat, FCM, UnivMon, Elastic
//!
//! Δh ≈ 0.02% and Δc ≈ 0.01% of total packets (500 / 250 on the paper's
//! traces); Th = Δc = 250. Traces: CAIDA-like, 63K flows / 2.3M packets.

use crate::report::Table;
use chm_baselines::{
    AccumulationSketch, CmSketch, CocoSketch, CountHeap, CuSketch, ElasticSketch, FcmSketch,
    HashPipe, UnivMon,
};
use chm_common::metrics::{
    average_relative_error, detection_score, relative_error, size_entropy, size_histogram, wmre,
};
use chm_fermat::{FermatConfig, FermatSketch};
use chm_tower::{mrac_em, MracConfig, TowerConfig, TowerSketch};
use chm_workloads::{caida_like_trace, Trace};
use std::collections::{HashMap, HashSet};

/// Heavy-hitter threshold Δh (§C: ~0.02% of packets).
const DELTA_H: u64 = 500;
/// Heavy-change threshold Δc (§C: ~0.01% of packets).
const DELTA_C: u64 = 250;
/// Tower+Fermat HH-candidate threshold Th = Δc (§C).
const TH: u64 = 250;

/// Results of the six tasks for one algorithm at one memory size; `None`
/// where the algorithm does not support the task (matches the paper's
/// panel membership).
#[derive(Debug, Clone, Copy, Default)]
struct TaskScores {
    hh_f1: Option<f64>,
    size_are: Option<f64>,
    hc_f1: Option<f64>,
    dist_wmre: Option<f64>,
    entropy_re: Option<f64>,
    card_re: Option<f64>,
}

/// Ground truth of one epoch.
struct Truth {
    sizes: HashMap<u32, u64>,
    hh: HashSet<u32>,
    dist: Vec<f64>,
    entropy: f64,
    cardinality: f64,
}

impl Truth {
    fn of(trace: &Trace<u32>) -> Self {
        let sizes = trace.size_map();
        let hh = sizes.iter().filter(|(_, &v)| v > DELTA_H).map(|(&f, _)| f).collect();
        let max = sizes.values().copied().max().unwrap_or(1) as usize;
        let dist = size_histogram(&sizes, max);
        let entropy = size_entropy(&dist);
        Truth { cardinality: sizes.len() as f64, sizes, hh, dist, entropy }
    }
}

/// Heavy-change ground truth between two epochs.
fn truth_changes(a: &Truth, b: &Truth) -> HashSet<u32> {
    let mut out = HashSet::new();
    for (f, &va) in &a.sizes {
        let vb = b.sizes.get(f).copied().unwrap_or(0);
        if va.abs_diff(vb) > DELTA_C {
            out.insert(*f);
        }
    }
    for (f, &vb) in &b.sizes {
        if !a.sizes.contains_key(f) && vb > DELTA_C {
            out.insert(*f);
        }
    }
    out
}

/// Generic per-flow-size scoring given an estimator closure.
fn score_sizes(truth: &Truth, est: impl Fn(&u32) -> u64) -> f64 {
    let estimates: HashMap<u32, u64> = truth.sizes.keys().map(|f| (*f, est(f))).collect();
    average_relative_error(&truth.sizes, &estimates)
}

fn f1_of(reported: Vec<u32>, truth: &HashSet<u32>) -> f64 {
    detection_score(reported, truth).f1
}

/// Heavy changes from two candidate lists + two estimators.
fn changes_from(
    cand_a: Vec<(u32, u64)>,
    cand_b: Vec<(u32, u64)>,
    est_a: impl Fn(&u32) -> u64,
    est_b: impl Fn(&u32) -> u64,
) -> Vec<u32> {
    let mut cands: HashSet<u32> = cand_a.into_iter().map(|(f, _)| f).collect();
    cands.extend(cand_b.into_iter().map(|(f, _)| f));
    cands
        .into_iter()
        .filter(|f| est_a(f).abs_diff(est_b(f)) > DELTA_C)
        .collect()
}

/// Linear counting over an integer counter slice.
fn linear_count_slice(counters_zero: usize, total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    if counters_zero == 0 {
        let w = total as f64;
        return w * (2.0 * w).ln();
    }
    -(total as f64) * (counters_zero as f64 / total as f64).ln()
}

// ---------------------------------------------------------------------
// Tower + Fermat (the paper's combination, §C configuration)
// ---------------------------------------------------------------------
fn tower_fermat(mem: usize, streams: [&[u32]; 2], truths: [&Truth; 2]) -> TaskScores {
    // §C: Fermat gets 2500 buckets (99.9% decode success at these loads),
    // Tower gets the rest.
    let fermat_buckets_total = 2_500usize;
    let fermat_bytes = fermat_buckets_total * 8;
    let run = |stream: &[u32], seed: u64| {
        let mut tower = TowerSketch::new(&TowerConfig::sized(mem - fermat_bytes, seed));
        let mut fermat =
            FermatSketch::<u32>::new(FermatConfig::standard(fermat_buckets_total / 3, seed ^ 1));
        for f in stream {
            if tower.insert_and_query(*f as u64) >= TH {
                fermat.insert(f);
            }
        }
        let flowset = fermat.decode();
        (tower, flowset)
    };
    let (tower_a, hh_a) = run(streams[0], 11);
    let (tower_b, hh_b) = run(streams[1], 11);

    let est = |tower: &TowerSketch, hh: &chm_fermat::DecodeResult<u32>, f: &u32| -> u64 {
        match hh.flows.get(f) {
            Some(&q) => TH + q.max(0) as u64,
            None => tower.query_clamped(*f as u64),
        }
    };
    let est_a = |f: &u32| est(&tower_a, &hh_a, f);
    let est_b = |f: &u32| est(&tower_b, &hh_b, f);

    let reported_hh: Vec<u32> = hh_a
        .flows
        .iter()
        .filter(|(_, &q)| TH + q.max(0) as u64 > DELTA_H)
        .map(|(&f, _)| f)
        .collect();
    let cand = |hh: &chm_fermat::DecodeResult<u32>| -> Vec<(u32, u64)> {
        hh.flows.iter().map(|(&f, &q)| (f, TH + q.max(0) as u64)).collect()
    };

    let tails: Vec<u64> = hh_a.flows.values().map(|&q| TH + q.max(0) as u64).collect();
    let dist = tower_a.flow_size_distribution(&tails, &MracConfig::default());

    TaskScores {
        hh_f1: Some(f1_of(reported_hh, &truths[0].hh)),
        size_are: Some(score_sizes(truths[0], est_a)),
        hc_f1: Some(f1_of(
            changes_from(cand(&hh_a), cand(&hh_b), est_a, est_b),
            &truth_changes(truths[0], truths[1]),
        )),
        dist_wmre: Some(wmre(&truths[0].dist, &dist)),
        entropy_re: Some(relative_error(truths[0].entropy, size_entropy(&dist))),
        card_re: Some(relative_error(truths[0].cardinality, tower_a.cardinality_estimate())),
    }
}

// ---------------------------------------------------------------------
// Baselines
// ---------------------------------------------------------------------
fn run_two<S>(mut make: impl FnMut(u64) -> S, streams: [&[u32]; 2]) -> (S, S)
where
    S: AccumulationSketch<u32>,
{
    let mut a = make(21);
    let mut b = make(21);
    for f in streams[0] {
        a.insert(f);
    }
    for f in streams[1] {
        b.insert(f);
    }
    (a, b)
}

fn generic_scores<S: AccumulationSketch<u32>>(
    a: &S,
    b: &S,
    truths: [&Truth; 2],
    supports_hh: bool,
    supports_hc: bool,
) -> TaskScores {
    TaskScores {
        hh_f1: supports_hh.then(|| {
            f1_of(
                a.heavy_candidates(DELTA_H + 1).into_iter().map(|(f, _)| f).collect(),
                &truths[0].hh,
            )
        }),
        size_are: Some(score_sizes(truths[0], |f| a.estimate(f))),
        hc_f1: supports_hc.then(|| {
            f1_of(
                changes_from(
                    a.heavy_candidates(DELTA_C),
                    b.heavy_candidates(DELTA_C),
                    |f| a.estimate(f),
                    |f| b.estimate(f),
                ),
                &truth_changes(truths[0], truths[1]),
            )
        }),
        ..Default::default()
    }
}

/// MRAC standalone: one 8-bit counter array + EM (panels d, e).
fn mrac_standalone(mem: usize, stream: &[u32], truth: &Truth) -> TaskScores {
    let w = mem; // 8-bit counters: one byte each
    let mut counters = vec![0u8; w.max(16)];
    let hash = chm_common::hash::PairwiseHash::from_seed(31);
    for f in stream {
        let j = hash.index(*f as u64, counters.len());
        counters[j] = counters[j].saturating_add(1);
    }
    let vmax = counters.iter().copied().max().unwrap_or(0) as usize;
    let mut hist = vec![0.0; vmax + 1];
    for &c in &counters {
        hist[c as usize] += 1.0;
    }
    let dist = mrac_em(&hist, counters.len(), &MracConfig::default());
    TaskScores {
        dist_wmre: Some(wmre(&truth.dist, &dist)),
        entropy_re: Some(relative_error(truth.entropy, size_entropy(&dist))),
        ..Default::default()
    }
}

/// Elastic's distribution/entropy/cardinality via its light part + heavy
/// entries (panels d, e, f in the paper include Elastic).
fn elastic_extras(e: &ElasticSketch<u32>, truth: &Truth, scores: &mut TaskScores) {
    // Build a histogram from heavy entries + a light-part MRAC.
    let light = e.light_counters();
    let vmax = light.iter().copied().max().unwrap_or(0) as usize;
    let mut hist = vec![0.0; vmax + 1];
    for &c in light {
        hist[c as usize] += 1.0;
    }
    let mut dist = mrac_em(&hist, light.len(), &MracConfig::default());
    for (_, count, _) in e.heavy_entries() {
        let s = count as usize;
        if s >= dist.len() {
            dist.resize(s + 1, 0.0);
        }
        dist[s] += 1.0;
    }
    let zero = light.iter().filter(|&&c| c == 0).count();
    let card = linear_count_slice(zero, light.len())
        + e.heavy_entries().count() as f64;
    scores.dist_wmre = Some(wmre(&truth.dist, &dist));
    scores.entropy_re = Some(relative_error(truth.entropy, size_entropy(&dist)));
    scores.card_re = Some(relative_error(truth.cardinality, card));
}

/// FCM's distribution/entropy/cardinality via its base counter level.
fn fcm_extras(s: &FcmSketch<u32>, truth: &Truth, scores: &mut TaskScores) {
    let base = s.base_level(0);
    let vmax = base.iter().copied().max().unwrap_or(0) as usize;
    let mut hist = vec![0.0; (vmax).min(255) + 1];
    for &c in base {
        hist[(c as usize).min(255).min(vmax)] += 1.0;
    }
    let mut dist = mrac_em(&hist, base.len(), &MracConfig::default());
    for (_, count) in s.heavy_entries() {
        let c = count as usize;
        if c >= dist.len() {
            dist.resize(c + 1, 0.0);
        }
        dist[c] += 1.0;
    }
    let zero = base.iter().filter(|&&c| c == 0).count();
    let card = linear_count_slice(zero, base.len()) + s.heavy_entries().count() as f64;
    scores.dist_wmre = Some(wmre(&truth.dist, &dist));
    scores.entropy_re = Some(relative_error(truth.entropy, size_entropy(&dist)));
    scores.card_re = Some(relative_error(truth.cardinality, card));
}

/// Runs every algorithm at one memory size over two epochs.
fn run_all(mem: usize, streams: [&[u32]; 2], truths: [&Truth; 2]) -> Vec<(&'static str, TaskScores)> {
    let mut out = Vec::new();

    out.push(("Tower+Fermat", tower_fermat(mem, streams, truths)));

    let (a, b) = run_two(|s| FcmSketch::<u32>::new(mem, s), streams);
    let mut sc = generic_scores(&a, &b, truths, true, true);
    fcm_extras(&a, truths[0], &mut sc);
    out.push(("FCM", sc));

    let (a, b) = run_two(|s| UnivMon::<u32>::new(mem, s), streams);
    let mut sc = generic_scores(&a, &b, truths, true, true);
    sc.entropy_re = Some(relative_error(truths[0].entropy, a.entropy()));
    sc.card_re = Some(relative_error(truths[0].cardinality, a.cardinality()));
    sc.size_are = None; // the paper's panel (b) excludes UnivMon
    out.push(("UnivMon", sc));

    let (a, b) = run_two(|s| CountHeap::<u32>::new(mem, 4096, s), streams);
    let mut sc = generic_scores(&a, &b, truths, true, true);
    sc.size_are = None; // CountHeap appears in panels (a) and (c) only
    out.push(("CountHeap", sc));

    let (a, b) = run_two(|s| ElasticSketch::<u32>::new(mem, s), streams);
    let mut sc = generic_scores(&a, &b, truths, true, true);
    elastic_extras(&a, truths[0], &mut sc);
    out.push(("Elastic", sc));

    let (a, b) = run_two(|s| HashPipe::<u32>::new(mem, s), streams);
    let mut sc = generic_scores(&a, &b, truths, true, false);
    sc.size_are = None; // HashPipe appears in panel (a) only
    out.push(("HashPipe", sc));

    let (a, b) = run_two(|s| CocoSketch::<u32>::new(mem, s), streams);
    let sc = generic_scores(&a, &b, truths, true, true);
    out.push(("Coco", sc));

    let (a, b) = run_two(|s| CmSketch::new(mem, s), streams);
    let sc = generic_scores(&a, &b, truths, false, false);
    out.push(("CM", sc));

    let (a, b) = run_two(|s| CuSketch::new(mem, s), streams);
    let sc = generic_scores(&a, &b, truths, false, false);
    out.push(("CU", sc));

    out.push(("MRAC", mrac_standalone(mem, streams[0], truths[0])));

    out
}

/// Runs all six panels at 200–600 KB.
pub fn fig11(scale: usize) -> Vec<Table> {
    // Appendix C: traces of ~63K flows / ~2.3M packets.
    let n_flows = 63_000 / scale;
    let trace_a = caida_like_trace(n_flows, 0x11a);
    // Epoch B: same flow-ID universe, resampled sizes (what adjacent CAIDA
    // epochs look like: mostly stable, tails move).
    let trace_b = caida_like_trace(n_flows, 0x11b);
    let truth_a = Truth::of(&trace_a);
    let truth_b = Truth::of(&trace_b);
    let stream_a = trace_a.packet_stream(1);
    let stream_b = trace_b.packet_stream(2);

    type PanelGetter = fn(&TaskScores) -> Option<f64>;
    let panels: [(&str, &str, PanelGetter); 6] = [
        ("fig11a", "Figure 11(a): heavy hitters (F1)", |s| s.hh_f1),
        ("fig11b", "Figure 11(b): flow size (ARE)", |s| s.size_are),
        ("fig11c", "Figure 11(c): heavy changes (F1)", |s| s.hc_f1),
        ("fig11d", "Figure 11(d): size distribution (WMRE)", |s| s.dist_wmre),
        ("fig11e", "Figure 11(e): entropy (RE)", |s| s.entropy_re),
        ("fig11f", "Figure 11(f): cardinality (RE)", |s| s.card_re),
    ];

    // Collect scores for every memory size first; memory sizes are
    // independent and fan out over the parallel executor.
    let mems: Vec<usize> = (2..=6).map(|k| k * 100 * 1024).collect();
    let all: Vec<(usize, Vec<(&'static str, TaskScores)>)> =
        crate::parallel::run_trials(mems.len(), |i| {
            let mem = mems[i];
            (
                mem,
                run_all(mem, [&stream_a, &stream_b], [&truth_a, &truth_b]),
            )
        });

    let names: Vec<&'static str> = all[0].1.iter().map(|&(n, _)| n).collect();
    panels
        .into_iter()
        .map(|(id, title, get)| {
            // Columns: only algorithms that support this task.
            let active: Vec<usize> = (0..names.len())
                .filter(|&i| all.iter().any(|(_, row)| get(&row[i].1).is_some()))
                .collect();
            let mut cols = vec!["mem_KB"];
            for &i in &active {
                cols.push(names[i]);
            }
            let mut t = Table::new(id, title, &cols);
            for (mem, row) in &all {
                let mut r = vec![*mem as f64 / 1024.0];
                for &i in &active {
                    r.push(get(&row[i].1).unwrap_or(f64::NAN));
                }
                t.push(r);
            }
            t
        })
        .collect()
}
