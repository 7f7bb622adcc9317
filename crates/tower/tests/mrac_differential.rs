//! The sparse MRAC core against the dense formulation it replaced, bit for
//! bit: `dense_mrac_em` below is the previous `mrac_em` body (one slot per
//! counter value up to the level's saturation value), kept as the oracle, and
//! `dense_flow_size_distribution` is the previous per-level composition.

use chm_common::FlowId;
use chm_tower::{mrac_em, MracConfig, MracScratch, TowerConfig, TowerLevel, TowerSketch};
use chm_workloads::{testbed_trace, WorkloadKind};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The dense EM: every vector is `counter_hist.len()` long and every
/// iteration walks all of it.
fn dense_mrac_em(counter_hist: &[f64], m: usize, cfg: &MracConfig) -> Vec<f64> {
    let vmax = counter_hist.len().saturating_sub(1);
    if vmax == 0 || m == 0 {
        return vec![0.0];
    }
    let mut n: Vec<f64> = counter_hist.to_vec();
    n[0] = 0.0;
    let mut contrib = vec![0.0; vmax + 1];
    for _ in 0..cfg.iterations {
        let lambda: Vec<f64> = n.iter().map(|&c| c / m as f64).collect();
        let mut next = vec![0.0; vmax + 1];
        for v in 1..=vmax {
            let observed = counter_hist[v];
            if observed == 0.0 {
                continue;
            }
            let parts = if v <= cfg.three_part_limit {
                cfg.max_parts
            } else {
                cfg.max_parts.min(2)
            };
            let mut total_w = 0.0;
            if lambda[v] > 0.0 {
                total_w += lambda[v];
                contrib[v] += lambda[v];
            }
            if parts >= 2 {
                for s2 in 1..=v / 2 {
                    let s1 = v - s2;
                    let w = if s1 == s2 {
                        lambda[s1] * lambda[s2] / 2.0
                    } else {
                        lambda[s1] * lambda[s2]
                    };
                    if w > 0.0 {
                        total_w += w;
                        contrib[s1] += w;
                        contrib[s2] += w;
                    }
                }
            }
            if parts >= 3 {
                for s3 in 1..=v / 3 {
                    for s2 in s3..=(v - s3) / 2 {
                        let s1 = v - s2 - s3;
                        if s1 < s2 {
                            break;
                        }
                        let raw = lambda[s1] * lambda[s2] * lambda[s3];
                        if raw <= 0.0 {
                            continue;
                        }
                        let w = if s1 == s2 && s2 == s3 {
                            raw / 6.0
                        } else if s1 == s2 || s2 == s3 {
                            raw / 2.0
                        } else {
                            raw
                        };
                        total_w += w;
                        contrib[s1] += w;
                        contrib[s2] += w;
                        contrib[s3] += w;
                    }
                }
            }
            if total_w > 0.0 {
                let scale = observed / total_w;
                for s in 1..=v {
                    if contrib[s] > 0.0 {
                        next[s] += contrib[s] * scale;
                    }
                }
            } else {
                next[v] += observed;
            }
            for c in contrib[1..=v].iter_mut() {
                *c = 0.0;
            }
        }
        n = next;
    }
    n
}

/// The dense composition: a saturation-sized histogram and estimate per
/// level, copied over the level's size range, then the HH tail.
fn dense_flow_size_distribution(t: &TowerSketch, tail: &[u64], em: &MracConfig) -> Vec<f64> {
    let levels = &t.config().levels;
    let top_sat = levels.last().unwrap().saturation() as usize;
    let max_size = tail.iter().map(|&s| s as usize).max().unwrap_or(0).max(top_sat);
    let mut dist = vec![0.0; max_size + 1];
    let mut prev_bound = 1usize;
    for (i, level) in levels.iter().enumerate() {
        let est = dense_mrac_em(&t.level_histogram(i), level.width, em);
        let upper = level.saturation() as usize;
        for (s, v) in est.iter().enumerate().take(upper).skip(prev_bound) {
            dist[s] += v;
        }
        prev_bound = upper;
    }
    for &s in tail {
        let s = s as usize;
        if s >= prev_bound && s < dist.len() {
            dist[s] += 1.0;
        }
    }
    dist
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `got` is the dense composition up to the end of the estimate: bit-equal
/// to the oracle's prefix of its length, and the oracle all zeros past it.
/// The dense composition is as long as the top saturation value or the
/// largest tail size; the distribution ends where its estimate ends.
fn assert_dense_prefix(got: &[f64], want: &[f64], what: &str) {
    assert!(got.len() <= want.len(), "{what}: {} slots past the dense {}", got.len(), want.len());
    assert_eq!(bits(got), bits(&want[..got.len()]), "{what}");
    let past = want[got.len()..].iter().position(|&x| x != 0.0);
    assert_eq!(past, None, "{what}: the oracle has mass past the estimate's end");
}

fn presets() -> [(&'static str, MracConfig); 2] {
    [("realtime", MracConfig::realtime()), ("default", MracConfig::default())]
}

/// A seeded sketch with its HH tail. The case number picks the geometry and
/// which edge the case sits on; the rest is drawn from the seed.
fn seeded_case(case: u64) -> (TowerSketch, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(0x3ac0 + case);
    let levels = match case % 4 {
        // Heavy collisions on the narrow level: the 3-part path (values
        // ≤ 96) and the 2-part path above it both carry weight.
        0 => vec![TowerLevel { width: 96, bits: 8 }, TowerLevel { width: 48, bits: 16 }],
        1 => vec![TowerLevel { width: 2048, bits: 8 }, TowerLevel { width: 1024, bits: 16 }],
        // Three levels; the 4-bit one saturates on almost every flow.
        2 => vec![
            TowerLevel { width: 512, bits: 4 },
            TowerLevel { width: 256, bits: 8 },
            TowerLevel { width: 128, bits: 16 },
        ],
        _ => vec![TowerLevel { width: 300, bits: 16 }],
    };
    let top_sat = levels.last().unwrap().saturation();
    let mut t = TowerSketch::new(TowerConfig { levels, seed: rng.gen() });
    // Cases 36.. stay empty: every level's histogram is all zeros.
    let flows = if case >= 36 { 0 } else { rng.gen_range(1..700usize) };
    for _ in 0..flows {
        let key: u64 = rng.gen();
        // Mice mostly, a mid range, and a few elephants.
        let size = match rng.gen_range(0..100u32) {
            0..=69 => rng.gen_range(1..6u64),
            70..=94 => rng.gen_range(6..400),
            _ => rng.gen_range(400..9_000),
        };
        t.insert_burst(key, size, 1, 1);
    }
    // Every fifth case pins top-level counters at the saturation value.
    if case.is_multiple_of(5) && case < 36 {
        for _ in 0..3 {
            t.insert_burst(rng.gen(), top_sat + rng.gen_range(0..500u64), 1, 1);
        }
    }
    // Tails: none, below top saturation only (all dropped), above only,
    // and mixed with repeats.
    let tail: Vec<u64> = match case % 4 {
        0 => Vec::new(),
        1 => (0..5).map(|_| rng.gen_range(1..top_sat)).collect(),
        2 => (0..8).map(|_| top_sat + rng.gen_range(0..4_000u64)).collect(),
        _ => {
            let mut v: Vec<u64> = (0..6).map(|_| rng.gen_range(top_sat - 50..top_sat + 50)).collect();
            v.push(v[0]);
            v.push(top_sat);
            v
        }
    };
    (t, tail)
}

const CASES: u64 = 44;

#[test]
fn mrac_em_matches_dense_oracle_on_every_level() {
    let mut saturated = 0;
    let mut empty = 0;
    for case in 0..CASES {
        let (t, _) = seeded_case(case);
        for (i, level) in t.config().levels.iter().enumerate() {
            let hist = t.level_histogram(i);
            saturated += usize::from(i + 1 == t.config().levels.len() && hist[hist.len() - 1] > 0.0);
            empty += usize::from(hist[1..].iter().all(|&c| c == 0.0));
            for (name, cfg) in presets() {
                let got = mrac_em(&hist, level.width, &cfg);
                let want = dense_mrac_em(&hist, level.width, &cfg);
                assert_eq!(got.len(), want.len(), "case {case} level {i} {name}");
                assert_eq!(bits(&got), bits(&want), "case {case} level {i} {name}");
            }
        }
    }
    // The generator must actually reach the edges the test is named for.
    assert!(saturated >= 5, "only {saturated} cases saturate the top level");
    assert!(empty >= 8, "only {empty} empty levels");
}

#[test]
fn flow_size_distribution_matches_dense_composition() {
    for case in 0..CASES {
        let (t, tail) = seeded_case(case);
        for (name, cfg) in presets() {
            let got = t.flow_size_distribution(&tail, &cfg);
            let want = dense_flow_size_distribution(&t, &tail, &cfg);
            assert_dense_prefix(&got, &want, &format!("case {case} {name}"));
        }
    }
}

/// The path the controller runs every epoch, at the scale it runs it: four
/// edge sketches of the testbed geometry sharing a 50 k-flow trace, so each
/// 16-bit level holds a few hundred distinct values and tens of thousands
/// of two-part splits — far past the widths of the seeded cases above.
#[test]
fn paper_scale_edges_match_dense_composition() {
    let trace = testbed_trace(WorkloadKind::Dctcp, 50_000, 8, 0x3ac2);
    let mut edges: Vec<TowerSketch> =
        (0..4).map(|e| TowerSketch::new(TowerConfig::paper_default(0x3ac3 + e))).collect();
    let mut tails: Vec<Vec<u64>> = vec![Vec::new(); edges.len()];
    for (i, &(flow, pkts)) in trace.flows.iter().enumerate() {
        let e = i % edges.len();
        edges[e].insert_burst(flow.key64(), pkts, 1, 1);
        // The heavy flows stand in for the HH flowset the controller decodes.
        if pkts >= 250 {
            tails[e].push(pkts);
        }
    }
    for (e, (t, tail)) in edges.iter().zip(&tails).enumerate() {
        let top = t.config().levels.len() - 1;
        let distinct = t.level_histogram(top)[1..].iter().filter(|&&c| c > 0.0).count();
        assert!(distinct >= 200, "edge {e}: only {distinct} distinct 16-bit values");
        for (name, cfg) in presets() {
            let got = t.flow_size_distribution(tail, &cfg);
            let want = dense_flow_size_distribution(t, tail, &cfg);
            assert_dense_prefix(&got, &want, &format!("edge {e} {name}"));
        }
    }
}

#[test]
fn three_part_limit_boundary_and_fractional_counts() {
    // Histograms the sketches above never produce: fractional counts, and
    // supports straddling `three_part_limit` for several limits.
    let mut rng = StdRng::seed_from_u64(0x3ac1);
    for case in 0..40 {
        let len = rng.gen_range(2..260usize);
        let mut hist = vec![0.0; len];
        hist[0] = rng.gen_range(0..500u32) as f64;
        for h in hist.iter_mut().skip(1) {
            if rng.gen_bool(0.3) {
                *h = rng.gen_range(1..2_000u32) as f64 / 8.0;
            }
        }
        let m = rng.gen_range(1..4_000usize);
        for limit in [0, 1, 7, 96, 1_000] {
            for max_parts in 1..=3 {
                let cfg = MracConfig { iterations: 5, max_parts, three_part_limit: limit };
                assert_eq!(
                    bits(&mrac_em(&hist, m, &cfg)),
                    bits(&dense_mrac_em(&hist, m, &cfg)),
                    "case {case} limit {limit} parts {max_parts}"
                );
            }
        }
    }
}

#[test]
fn degenerate_inputs_match_dense_oracle() {
    for (name, cfg) in presets() {
        for (hist, m) in [
            (vec![], 10usize),
            (vec![0.0], 10),
            (vec![7.0], 10),
            (vec![5.0, 1.0], 0),
            (vec![5.0, 0.0, 0.0], 8),
            (vec![0.0, 3.0], 3),
        ] {
            assert_eq!(
                bits(&mrac_em(&hist, m, &cfg)),
                bits(&dense_mrac_em(&hist, m, &cfg)),
                "{name} {hist:?} m={m}"
            );
        }
        let zero_iterations = MracConfig { iterations: 0, ..cfg };
        let hist = [4.0, 2.0, 0.0, 1.0];
        assert_eq!(
            bits(&mrac_em(&hist, 7, &zero_iterations)),
            bits(&dense_mrac_em(&hist, 7, &zero_iterations)),
            "{name} zero iterations"
        );
    }
}

fn loaded_tower(seed: u64, stream: &[(u64, u64)]) -> TowerSketch {
    let mut t = TowerSketch::new(TowerConfig {
        levels: vec![TowerLevel { width: 128, bits: 8 }, TowerLevel { width: 64, bits: 16 }],
        seed,
    });
    for &(key, size) in stream {
        t.insert_burst(key, size, 1, 1);
    }
    t
}

/// One sketch of a proptest case: hash seed, `(key, packets)` bursts, HH tail.
type SketchInput = (u64, Vec<(u64, u64)>, Vec<u64>);

fn sketch_inputs() -> impl Strategy<Value = Vec<SketchInput>> {
    let stream = vec((any::<u64>(), 1u64..3_000), 0..120);
    let tail = vec(65_000u64..70_000, 0..6);
    vec((any::<u64>(), stream, tail), 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Accumulating N sketches through `_into` on one scratch is the
    /// element-wise sum of N `flow_size_distribution` calls, in order — and
    /// so is staging all N and adding them once, the controller's path.
    #[test]
    fn into_accumulates_the_elementwise_sum(inputs in sketch_inputs(), realtime in any::<bool>()) {
        let cfg = if realtime { MracConfig::realtime() } else { MracConfig::default() };
        let mut scratch = MracScratch::default();
        let mut staging = MracScratch::default();
        let mut got: Vec<f64> = Vec::new();
        let mut want: Vec<f64> = Vec::new();
        for (seed, stream, tail) in &inputs {
            let t = loaded_tower(*seed, stream);
            t.flow_size_distribution_into(tail, &cfg, &mut scratch, &mut got);
            t.stage_flow_sizes(tail, &cfg, &mut staging);
            let dist = t.flow_size_distribution(tail, &cfg);
            if dist.len() > want.len() {
                want.resize(dist.len(), 0.0);
            }
            for (w, d) in want.iter_mut().zip(&dist) {
                *w += d;
            }
        }
        let mut staged = Vec::new();
        staging.add_staged_into(&mut staged);
        prop_assert_eq!(bits(&got), bits(&want));
        prop_assert_eq!(bits(&staged), bits(&want));
    }

    /// Nothing of one call survives in the scratch: a second sketch run on a
    /// used scratch reads exactly as on a fresh one.
    #[test]
    fn scratch_carries_no_state(inputs in sketch_inputs(), realtime in any::<bool>()) {
        let cfg = if realtime { MracConfig::realtime() } else { MracConfig::default() };
        let mut shared = MracScratch::default();
        for (seed, stream, tail) in &inputs {
            let t = loaded_tower(*seed, stream);
            let mut reused = Vec::new();
            t.flow_size_distribution_into(tail, &cfg, &mut shared, &mut reused);
            let mut fresh = Vec::new();
            t.flow_size_distribution_into(tail, &cfg, &mut MracScratch::default(), &mut fresh);
            prop_assert_eq!(bits(&reused), bits(&fresh));
        }
    }
}
