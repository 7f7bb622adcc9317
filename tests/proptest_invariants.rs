//! Property-based tests over the core data structures' invariants, using
//! proptest: FermatSketch encode/decode roundtrips, addition/subtraction
//! algebra, TowerSketch's no-underestimate guarantee, flow-ID fragmenting,
//! and the metric definitions.

use chm_common::flowid::{FiveTuple, FlowId, FRAGMENT_MAX};
use chm_common::metrics::{detection_score, wmre};
use chm_common::prime::{add_mod, inv_mod, mul_mod, pow_mod, sub_mod, MERSENNE_P};
use chm_fermat::{FermatConfig, FermatSketch};
use chm_tower::{TowerConfig, TowerLevel, TowerSketch};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Modular arithmetic over p = 2^61 − 1 forms a field on the tested ops.
    #[test]
    fn prime_field_axioms(a in 0..MERSENNE_P, b in 0..MERSENNE_P) {
        prop_assert_eq!(add_mod(a, b), add_mod(b, a));
        prop_assert_eq!(mul_mod(a, b), mul_mod(b, a));
        prop_assert_eq!(sub_mod(add_mod(a, b), b), a);
        if a != 0 {
            let inv = inv_mod(a).unwrap();
            prop_assert_eq!(mul_mod(a, inv), 1);
        }
        // Fermat's little theorem (the sketch's namesake).
        if a != 0 {
            prop_assert_eq!(pow_mod(a, MERSENNE_P - 1), 1);
        }
    }

    /// Bucket counts of either sign take `inv_mod`'s table (`k < 4096`) or,
    /// beyond it, the ladder; both sides of both edges equal `a^(p−2)`.
    #[test]
    fn inv_mod_table_equals_the_ladder_on_both_signs(k in 1u64..8192) {
        for a in [k, MERSENNE_P - k] {
            prop_assert_eq!(inv_mod(a), Some(pow_mod(a, MERSENNE_P - 2)));
        }
    }

    /// Every (flow set, weights) at sane load decodes to exactly itself.
    /// Decode *can* legitimately fail even at low load — two flows that
    /// collide in all `d` arrays leave no pure bucket (the 2-core of the
    /// hypergraph; probability (1/m)^{d-1} per pair) — so on failure we
    /// require that fresh hash functions recover the same exact multiset.
    #[test]
    fn fermat_roundtrip_exact(
        flows in vec((any::<u32>(), 1i64..500), 1..120),
        seed in any::<u64>(),
    ) {
        let mut truth: HashMap<u32, i64> = HashMap::new();
        for &(f, w) in &flows {
            *truth.entry(f).or_insert(0) += w;
        }
        let mut decoded = None;
        for attempt in 0..4u64 {
            // 120 flows max → 3×100 buckets = 2.5 buckets/flow: safe load.
            let mut s =
                FermatSketch::<u32>::new(FermatConfig::standard(100, seed ^ attempt));
            for &(f, w) in &flows {
                s.insert_weighted(&f, w);
            }
            let r = s.decode();
            if r.success {
                decoded = Some(r.flows);
                break;
            }
            // A failed decode must at least leave evidence of failure.
            prop_assert!(r.remaining_nonzero > 0);
        }
        let decoded = decoded.expect("decode failed under 4 independent hash families");
        prop_assert_eq!(decoded, truth);
    }

    /// add then subtract is the identity on sketch state.
    #[test]
    fn fermat_add_sub_inverse(
        flows_a in vec(any::<u32>(), 0..80),
        flows_b in vec(any::<u32>(), 0..80),
        seed in any::<u64>(),
    ) {
        let cfg = FermatConfig::standard(64, seed);
        let mut a = FermatSketch::<u32>::new(cfg);
        let mut b = FermatSketch::<u32>::new(cfg);
        for f in &flows_a { a.insert(f); }
        for f in &flows_b { b.insert(f); }
        let original = a.clone();
        a.add_assign_sketch(&b);
        a.sub_assign_sketch(&b);
        // Compare by decoding both (the internal representation is equal
        // too, but decode equality is the user-visible contract).
        let ra = a.decode();
        let ro = original.decode();
        prop_assert_eq!(ra.flows, ro.flows);
        prop_assert_eq!(ra.success, ro.success);
    }

    /// Upstream − downstream decodes exactly the difference multiset.
    #[test]
    fn fermat_difference_is_losses(
        sizes in vec(1u8..20, 10..60),
        loss_mask in vec(0u8..4, 10..60),
        seed in any::<u64>(),
    ) {
        let cfg = FermatConfig::standard(128, seed);
        let mut up = FermatSketch::<u32>::new(cfg);
        let mut down = FermatSketch::<u32>::new(cfg);
        let mut expected: HashMap<u32, i64> = HashMap::new();
        for (i, (&s, &m)) in sizes.iter().zip(&loss_mask).enumerate() {
            let f = i as u32;
            let total = s as i64;
            let lost = (m as i64).min(total);
            up.insert_weighted(&f, total);
            down.insert_weighted(&f, total - lost);
            if lost > 0 {
                expected.insert(f, lost);
            }
        }
        up.sub_assign_sketch(&down);
        let r = up.decode();
        prop_assert!(r.success);
        prop_assert_eq!(r.flows, expected);
    }

    /// TowerSketch never underestimates a flow below saturation.
    #[test]
    fn tower_no_underestimate(
        inserts in vec(0u64..200, 1..400),
    ) {
        let mut t = TowerSketch::new(TowerConfig {
            levels: vec![
                TowerLevel { width: 512, bits: 8 },
                TowerLevel { width: 256, bits: 16 },
            ],
            seed: 99,
        });
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &k in &inserts {
            t.insert_and_query(k);
            *truth.entry(k).or_insert(0) += 1;
        }
        for (&k, &v) in &truth {
            prop_assert!(t.query(k) >= v);
        }
    }

    /// FiveTuple fragment/reassemble is the identity, and fragments stay in
    /// lane range.
    #[test]
    fn five_tuple_fragments_roundtrip(
        src in any::<u32>(), dst in any::<u32>(),
        sp in any::<u16>(), dp in any::<u16>(), proto in any::<u8>(),
    ) {
        let t = FiveTuple { src_ip: src, dst_ip: dst, src_port: sp, dst_port: dp, proto };
        let frags: Vec<u64> = (0..FiveTuple::FRAGMENTS).map(|i| t.fragment(i)).collect();
        for &f in &frags {
            prop_assert!(f <= FRAGMENT_MAX);
        }
        prop_assert_eq!(FiveTuple::try_from_fragments(&frags), Some(t));
    }

    /// F1 is always within [0,1] and equals 1 iff sets match exactly
    /// (on non-empty truth).
    #[test]
    fn f1_bounds(reported in vec(0u32..50, 0..50), truth_v in vec(0u32..50, 1..50)) {
        let truth: std::collections::HashSet<u32> = truth_v.into_iter().collect();
        let reported_set: std::collections::HashSet<u32> =
            reported.iter().copied().collect();
        let s = detection_score(reported_set.iter().copied(), &truth);
        prop_assert!((0.0..=1.0).contains(&s.f1));
        if s.f1 == 1.0 {
            prop_assert_eq!(&reported_set, &truth);
        }
        if reported_set == truth {
            prop_assert!((s.f1 - 1.0).abs() < 1e-12);
        }
    }

    /// WMRE is symmetric and zero only for identical histograms.
    #[test]
    fn wmre_properties(a in vec(0.0f64..100.0, 1..20), b in vec(0.0f64..100.0, 1..20)) {
        let w_ab = wmre(&a, &b);
        let w_ba = wmre(&b, &a);
        prop_assert!((w_ab - w_ba).abs() < 1e-9);
        prop_assert!(w_ab >= 0.0);
        prop_assert!((wmre(&a, &a)).abs() < 1e-12);
    }
}

/// Fingerprints strictly reduce (or keep equal) the count of misjudged pure
/// buckets in an adversarially overloaded sketch — deterministic check on a
/// seeded ensemble rather than proptest (the property is statistical).
#[test]
fn fingerprints_never_hurt_decode() {
    let mut plain_successes = 0;
    let mut fp_successes = 0;
    for seed in 0..40u64 {
        let flows = 300;
        let buckets = (flows as f64 * 1.26 / 3.0).ceil() as usize;
        let mut plain = FermatSketch::<u32>::new(FermatConfig {
            arrays: 3,
            buckets_per_array: buckets,
            fingerprint_bits: 0,
            seed,
        });
        let mut fp = FermatSketch::<u32>::new(FermatConfig {
            arrays: 3,
            buckets_per_array: buckets,
            fingerprint_bits: 8,
            seed,
        });
        for i in 0..flows {
            let f = (seed as u32) * 10_000 + i;
            plain.insert(&f);
            fp.insert(&f);
        }
        if plain.decode().success {
            plain_successes += 1;
        }
        if fp.decode().success {
            fp_successes += 1;
        }
    }
    // With the same number of buckets, fingerprints can only help (§A.4,
    // Figure 10(a)).
    assert!(
        fp_successes >= plain_successes,
        "fp {fp_successes} < plain {plain_successes}"
    );
}

// ---------------------------------------------------------------------------
// Service-mode invariant: dropped reports never regress the deployed config.
// ---------------------------------------------------------------------------

use chm_serve::{FaultPlan, ServeConfig, ServeRuntime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The strict-growth control-plane invariant, end to end: under ANY
    /// prefix of dropped/paused reports, a blind epoch (controller
    /// analyzed nothing) never changes the deployed configuration — the
    /// controller holds what it has rather than resetting or thrashing.
    /// Losing telemetry must never *undo* a reconfiguration decision.
    #[test]
    fn dropped_report_prefixes_never_regress_deployed_config(
        seed in 0u64..1_000,
        report_loss in 0.0f64..1.0,
        pause in 0.0f64..0.6,
    ) {
        let scenario = chm_scenarios::Scenario::builder("prop_drop")
            .seed(seed)
            .flows(150)
            .build();
        let faults = FaultPlan {
            report_loss,
            pause,
            ..FaultPlan::none(seed)
        };
        let mut rt = ServeRuntime::new(ServeConfig::new(scenario, faults));
        let mut prev: Option<(usize, usize, usize, f64)> = None;
        for _ in 0..12 {
            let r = rt.step();
            let staged = (r.m_hh, r.m_hl, r.m_ll, r.sample_rate);
            if r.blind {
                if let Some(p) = prev {
                    prop_assert_eq!(
                        staged, p,
                        "blind epoch {} changed the deployed config", r.epoch
                    );
                }
            }
            prev = Some(staged);
        }
    }
}
