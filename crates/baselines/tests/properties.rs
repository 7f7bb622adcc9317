//! Property-based tests of baseline-sketch invariants: estimator bounds
//! (CM/CU never underestimate; HashPipe never overestimates), loss-detector
//! exactness when adequately sized, and XOR-structure self-inverses.

use chm_baselines::{
    AccumulationSketch, CmSketch, CocoSketch, CountHeap, CountSketch, CuSketch, ElasticSketch,
    FcmSketch, FlowRadar, HashPipe, LossDetector, LossRadar, UnivMon,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// CM and CU are one-sided overestimators; CU ≤ CM pointwise.
    #[test]
    fn cm_cu_bounds(stream in vec(0u32..500, 1..2000), seed in any::<u64>()) {
        let mut cm = CmSketch::new(4096, seed);
        let mut cu = CuSketch::new(4096, seed);
        let mut truth: HashMap<u32, u64> = HashMap::new();
        for f in &stream {
            AccumulationSketch::<u32>::insert(&mut cm, f);
            AccumulationSketch::<u32>::insert(&mut cu, f);
            *truth.entry(*f).or_insert(0) += 1;
        }
        for (f, &v) in &truth {
            let ecm = AccumulationSketch::<u32>::estimate(&cm, f);
            let ecu = AccumulationSketch::<u32>::estimate(&cu, f);
            prop_assert!(ecm >= v);
            prop_assert!(ecu >= v);
            prop_assert!(ecu <= ecm, "CU {} must not exceed CM {}", ecu, ecm);
        }
    }

    /// HashPipe never overestimates any flow.
    #[test]
    fn hashpipe_one_sided(stream in vec(0u32..300, 1..1500), seed in any::<u64>()) {
        let mut hp = HashPipe::<u32>::new(2048, seed);
        let mut truth: HashMap<u32, u64> = HashMap::new();
        for f in &stream {
            hp.insert(f);
            *truth.entry(*f).or_insert(0) += 1;
        }
        for (f, &v) in &truth {
            prop_assert!(hp.estimate(f) <= v);
        }
    }

    /// CocoSketch conserves total packet mass across its buckets.
    #[test]
    fn coco_mass_conserved(stream in vec(any::<u32>(), 1..1000), seed in any::<u64>()) {
        let mut coco = CocoSketch::<u32>::new(1024, seed);
        for f in &stream {
            coco.insert(f);
        }
        let total: u64 = coco.entries().map(|(_, c)| c).sum();
        prop_assert_eq!(total, stream.len() as u64);
    }

    /// FlowRadar with generous memory decodes losses exactly, whatever the
    /// loss pattern.
    #[test]
    fn flowradar_exact_when_sized(
        specs in vec((1u64..20, 0u64..5), 1..150),
        seed in any::<u64>(),
    ) {
        let mut fr = FlowRadar::<u32>::new(64 * 1024, seed);
        let mut expected: HashMap<u32, u64> = HashMap::new();
        for (i, &(pkts, lost_raw)) in specs.iter().enumerate() {
            let f = i as u32;
            let lost = lost_raw.min(pkts);
            for s in 0..pkts {
                fr.observe_upstream(&f, s as u32);
                if s >= lost {
                    fr.observe_downstream(&f, s as u32);
                }
            }
            if lost > 0 {
                expected.insert(f, lost);
            }
        }
        prop_assert_eq!(fr.decode_losses(), Some(expected));
    }

    /// LossRadar likewise, with memory proportional to lost packets.
    #[test]
    fn lossradar_exact_when_sized(
        specs in vec((1u64..20, 0u64..5), 1..100),
        seed in any::<u64>(),
    ) {
        let total_lost: u64 = specs.iter().map(|&(p, l)| l.min(p)).sum();
        let mem = ((total_lost + 8) * 10 * 4) as usize;
        let mut lr = LossRadar::<u32>::new(mem, seed);
        let mut expected: HashMap<u32, u64> = HashMap::new();
        for (i, &(pkts, lost_raw)) in specs.iter().enumerate() {
            let f = i as u32;
            let lost = lost_raw.min(pkts);
            for s in 0..pkts {
                lr.observe_upstream(&f, s as u32);
                if s >= lost {
                    lr.observe_downstream(&f, s as u32);
                }
            }
            if lost > 0 {
                expected.insert(f, lost);
            }
        }
        prop_assert_eq!(lr.decode_losses(), Some(expected));
    }

    /// A loss-free network always decodes to the empty victim set, however
    /// tiny the detector (the delta is identically zero).
    #[test]
    fn no_loss_always_empty(
        flows in vec((any::<u32>(), 1u64..30), 1..200),
        seed in any::<u64>(),
        mem in 64usize..1024,
    ) {
        let mut lr = LossRadar::<u32>::new(mem, seed);
        for &(f, pkts) in &flows {
            for s in 0..pkts as u32 {
                lr.observe_upstream(&f, s);
                lr.observe_downstream(&f, s);
            }
        }
        prop_assert_eq!(lr.decode_losses(), Some(HashMap::new()));
    }
}

/// Feeds `stream` to two instances of `S` built alike and checks that their
/// heavy candidates are one `Vec`, largest estimate first, ties toward the
/// smaller flow.
fn check_one_vec<S: AccumulationSketch<u32>>(name: &str, build: impl Fn() -> S, stream: &[u32]) {
    let feed = || {
        let mut s = build();
        for f in stream {
            s.insert(f);
        }
        s.heavy_candidates(1)
    };
    let (a, b) = (feed(), feed());
    assert_eq!(a, b, "{name}: two instances, one stream");
    assert!(
        a.windows(2)
            .all(|w| (std::cmp::Reverse(w[0].1), w[0].0) <= (std::cmp::Reverse(w[1].1), w[1].0)),
        "{name}: largest estimate first, ties toward the smaller flow: {a:?}"
    );
}

/// Every accumulation sketch's heavy candidates are a function of the
/// stream, compared as `Vec`s, not sets. The stream has many equal-sized
/// flows, so ties are everywhere; the hash-map heaps (CountHeap, UnivMon,
/// HashPipe's merged entries) iterate in a different order in every
/// instance.
#[test]
fn heavy_candidates_are_one_vec_per_stream() {
    // 40 flows of 60 packets and 300 of 8, interleaved.
    let mut stream: Vec<u32> = Vec::new();
    for round in 0..60u32 {
        stream.extend(0..40u32);
        if round < 8 {
            stream.extend(1_000..1_300u32);
        }
    }
    const MEM: usize = 16 * 1024;
    check_one_vec("CM", || CmSketch::new(MEM, 3), &stream);
    check_one_vec("CU", || CuSketch::new(MEM, 3), &stream);
    check_one_vec("CountSketch", || CountSketch::new(MEM, 3), &stream);
    check_one_vec("CountHeap", || CountHeap::<u32>::new(MEM, 64, 3), &stream);
    check_one_vec("UnivMon", || UnivMon::<u32>::new(64 * 1024, 3), &stream);
    check_one_vec("Elastic", || ElasticSketch::<u32>::new(MEM, 3), &stream);
    check_one_vec("FCM", || FcmSketch::<u32>::new(MEM, 3), &stream);
    check_one_vec("HashPipe", || HashPipe::<u32>::new(MEM, 3), &stream);
    check_one_vec("Coco", || CocoSketch::<u32>::new(MEM, 3), &stream);
}
