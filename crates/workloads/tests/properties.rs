//! Property-based tests of workload generation and loss planning.

use chm_common::hash::mix64;
use chm_common::FlowId;
use chm_workloads::distributions::{FlowSizeDistribution, WorkloadKind};
use chm_workloads::{
    caida_like_trace, testbed_trace, LossPlan, Trace, VictimDrift, VictimSelection,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// `realize_losses` as it was while a plan knew nothing of its trace: one
/// `victims.get` per flow of the trace, in trace order. Kept here as the
/// reference the row-visiting implementation is held to, entry for entry —
/// and so draw for draw: a draw taken for the wrong flow, or in the wrong
/// order, moves every count after it.
fn hash_walk_losses(plan: &LossPlan<u32>, trace: &Trace<u32>, seed: u64) -> Vec<(usize, u64)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut lost = Vec::new();
    for (i, &(f, pkts)) in trace.flows.iter().enumerate() {
        if pkts == 0 {
            continue;
        }
        if let Some(&p) = plan.victims.get(&f) {
            let dropped = (0..pkts).filter(|_| rng.gen_bool(p)).count() as u64;
            lost.push((i, dropped.max(1).min(pkts)));
        }
    }
    lost
}

/// Order-free digest of a plan's victim set: `(count, fold of sorted keys)`.
fn victim_digest<F: FlowId>(plan: &LossPlan<F>) -> (usize, u64) {
    let mut keys: Vec<u64> = plan.victims.keys().map(|f| f.key64()).collect();
    keys.sort_unstable();
    (keys.len(), keys.iter().fold(0, |d, &k| mix64(d ^ k)))
}

/// Selection still picks the victims it always has: carrying trace rows
/// through the shuffle / size sort / priority sort instead of flow IDs must
/// not move a single victim. Digests recorded at fb32bd7, where plans held
/// flow IDs only.
#[test]
fn selection_picks_the_recorded_victim_sets() {
    let caida = caida_like_trace(3_000, 0x5eed);
    let bed = testbed_trace(WorkloadKind::Dctcp, 2_000, 8, 0xbed);
    use VictimSelection::{LargestN, RandomN, RandomRatio};
    let built = [
        (LargestN(40), (40, 14579047574078786393), (40, 17528840987881205931)),
        (RandomRatio(0.07), (210, 16915194785193173310), (140, 15143993577846331932)),
        (RandomN(55), (55, 7710238728615154772), (55, 3969270633323343984)),
    ];
    for (sel, want_caida, want_bed) in built {
        let on_caida = LossPlan::build(&caida, sel, 0.1, 0xfeed);
        let on_bed = LossPlan::build(&bed, sel, 0.1, 0xfeed);
        assert_eq!(victim_digest(&on_caida), want_caida, "{sel:?}");
        assert_eq!(victim_digest(&on_bed), want_bed, "{sel:?}");
    }
    let drift = VictimDrift { frac: 0.3, seed: 0xd21f7 };
    let drifted = [
        (0u64, (150, 16112277458405220670), (64, 12314506813568411022)),
        (1, (150, 13297463214607797909), (64, 14212484471695738646)),
        (9, (150, 8358250430578915844), (64, 14355621365599889696)),
    ];
    for (epoch, want_caida, want_bed) in drifted {
        let on_caida = drift.plan(&caida, VictimSelection::RandomRatio(0.05), 0.1, epoch);
        let on_bed = drift.plan(&bed, VictimSelection::RandomN(64), 0.1, epoch);
        assert_eq!(victim_digest(&on_caida), want_caida, "drift epoch {epoch}");
        assert_eq!(victim_digest(&on_bed), want_bed, "drift epoch {epoch}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Traces have unique IDs, the requested flow count, and ≥1 packet per
    /// flow.
    #[test]
    fn trace_well_formed(n in 1usize..2000, seed in any::<u64>()) {
        let t = caida_like_trace(n, seed);
        prop_assert_eq!(t.num_flows(), n);
        let ids: std::collections::HashSet<u32> =
            t.flows.iter().map(|&(f, _)| f).collect();
        prop_assert_eq!(ids.len(), n);
        prop_assert!(t.flows.iter().all(|&(_, s)| s >= 1));
    }

    /// Quantile functions are monotone for every workload.
    #[test]
    fn quantiles_monotone(idx in 0usize..4, steps in 2usize..50) {
        let d = WorkloadKind::ALL[idx].distribution();
        let mut prev = 0u64;
        for i in 0..=steps {
            let q = d.quantile(i as f64 / steps as f64);
            prop_assert!(q >= prev);
            prev = q;
        }
    }

    /// Bounded Pareto samples stay within [1, max].
    #[test]
    fn pareto_in_range(alpha in 0.2f64..3.0, log_max in 4u32..22, seed in any::<u64>()) {
        use rand::SeedableRng;
        let max = 1u64 << log_max;
        let d = FlowSizeDistribution::bounded_pareto(alpha, max);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let s = d.sample(&mut rng);
            prop_assert!((1..=max).contains(&s));
        }
    }

    /// Loss plans: victims ⊆ trace flows; realized losses within flow sizes
    /// and ≥ 1 per victim.
    #[test]
    fn loss_plan_sound(
        n in 50usize..500,
        ratio in 0.01f64..0.5,
        rate in 0.005f64..0.9,
        seed in any::<u64>(),
    ) {
        let t = caida_like_trace(n, seed);
        let plan = LossPlan::build(&t, VictimSelection::RandomRatio(ratio), rate, seed ^ 1);
        let sizes = t.size_map();
        prop_assert!(plan.victims.keys().all(|f| sizes.contains_key(f)));
        let (delivered, lost) = plan.apply_to_trace(&t, seed ^ 2);
        prop_assert_eq!(lost.len(), plan.num_victims());
        for (f, &l) in &lost {
            prop_assert!(l >= 1 && l <= sizes[f]);
            prop_assert_eq!(delivered[f] + l, sizes[f]);
        }
        // Non-victims deliver everything.
        let total_delivered: u64 = delivered.values().sum();
        let total_lost: u64 = lost.values().sum();
        prop_assert_eq!(total_delivered + total_lost, t.total_packets());
    }

    /// `realize_losses` is the lost half of `apply_to_trace` (one RNG loop
    /// behind both) as a list by trace index — strictly ascending, naming
    /// only plan victims that sent something — and `delivered` is derived
    /// from it: every flow's delivered + lost is its packet count — for a
    /// built plan (with some flows idled, so some victims are) and for the
    /// empty plan, which realizes nothing.
    #[test]
    fn realize_losses_is_the_lost_half_of_apply_to_trace(
        n in 50usize..500,
        ratio in 0.01f64..0.5,
        rate in 0.005f64..0.9,
        seed in any::<u64>(),
    ) {
        let mut t = caida_like_trace(n, seed);
        let built = LossPlan::build(&t, VictimSelection::RandomRatio(ratio), rate, seed ^ 1);
        // Every seventh flow sends nothing this epoch.
        t.flows.iter_mut().step_by(7).for_each(|row| row.1 = 0);
        for plan in [built, LossPlan::none()] {
            let list = plan.realize_losses(&t, seed ^ 2);
            let (delivered, lost) = plan.apply_to_trace(&t, seed ^ 2);
            prop_assert!(list.windows(2).all(|w| w[0].0 < w[1].0), "ascending trace index");
            for &(i, l) in &list {
                let (f, pkts) = t.flows[i];
                prop_assert!(plan.victims.contains_key(&f) && pkts > 0 && l >= 1);
            }
            let folded: std::collections::HashMap<u32, u64> =
                list.iter().map(|&(i, l)| (t.flows[i].0, l)).collect();
            prop_assert_eq!(&folded, &lost);
            let active_victims =
                t.flows.iter().filter(|(f, pkts)| *pkts > 0 && plan.victims.contains_key(f)).count();
            prop_assert_eq!(lost.len(), active_victims);
            prop_assert_eq!(delivered.len(), t.num_flows());
            for &(f, pkts) in &t.flows {
                prop_assert_eq!(delivered[&f] + lost.get(&f).copied().unwrap_or(0), pkts);
            }
        }
    }

    /// `realize_losses` visits its victims by remembered row and must equal
    /// the per-flow hash walk it replaced, entry for entry: on the trace the
    /// plan was selected from (the rows hold), on reshaped copies of it (they
    /// miss, so the victims are located first), for an edited or hand-made
    /// plan (no usable rows) and for a plan whose victims the trace lacks.
    #[test]
    fn realize_losses_equals_the_per_flow_hash_walk(
        n in 50usize..400,
        k in 1usize..60,
        sel_idx in 0usize..4,
        rate in 0.005f64..0.9,
        seed in any::<u64>(),
    ) {
        let t = caida_like_trace(n, seed);
        let build = |sel| LossPlan::build(&t, sel, rate, seed ^ 1);
        let plan = match sel_idx {
            0 => build(VictimSelection::LargestN(k)),
            1 => build(VictimSelection::RandomRatio(k as f64 / 120.0)),
            2 => build(VictimSelection::RandomN(k)),
            _ => VictimDrift { frac: 0.25, seed: seed ^ 3 }
                .plan(&t, VictimSelection::RandomN(k), rate, seed % 7),
        };
        let same = |plan: &LossPlan<u32>, trace: &Trace<u32>| {
            plan.realize_losses(trace, seed ^ 2) == hash_walk_losses(plan, trace, seed ^ 2)
        };
        // (a) The trace the plan was selected from.
        prop_assert!(same(&plan, &t), "own trace");
        prop_assert_eq!(plan.realize_losses(&t, seed ^ 2).len(), plan.num_victims());

        // (b) That trace reshaped: the remembered rows no longer hold.
        let mut rotated = t.clone();
        rotated.flows.rotate_left(1 + k % (n - 1));
        prop_assert!(same(&plan, &rotated), "rotated");
        let mut thinned = t.clone();
        let mut row = 0;
        thinned.flows.retain(|_| { row += 1; row % 5 != 0 });
        prop_assert!(same(&plan, &thinned), "rows dropped");
        let mut idled = t.clone();
        idled.flows.iter_mut().step_by(3).for_each(|r| r.1 = 0);
        prop_assert!(same(&plan, &idled), "idled (rows still hold; idle victims draw nothing)");
        let mut grown = t.clone();
        let fresh = t.flows.iter().map(|&(f, _)| f).max().unwrap_or(0) / 2 + 1;
        let known: std::collections::HashSet<u32> = t.flows.iter().map(|&(f, _)| f).collect();
        for (j, id) in (fresh..).filter(|id| !known.contains(id)).take(1 + k % 9).enumerate() {
            grown.flows.insert((j * 11) % grown.flows.len(), (id, 5 + j as u64));
        }
        prop_assert!(same(&plan, &grown), "foreign flows inserted");
        let mut edited = plan.clone();
        edited.victims.insert(t.flows[k % n].0, 0.5);
        if let Some(&f) = plan.victims.keys().min() {
            edited.victims.remove(&f);
        }
        prop_assert!(same(&edited, &t), "plan edited after it was built");

        // (c) A hand-made plan remembers no rows.
        let by_hand = LossPlan::from_victims(
            t.flows.iter().step_by(1 + k % 4).map(|&(f, _)| (f, rate / 2.0 + 0.01)),
        );
        prop_assert!(same(&by_hand, &t), "hand-made");
        prop_assert!(same(&by_hand, &rotated), "hand-made, another trace");

        // (d) None of the plan's victims is in the trace.
        let mut without = t.clone();
        without.flows.retain(|(f, _)| !plan.victims.contains_key(f));
        prop_assert!(same(&plan, &without), "victims absent");
        prop_assert!(plan.realize_losses(&without, seed ^ 2).is_empty());
    }

    /// Testbed traces route between distinct hosts within range.
    #[test]
    fn testbed_hosts_in_range(n in 10usize..500, hosts in 2u32..16, seed in any::<u64>()) {
        let t = testbed_trace(WorkloadKind::Vl2, n, hosts, seed);
        for &(f, _) in &t.flows {
            let src = chm_workloads::trace::ip_host(f.src_ip);
            let dst = chm_workloads::trace::ip_host(f.dst_ip);
            prop_assert!(src < hosts && dst < hosts);
            prop_assert_ne!(f.src_ip, f.dst_ip);
        }
    }

    /// Same seed ⇒ same victim set, for every selection strategy.
    #[test]
    fn victim_selection_deterministic(
        n in 20usize..400,
        k in 1usize..40,
        sel_idx in 0usize..3,
        seed in any::<u64>(),
    ) {
        let t = caida_like_trace(n, seed);
        let sel = match sel_idx {
            0 => VictimSelection::LargestN(k),
            1 => VictimSelection::RandomRatio(k as f64 / 40.0),
            _ => VictimSelection::RandomN(k),
        };
        let a = LossPlan::build(&t, sel, 0.1, seed ^ 0x11);
        let b = LossPlan::build(&t, sel, 0.1, seed ^ 0x11);
        prop_assert_eq!(
            a.victims.keys().collect::<std::collections::BTreeSet<_>>(),
            b.victims.keys().collect::<std::collections::BTreeSet<_>>()
        );
    }

    /// `LargestN(n)` picks exactly the top-n flows under the documented
    /// (size desc, id asc) tie-breaking — independent of the trace's flow
    /// order.
    #[test]
    fn largest_n_picks_exact_top_n(
        n in 20usize..300,
        k in 1usize..30,
        seed in any::<u64>(),
    ) {
        let t = caida_like_trace(n, seed);
        // Expected set, computed independently of Trace::top_n.
        let mut ranked = t.flows.clone();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let expect: std::collections::BTreeSet<u32> =
            ranked[..k.min(n)].iter().map(|&(f, _)| f).collect();
        let plan = LossPlan::build(&t, VictimSelection::LargestN(k), 0.1, seed);
        let got: std::collections::BTreeSet<u32> =
            plan.victims.keys().copied().collect();
        prop_assert_eq!(&got, &expect);
        // Tie-breaking is a property of the flows, not their order: a
        // shuffled clone of the trace selects the identical set.
        let mut shuffled = t.clone();
        {
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5487);
            shuffled.flows.shuffle(&mut rng);
        }
        let plan2 = LossPlan::build(&shuffled, VictimSelection::LargestN(k), 0.1, seed);
        let got2: std::collections::BTreeSet<u32> =
            plan2.victims.keys().copied().collect();
        prop_assert_eq!(got2, expect);
    }

    /// `RandomRatio(r)` selects within ±1 of `r · n` victims.
    #[test]
    fn random_ratio_count_within_one(
        n in 10usize..1000,
        r in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let t = caida_like_trace(n, seed);
        let plan = LossPlan::build(&t, VictimSelection::RandomRatio(r), 0.1, seed ^ 0x22);
        let want = n as f64 * r;
        prop_assert!(
            (plan.num_victims() as f64 - want).abs() <= 1.0,
            "{} victims for requested {want:.2}",
            plan.num_victims()
        );
    }

    /// Packet streams preserve multiset multiplicities exactly.
    #[test]
    fn stream_multiplicities(n in 1usize..100, seed in any::<u64>()) {
        let t = caida_like_trace(n, seed);
        let stream = t.packet_stream(seed ^ 3);
        prop_assert_eq!(stream.len() as u64, t.total_packets());
        let mut counts: std::collections::HashMap<u32, u64> =
            std::collections::HashMap::new();
        for f in &stream {
            *counts.entry(*f).or_insert(0) += 1;
        }
        prop_assert_eq!(counts, t.size_map());
    }
}
