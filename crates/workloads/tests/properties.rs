//! Property-based tests of workload generation and loss planning.

use chm_workloads::distributions::{FlowSizeDistribution, WorkloadKind};
use chm_workloads::{caida_like_trace, testbed_trace, LossPlan, VictimSelection};
use proptest::prelude::*;

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
