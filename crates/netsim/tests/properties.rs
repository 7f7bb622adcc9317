//! Property tests of the topology zoo: every ECMP route is valid wiring,
//! hop counts follow pod locality and are definitionally the route length,
//! intra-rack flows never leave their ToR, the spread-drop rule is exact at
//! every cut, and the loss generators conserve on every generated fabric.

use chm_netsim::sim::{spread_drop, spread_drop_prefix};
use chm_netsim::{Fabric, FatTree, SwitchId, SwitchRole, Topology};
use proptest::prelude::*;

/// Checks one route end to end: endpoint correctness, wiring validity
/// (edge→agg→core→agg→edge with pods respected), and locality-determined
/// hop counts.
fn check_route(t: &FatTree, src: usize, dst: usize, key: u64) -> Result<(), TestCaseError> {
    let r = t.route(src, dst, key);
    let se = t.edge_of_host(src);
    let de = t.edge_of_host(dst);
    let sp = t.pod_of_edge(se);
    let dp = t.pod_of_edge(de);
    prop_assert_eq!(
        r.first().copied(),
        Some(SwitchId { role: SwitchRole::Edge, index: se }),
        "route must start at the source ToR"
    );
    prop_assert_eq!(
        r.last().copied(),
        Some(SwitchId { role: SwitchRole::Edge, index: de }),
        "route must end at the destination ToR"
    );
    // Hop counts match pod locality.
    let expected_len = if se == de {
        1 // intra-rack: never leaves the ToR
    } else if sp == dp {
        3 // intra-pod: edge → agg → edge
    } else {
        5 // cross-pod: edge → agg → core → agg → edge
    };
    prop_assert_eq!(r.len(), expected_len, "hops must follow pod locality");
    prop_assert_eq!(t.hops(src, dst, key), expected_len);
    match r.len() {
        1 => {}
        3 => {
            prop_assert_eq!(r[1].role, SwitchRole::Aggregation);
            prop_assert_eq!(r[1].index / 2, sp, "agg must sit in the shared pod");
        }
        5 => {
            prop_assert_eq!(r[1].role, SwitchRole::Aggregation);
            prop_assert_eq!(r[2].role, SwitchRole::Core);
            prop_assert_eq!(r[3].role, SwitchRole::Aggregation);
            prop_assert_eq!(r[1].index / 2, sp, "up-agg must sit in the source pod");
            prop_assert_eq!(r[3].index / 2, dp, "down-agg must sit in the dest pod");
            prop_assert!(r[2].index < t.n_cores(), "core index in range");
            // Fat-tree wiring: the chosen core pins the agg parity in both
            // pods.
            prop_assert_eq!(r[1].index % 2, r[2].index % 2);
            prop_assert_eq!(r[3].index % 2, r[2].index % 2);
        }
        n => prop_assert!(false, "impossible route length {n}"),
    }
    // ECMP is deterministic per flow key.
    prop_assert_eq!(r, t.route(src, dst, key));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every host pair's route is valid wiring on the testbed fat-tree.
    #[test]
    fn testbed_routes_are_valid(
        src in 0usize..8,
        dst in 0usize..8,
        key in any::<u64>(),
    ) {
        check_route(&FatTree::testbed(), src, dst, key)?;
    }

    /// The wiring invariants hold on scaled fat-trees too (2–8 edge
    /// switches, 1–4 hosts per rack).
    #[test]
    fn scaled_routes_are_valid(
        n_edge_half in 1usize..5,
        hosts_per_edge in 1usize..5,
        pair in any::<u64>(),
        key in any::<u64>(),
    ) {
        let t = FatTree::new(2 * n_edge_half, hosts_per_edge);
        let n = t.n_hosts() as u64;
        let src = (pair % n) as usize;
        let dst = ((pair / n) % n) as usize;
        check_route(&t, src, dst, key)?;
    }

    /// Intra-rack flows never leave the ToR, for any flow key.
    #[test]
    fn intra_rack_never_leaves_tor(rack in 0usize..4, key in any::<u64>()) {
        let t = FatTree::testbed();
        let (a, b) = (2 * rack, 2 * rack + 1);
        for (s, d) in [(a, b), (b, a), (a, a)] {
            let r = t.route(s, d, key);
            prop_assert_eq!(r.len(), 1);
            prop_assert_eq!(r[0], SwitchId { role: SwitchRole::Edge, index: rack });
        }
    }

    /// `spread_drop` marks exactly `min(n_lost, pkts)` indices and its
    /// prefix form counts them at every cut.
    #[test]
    fn spread_drop_exact_at_every_cut(
        pkts in 1u64..5_000,
        n_lost in 0u64..6_000,
    ) {
        let mut marked = 0u64;
        for i in 0..pkts {
            prop_assert_eq!(
                spread_drop_prefix(i, pkts, n_lost),
                marked,
                "prefix disagrees at {i}"
            );
            if spread_drop(i, pkts, n_lost) {
                marked += 1;
            }
        }
        prop_assert_eq!(marked, n_lost.min(pkts));
        prop_assert_eq!(spread_drop_prefix(pkts, pkts, n_lost), marked);
    }

    /// A switch's 32-bit code (what a report fragment stages its drops by)
    /// gives the switch back, and two codes compare as their switches do,
    /// over every role and over indices from 0 to the largest a code holds.
    #[test]
    fn a_switch_code_round_trips_and_keeps_the_order(
        a in (0usize..3, 0..=SwitchId::MAX_CODED_INDEX),
        b in (0usize..3, 0..=SwitchId::MAX_CODED_INDEX),
        near in 0usize..3,
    ) {
        let roles = [SwitchRole::Edge, SwitchRole::Aggregation, SwitchRole::Core];
        let sw = |(role, index): (usize, usize)| SwitchId { role: roles[role], index };
        // The generated pair, and index neighbours and role boundaries,
        // which a uniform draw over 2^30 indices would almost never hit.
        let edge_cases = [
            (sw(a), sw(b)),
            (sw(a), sw((a.0, a.1.saturating_sub(near)))),
            (sw((a.0, SwitchId::MAX_CODED_INDEX)), sw(((a.0 + 1) % 3, 0))),
            (sw((a.0, near)), sw((b.0, SwitchId::MAX_CODED_INDEX - near))),
        ];
        for (x, y) in edge_cases {
            prop_assert_eq!(SwitchId::from_code(x.code()), x);
            prop_assert_eq!(SwitchId::from_code(y.code()), y);
            prop_assert_eq!(x.code().cmp(&y.code()), x.cmp(&y), "{:?} vs {:?}", x, y);
        }
    }
}

/// An index past what a switch code holds is refused, not wrapped into
/// another switch's code.
#[test]
#[should_panic(expected = "does not fit a 30-bit switch code")]
fn a_switch_index_past_the_code_is_refused() {
    let _ = SwitchId { role: SwitchRole::Edge, index: SwitchId::MAX_CODED_INDEX + 1 }.code();
}

// ---------------------------------------------------------------------------
// Time-resolved queue model: exact fluid conservation, and slot-count
// invariance of the static case (a congestion model is the one-slot,
// uncoupled queue; uniform arrivals over more uncoupled slots reproduce it).
// ---------------------------------------------------------------------------

mod queue {
    use super::*;
    use chm_netsim::{CongestionModel, Derate, QueueModel};
    use chm_workloads::{testbed_trace, ArrivalProfile, WorkloadKind};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Fluid conservation is exact on every loaded link, for every
        /// profile and hot-spot shape:
        /// `arrivals = served + dropped + residual`.
        #[test]
        fn queue_conserves_arrivals(
            seed in any::<u64>(),
            epoch in 0u64..6,
            profile_idx in 0usize..4,
            layer in 0usize..3,
            index in 0usize..2,
            factor in 0.1f64..0.7,
            red in any::<bool>(),
        ) {
            let role = [SwitchRole::Edge, SwitchRole::Aggregation, SwitchRole::Core][layer];
            let mut m = QueueModel::calibrated(8);
            m.profile = [
                ArrivalProfile::Flat,
                ArrivalProfile::Microburst { frac: 0.5, width: 2 },
                ArrivalProfile::IncastRamp,
                ArrivalProfile::SlowDrain,
            ][profile_idx];
            m.derates.push(Derate::Switch { role, index, factor });
            if red {
                m.red = Some(chm_netsim::RedDrop {
                    min_depth: 0.2,
                    max_depth: 2.0,
                    max_prob: 0.3,
                });
            }
            let topo: Topology = FatTree::testbed().into();
            let trace = testbed_trace(WorkloadKind::Dctcp, 400, 8, seed ^ 0xAB);
            let r = m.realize(&topo, &trace, epoch, seed);
            prop_assert!(!r.is_lossless(), "a derated switch must drop");
            for (link, st) in r.link_stats() {
                let rhs = st.served + st.dropped + st.residual;
                prop_assert!(
                    (st.arrivals as f64 - rhs).abs() <= 1e-6 * (st.arrivals as f64).max(1.0),
                    "{link:?}: {} != {} + {} + {}",
                    st.arrivals, st.served, st.dropped, st.residual
                );
                prop_assert!(st.dropped >= 0.0 && st.served >= 0.0 && st.residual >= 0.0);
            }
        }

        /// Steady-load equivalence: with a Flat profile and no queue
        /// coupling, eight slots reproduce the one slot a congestion model
        /// realizes as — same dropping links, probabilities within
        /// integer-slot rounding. With coupling on, the same links drop at
        /// least as much (queues only ever add pressure).
        #[test]
        fn flat_profile_reproduces_the_static_model(
            seed in any::<u64>(),
            index in 0usize..2,
            factor in 0.25f64..0.55,
        ) {
            let derate = Derate::Switch { role: SwitchRole::Core, index, factor };
            let topo: Topology = FatTree::testbed().into();
            let trace = testbed_trace(WorkloadKind::Dctcp, 500, 8, seed ^ 0xCD);

            let stat = CongestionModel {
                derates: vec![derate],
                ..CongestionModel::calibrated()
            };
            let sr = stat.one_slot_queue().realize(&topo, &trace, 0, seed);

            let mut memoryless = QueueModel::calibrated(8);
            memoryless.queue_coupling = 0.0;
            memoryless.derates.push(derate);
            let qr = memoryless.realize(&topo, &trace, 0, seed);

            let static_hot: std::collections::BTreeMap<_, f64> =
                sr.hot_links().into_iter().collect();
            let queue_hot: std::collections::BTreeMap<_, f64> =
                qr.hot_links().into_iter().collect();
            // Every one-slot hot link drops over eight slots too, at a
            // matching epoch-aggregate probability.
            for (link, &p_static) in &static_hot {
                let Some(&p_queue) = queue_hot.get(link) else {
                    return Err(TestCaseError::fail(format!(
                        "{link:?}: drops statically (p={p_static}) but not in slots"
                    )));
                };
                prop_assert!(
                    (p_queue - p_static).abs() < 0.02,
                    "{link:?}: queue {p_queue} vs static {p_static}"
                );
            }
            // Links the one slot calls clean may pick up slot-rounding
            // dust (integer packet layout makes some slots a whisker hotter
            // than the flat mean) — but only dust.
            for (link, &p_queue) in &queue_hot {
                if !static_hot.contains_key(link) {
                    prop_assert!(
                        p_queue < 0.02,
                        "{link:?}: statically clean but queue-drops {p_queue}"
                    );
                }
            }

            // Full coupling: same support, never less loss.
            let mut coupled = QueueModel::calibrated(8);
            coupled.derates.push(derate);
            let cr = coupled.realize(&topo, &trace, 0, seed);
            for (link, &p_static) in &static_hot {
                let st = cr.link_stats().find(|&(l, _)| l == *link).map(|(_, st)| st);
                let st = st.expect("a statically hot link drops under coupling too");
                let p_coupled = st.dropped / st.arrivals as f64;
                prop_assert!(
                    p_coupled >= p_static - 1e-9,
                    "{link:?}: coupling lowered loss ({p_coupled} < {p_static})"
                );
            }
        }

        /// Sub-knee links never drop and never buffer, under any profile —
        /// temporal shaping cannot conjure loss where aggregate load is
        /// within a single slot's service everywhere.
        #[test]
        fn flat_load_below_knee_is_clean(seed in any::<u64>(), epoch in 0u64..4) {
            let m = QueueModel::calibrated(8);
            let topo: Topology = FatTree::testbed().into();
            let trace = testbed_trace(WorkloadKind::Dctcp, 600, 8, seed ^ 0xEF);
            let r = m.realize(&topo, &trace, epoch, seed);
            prop_assert!(r.is_lossless(), "hot links: {:?}", r.hot_links());
            prop_assert!(r.depths().is_empty());
        }

        /// The queue replay's ground truth conserves and attributes like
        /// the static congestion replay: every drop lands on an on-route
        /// switch, per-victim sums match, and the depth telemetry only
        /// names switches that could have dropped.
        #[test]
        fn queue_replay_attribution_conserves(
            seed in any::<u64>(),
            profile_idx in 0usize..3,
        ) {
            let mut m = QueueModel::calibrated(8);
            m.profile = [
                ArrivalProfile::Microburst { frac: 0.5, width: 2 },
                ArrivalProfile::IncastRamp,
                ArrivalProfile::Flat,
            ][profile_idx];
            m.derates.push(Derate::Switch {
                role: SwitchRole::Edge,
                index: 1,
                factor: 0.4,
            });
            let imp = chm_netsim::ImpairmentSet {
                seed,
                queue: Some(m),
                ..chm_netsim::ImpairmentSet::none()
            };
            let topo: Topology = FatTree::testbed().into();
            let trace = testbed_trace(WorkloadKind::Vl2, 300, 8, seed ^ 0x33);
            let plan = chm_workloads::LossPlan::build(
                &trace,
                chm_workloads::VictimSelection::RandomRatio(0.05),
                0.05,
                seed,
            );
            let mut sim = chm_netsim::Simulator::new(
                topo.clone(),
                chm_netsim::SimConfig { epoch_ms: 50.0, seed },
            );
            for _ in 0..2 {
                let r = fabric::replay(&mut sim, &trace, &plan, &imp);
                fabric::check_attribution(&r, &topo);
                prop_assert!(!r.queue_depth.is_empty(), "derated ToR must buffer");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fabric-attributed replay: congestion-coupled drops conserve packets,
// attribute only to on-route switches, and the per-packet and burst
// scenario replays stay byte-identical under congestion.
// ---------------------------------------------------------------------------

mod fabric {
    use super::*;
    use chm_common::{FiveTuple, FlowId};
    use chm_netsim::sim::{EpochReport, Routable};
    use chm_netsim::{
        CongestionModel, Derate, EdgeSite, ImpairmentSet, ReplayMode, SimConfig, Simulator,
        SiteArray,
    };
    use chm_workloads::{testbed_trace, LossPlan, VictimSelection, WorkloadKind};

    /// A site that ignores everything (ground truth is what's under test).
    pub struct Null;
    impl EdgeSite<FiveTuple> for Null {
        fn site_ingress(&mut self, _f: &FiveTuple, _ts: u8) -> u8 {
            0
        }
        fn site_egress(&mut self, _f: &FiveTuple, _ts: u8, _tag: u8) {}
        fn site_ingress_burst(&mut self, _f: &FiveTuple, _ts: u8, pkts: u64) -> [(u8, u64); 3] {
            [(0, pkts), (1, 0), (2, 0)]
        }
        fn site_egress_burst(&mut self, _f: &FiveTuple, _ts: u8, _tag: u8, _n: u64) {}
    }

    /// One null site per edge of the simulator's fabric.
    fn nulls(sim: &Simulator) -> Vec<Null> {
        (0..sim.topology.n_edges()).map(|_| Null).collect()
    }

    /// One per-packet epoch of the serial driver with the null sites.
    pub fn replay(
        sim: &mut Simulator,
        trace: &chm_workloads::Trace<FiveTuple>,
        plan: &LossPlan<FiveTuple>,
        imp: &ImpairmentSet,
    ) -> EpochReport<FiveTuple> {
        let mut sites = nulls(sim);
        sim.run_epoch_scenario(trace, plan, imp, ReplayMode::PerPacket, &mut SiteArray(&mut sites))
    }

    /// A planned victim that sent nothing this epoch is not a victim: no
    /// `lost` row (not even a zero), and the walkers agree on it — while it
    /// still counts as a flow that was present.
    #[test]
    fn a_flow_that_sent_nothing_is_never_a_victim() {
        let topo: Topology = FatTree::testbed().into();
        let mut trace = testbed_trace(WorkloadKind::Dctcp, 40, 8, 0x1d1e);
        let idle = trace.flows[7].0;
        trace.flows[7].1 = 0;
        let plan = LossPlan::from_victims(
            [idle, trace.flows[3].0, trace.flows[20].0].into_iter().map(|f| (f, 0.3)),
        );
        for mode in [ReplayMode::PerPacket, ReplayMode::Burst] {
            let mut sim = Simulator::new(topo.clone(), SimConfig::default());
            let mut sites = nulls(&sim);
            let r = sim.run_epoch_scenario(
                &trace,
                &plan,
                &ImpairmentSet::none(),
                mode,
                &mut SiteArray(&mut sites),
            );
            check_attribution(&r, &topo);
            assert_eq!(r.delivered.iter().nth(7), Some((&idle, &0)), "{mode:?}: row 7 is the idle flow");
            assert!(!r.lost.keys().any(|f| *f == idle), "{mode:?}: an idle flow lost nothing");
            assert_eq!(r.victim_flows(), 2, "{mode:?}");
            assert_eq!(r.total_flows(), 40, "{mode:?}");
        }
    }

    fn congested_imp(seed: u64, derate: Derate) -> ImpairmentSet {
        ImpairmentSet {
            seed,
            congestion: Some(CongestionModel {
                derates: vec![derate],
                ..CongestionModel::calibrated()
            }),
            ..ImpairmentSet::none()
        }
    }

    pub fn check_attribution(report: &EpochReport<FiveTuple>, topo: &Topology) {
        // Conservation: every lost packet is attributed exactly once,
        // fabric-wide and per victim.
        assert_eq!(report.total_attributed(), report.lost.values().sum::<u64>());
        for (f, lost, drops) in report.lost.with_drops() {
            assert_eq!(drops.iter().map(|&(_, c)| c).sum::<u64>(), lost, "victim sum");
            assert!(drops.windows(2).all(|w| w[0].0 < w[1].0), "one entry per switch, sorted");
            let route = topo.route(f.src_host(), f.dst_host(), f.key64());
            for (s, _) in drops {
                assert!(route.contains(s), "off-route attribution {s:?}");
            }
        }
        assert_eq!(report.hops_histogram.values().sum::<u64>(), report.total_sent());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Congestion-coupled drops conserve packet counts and attribute
        /// only to on-route switches, for random derate targets and seeds.
        #[test]
        fn congestion_attribution_conserves_and_stays_on_route(
            seed in any::<u64>(),
            layer in 0usize..3,
            index in 0usize..2,
            factor in 0.15f64..0.6,
        ) {
            let role = [SwitchRole::Edge, SwitchRole::Aggregation, SwitchRole::Core][layer];
            let imp = congested_imp(seed, Derate::Switch { role, index, factor });
            let topo: Topology = FatTree::testbed().into();
            let trace = testbed_trace(WorkloadKind::Dctcp, 300, 8, seed ^ 0x77);
            let plan = LossPlan::build(&trace, VictimSelection::RandomRatio(0.05), 0.05, seed);
            let mut sim = Simulator::new(topo.clone(), SimConfig { epoch_ms: 50.0, seed });
            for _ in 0..2 {
                let r = replay(&mut sim, &trace, &plan, &imp);
                check_attribution(&r, &topo);
            }
        }

        /// Derating a switch causes drops *at that switch*: against a
        /// control run without the derate (same trace, same seeds — only
        /// the core's own links change probability), the browned-out core
        /// must lose several times more packets. Natural hot spots
        /// elsewhere (heavy-tailed elephants) are allowed — the invariant
        /// is causal attribution, not exclusivity.
        #[test]
        fn derating_a_switch_multiplies_its_own_drops(
            seed in any::<u64>(),
            index in 0usize..2,
        ) {
            let derate = Derate::Switch {
                role: SwitchRole::Core,
                index,
                factor: 0.15,
            };
            let topo: Topology = FatTree::testbed().into();
            let trace = testbed_trace(WorkloadKind::Dctcp, 400, 8, seed ^ 0x99);
            let culprit = SwitchId { role: SwitchRole::Core, index };
            let mut drops = [0u64; 2];
            for (i, imp) in [
                congested_imp(seed, derate),
                ImpairmentSet {
                    seed,
                    congestion: Some(CongestionModel::calibrated()),
                    ..ImpairmentSet::none()
                },
            ]
            .iter()
            .enumerate()
            {
                let mut sim =
                    Simulator::new(topo.clone(), SimConfig { epoch_ms: 50.0, seed });
                let r = replay(&mut sim, &trace, &LossPlan::none(), imp);
                check_attribution(&r, &topo);
                drops[i] = r.dropped_at.get(&culprit).copied().unwrap_or(0);
            }
            let [derated, control] = drops;
            prop_assert!(
                derated > 3 * control.max(1),
                "0.15x derate must multiply the core's drops: {derated} vs control {control}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The topology zoo: the Fabric contract holds on every generated fabric —
// endpoints, hop-locality bounds, the definitional hops == route.len()
// equality, full ECMP spread, and conservation of the congestion-coupled
// replay on leaf-spine and the WAN graph.
// ---------------------------------------------------------------------------

mod zoo {
    use super::*;
    use chm_netsim::{
        CongestionModel, Derate, ImpairmentSet, KaryFatTree, LeafSpine, SimConfig,
        Simulator, WanGraph,
    };
    use chm_workloads::{testbed_trace, LossPlan, VictimSelection, WorkloadKind};
    use std::collections::HashSet;

    /// Every fabric the sweep scores, one of each family.
    fn zoo() -> Vec<Topology> {
        vec![
            FatTree::testbed().into(),
            FatTree::new(8, 3).into(),
            KaryFatTree::new(4).into(),
            KaryFatTree::new(8).into(),
            LeafSpine::new(8, 4, 2).into(),
            LeafSpine::new(6, 3, 4).into(),
            WanGraph::abilene(2).into(),
        ]
    }

    /// The generic route contract: starts at the source's edge, ends at the
    /// destination's edge, stays within the fabric's hop bound, repeats
    /// deterministically, and `hops` IS the route length.
    fn check_generic_route(
        t: &Topology,
        src: usize,
        dst: usize,
        key: u64,
    ) -> Result<(), TestCaseError> {
        let r = t.route(src, dst, key);
        prop_assert_eq!(
            r.first().map(|s| s.index),
            Some(t.edge_of_host(src)),
            "route must start at the source edge ({})", t.kind()
        );
        prop_assert_eq!(
            r.last().map(|s| s.index),
            Some(t.edge_of_host(dst)),
            "route must end at the destination edge ({})", t.kind()
        );
        prop_assert!(r.first().unwrap().role == SwitchRole::Edge);
        prop_assert!(r.last().unwrap().role == SwitchRole::Edge);
        prop_assert!(
            !r.is_empty() && r.len() <= t.max_hops(),
            "{}: hop-locality bound violated ({} hops, max {})",
            t.kind(), r.len(), t.max_hops()
        );
        if t.edge_of_host(src) == t.edge_of_host(dst) {
            prop_assert_eq!(r.len(), 1, "same-edge flows never leave the ToR");
        }
        // The definitional equality the old closed-form `hops` drifted from.
        prop_assert_eq!(t.hops(src, dst, key), r.len());
        // Every switch on the route actually exists in the fabric.
        for s in &r {
            prop_assert!(
                s.index < t.n_switches(),
                "{}: switch index {} out of range", t.kind(), s.index
            );
        }
        prop_assert_eq!(r, t.route(src, dst, key), "ECMP must be deterministic");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The route contract holds for every fabric in the zoo, any host
        /// pair, any flow key.
        #[test]
        fn routes_are_valid_on_every_fabric(
            pair in any::<u64>(),
            key in any::<u64>(),
        ) {
            for t in zoo() {
                let n = t.n_hosts() as u64;
                let src = (pair % n) as usize;
                let dst = ((pair / n) % n) as usize;
                check_generic_route(&t, src, dst, key)?;
            }
        }

        /// Congestion-coupled replay conserves and attributes on-route on
        /// leaf-spine and the WAN graph — the fabrics whose wiring the
        /// static model never saw before the zoo.
        #[test]
        fn congestion_conserves_on_leaf_spine_and_wan(seed in any::<u64>()) {
            let fabrics: Vec<(Topology, Derate)> = vec![
                (
                    LeafSpine::new(8, 4, 2).into(),
                    Derate::Switch { role: SwitchRole::Core, index: 0, factor: 0.3 },
                ),
                (
                    WanGraph::abilene(2).into(),
                    Derate::Switch { role: SwitchRole::Edge, index: 5, factor: 0.3 },
                ),
            ];
            for (topo, derate) in fabrics {
                let imp = ImpairmentSet {
                    seed,
                    congestion: Some(CongestionModel {
                        derates: vec![derate],
                        ..CongestionModel::calibrated()
                    }),
                    ..ImpairmentSet::none()
                };
                let trace = testbed_trace(
                    WorkloadKind::Dctcp, 300, topo.n_hosts() as u32, seed ^ 0x2200);
                let plan = LossPlan::build(
                    &trace, VictimSelection::RandomRatio(0.05), 0.05, seed);
                let mut sim =
                    Simulator::new(topo.clone(), SimConfig { epoch_ms: 50.0, seed });
                for _ in 0..2 {
                    let r = fabric::replay(&mut sim, &trace, &plan, &imp);
                    fabric::check_attribution(&r, &topo);
                }
            }
        }
    }

    /// ECMP must use *all* parallel cores of a k-ary fat-tree and all
    /// spines of a leaf-spine — a fabric with idle parallel paths would
    /// silently undersample the wiring the localizer has to exonerate.
    #[test]
    fn ecmp_covers_every_parallel_path() {
        let kary = KaryFatTree::new(8);
        let t: Topology = kary.clone().into();
        let mut cores = HashSet::new();
        // Cross-pod pair: host 0 (pod 0) to the last host (pod 7).
        for key in 0..4096u64 {
            let r = t.route(0, t.n_hosts() - 1, key);
            cores.insert(r[2].index);
        }
        assert_eq!(cores.len(), kary.n_cores(), "all 16 cores must carry flows");

        let ls: Topology = LeafSpine::new(8, 4, 2).into();
        let mut spines = HashSet::new();
        for key in 0..1024u64 {
            let r = ls.route(0, ls.n_hosts() - 1, key);
            spines.insert(r[1].index);
        }
        assert_eq!(spines.len(), 4, "all 4 spines must carry flows");
    }

    /// The link enumeration is consistent with routing: every window of
    /// every realized route is an enumerated link, on every fabric.
    #[test]
    fn routes_ride_enumerated_links() {
        for t in zoo() {
            let links: HashSet<_> = t.links().into_iter().collect();
            for key in 0..64u64 {
                let r = t.route(0, t.n_hosts() - 1, key);
                for w in r.windows(2) {
                    assert!(
                        links.contains(&(w[0], w[1])),
                        "{}: route uses unenumerated link {:?}", t.kind(), w
                    );
                }
            }
        }
    }
}
