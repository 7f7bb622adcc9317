//! Differential suite for the sharded epoch pipeline: both walkers × the
//! clean fabric and two impaired ones × every topology variant must produce
//! byte-identical reports and edge state at any shard/worker layout — the
//! serial driver is the reference — and the fragment merge must be invariant
//! under fragment permutation.
//!
//! The in-crate unit tests pin the same property on the testbed fabric;
//! this suite widens the fabric axis to the full topology zoo (testbed,
//! k=4 and k=8 fat-trees, leaf-spine, Abilene WAN) and randomizes the
//! merge inputs with proptest.

mod common;

use chm_netsim::sim::EpochReport;
use common::{sites, Site};
use chm_netsim::{
    merge_fragments, ClockSkew, Derate, Duplication, FatTree, GilbertElliott,
    ImpairmentSet, KaryFatTree, LeafSpine, QueueModel, RedDrop, Reordering, ReplayMode,
    ReportFragment, ShardedReplay, Sharding, SimConfig, Simulator, SiteArray, StagedDrop,
    StagedVictim, SwitchId, SwitchRole, Topology, WanGraph,
};
use chm_workloads::ArrivalProfile;
use chm_common::FiveTuple;
use chm_workloads::{testbed_trace, LossPlan, Trace, VictimSelection, WorkloadKind};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The topology zoo under test, with a workload sized to each fabric.
fn fabrics() -> Vec<(&'static str, Topology)> {
    vec![
        ("testbed", FatTree::testbed().into()),
        ("kary4", KaryFatTree::new(4).into()),
        ("kary8", KaryFatTree::new(8).into()),
        ("leafspine", LeafSpine::new(6, 4, 4).into()),
        ("abilene", WanGraph::abilene(3).into()),
    ]
}

fn workload(topo: &Topology, seed: u64) -> (Trace<FiveTuple>, LossPlan<FiveTuple>) {
    let trace = testbed_trace(WorkloadKind::Dctcp, 400, topo.n_hosts() as u32, seed);
    let plan = LossPlan::build(&trace, VictimSelection::RandomRatio(0.1), 0.05, seed ^ 0xf00d);
    (trace, plan)
}

/// The fabrics a flow can replay under: the clean one, the channel
/// impairments (bursty loss, duplication, clock skew), and the queue
/// torture of `chm_scenarios/tests/differential.rs` — a synchronized
/// microburst on a slow-draining ToR with RED early drop, composed with
/// every channel impairment.
fn impairment_sets() -> Vec<(&'static str, ImpairmentSet)> {
    let channel = ImpairmentSet {
        seed: 23,
        gilbert_elliott: Some(GilbertElliott::bursty()),
        duplication: Some(Duplication { prob: 0.05 }),
        clock_skew: Some(ClockSkew { max_frac: 0.2 }),
        ..ImpairmentSet::none()
    };
    let queue_torture = ImpairmentSet {
        seed: 0xBA_D0_0B,
        queue: Some(QueueModel {
            profile: ArrivalProfile::Microburst { frac: 0.6, width: 2 },
            red: Some(RedDrop { min_depth: 0.2, max_depth: 1.5, max_prob: 0.3 }),
            derates: vec![Derate::Switch { role: SwitchRole::Edge, index: 2, factor: 0.35 }],
            ..QueueModel::calibrated(6)
        }),
        gilbert_elliott: Some(GilbertElliott {
            p_enter_bad: 0.1,
            p_exit_bad: 0.3,
            loss_good: 0.02,
            loss_bad: 0.7,
        }),
        duplication: Some(Duplication { prob: 0.3 }),
        reordering: Some(Reordering { prob: 0.5, window: 16 }),
        clock_skew: Some(ClockSkew { max_frac: 0.3 }),
        ..ImpairmentSet::none()
    };
    vec![("none", ImpairmentSet::none()), ("channel", channel), ("queue-torture", queue_torture)]
}

const MODES: [ReplayMode; 2] = [ReplayMode::PerPacket, ReplayMode::Burst];

/// One epoch through the serial driver — the reference.
fn run_unsharded(
    mode: ReplayMode,
    sim: &mut Simulator,
    trace: &Trace<FiveTuple>,
    plan: &LossPlan<FiveTuple>,
    imp: &ImpairmentSet,
    edges: &mut [Site],
) -> EpochReport<FiveTuple> {
    sim.run_epoch_scenario(trace, plan, imp, mode, &mut SiteArray(edges))
}

/// One zero-clock epoch through the sharded driver.
fn run_sharded(
    mode: ReplayMode,
    eng: &mut ShardedReplay<FiveTuple>,
    sim: &mut Simulator,
    trace: &Trace<FiveTuple>,
    plan: &LossPlan<FiveTuple>,
    imp: &ImpairmentSet,
    edges: &mut [Site],
) -> EpochReport<FiveTuple> {
    eng.run_epoch(sim, trace, plan, imp, mode, edges, &|| 0.0).0
}

/// Every walker × every fabric state × every fabric × every shard/worker
/// layout reproduces the unsharded replay exactly: same report, same
/// per-edge state, same epoch counter. Two epochs per configuration so the
/// second epoch runs on reused (dirty) engine scratch.
#[test]
fn all_paths_match_unsharded_on_every_fabric() {
    for (name, topo) in fabrics() {
        let (trace, plan) = workload(&topo, 0x5eed ^ topo.n_hosts() as u64);
        let sim0 = Simulator::new(topo.clone(), SimConfig::default());
        for (imp_name, imp) in impairment_sets() {
            for mode in MODES {
                let mut sim_ref = sim0.clone();
                let mut ref_sites = sites(topo.n_edges());
                let ref_reports: Vec<_> = (0..2)
                    .map(|_| run_unsharded(mode, &mut sim_ref, &trace, &plan, &imp, &mut ref_sites))
                    .collect();
                for shards in [1usize, 2, 3, 7] {
                    for workers in [1usize, 2] {
                        let tag =
                            format!("{name} {imp_name} {mode:?} shards={shards} workers={workers}");
                        let mut sim = sim0.clone();
                        let mut s = sites(topo.n_edges());
                        let mut eng = ShardedReplay::new(Sharding { shards, workers });
                        for (epoch, r_ref) in ref_reports.iter().enumerate() {
                            let r =
                                run_sharded(mode, &mut eng, &mut sim, &trace, &plan, &imp, &mut s);
                            assert_eq!(&r, r_ref, "report differs: {tag} epoch {epoch}");
                        }
                        assert_eq!(s, ref_sites, "site state differs: {tag}");
                        assert_eq!(sim.current_epoch(), sim_ref.current_epoch());
                    }
                }
            }
        }
    }
}

/// The report's `delivered` column is interleaved from per-shard columns, so
/// the degenerate partitions matter: more shards than edges (five of the nine
/// own no edge and contribute empty columns) and an empty trace (every column
/// empty) must still reproduce the serial report.
#[test]
fn scenario_paths_survive_idle_shards_and_an_empty_trace() {
    let topo: Topology = FatTree::testbed().into();
    let (trace, plan) = workload(&topo, 0xc01);
    let empty = Trace { flows: Vec::new() };
    let sim0 = Simulator::new(topo.clone(), SimConfig::default());
    for (imp_name, imp) in impairment_sets() {
        for (what, trace) in [("idle shards", &trace), ("empty trace", &empty)] {
            for mode in MODES {
                let tag = format!("{what}: {imp_name} {mode:?}");
                let mut sim_ref = sim0.clone();
                let mut ref_sites = sites(topo.n_edges());
                let mut sim = sim0.clone();
                let mut s = sites(topo.n_edges());
                let mut eng = ShardedReplay::new(Sharding { shards: 9, workers: 16 });
                for epoch in 0..2 {
                    let r_ref =
                        run_unsharded(mode, &mut sim_ref, trace, &plan, &imp, &mut ref_sites);
                    let r = run_sharded(mode, &mut eng, &mut sim, trace, &plan, &imp, &mut s);
                    assert_eq!(r, r_ref, "{tag} epoch {epoch}");
                    assert_eq!(r.delivered.len(), trace.num_flows(), "{tag}");
                    assert!(r.delivered.keys().eq(trace.flows.iter().map(|(f, _)| f)), "{tag}");
                }
                assert_eq!(s, ref_sites, "{tag} site state");
            }
        }
    }
}

/// The contract of the report's two tables, from the serial driver and from
/// the sharded one at any shard count, under both walkers. `delivered` has
/// one row per `trace.flows` row, naming the same flow, in the same order,
/// holding what the flow sent less what it lost; `lost` has one row per
/// victim, strictly ascending in trace order, its drops summing to its loss.
/// The rows that must not come out wrong are in the trace: an idle
/// non-victim, an idle planned victim (no packet to lose, so no row), a
/// victim that loses everything (a `lost` row of all it sent, not an absent
/// flow), and — with every delivered packet duplicated in the fabric — flows
/// whose egress count is twice the row's (a duplicate never raises a row
/// above the trace's count).
#[test]
fn delivered_lists_the_trace_row_for_row() {
    let topo: Topology = KaryFatTree::new(4).into();
    let (mut trace, mut plan) = workload(&topo, 0x0bde);
    let victim_rows: Vec<usize> =
        (0..trace.num_flows()).filter(|&i| plan.victims.contains_key(&trace.flows[i].0)).collect();
    let (idle_victim, dead) = (victim_rows[1], victim_rows[2]);
    let idle = (0..trace.num_flows()).find(|i| !victim_rows.contains(i)).unwrap();
    trace.flows[idle].1 = 0;
    trace.flows[idle_victim].1 = 0;
    // Same victim set, so the plan's remembered rows still hold.
    plan.victims.insert(trace.flows[dead].0, 1.0);
    let duplicated = ImpairmentSet {
        seed: 5,
        duplication: Some(Duplication { prob: 1.0 }),
        ..ImpairmentSet::none()
    };
    let sim0 = Simulator::new(topo.clone(), SimConfig::default());
    let check = |r: &EpochReport<FiveTuple>, tag: &str| {
        assert_eq!(r.delivered.len(), trace.num_flows(), "{tag}");
        // Walking both tables down the trace at once consumes every victim
        // row only if they come in trace order.
        let mut victims = r.lost.with_drops().peekable();
        for (i, ((f, &del), &(tf, pkts))) in r.delivered.iter().zip(&trace.flows).enumerate() {
            assert_eq!(*f, tf, "{tag}: row {i} names another flow");
            let lost = match victims.next_if(|&(v, _, _)| *v == tf) {
                Some((_, lost, drops)) => {
                    assert!(lost > 0, "{tag}: row {i} is a victim that lost nothing");
                    assert_eq!(drops.iter().map(|&(_, c)| c).sum::<u64>(), lost, "{tag}: row {i}");
                    lost
                }
                None => 0,
            };
            assert_eq!(del + lost, pkts, "{tag}: row {i}");
        }
        assert!(victims.next().is_none(), "{tag}: victim rows out of trace order");
        let row = |i: usize| r.delivered.values().nth(i).copied();
        assert_eq!((row(idle), row(idle_victim)), (Some(0), Some(0)), "{tag}: idle rows");
        assert!(!r.lost.keys().any(|f| *f == trace.flows[idle_victim].0), "{tag}: idle victim");
        let (dead_flow, dead_pkts) = trace.flows[dead];
        assert!(dead_pkts > 0);
        assert_eq!(row(dead), Some(0), "{tag}: total loss");
        let dead_row = r.lost.iter().find(|(f, _)| **f == dead_flow);
        assert_eq!(dead_row, Some((&dead_flow, &dead_pkts)), "{tag}: reported lost, not absent");
        assert_eq!(r.victim_flows(), victim_rows.len() - 1, "{tag}");
    };
    for (imp_name, imp) in [("clean", ImpairmentSet::none()), ("duplicated", duplicated)] {
        for mode in MODES {
            let mut sim = sim0.clone();
            let mut s = sites(topo.n_edges());
            let r = run_unsharded(mode, &mut sim, &trace, &plan, &imp, &mut s);
            check(&r, &format!("{imp_name} serial {mode:?}"));
            let egressed: u64 = s.iter().map(|site| site.egress_pkts).sum();
            let copies = if imp.duplication.is_some() { 2 } else { 1 };
            assert_eq!(egressed, copies * r.delivered.values().sum::<u64>(), "{imp_name} {mode:?}");
            for shards in [1usize, 2, 3, 8] {
                let mut sim = sim0.clone();
                let mut s = sites(topo.n_edges());
                let mut eng = ShardedReplay::new(Sharding { shards, workers: 2 });
                let r = run_sharded(mode, &mut eng, &mut sim, &trace, &plan, &imp, &mut s);
                check(&r, &format!("{imp_name} {shards} shards {mode:?}"));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Merge permutation invariance (proptest)
// ---------------------------------------------------------------------

/// Builds one fragment from a generated spec: a flow whose `lost` is
/// positive is a victim — one staged row, its drops split between an edge
/// and (past the first packet) a core, in switch-code order, the core's
/// count in two entries when `salt` is odd (the parts of a split count);
/// every flow adds to the histogram. The fragment's `j`-th flow sits at
/// trace row `j * n_frags + frag_id` — disjoint across fragments and
/// interleaved with every other fragment's rows, mirroring the pipeline
/// invariant that each flow is realized by exactly one shard.
fn build_fragment(frag_id: u64, n_frags: u64, flows: &[(u64, u64, u64, u8)]) -> ReportFragment {
    let mut frag = ReportFragment::default();
    for (j, &(salt, delivered, lost, hops)) in flows.iter().enumerate() {
        let row = j as u64 * n_frags + frag_id;
        if lost > 0 {
            let edge = SwitchId { role: SwitchRole::Edge, index: (salt % 5) as usize };
            let core = SwitchId { role: SwitchRole::Core, index: (salt % 3) as usize };
            frag.drops.push(StagedDrop { switch: edge.code(), count: 1 });
            let rest = (lost - 1) as u32;
            let parts = if salt % 2 == 1 { [rest / 2, rest - rest / 2] } else { [0, rest] };
            for count in parts.into_iter().filter(|&c| c > 0) {
                frag.drops.push(StagedDrop { switch: core.code(), count });
            }
            let drops_end = frag.drops.len() as u32;
            frag.victims.push(StagedVictim { row: row as u32, drops_end, lost });
        }
        frag.add_hops(hops as usize, delivered + lost);
    }
    frag
}

/// The flow at trace row `row` of a generated spec.
fn spec_flow(row: u64) -> FiveTuple {
    FiveTuple::unpack(row as u128 | 1 << 96)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `merge_fragments` is invariant under any permutation of its
    /// fragment slice: the merged report depends only on the multiset of
    /// fragment contents, never on shard order — its victim table is the
    /// victims in trace order, each with its drops, `delivered` is the
    /// trace's rows in trace order less exactly those victims' losses, and
    /// `dropped_at` sums their drops — with every fragment drained either
    /// way.
    #[test]
    fn merge_is_permutation_invariant(
        specs in proptest::collection::vec(
            proptest::collection::vec(
                (0u64..u32::MAX as u64, 0u64..1000, 0u64..100, 1u8..6),
                0..8,
            ),
            1..6,
        ),
        epoch in 0u64..100,
        perm_seed in any::<u64>(),
    ) {
        let n_frags = specs.len() as u64;
        let build = || -> Vec<ReportFragment> {
            specs
                .iter()
                .enumerate()
                .map(|(i, flows)| build_fragment(i as u64, n_frags, flows))
                .collect()
        };
        // The trace behind the fragments: spec `(frag, j)` is row
        // `j * n_frags + frag` and sent `delivered + lost`; rows no spec
        // names (the fragments differ in length) sent 7 and lost nothing.
        let n_rows = specs.iter().map(Vec::len).max().unwrap_or(0) as u64 * n_frags;
        let spec_at = |row: u64| specs[(row % n_frags) as usize].get((row / n_frags) as usize);
        let trace = Trace {
            flows: (0..n_rows)
                .map(|row| {
                    let sent = spec_at(row).map_or(7, |&(_, del, lost, _)| del + lost);
                    (spec_flow(row), sent)
                })
                .collect(),
        };
        let mut frags = build();
        let mut shuffled = build();
        // Fisher–Yates with a deterministic splitmix stream.
        let mut state = perm_seed;
        for i in (1..shuffled.len()).rev() {
            state = chm_common::hash::mix64(state);
            shuffled.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let qd = BTreeMap::new();
        let merged = merge_fragments(&trace, epoch, qd.clone(), &mut frags);
        // The victims, read off the specs in trace order.
        let victims: Vec<(FiveTuple, u64)> = (0..n_rows)
            .filter_map(|row| spec_at(row).filter(|s| s.2 > 0).map(|s| (spec_flow(row), s.2)))
            .collect();
        prop_assert!(merged.lost.iter().map(|(&f, &l)| (f, l)).eq(victims.iter().copied()));
        let mut dropped_at = BTreeMap::new();
        for (_, lost, drops) in merged.lost.with_drops() {
            prop_assert_eq!(drops.iter().map(|&(_, c)| c).sum::<u64>(), lost);
            for &(s, c) in drops {
                *dropped_at.entry(s).or_insert(0) += c;
            }
        }
        prop_assert_eq!(&merged.dropped_at, &dropped_at);
        prop_assert_eq!(merged.delivered.len(), trace.num_flows());
        let rows = merged.delivered.iter().zip(&trace.flows);
        for (row, ((f, &del), &(tf, sent))) in rows.enumerate() {
            prop_assert_eq!(*f, tf, "row {} out of trace order", row);
            let lost = spec_at(row as u64).map_or(0, |s| s.2);
            prop_assert_eq!(del + lost, sent, "row {}", row);
        }
        prop_assert_eq!(&merged, &merge_fragments(&trace, epoch, qd, &mut shuffled));
        for frag in frags.iter().chain(&shuffled) {
            prop_assert!(frag.victims.is_empty() && frag.drops.is_empty(), "not drained");
        }
    }
}
