//! Differential suite for the sharded epoch pipeline: every replay path ×
//! every topology variant must produce byte-identical reports and edge
//! state at any shard/worker layout, and the fragment merge must be
//! invariant under fragment permutation.
//!
//! The in-crate unit tests pin the same property on the testbed fabric;
//! this suite widens the fabric axis to the full topology zoo (testbed,
//! k=4 and k=8 fat-trees, leaf-spine, Abilene WAN) and randomizes the
//! merge inputs with proptest.

use chm_netsim::sim::EpochReport;
use chm_netsim::{
    merge_fragments, ClockSkew, Duplication, EdgeSite, FatTree, GilbertElliott,
    ImpairmentSet, KaryFatTree, LeafSpine, ReportFragment, ShardedReplay, Sharding,
    SimConfig, Simulator, SiteArray, SwitchId, SwitchRole, Topology, WanGraph,
};
use chm_common::{FiveTuple, FlowId};
use chm_workloads::{testbed_trace, LossPlan, Trace, VictimSelection, WorkloadKind};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

/// A stateful site double, deliberately order-sensitive on ingress (a
/// hash chain detects any reordering of the per-edge packet stream) and
/// commutative on egress (wrapping adds, mirroring the real data plane's
/// modular counters). Per-(flow, ts) counts drive a 3-level tag threshold
/// so the burst path emits genuine multi-run bursts.
#[derive(Default, Clone, PartialEq, Debug)]
struct Site {
    chain: u64,
    egress_acc: u64,
    ingress_pkts: u64,
    egress_pkts: u64,
    seen: HashMap<(u64, u8), u64>,
}

fn tag_for(count: u64) -> u8 {
    match count {
        0..=2 => 0,
        3..=9 => 1,
        _ => 2,
    }
}

impl EdgeSite<FiveTuple> for Site {
    fn site_ingress(&mut self, f: &FiveTuple, ts: u8) -> u8 {
        let c = self.seen.entry((f.key64(), ts)).or_insert(0);
        let tag = tag_for(*c);
        *c += 1;
        self.ingress_pkts += 1;
        self.chain = chm_common::hash::mix64(self.chain ^ f.key64() ^ u64::from(ts));
        tag
    }
    fn site_egress(&mut self, f: &FiveTuple, ts: u8, tag: u8) {
        self.egress_pkts += 1;
        self.egress_acc = self.egress_acc.wrapping_add(chm_common::hash::mix64(
            f.key64() ^ (u64::from(ts) << 8) ^ u64::from(tag),
        ));
    }
    fn site_ingress_burst(&mut self, f: &FiveTuple, ts: u8, pkts: u64) -> [(u8, u64); 3] {
        let mut runs = [(0u8, 0u64), (1, 0), (2, 0)];
        for _ in 0..pkts {
            let tag = self.site_ingress(f, ts);
            runs[tag as usize].1 += 1;
        }
        runs
    }
    fn site_egress_burst(&mut self, f: &FiveTuple, ts: u8, tag: u8, delivered: u64) {
        if delivered == 0 {
            return;
        }
        self.egress_pkts += delivered;
        self.egress_acc = self.egress_acc.wrapping_add(
            chm_common::hash::mix64(f.key64() ^ (u64::from(ts) << 8) ^ u64::from(tag))
                .wrapping_mul(delivered),
        );
    }
}

fn sites(n: usize) -> Vec<Site> {
    (0..n).map(|_| Site::default()).collect()
}

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

fn impairments() -> ImpairmentSet {
    ImpairmentSet {
        seed: 23,
        gilbert_elliott: Some(GilbertElliott::bursty()),
        duplication: Some(Duplication { prob: 0.05 }),
        clock_skew: Some(ClockSkew { max_frac: 0.2 }),
        ..ImpairmentSet::none()
    }
}

/// The four replay paths, dispatched uniformly so one loop covers them all.
#[derive(Clone, Copy, Debug)]
enum Path {
    Clean,
    CleanBurst,
    Scenario,
    ScenarioBurst,
}

const PATHS: [Path; 4] = [Path::Clean, Path::CleanBurst, Path::Scenario, Path::ScenarioBurst];

fn run_unsharded(
    path: Path,
    sim: &mut Simulator,
    trace: &Trace<FiveTuple>,
    plan: &LossPlan<FiveTuple>,
    imp: &ImpairmentSet,
    edges: &mut [Site],
) -> EpochReport<FiveTuple> {
    let mut hooks = SiteArray(edges);
    match path {
        Path::Clean => sim.run_epoch(trace, plan, &mut hooks),
        Path::CleanBurst => sim.run_epoch_burst(trace, plan, &mut hooks),
        Path::Scenario => sim.run_epoch_scenario(trace, plan, imp, &mut hooks),
        Path::ScenarioBurst => sim.run_epoch_burst_scenario(trace, plan, imp, &mut hooks),
    }
}

fn run_sharded(
    path: Path,
    eng: &mut ShardedReplay<FiveTuple>,
    sim: &mut Simulator,
    trace: &Trace<FiveTuple>,
    plan: &LossPlan<FiveTuple>,
    imp: &ImpairmentSet,
    edges: &mut [Site],
) -> EpochReport<FiveTuple> {
    match path {
        Path::Clean => eng.run_epoch(sim, trace, plan, edges),
        Path::CleanBurst => eng.run_epoch_burst(sim, trace, plan, edges),
        Path::Scenario => eng.run_epoch_scenario(sim, trace, plan, imp, edges),
        Path::ScenarioBurst => eng.run_epoch_burst_scenario(sim, trace, plan, imp, edges),
    }
}

/// Every path × every fabric × every shard/worker layout reproduces the
/// unsharded replay exactly: same report, same per-edge state, same epoch
/// counter. Two epochs per configuration so the second epoch runs on
/// reused (dirty) engine scratch.
#[test]
fn all_paths_match_unsharded_on_every_fabric() {
    for (name, topo) in fabrics() {
        let (trace, plan) = workload(&topo, 0x5eed ^ topo.n_hosts() as u64);
        let imp = impairments();
        let sim0 = Simulator::new(topo.clone(), SimConfig::default());
        for path in PATHS {
            let mut sim_ref = sim0.clone();
            let mut ref_sites = sites(topo.n_edges());
            let mut ref_reports = Vec::new();
            for _ in 0..2 {
                ref_reports.push(run_unsharded(
                    path,
                    &mut sim_ref,
                    &trace,
                    &plan,
                    &imp,
                    &mut ref_sites,
                ));
            }
            for shards in [1usize, 2, 3, 7] {
                for workers in [1usize, 2] {
                    let mut sim = sim0.clone();
                    let mut s = sites(topo.n_edges());
                    let mut eng = ShardedReplay::new(Sharding { shards, workers });
                    for (epoch, r_ref) in ref_reports.iter().enumerate() {
                        let r =
                            run_sharded(path, &mut eng, &mut sim, &trace, &plan, &imp, &mut s);
                        assert_eq!(
                            &r, r_ref,
                            "report differs: {name} {path:?} epoch {epoch} \
                             shards={shards} workers={workers}"
                        );
                    }
                    assert_eq!(
                        s, ref_sites,
                        "site state differs: {name} {path:?} shards={shards} workers={workers}"
                    );
                    assert_eq!(sim.current_epoch(), sim_ref.current_epoch());
                }
            }
        }
    }
}

/// The scenario paths' `delivered` report is assembled from per-shard
/// columns, so the degenerate partitions matter: more shards than edges
/// (shards 4..9 own no edge and contribute empty columns) and an empty
/// trace (every column empty) must still reproduce the serial report.
#[test]
fn scenario_paths_survive_idle_shards_and_an_empty_trace() {
    let topo: Topology = FatTree::testbed().into();
    let (trace, plan) = workload(&topo, 0xc01);
    let empty = Trace { flows: Vec::new() };
    let imp = impairments();
    let sim0 = Simulator::new(topo.clone(), SimConfig::default());
    for (what, trace) in [("idle shards", &trace), ("empty trace", &empty)] {
        for path in [Path::Scenario, Path::ScenarioBurst] {
            let mut sim_ref = sim0.clone();
            let mut ref_sites = sites(topo.n_edges());
            let mut sim = sim0.clone();
            let mut s = sites(topo.n_edges());
            let mut eng = ShardedReplay::new(Sharding { shards: 9, workers: 16 });
            for epoch in 0..2 {
                let r_ref = run_unsharded(path, &mut sim_ref, trace, &plan, &imp, &mut ref_sites);
                let r = run_sharded(path, &mut eng, &mut sim, trace, &plan, &imp, &mut s);
                assert_eq!(r, r_ref, "{what}: {path:?} epoch {epoch}");
                assert_eq!(r.delivered.len(), trace.num_flows(), "{what}: {path:?}");
            }
            assert_eq!(s, ref_sites, "{what}: {path:?} site state");
        }
    }
}

// ---------------------------------------------------------------------
// Merge permutation invariance (proptest)
// ---------------------------------------------------------------------

/// Builds one fragment from a generated spec. Flow keys are made disjoint
/// across fragments by construction (`frag_id` is baked into the flow id),
/// mirroring the pipeline invariant that each flow is realized by exactly
/// one shard.
fn build_fragment(frag_id: u64, flows: &[(u64, u64, u64, u8)]) -> ReportFragment<FiveTuple> {
    let mut frag = ReportFragment::<FiveTuple>::default();
    for &(salt, delivered, lost, hops) in flows {
        let f = FiveTuple::unpack(((frag_id << 32) | salt) as u128 | 1 << 96);
        frag.delivered.push((f, delivered));
        if lost > 0 {
            frag.lost.insert(f, lost);
            let sw = SwitchId { role: SwitchRole::Edge, index: (salt % 5) as usize };
            let mut at = BTreeMap::new();
            at.insert(sw, lost);
            frag.lost_at.insert(f, at);
            *frag.dropped_at.entry(sw).or_insert(0) += lost;
        }
        let core = SwitchId { role: SwitchRole::Core, index: (salt % 3) as usize };
        *frag.dropped_at.entry(core).or_insert(0) += salt % 2;
        *frag.hops_histogram.entry(hops as usize).or_insert(0) += delivered + lost;
    }
    frag
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `merge_fragments` is invariant under any permutation of its
    /// fragment slice: the merged report depends only on the multiset of
    /// fragment contents, never on shard order.
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
        let mut frags: Vec<ReportFragment<FiveTuple>> = specs
            .iter()
            .enumerate()
            .map(|(i, flows)| build_fragment(i as u64, flows))
            .collect();
        let mut shuffled: Vec<ReportFragment<FiveTuple>> = specs
            .iter()
            .enumerate()
            .map(|(i, flows)| build_fragment(i as u64, flows))
            .collect();
        // Fisher–Yates with a deterministic splitmix stream.
        let mut state = perm_seed;
        for i in (1..shuffled.len()).rev() {
            state = chm_common::hash::mix64(state);
            shuffled.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let qd = BTreeMap::new();
        prop_assert_eq!(
            merge_fragments(epoch, qd.clone(), &mut frags),
            merge_fragments(epoch, qd, &mut shuffled)
        );
    }
}
