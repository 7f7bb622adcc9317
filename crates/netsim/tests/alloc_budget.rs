//! Allocation budget of the replay: a steady-state epoch may request little
//! more than the [`EpochReport`] it hands back.
//!
//! The report's `delivered` column has one 24-byte row per flow — one copy of
//! the trace's rows, lowered at the victims — so it *is* the epoch's
//! allocation; everything else it requests is victim- or switch-sized. The
//! sharded engine keeps arenas across epochs: the fragments and fate
//! buffers, victim-sized, and two trace-sized ones, the partition (a `u32`
//! per flow) and the cross-shard egress outboxes (a 12-byte record per run
//! that leaves through another shard's site). A live-bytes counter bounds
//! what a warm engine keeps per flow between epochs. What this guards
//! against is also a trace-sized structure that is built and thrown away — the loss plan's whole-trace
//! `delivered` map the replay used to discard, a per-flow fragment column
//! that the merge re-reads, a merge accumulator regrown from empty — and a
//! keyed map coming back in the column's place (a hash table of the same rows
//! requests 1.7x the bytes, and hashing every flow into it was the largest
//! serial term of a sharded epoch): either costs milliseconds to tens of
//! milliseconds at 250 k flows and is invisible to every equality test.
//! Verified with the workspace's counting global allocator
//! (`chm_counting_alloc`: bytes requested, calls, and bytes live).
//!
//! By count, too: a victim allocates nothing of its own. The report's
//! victim table is three exactly-sized vectors — rows, bounds and one shared
//! list of `(switch, count)` drops — and a victim's drops are counted in a
//! per-hop buffer reused from flow to flow, so a steady-state epoch at 10x
//! the victims makes at most 16 more allocator calls than at 1x — measured
//! at 200 → 2 000 victims: 20 → 25 serial, the fresh fragment regrowing its
//! drop list a few more times, and 36 → 36 sharded, whose arenas have
//! already grown. (Before the table, every victim's drops were a `BTreeMap`
//! of their own: 209 → 2 009 serial.)

use chm_common::FiveTuple;
use chm_counting_alloc::CountingAlloc;
use chm_netsim::{
    EdgeSite, FatTree, ImpairmentSet, ShardedReplay, Sharding, SimConfig, Simulator, SiteArray,
};
use chm_workloads::{testbed_trace, LossPlan, VictimSelection, WorkloadKind};
use std::sync::{Mutex, MutexGuard};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The counters are process-global: the tests take turns.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A site that keeps counters only, so the measured bytes are the replay
/// engine's own.
#[derive(Default)]
struct CountingSite {
    ingress: u64,
    egress: u64,
}

impl EdgeSite<FiveTuple> for CountingSite {
    fn site_ingress(&mut self, _f: &FiveTuple, _ts: u8) -> u8 {
        self.ingress += 1;
        0
    }
    fn site_egress(&mut self, _f: &FiveTuple, _ts: u8, _tag: u8) {
        self.egress += 1;
    }
    fn site_ingress_burst(&mut self, _f: &FiveTuple, _ts: u8, pkts: u64) -> [(u8, u64); 3] {
        self.ingress += pkts;
        [(0, pkts), (1, 0), (2, 0)]
    }
    fn site_egress_burst(&mut self, _f: &FiveTuple, _ts: u8, _tag: u8, delivered: u64) {
        self.egress += delivered;
    }
}

#[test]
fn a_scenario_epoch_allocates_little_more_than_its_report() {
    let _turn = one_at_a_time();
    let topo = FatTree::testbed();
    let trace = testbed_trace(WorkloadKind::Dctcp, 20_000, 8, 0xa110c);
    let plan = LossPlan::build(&trace, VictimSelection::RandomRatio(0.01), 0.02, 0x10ad);
    let imp = ImpairmentSet::none();
    let new_sites = || (0..4).map(|_| CountingSite::default()).collect::<Vec<_>>();

    // Sharded engine, steady state: epoch 0 grows the arenas, then the
    // smaller of two epochs is compared with what its report holds —
    // measured as the bytes a clone of that report requests.
    let mut sim = Simulator::new(topo.clone(), SimConfig::default());
    let mut eng = ShardedReplay::new(Sharding::of(2));
    let mut sites = new_sites();
    eng.run_epoch_burst_scenario(&mut sim, &trace, &plan, &imp, &mut sites);
    let mut epoch = || {
        ALLOC.bytes_during(|| eng.run_epoch_burst_scenario(&mut sim, &trace, &plan, &imp, &mut sites))
    };
    let (a, _) = epoch();
    let (b, report) = epoch();
    let (held, copy) = ALLOC.bytes_during(|| report.clone());
    assert_eq!(copy.delivered.len(), 20_000);
    assert!(held > 20_000 * 24, "a report holds at least its delivered rows: {held} B");
    // A 20 k-entry hash table requests ~819 kB; the column is 480 kB and
    // the victims' maps are noise beside it.
    assert!(held < 20_000 * 32, "a report holds little beyond its delivered rows: {held} B");
    // Beside the report: the plan's lost-count list and the per-phase task
    // vectors (measured: 1.1 % over; 10 % allowed).
    let requested = a.min(b);
    assert!(
        10 * requested < 11 * held,
        "sharded scenario epoch requested {requested} B, its report holds {held} B"
    );

    // Serial path: it has no arenas, but it must not build a trace-sized
    // structure it does not return — the report's own `delivered` is the
    // only one (1x), the victims' maps and route buffers are noise beside it.
    let mut sim = Simulator::new(topo, SimConfig::default());
    let mut sites = new_sites();
    sim.run_epoch_burst_scenario(&trace, &plan, &imp, &mut SiteArray(&mut sites));
    let (requested, report) = ALLOC.bytes_during(|| {
        sim.run_epoch_burst_scenario(&trace, &plan, &imp, &mut SiteArray(&mut sites))
    });
    let (held, _copy) = ALLOC.bytes_during(|| report.clone());
    assert!(
        2 * requested < 3 * held,
        "serial scenario epoch requested {requested} B, its report holds {held} B"
    );

    // The clean entry point is that same epoch under `none()`, and at 1 %
    // victims it is held to the report's own size: beside the report there
    // are only the plan's victim-sized lost-count list, the equally short
    // fragment and the route buffers (5 % allowed).
    let (requested, report) =
        ALLOC.bytes_during(|| sim.run_epoch_burst(&trace, &plan, &mut SiteArray(&mut sites)));
    let (held, _copy) = ALLOC.bytes_during(|| report.clone());
    assert!(
        20 * requested < 21 * held,
        "serial clean epoch requested {requested} B, its report holds {held} B"
    );
}

/// Allocator calls of a steady-state burst epoch over 20 k flows with `ratio`
/// of them victims: the second of two epochs, so a sharded engine's arenas
/// have grown to this victim count.
fn epoch_calls(ratio: f64, sharding: Option<Sharding>) -> u64 {
    let trace = testbed_trace(WorkloadKind::Dctcp, 20_000, 8, 0xa110c);
    let plan = LossPlan::build(&trace, VictimSelection::RandomRatio(ratio), 0.02, 0x10ad);
    let imp = ImpairmentSet::none();
    let mut sim = Simulator::new(FatTree::testbed(), SimConfig::default());
    let mut sites: Vec<CountingSite> = (0..4).map(|_| CountingSite::default()).collect();
    let mut eng = sharding.map(ShardedReplay::new);
    let mut epoch = || match &mut eng {
        Some(eng) => eng.run_epoch_burst_scenario(&mut sim, &trace, &plan, &imp, &mut sites),
        None => sim.run_epoch_burst_scenario(&trace, &plan, &imp, &mut SiteArray(&mut sites)),
    };
    epoch();
    ALLOC.calls_during(epoch).0
}

#[test]
fn victims_cost_no_allocation_of_their_own() {
    let _turn = one_at_a_time();
    for sharding in [None, Some(Sharding::of(2))] {
        let (few, many) = (epoch_calls(0.01, sharding), epoch_calls(0.1, sharding));
        assert!(many <= few + 16, "{sharding:?}: {few} allocations at 200 victims, {many} at 2 000");
    }
}

/// What a warm engine keeps between epochs: after two 2-shard epochs over
/// 20 k flows, with both reports dropped, the bytes still live that the
/// engine allocated. Two of its arenas are trace-sized — the partition's
/// `u32` per flow, and the outboxes' 12-byte record per egress run that
/// leaves through the other shard's site (about half of the flows) — each
/// `Vec` holding up to twice what it uses. Measured: 17.4 B a flow.
/// Queueing every egress run as a 32-byte record that copies the flow, own
/// site or not, kept 60.0 B a flow.
#[test]
fn a_warm_engine_keeps_few_bytes_per_flow_between_epochs() {
    let _turn = one_at_a_time();
    let trace = testbed_trace(WorkloadKind::Dctcp, 20_000, 8, 0xa110c);
    let plan = LossPlan::build(&trace, VictimSelection::RandomRatio(0.01), 0.02, 0x10ad);
    let imp = ImpairmentSet::none();
    let mut sim = Simulator::new(FatTree::testbed(), SimConfig::default());
    let mut sites: Vec<CountingSite> = (0..4).map(|_| CountingSite::default()).collect();
    let before = ALLOC.live();
    let mut eng = ShardedReplay::new(Sharding::of(2));
    for _ in 0..2 {
        drop(eng.run_epoch_burst_scenario(&mut sim, &trace, &plan, &imp, &mut sites));
    }
    let kept = ALLOC.live() - before;
    assert!(kept < 24 * 20_000, "a warm 2-shard engine keeps {kept} B over 20 000 flows");
    drop(eng);
}
