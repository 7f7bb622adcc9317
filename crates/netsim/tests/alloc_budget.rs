//! Allocation budget of the replay: a steady-state epoch may request little
//! more than the [`EpochReport`] it hands back.
//!
//! The report's `delivered` column has one 24-byte row per flow — one copy of
//! the trace's rows, lowered at the victims — so it *is* the epoch's
//! allocation; everything else it requests is victim- or switch-sized. The
//! sharded engine keeps arenas across epochs: the fragments (16 bytes a
//! staged victim, 8 a drop entry, bounded on the congested preset) and fate
//! buffers, victim-sized, and one trace-sized one, the cross-shard egress
//! outboxes (a 12-byte record per run that leaves through another shard's
//! site; none at one shard). It keeps no per-flow state of its own. A
//! live-bytes counter bounds what a warm engine keeps per flow between
//! epochs, at one shard and at two. What this guards
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
//! at 200 → 2 000 victims: 16 → 20 serial, the fresh fragment regrowing its
//! drop list a few more times, and 7 → 7 at one shard and 19 → 19 at two,
//! whose arenas have already grown. (Before the table, every victim's drops
//! were a `BTreeMap` of their own: 209 → 2 009 serial.)
//!
//! And by layout: a steady engine epoch rebuilds nothing per phase — no
//! list of site borrows, task or timing vectors, fragment list or merge
//! cursors; its span tree keeps its nodes and each fragment its hop
//! histogram — so one shard on one worker makes fewer calls than the
//! serial driver, which builds a fresh fragment every epoch (measured 7
//! against 16), more shards on one worker cost no more (2 × 1 and 4 × 1
//! are 7), and two workers cost one worker's calls plus the two phases'
//! scoped threads (2 × 2 and 4 × 2 are 19 under the harness, whose spawns
//! cost 12). Before, the per-phase vectors and the span tree's re-inserted
//! nodes made those 24 at 1 × 1 and 35 at 2 × 2, and a fragment's hop
//! histogram was a map node each shard re-allocated every epoch (2 × 1 was
//! 9 against 1 × 1's 8).

use chm_common::FiveTuple;
use chm_counting_alloc::CountingAlloc;
use chm_netsim::{
    CongestionModel, Derate, EdgeSite, FatTree, ImpairmentSet, QueueModel, ShardedReplay,
    Sharding, SimConfig, Simulator, SiteArray, SwitchRole,
};
use chm_workloads::{testbed_trace, ArrivalProfile, LossPlan, VictimSelection, WorkloadKind};
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
    // Beside the report: the plan's lost-count list and the phases' scoped
    // threads (10 % allowed).
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
/// of them victims: the fewer of the second and third epochs, so a sharded
/// engine's arenas have grown to this victim count, and a one-time
/// allocation of the test harness (which spawns the other tests' threads
/// meanwhile) that lands in one window does not count.
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
    let mut calls = || ALLOC.calls_during(&mut epoch).0;
    calls().min(calls())
}

#[test]
fn victims_cost_no_allocation_of_their_own() {
    let _turn = one_at_a_time();
    for sharding in [None, Some(Sharding::single()), Some(Sharding::of(2))] {
        let (few, many) = (epoch_calls(0.01, sharding), epoch_calls(0.1, sharding));
        assert!(many <= few + 16, "{sharding:?}: {few} allocations at 200 victims, {many} at 2 000");
    }
}

/// A steady one-shard epoch makes no more calls than the serial driver's
/// (measured 7 against 16); two shards on one worker make exactly one
/// shard's, as each fragment keeps its hop histogram; and two shards on two
/// workers no more than that plus their two scoped threads (one per phase):
/// measured 19 against 7 and the spawns' 12. The spawns are measured here
/// rather than written down, because the test harness's output capture
/// makes each cost two calls more (4 a spawn outside it, 6 inside).
#[test]
fn an_engine_epoch_costs_the_serial_drivers_calls_and_its_spawns_at_most() {
    let _turn = one_at_a_time();
    let serial = epoch_calls(0.01, None);
    let single = epoch_calls(0.01, Some(Sharding::single()));
    assert!(single <= serial, "one shard: {single} allocations, the serial driver {serial}");
    let one_worker = epoch_calls(0.01, Some(Sharding { shards: 2, workers: 1 }));
    assert_eq!(one_worker, single, "2 x 1: {one_worker} allocations, 1 x 1 {single}");
    let spawn = || std::thread::scope(|scope| drop(scope.spawn(|| ())));
    let spawns = ALLOC.calls_during(|| (spawn(), spawn())).0;
    let two = epoch_calls(0.01, Some(Sharding::of(2)));
    assert!(
        two <= single + spawns,
        "2 x 2: {two} allocations, 1 x 1 {single}, the two spawns {spawns}"
    );
}

/// What a warm engine keeps between epochs, in bytes a flow: after two
/// epochs over 20 k flows at `sharding`, with both reports dropped, the
/// bytes still live that the engine allocated.
fn kept_per_flow(sharding: Sharding) -> f64 {
    let trace = testbed_trace(WorkloadKind::Dctcp, 20_000, 8, 0xa110c);
    let plan = LossPlan::build(&trace, VictimSelection::RandomRatio(0.01), 0.02, 0x10ad);
    let imp = ImpairmentSet::none();
    let mut sim = Simulator::new(FatTree::testbed(), SimConfig::default());
    let mut sites: Vec<CountingSite> = (0..4).map(|_| CountingSite::default()).collect();
    let before = ALLOC.live();
    let mut eng = ShardedReplay::new(sharding);
    for _ in 0..2 {
        drop(eng.run_epoch_burst_scenario(&mut sim, &trace, &plan, &imp, &mut sites));
    }
    let kept = ALLOC.live() - before;
    drop(eng);
    kept as f64 / 20_000.0
}

/// The engine keeps no per-flow state of its own: at one shard no egress
/// leaves through another shard's site, so what it keeps is victim- and
/// switch-sized. Measured: 0.44 B a flow (0.93 while each staged victim
/// copied its flow). A partition of the flows (a `u32`
/// each, in a `Vec` holding up to twice what it uses) kept 7.48.
#[test]
fn a_warm_one_shard_engine_keeps_no_per_flow_state() {
    let _turn = one_at_a_time();
    let kept = kept_per_flow(Sharding::single());
    assert!(kept < 2.0, "a warm 1-shard engine keeps {kept:.2} B a flow over 20 000 flows");
}

/// At two shards one arena is trace-sized: the outboxes' 12-byte record per
/// egress run that leaves through the other shard's site (about half of
/// the flows), each `Vec` holding up to twice what it uses. Measured:
/// 10.3 B a flow, bounded at 13; with a `u32` partition of the flows beside
/// it, 17.4. Queueing every egress run as a 32-byte record that copies the
/// flow, own site or not, kept 60.0 B a flow.
#[test]
fn a_warm_engine_keeps_few_bytes_per_flow_between_epochs() {
    let _turn = one_at_a_time();
    let kept = kept_per_flow(Sharding::of(2));
    assert!(kept < 13.0, "a warm 2-shard engine keeps {kept:.2} B a flow over 20 000 flows");
}

/// The `chm-serve --scenario congested` preset's impairments: congestion
/// under the calibrated 8-slot queue model, a 30 %-in-two-slots
/// microburst, and edge 1 draining at 0.55 of its service.
fn congested() -> ImpairmentSet {
    let mut queue = QueueModel::calibrated(8);
    queue.profile = ArrivalProfile::Microburst { frac: 0.3, width: 2 };
    queue.derates.push(Derate::Switch { role: SwitchRole::Edge, index: 1, factor: 0.55 });
    ImpairmentSet {
        seed: 7,
        congestion: Some(CongestionModel::calibrated()),
        queue: Some(queue),
        ..ImpairmentSet::none()
    }
}

/// A warm epoch's link-loss realization allocates only what it outputs:
/// the queue telemetry that moves into the report (one map node, and one
/// `slot_drops` vector per dropping switch). The simulator keeps the
/// realization — its drop probabilities and per-link stats are flat tables
/// refilled in place — its work vectors and the fabric index across epochs.
/// Measured on the congested preset over 600 flows at one shard: 17 calls
/// an epoch against 7 for the same epoch without a link model, and the 10
/// between them are all telemetry. A fresh `QueueModel::realize` makes 36;
/// with the stats in a map rebuilt every epoch, a warm one made 20.
#[test]
fn a_warm_link_loss_realization_allocates_only_its_outputs() {
    let _turn = one_at_a_time();
    let trace = testbed_trace(WorkloadKind::Dctcp, 600, 8, 0xa110c);
    let plan = LossPlan::build(&trace, VictimSelection::RandomRatio(0.01), 0.02, 0x10ad);
    let imp = congested();
    let mut sim = Simulator::new(FatTree::testbed(), SimConfig::default());
    let mut sites: Vec<CountingSite> = (0..4).map(|_| CountingSite::default()).collect();
    let mut eng = ShardedReplay::new(Sharding::single());
    // Each epoch twice, with and without the link model: the engine's
    // arenas are grown by the first, so what differs is the realization.
    let mut run = |epoch: u64, imp: &ImpairmentSet| {
        sim.set_epoch(epoch);
        ALLOC.calls_during(|| eng.run_epoch_burst_scenario(&mut sim, &trace, &plan, imp, &mut sites))
    };
    run(0, &imp);
    // The smallest excess over a few epochs: a one-time allocation of the
    // harness can land in one window; a realization that rebuilds its
    // workspace shows in every one.
    let excess = (1..4u64)
        .map(|epoch| {
            let (with, report) = run(epoch, &imp);
            let (without, _) = run(epoch, &ImpairmentSet::none());
            let telemetry = ALLOC.calls_during(|| report.queue_depth.clone()).0;
            assert!(telemetry > 0, "the preset's queues must buffer");
            with as i64 - (without + telemetry) as i64
        })
        .min()
        .expect("three epochs");
    assert!(excess <= 0, "the realization made {excess} calls beyond its outputs");
}

/// Bytes a driver keeps live after four epochs over `trace` under `imp`,
/// its reports dropped — the engine at one shard, or the serial driver —
/// with the most victims and drop entries any of those epochs reported.
fn kept_over_epochs(
    engine: bool,
    trace: &chm_workloads::Trace<FiveTuple>,
    imp: &ImpairmentSet,
) -> (i64, usize, usize) {
    let plan = LossPlan::none();
    let before = ALLOC.live();
    let mut sim = Simulator::new(FatTree::testbed(), SimConfig::default());
    let mut sites: Vec<CountingSite> = (0..4).map(|_| CountingSite::default()).collect();
    let mut eng = engine.then(|| ShardedReplay::new(Sharding::single()));
    let (mut victims, mut drops) = (0, 0);
    for _ in 0..4 {
        let report = match &mut eng {
            Some(eng) => eng.run_epoch_burst_scenario(&mut sim, trace, &plan, imp, &mut sites),
            None => sim.run_epoch_burst_scenario(trace, &plan, imp, &mut SiteArray(&mut sites)),
        };
        victims = victims.max(report.lost.len());
        drops = drops.max(report.lost.with_drops().map(|(_, _, d)| d.len()).sum());
    }
    let kept = ALLOC.live() - before;
    drop((eng, sim));
    (kept, victims, drops)
}

/// What a warm one-shard engine keeps of its fragment staging on the
/// congested preset, whose link losses make about 230 victims an epoch
/// over 600 flows: at most 24 bytes per victim and drop entry of the
/// largest epoch. A staged victim is 16 bytes (trace row, end of its
/// drops, lost count) and a drop entry 8 (switch code, count), in vectors
/// that hold up to twice what they use, and every victim has a drop
/// entry. The staging is what the engine keeps beyond the serial driver,
/// which stages in a fresh fragment every epoch, less that same difference
/// on a clean epoch of the same flows (no victim, so no staging): the rest
/// of what they keep — per-flow scratch, link-loss realization, span tree
/// — is alike. Staging that copied the flow into each victim (40 bytes)
/// and kept a full `SwitchId` per drop entry (24 bytes) kept more than 24.
#[test]
fn a_warm_engine_keeps_compact_victim_staging() {
    let _turn = one_at_a_time();
    let trace = testbed_trace(WorkloadKind::Dctcp, 600, 8, 0xa110c);
    let excess = |imp: &ImpairmentSet| {
        let (engine, victims, drops) = kept_over_epochs(true, &trace, imp);
        let (serial, ..) = kept_over_epochs(false, &trace, imp);
        (engine - serial, victims, drops)
    };
    let (clean, no_victims, _) = excess(&ImpairmentSet::none());
    assert_eq!(no_victims, 0, "a clean fabric under no plan loses nothing");
    let (congested, victims, drops) = excess(&congested());
    assert!(victims > 100, "the preset must make victims: {victims}");
    let staging = congested - clean;
    let per_entry = staging as f64 / (victims + drops) as f64;
    assert!(
        per_entry <= 24.0,
        "a warm engine keeps {staging} B of staging for {victims} victims and {drops} drop \
         entries: {per_entry:.1} B an entry"
    );
}
