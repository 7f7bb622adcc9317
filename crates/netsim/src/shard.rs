//! The sharded epoch pipeline: intra-trial parallel replay.
//!
//! [`Simulator`] walks a trace single-threaded. This module is the second
//! driver of the same replay kernel (one epoch prologue, one per-flow
//! realize step, the two walkers of [`ReplayMode`]): it partitions the work
//! by **ingress edge** — every flow is
//! pinned to the shard that owns `edge_of_host(src)` — and replays the
//! shards on scoped threads, merging per-shard [`ReportFragment`]s into the
//! identical [`EpochReport`]. The contract is *byte-identity at any shard
//! count*: report, drop attribution, and sketch-group state all match the
//! unsharded replay bit for bit (pinned by `tests/shard_differential.rs`
//! and the scenario-matrix suite in `chm_scenarios`).
//!
//! # Why edge-partitioning is exact
//!
//! * **Ingress state is order-sensitive but edge-local.** A classifier's
//!   per-packet hierarchy decision depends on the flow's size *so far* at
//!   its ingress edge. Partitioning by ingress edge keeps every edge's
//!   ingress stream on exactly one shard, in preserved trace order — the
//!   same call sequence the unsharded loop issues.
//! * **Egress state is commutative.** Egress writes are modular adds into
//!   the downstream encoders plus a packet counter; no egress read feeds a
//!   later ingress decision, so egress need not keep trace order. A flow
//!   whose egress edge the shard owns too (a same-rack flow enters and
//!   leaves at one site) is egressed on the spot in phase A, as the serial
//!   loop does. Only egress through another shard's site is recorded, as
//!   run-length-encoded `EgressRun`s in per-destination-shard outboxes, and
//!   the owning shard applies them in deterministic (source-shard, record)
//!   order after a barrier (phase B). Egress weights add, so a run is split
//!   into several records where it outgrows one.
//! * **Randomness is split-seed.** Loss plans realize in a serial prologue
//!   (one global RNG stream, untouched; the victims' lost counts only);
//!   per-flow impairment fates are pure
//!   functions of `(seed, epoch_seed, flow_key)` — the same discipline that
//!   makes `chm_bench::parallel` byte-identical at any worker count — so a
//!   shard realizes exactly what the serial loop would.
//!
//! # Layout
//!
//! The partition is one flat column per shard — `ShardFlows`, the trace
//! indices of the shard's flows, ascending. Everything else phase A needs
//! about a flow (its global ingress edge, which of the shard's sites that
//! is, which shard and site it leaves through) is re-derived from the
//! flow's endpoints and two per-edge tables (`EdgeTables`), and
//! `ShardScratch` reuses route/probability/fate buffers across epochs —
//! shards stream cache-linearly instead of chasing per-flow heap objects.
//! A cross-shard egress record does not copy its flow: it names the trace
//! row with the partition's own `u32`, and the destination site with a
//! `u16` local index, 12 bytes in all; phase B reads the flow back from the
//! trace. A layout whose shards own more sites than a `u16` indexes is
//! refused.
//! No step hashes a flow, and nothing serial is trace-sized but the
//! partition and one `memcpy`: the plan locates its victims by remembered
//! trace row and hands their losses over by trace index, a shard records
//! only the flows that lost packets — one row each, in trace order — and the
//! merge interleaves those sorted runs and lowers the trace's own rows at
//! them.
//!
//! `shards` fixes the partition (and is what byte-identity is proven over);
//! `workers` only scales execution — any worker count replays the same
//! shard set in the same per-shard order, so it never affects output.
//!
//! Timing is injected: [`ShardedReplay::run_epoch`] accepts a
//! monotonic-seconds closure from the caller (`&|| 0.0` when nobody is
//! timing), because only `crates/bench` may read wall clocks. Per-shard
//! phase times make the scaling curve honest on any builder: the critical
//! path `prologue + max(phase A) + max(phase B) + merge` is what an
//! `n`-core machine would pay.

use crate::impair::ImpairmentSet;
use crate::queue::QueueDepthStat;
use crate::sim::{
    EdgeSite, EpochReport, EpochSetup, FlowColumn, FlowScratch, Port, ReplayMode, Routable,
    Simulator, SitePort, VictimTable,
};
use crate::topology::{Fabric, SwitchId, Topology};
use chm_obs::SpanProfiler;
use chm_workloads::{LossPlan, Trace};
use std::cell::Cell;
use std::collections::BTreeMap;

/// How a trial is sharded.
///
/// `shards` fixes the flow partition — the unit byte-identity is proven
/// over. `workers` caps the scoped threads actually spawned; any value
/// produces identical output because shards are static work units merged in
/// shard order. Both are clamped to ≥ 1 at construction.
/// `ScenarioStack::set_sharding` (in `chm_scenarios`) also clamps both to
/// its edge count: a shard past the edge count owns no edge and no flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sharding {
    /// Number of flow partitions (by ingress edge, round-robin).
    pub shards: usize,
    /// Scoped threads to run them on (≤ shards threads ever spawn).
    pub workers: usize,
}

impl Sharding {
    /// The serial layout: one shard, one worker.
    pub fn single() -> Self {
        Sharding { shards: 1, workers: 1 }
    }

    /// `n` shards on `n` workers.
    pub fn of(n: usize) -> Self {
        let n = n.max(1);
        Sharding { shards: n, workers: n }
    }

    fn normalized(self) -> Self {
        Sharding { shards: self.shards.max(1), workers: self.workers.max(1) }
    }
}

thread_local! {
    /// The calling thread's share of the machine, when a pool declared one
    /// with [`with_core_share`].
    static CORE_SHARE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The cores the calling thread has to itself: the machine's available
/// parallelism, or, on a worker of a pool that splits its spawner's cores
/// (`chm_bench::parallel`), the share [`with_core_share`] gave it. A holder
/// that sizes its engine from this (`chamelemon::ChameleMon`) replays
/// serially inside a pool that already fills the machine instead of
/// stacking its workers on the pool's.
pub fn core_share() -> usize {
    CORE_SHARE
        .with(Cell::get)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `f` with [`core_share`] at `cores` (clamped to ≥ 1) on the calling
/// thread, restoring the previous share after: what each worker of a pool
/// does first, with its spawner's share divided by the pool's width.
pub fn with_core_share<R>(cores: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CORE_SHARE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(CORE_SHARE.with(|c| c.replace(Some(cores.max(1)))));
    f()
}

/// One shard's share of an [`EpochReport`], accumulated in phase A — or the
/// serial driver's whole epoch, as one fragment. Each victim is recorded
/// once, when the walk reaches it, so the list is ascending in trace row.
/// Everything in it is victim- or switch-sized, and the fragments of one
/// epoch name disjoint rows, so [`merge_fragments`] comes out the same
/// whatever order they arrive in (property-tested).
#[derive(Debug, Clone, PartialEq)]
pub struct ReportFragment<F> {
    /// `(trace row, flow, lost, end of its drops)` per victim: victim `i`'s
    /// drops are `drops[victims[i - 1].3..victims[i].3]` (from 0 for the
    /// first).
    pub victims: Vec<(usize, F, u64, usize)>,
    /// The victims' `(switch, count)` drops, each victim's sorted by switch.
    pub drops: Vec<(SwitchId, u64)>,
    /// Route-length histogram contribution.
    pub hops_histogram: BTreeMap<usize, u64>,
}

// Not derived: the derive would bound `F: Default`, and an empty fragment
// needs no `F`.
impl<F> Default for ReportFragment<F> {
    fn default() -> Self {
        ReportFragment { victims: Vec::new(), drops: Vec::new(), hops_histogram: BTreeMap::new() }
    }
}

impl<F> ReportFragment<F> {
    fn clear(&mut self) {
        self.victims.clear();
        self.drops.clear();
        self.hops_histogram.clear();
    }
}

/// The one place an [`EpochReport`] is made, for both drivers: the
/// fragments' victims merged into one trace-ordered [`VictimTable`], the
/// report's other victim-derived parts read off it — each `delivered` row
/// the trace's count less its `lost`, `dropped_at` the drops summed per
/// switch — and the histograms summed. Fragments are drained (capacity
/// kept). `queue_depth` becomes the report's telemetry as it is: both
/// drivers move it out of the epoch's queue realization, never copy it.
///
/// The fragments must name disjoint trace rows, as the ingress-edge
/// partition guarantees; the result is then invariant under any permutation
/// of `frags` (the proptest in `tests/shard_differential.rs` pins it).
/// `delivered` — the one trace-sized piece of an epoch — costs a `memcpy` of
/// the trace's rows and one store per victim.
pub fn merge_fragments<F: Copy>(
    trace: &Trace<F>,
    epoch: u64,
    queue_depth: BTreeMap<SwitchId, QueueDepthStat>,
    frags: &mut [ReportFragment<F>],
) -> EpochReport<F> {
    let victims = frags.iter().map(|f| f.victims.len()).sum();
    let drops = frags.iter().map(|f| f.drops.len()).sum();
    let mut report = EpochReport {
        delivered: FlowColumn::of_trace(trace),
        lost: VictimTable::with_capacity(victims, drops),
        dropped_at: BTreeMap::new(),
        hops_histogram: BTreeMap::new(),
        queue_depth,
        epoch,
    };
    merge_runs(&mut report, frags, &mut vec![0; frags.len()]);
    report
}

/// The body of [`merge_fragments`]: a k-way merge of the fragments' victim
/// runs (`heads[k]` is fragment `k`'s next victim) into `report`, then the
/// folds, draining every fragment.
// chm-lint: hot
fn merge_runs<F: Copy>(
    report: &mut EpochReport<F>,
    frags: &mut [ReportFragment<F>],
    heads: &mut [usize],
) {
    let next = |heads: &[usize]| {
        let live = (0..heads.len()).filter(|&k| heads[k] < frags[k].victims.len());
        live.min_by_key(|&k| frags[k].victims[heads[k]].0)
    };
    while let Some(k) = next(heads) {
        let (i, victims) = (heads[k], &frags[k].victims);
        let (row, f, lost, end) = victims[i];
        let start = if i == 0 { 0 } else { victims[i - 1].3 };
        report.delivered.rows[row].1 -= lost;
        report.lost.push(f, lost, &frags[k].drops[start..end]);
        heads[k] += 1;
    }
    for &(s, c) in &report.lost.drops {
        *report.dropped_at.entry(s).or_insert(0) += c;
    }
    for frag in frags.iter_mut() {
        for (&h, &c) in &frag.hops_histogram {
            *report.hops_histogram.entry(h).or_insert(0) += c;
        }
        frag.clear();
    }
}

/// Per-shard timing of one sharded epoch, in the caller's injected clock
/// units (seconds when the bench harness injects `Instant`-based time; all
/// zeros under the default null clock).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardTiming {
    /// Serial prologue: plan application, queue/congestion realization, and
    /// the flow partition — work every shard layout pays once.
    pub prologue_s: f64,
    /// Per-shard phase-A (ingress + fragment accounting) times.
    pub phase_a: Vec<f64>,
    /// Per-shard phase-B (egress inbox drain) times.
    pub phase_b: Vec<f64>,
    /// Serial fragment merge.
    pub merge_s: f64,
}

impl ShardTiming {
    /// The epoch's critical-path time on a machine with ≥ `shards` cores:
    /// serial prologue, then the slowest shard of each parallel phase, then
    /// the serial merge. Measured with `workers = 1` this projects the
    /// parallel wall time from genuinely measured per-shard work.
    pub fn critical_path_s(&self) -> f64 {
        self.prologue_s
            + self.phase_a.iter().fold(0.0_f64, |m, &t| m.max(t))
            + self.phase_b.iter().fold(0.0_f64, |m, &t| m.max(t))
            + self.merge_s
    }

    /// Total work: every phase of every shard plus the serial segments.
    pub fn total_work_s(&self) -> f64 {
        self.prologue_s
            + self.phase_a.iter().sum::<f64>()
            + self.phase_b.iter().sum::<f64>()
            + self.merge_s
    }
}

/// The flow partition: the flows owned by this shard, in trace order.
#[derive(Debug, Default)]
struct ShardFlows {
    /// Index into `trace.flows`, ascending.
    idx: Vec<u32>,
}

/// Where each edge switch lives under the round-robin split, built once per
/// epoch so the per-flow loops index a table instead of reducing: edge `e`
/// belongs to shard `e % shards` and is site `e / shards` of that shard's
/// owned-site list.
#[derive(Debug, Default)]
struct EdgeTables {
    shard: Vec<u32>,
    local: Vec<u16>,
}

impl EdgeTables {
    /// # Panics
    /// When a shard would own more sites than [`EgressRun`]'s `u16` site
    /// index can name.
    fn rebuild(&mut self, n_edges: usize, shards: usize) {
        let per_shard = n_edges.div_ceil(shards);
        assert!(
            per_shard <= usize::from(u16::MAX) + 1,
            "{n_edges} edge sites over {shards} shards is {per_shard} sites per shard; \
             an egress record indexes a shard's sites with u16, so use at least {} shards",
            n_edges.div_ceil(usize::from(u16::MAX) + 1)
        );
        self.shard.clear();
        self.shard.extend((0..n_edges).map(|e| (e % shards) as u32));
        self.local.clear();
        self.local.extend((0..n_edges).map(|e| (e / shards) as u16));
    }
}

/// One cross-shard egress record: `pkts` packets of trace row `row` leaving
/// through the destination shard's site `site`, all carrying the same
/// timestamp bit and tag (run-length encoding of consecutive identical
/// egress calls). The flow is read back from the trace, not carried: 12
/// bytes a record. A run of more than `u32::MAX` packets takes several
/// records, which is exact because egress weights add.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct EgressRun {
    row: u32,
    pkts: u32,
    site: u16,
    ts: u8,
    tag: u8,
}

const _: () = assert!(std::mem::size_of::<EgressRun>() == 12);

/// Per-shard reusable working state: the cross-shard egress outboxes (one
/// per destination shard; the shard's own stays empty), the report
/// fragment, and the per-flow scratch buffers the serial driver keeps as a
/// local.
///
/// The engine keeps one per shard in a `Vec`, and phase A has every worker
/// rewrite its own entry's vector headers on every flow (the `fates`
/// lengths). Aligned to a cache-line pair (Intel prefetches lines in pairs)
/// so that neighbouring entries never share one: unaligned (8-aligned),
/// entry `i`'s `fates` headers and entry `i + 1`'s `outbox`/fragment
/// headers sat in one line that two workers fought over per flow — ~10 ms
/// of a 40 ms phase A at 250 k flows, more or less of it depending on where
/// the allocator put the `Vec` and how the workers' timing fell, so the
/// fastest epoch of a run was a matter of luck.
#[derive(Debug)]
#[repr(align(128))]
struct ShardScratch<F> {
    outbox: Vec<Vec<EgressRun>>,
    frag: ReportFragment<F>,
    flow: FlowScratch,
}

impl<F> Default for ShardScratch<F> {
    fn default() -> Self {
        ShardScratch {
            outbox: Vec::new(),
            frag: ReportFragment::default(),
            flow: FlowScratch::default(),
        }
    }
}

/// The sharded driver's port for a flow that leaves through another shard:
/// ingress on the owned site, egress recorded into the outbox of the shard
/// that owns the egress edge. Per-packet egress is run-length encoded —
/// consecutive packets of the flow with identical `(ts, tag)` extend the
/// outbox's last run while it has room — so per-packet replay ships runs,
/// not packets, across the shard boundary.
struct OutboxPort<'a, E> {
    site: &'a mut E,
    outbox: &'a mut Vec<EgressRun>,
    /// The flow's trace row: runs of other rows are never extended.
    row: u32,
    /// The egress edge's index among the destination shard's sites.
    dest_site: u16,
}

impl<F, E: EdgeSite<F>> Port<F> for OutboxPort<'_, E> {
    #[inline]
    fn ingress(&mut self, f: &F, ts_bit: u8) -> u8 {
        self.site.site_ingress(f, ts_bit)
    }
    // chm-lint: hot
    #[inline]
    fn egress(&mut self, f: &F, ts_bit: u8, tag: u8) {
        match self.outbox.last_mut() {
            Some(run)
                if run.row == self.row
                    && run.ts == ts_bit
                    && run.tag == tag
                    && run.pkts < u32::MAX =>
            {
                run.pkts += 1
            }
            _ => self.egress_burst(f, ts_bit, tag, 1),
        }
    }
    #[inline]
    fn ingress_burst(&mut self, f: &F, ts_bit: u8, pkts: u64) -> [(u8, u64); 3] {
        self.site.site_ingress_burst(f, ts_bit, pkts)
    }
    // chm-lint: hot
    #[inline]
    fn egress_burst(&mut self, _f: &F, ts_bit: u8, tag: u8, delivered: u64) {
        // A weight-0 egress is a state no-op on every data plane, so it
        // pushes no record.
        let mut rest = delivered;
        while rest > 0 {
            let pkts = u32::try_from(rest).unwrap_or(u32::MAX);
            self.outbox.push(EgressRun {
                row: self.row,
                pkts,
                site: self.dest_site,
                ts: ts_bit,
                tag,
            });
            rest -= u64::from(pkts);
        }
    }
}

/// Phase-B application of one record to `f`, the flow its row names:
/// `pkts` individual egress calls under the per-packet walker — exactly
/// what the serial driver issues — or a single weighted egress under the
/// burst walker.
// chm-lint: hot
fn apply_run<F, E: EdgeSite<F>>(mode: ReplayMode, site: &mut E, f: &F, run: &EgressRun) {
    match mode {
        ReplayMode::PerPacket => {
            for _ in 0..run.pkts {
                site.site_egress(f, run.ts, run.tag);
            }
        }
        ReplayMode::Burst => site.site_egress_burst(f, run.ts, run.tag, u64::from(run.pkts)),
    }
}

/// Round-robin split of the edge-site slice: shard `s` owns sites
/// `{e : e % shards == s}` in ascending order, so site `e`'s local index is
/// `e / shards` everywhere (what `EdgeTables` tabulates).
fn split_edges<E>(edges: &mut [E], shards: usize) -> Vec<Vec<&mut E>> {
    let mut buckets: Vec<Vec<&mut E>> = (0..shards).map(|_| Vec::new()).collect();
    for (e, site) in edges.iter_mut().enumerate() {
        buckets[e % shards].push(site);
    }
    buckets
}

/// Runs `work` over every task, statically chunked across at most `workers`
/// threads — the calling thread, which takes the first chunk, and one scoped
/// thread per further chunk, so `workers = 2` costs one spawn per phase and
/// `workers = 1` none. Chunking is contiguous and deterministic; worker count
/// never changes which task gets which index. Panics in any worker propagate
/// at scope join.
///
/// One scope per phase, not one per epoch with a barrier between the phases:
/// phase A holds each shard's scratch `&mut` and phase B reads every shard's
/// outbox, a hand-over that inside one scope needs a lock around every
/// scratch — and a worker that panics before the barrier would leave the
/// others waiting at it for ever instead of propagating.
fn run_tasks<T, W>(workers: usize, tasks: &mut [T], work: W)
where
    T: Send,
    W: Fn(usize, &mut T) + Sync,
{
    let per = tasks.len().div_ceil(workers.max(1)).max(1);
    let run = |c: usize, chunk: &mut [T]| {
        for (j, t) in chunk.iter_mut().enumerate() {
            work(c * per + j, t);
        }
    };
    let mut chunks = tasks.chunks_mut(per).enumerate();
    let Some((c, own)) = chunks.next() else { return };
    if chunks.len() == 0 {
        return run(c, own);
    }
    std::thread::scope(|scope| {
        for (c, chunk) in chunks {
            let run = &run;
            scope.spawn(move || run(c, chunk));
        }
        run(c, own);
    });
}

/// Phase A for shard `shard`: replays the shard's flows in ascending trace
/// index — realize (which accounts a victim in the fragment and nothing for
/// anyone else), then walk the packets through the owned ingress site and
/// either straight into the egress site, when the shard owns it too, or
/// into the outbox of the shard that does. The flow's edges come from its
/// endpoints; their shard and site index from `tables`. The *global*
/// ingress edge goes to the realize step because
/// [`ImpairmentSet::realize_flow`] derives per-edge clock skew from it — a
/// local index would silently change realizations.
// chm-lint: hot
fn replay_shard<F: Routable, E: EdgeSite<F>>(
    trace: &Trace<F>,
    mode: ReplayMode,
    setup: &EpochSetup<'_>,
    tables: &EdgeTables,
    shard: usize,
    t: &mut TaskA<'_, '_, F, E>,
) {
    let ShardScratch { outbox, frag, flow } = &mut *t.scratch;
    let mut plan_lost = setup.plan_losses();
    for &idx in &t.part.idx {
        let (f, pkts) = trace.flows[idx as usize];
        let in_edge = setup.topo.edge_of_host(f.src_host());
        let out_edge = setup.topo.edge_of_host(f.dst_host());
        let base_lost = plan_lost.take(idx as usize);
        setup.realize_flow(idx as usize, (f, pkts), base_lost, in_edge, flow, frag);
        let (in_site, dest_site) = (usize::from(tables.local[in_edge]), tables.local[out_edge]);
        let dest = tables.shard[out_edge] as usize;
        if dest == shard {
            let sites = &mut t.edges[..];
            let mut port = SitePort { sites, in_edge: in_site, out_edge: usize::from(dest_site) };
            mode.walk(&f, pkts, setup.ts_bit, &flow.fates, &mut port);
        } else {
            let mut port = OutboxPort {
                site: &mut *t.edges[in_site],
                outbox: &mut outbox[dest],
                row: idx,
                dest_site,
            };
            mode.walk(&f, pkts, setup.ts_bit, &flow.fates, &mut port);
        }
    }
}

/// Phase-A work unit: one shard's partition, scratch, and owned sites.
/// The scratch borrow gets its own lifetime so it can end at the phase
/// barrier while the site borrows continue into phase B.
struct TaskA<'s, 'e, F, E> {
    part: &'s ShardFlows,
    scratch: &'s mut ShardScratch<F>,
    edges: Vec<&'e mut E>,
    time: f64,
}

/// Phase-B work unit: the owned sites again (scratches are read shared).
struct TaskB<'a, E> {
    edges: Vec<&'a mut E>,
    time: f64,
}

/// The sharded replay engine. Construct once with a [`Sharding`], then
/// drive any number of epochs; partitions, outboxes, fragments, and scratch
/// buffers are reused across epochs (arena-style). Two are trace-sized: the
/// partition's one `u32` per flow, and the outboxes' 12-byte records, about
/// one per flow that leaves through another shard's site (none at one
/// shard, about half the flows at two); the rest is victim- or
/// switch-sized. A layout whose shards would own more than 65 536 edge
/// sites each is refused with a panic. Once their capacities
/// stabilize, what an epoch allocates is the [`EpochReport`] it returns —
/// one `delivered` row per flow (copied from the trace in one piece), the
/// victim table in three exactly-sized pieces — plus the plan's
/// victim-sized lost-count list and a handful of per-phase task vectors;
/// `netsim/tests/alloc_budget.rs` holds an epoch to 1.1 × the report's own
/// size, and to a count of allocations that does not grow with the victims.
#[derive(Debug)]
pub struct ShardedReplay<F> {
    sharding: Sharding,
    parts: Vec<ShardFlows>,
    tables: EdgeTables,
    scratches: Vec<ShardScratch<F>>,
    /// `shard_{i}` span names, one per shard, built once.
    shard_names: Vec<String>,
    /// Span tree of the most recent epoch (`prologue`, `partition`,
    /// `phase_a`, `phase_a/shard_i`, `phase_b`, `phase_b/shard_i`, `merge`),
    /// one interval each — the leaves are the durations the timed entry
    /// points return as a [`ShardTiming`] (whose `prologue_s` is the sum of
    /// `prologue` and `partition`); a phase's own interval also holds its
    /// thread spawns and joins.
    last_profile: SpanProfiler,
}

impl<F> ShardedReplay<F> {
    /// Builds an engine with `sharding` (clamped to ≥ 1 shard/worker).
    /// Construction routes nothing, so it asks nothing of `F`: a holder
    /// generic over any flow ID (`chamelemon::ChameleMon`) can build its
    /// engine up front, and only replaying needs `F: Routable`.
    pub fn new(sharding: Sharding) -> Self {
        let sharding = sharding.normalized();
        ShardedReplay {
            sharding,
            parts: (0..sharding.shards).map(|_| ShardFlows::default()).collect(),
            tables: EdgeTables::default(),
            scratches: (0..sharding.shards).map(|_| ShardScratch::default()).collect(),
            shard_names: (0..sharding.shards).map(|i| format!("shard_{i}")).collect(),
            last_profile: SpanProfiler::new(),
        }
    }
}

impl<F: Routable> ShardedReplay<F> {
    /// The engine's (normalized) sharding.
    pub fn sharding(&self) -> Sharding {
        self.sharding
    }

    /// Span tree of the most recent epoch, for callers that want to fold
    /// engine timing into a wider profile (`chm-bench profile` absorbs
    /// this under its per-epoch span). Durations are in the injected
    /// clock's units — all zeros under the default null clock.
    pub fn last_profile(&self) -> &SpanProfiler {
        &self.last_profile
    }

    /// One sharded epoch: [`Simulator::run_epoch_scenario`] at this engine's
    /// layout — byte-identical report and sketch state at any shard/worker
    /// count, under any `imp` ([`ImpairmentSet::none`] is the clean fabric)
    /// and either `mode`. `clock` is the injected monotonic-seconds source
    /// the returned per-phase timing (and [`last_profile`](Self::last_profile))
    /// is measured with; pass `&|| 0.0` when nobody is timing.
    ///
    /// # Panics
    /// When `edges` does not hold one site per edge switch of the fabric, or
    /// a shard would own more than 65 536 of them.
    #[allow(clippy::too_many_arguments)]
    pub fn run_epoch<E: EdgeSite<F>>(
        &mut self,
        sim: &mut Simulator,
        trace: &Trace<F>,
        plan: &LossPlan<F>,
        imp: &ImpairmentSet,
        mode: ReplayMode,
        edges: &mut [E],
        clock: &(dyn Fn() -> f64 + Sync),
    ) -> (EpochReport<F>, ShardTiming) {
        let t0 = clock();
        let mut setup = sim.begin_epoch(trace, plan, imp);
        let prologue = clock() - t0;
        let (report, mut timing) = self.drive(trace, mode, &mut setup, edges, clock);
        timing.prologue_s += prologue;
        self.last_profile.record(&["prologue"], prologue);
        sim.set_epoch(report.epoch + 1);
        (report, timing)
    }

    /// [`run_epoch`](Self::run_epoch) with [`ReplayMode::Burst`] under the
    /// zero clock.
    pub fn run_epoch_burst_scenario<E: EdgeSite<F>>(
        &mut self,
        sim: &mut Simulator,
        trace: &Trace<F>,
        plan: &LossPlan<F>,
        imp: &ImpairmentSet,
        edges: &mut [E],
    ) -> EpochReport<F> {
        self.run_epoch(sim, trace, plan, imp, ReplayMode::Burst, edges, &|| 0.0).0
    }

    /// [`run_epoch`](Self::run_epoch) with [`ReplayMode::Burst`].
    pub fn run_epoch_burst_scenario_timed<E: EdgeSite<F>>(
        &mut self,
        sim: &mut Simulator,
        trace: &Trace<F>,
        plan: &LossPlan<F>,
        imp: &ImpairmentSet,
        edges: &mut [E],
        clock: &(dyn Fn() -> f64 + Sync),
    ) -> (EpochReport<F>, ShardTiming) {
        self.run_epoch(sim, trace, plan, imp, ReplayMode::Burst, edges, clock)
    }

    /// Rebuilds the edge tables and the flow partition for this trace
    /// (buffers reused).
    fn partition(&mut self, topo: &Topology, trace: &Trace<F>) {
        let shards = self.sharding.shards;
        assert!(
            trace.flows.len() <= u32::MAX as usize,
            "shard partition indexes flows with u32"
        );
        self.tables.rebuild(topo.n_edges(), shards);
        for p in &mut self.parts {
            p.idx.clear();
        }
        for sc in &mut self.scratches {
            if sc.outbox.len() < shards {
                sc.outbox.resize_with(shards, Vec::new);
            }
            for ob in &mut sc.outbox {
                ob.clear();
            }
            sc.frag.clear();
        }
        for (i, &(f, _)) in trace.flows.iter().enumerate() {
            let in_edge = topo.edge_of_host(f.src_host());
            self.parts[self.tables.shard[in_edge] as usize].idx.push(i as u32);
        }
    }

    /// The shared engine: partition → phase A (parallel ingress, own-site
    /// egress and fragment accounting; cross-shard egress into outboxes) →
    /// barrier → phase B (parallel egress inbox drain in deterministic
    /// source order) → serial fragment merge.
    fn drive<E: EdgeSite<F>>(
        &mut self,
        trace: &Trace<F>,
        mode: ReplayMode,
        setup: &mut EpochSetup<'_>,
        edges: &mut [E],
        clock: &(dyn Fn() -> f64 + Sync),
    ) -> (EpochReport<F>, ShardTiming) {
        let topo = setup.topo;
        assert_eq!(
            edges.len(),
            topo.n_edges(),
            "one edge site per topology edge switch"
        );
        let t0 = clock();
        self.partition(topo, trace);
        let partition_s = clock() - t0;
        let shards = self.sharding.shards;
        let workers = self.sharding.workers;

        // Phase A: each shard ingests its own flows (trace order preserved),
        // egresses those that leave through its own sites, and records the
        // rest into per-destination outboxes.
        let buckets = split_edges(edges, shards);
        let mut tasks: Vec<TaskA<'_, '_, F, E>> = self
            .parts
            .iter()
            .zip(self.scratches.iter_mut())
            .zip(buckets)
            .map(|((part, scratch), edges)| TaskA { part, scratch, edges, time: 0.0 })
            .collect();
        let tables = &self.tables;
        let a0 = clock();
        run_tasks(workers, &mut tasks, |shard, t| {
            let start = clock();
            replay_shard(trace, mode, setup, tables, shard, t);
            t.time = clock() - start;
        });
        let phase_a_s = clock() - a0;
        let phase_a: Vec<f64> = tasks.iter().map(|t| t.time).collect();

        // Barrier: phase-A tasks drop their scratch borrows; the sites move
        // into phase-B tasks. Scratches are now read shared (outboxes).
        let mut tasks_b: Vec<TaskB<'_, E>> = tasks
            .into_iter()
            .map(|t| TaskB { edges: t.edges, time: 0.0 })
            .collect();
        let scratches = &self.scratches;
        let b0 = clock();
        run_tasks(workers, &mut tasks_b, |shard, t| {
            let start = clock();
            for sc in scratches.iter() {
                for run in &sc.outbox[shard] {
                    let (f, _) = &trace.flows[run.row as usize];
                    apply_run(mode, &mut *t.edges[usize::from(run.site)], f, run);
                }
            }
            t.time = clock() - start;
        });
        let phase_b_s = clock() - b0;
        let phase_b: Vec<f64> = tasks_b.iter().map(|t| t.time).collect();
        drop(tasks_b);

        // Serial merge, in shard order (order-independent by construction;
        // the fixed order keeps the walk deterministic).
        let m0 = clock();
        let mut frags: Vec<ReportFragment<F>> = self
            .scratches
            .iter_mut()
            .map(|s| std::mem::take(&mut s.frag))
            .collect();
        let report = merge_fragments(trace, setup.epoch, setup.take_queue_depth(), &mut frags);
        for (s, frag) in self.scratches.iter_mut().zip(frags) {
            s.frag = frag; // drained, capacity retained for the next epoch
        }
        let merge_s = clock() - m0;

        // Record the epoch as a span tree; the timing struct handed back
        // carries the same durations.
        let prof = &mut self.last_profile;
        prof.clear();
        prof.record(&["partition"], partition_s);
        prof.record(&["phase_a"], phase_a_s);
        for (name, t) in self.shard_names.iter().zip(&phase_a) {
            prof.record(&["phase_a", name], *t);
        }
        prof.record(&["phase_b"], phase_b_s);
        for (name, t) in self.shard_names.iter().zip(&phase_b) {
            prof.record(&["phase_b", name], *t);
        }
        prof.record(&["merge"], merge_s);
        (report, ShardTiming { prologue_s: partition_s, phase_a, phase_b, merge_s })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SiteArray;
    use crate::topology::{FatTree, SwitchRole};
    use chm_common::{FiveTuple, FlowId};
    use chm_workloads::{testbed_trace, VictimSelection, WorkloadKind};
    use std::collections::HashMap;

    /// A stateful site double: order-sensitive ingress chain (detects any
    /// ingress reordering), commutative egress accumulator (matches the
    /// real data plane's modular adds), and a 3-level tag threshold so the
    /// burst path produces genuine multi-run bursts.
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

    /// One zero-clock epoch through the sharded driver.
    fn sharded(
        eng: &mut ShardedReplay<FiveTuple>,
        sim: &mut Simulator,
        trace: &Trace<FiveTuple>,
        plan: &LossPlan<FiveTuple>,
        imp: &ImpairmentSet,
        mode: ReplayMode,
        edges: &mut [Site],
    ) -> EpochReport<FiveTuple> {
        eng.run_epoch(sim, trace, plan, imp, mode, edges, &|| 0.0).0
    }

    const MODES: [ReplayMode; 2] = [ReplayMode::PerPacket, ReplayMode::Burst];

    fn setup() -> (Trace<FiveTuple>, LossPlan<FiveTuple>, Simulator) {
        let trace = testbed_trace(WorkloadKind::Dctcp, 600, 8, 7);
        let plan = LossPlan::build(&trace, VictimSelection::RandomRatio(0.1), 0.05, 9);
        let sim = Simulator::new(FatTree::testbed(), crate::SimConfig::default());
        (trace, plan, sim)
    }

    #[test]
    fn sharded_clean_paths_match_unsharded_at_any_layout() {
        let (trace, plan, sim0) = setup();
        let imp = ImpairmentSet::none();
        for mode in MODES {
            let mut sim_ref = sim0.clone();
            let mut ref_sites = sites(4);
            let r_ref = sim_ref.run_epoch_scenario(
                &trace,
                &plan,
                &imp,
                mode,
                &mut SiteArray(&mut ref_sites),
            );
            for sharding in [
                Sharding::single(),
                Sharding::of(2),
                Sharding { shards: 3, workers: 2 },
                Sharding::of(7),
            ] {
                let mut sim = sim0.clone();
                let mut s = sites(4);
                let mut eng = ShardedReplay::new(sharding);
                let r = sharded(&mut eng, &mut sim, &trace, &plan, &imp, mode, &mut s);
                assert_eq!(r, r_ref, "report differs at {sharding:?} {mode:?}");
                assert_eq!(s, ref_sites, "site state differs at {sharding:?} {mode:?}");
                assert_eq!(sim.current_epoch(), sim_ref.current_epoch());
            }
        }
    }

    #[test]
    fn timed_run_populates_span_profile_as_timing_view() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let (trace, plan, mut sim) = setup();
        let mut s = sites(4);
        let mut eng = ShardedReplay::new(Sharding { shards: 3, workers: 1 });
        // Deterministic strictly-increasing fake clock (not wall time).
        let ticks = AtomicU64::new(0);
        let clock = move || ticks.fetch_add(1, Ordering::SeqCst) as f64;
        let (_, timing) = eng.run_epoch(
            &mut sim,
            &trace,
            &plan,
            &ImpairmentSet::none(),
            ReplayMode::PerPacket,
            &mut s,
            &clock,
        );
        let prof = eng.last_profile();
        assert!(prof.balanced());
        let span = |path: &[&str]| prof.get(path).map(|(_, t)| t);
        // One interval per name: the epoch prologue and the partition are
        // two spans, and the timing's serial prologue is their sum.
        assert_eq!(prof.get(&["prologue"]).map(|(c, _)| c), Some(1));
        assert_eq!(prof.get(&["partition"]).map(|(c, _)| c), Some(1));
        let (partition, prologue) = (span(&["partition"]).unwrap(), span(&["prologue"]).unwrap());
        assert_eq!(partition + prologue, timing.prologue_s);
        assert_eq!(span(&["merge"]), Some(timing.merge_s));
        for (i, name) in ["shard_0", "shard_1", "shard_2"].iter().enumerate() {
            assert_eq!(span(&["phase_a", name]), Some(timing.phase_a[i]));
            assert_eq!(span(&["phase_b", name]), Some(timing.phase_b[i]));
        }
        assert_eq!((timing.phase_a.len(), timing.phase_b.len()), (3, 3));
        assert_eq!(prof.get(&["phase_a", "shard_2"]).map(|(c, _)| c), Some(1));
        assert!(prof.get(&["phase_a", "shard_3"]).is_none());
        assert!(timing.total_work_s() > 0.0);
        // Each phase is an interval of its own that holds its shards: with
        // one worker they run one after another inside it.
        for (phase, shards) in [("phase_a", &timing.phase_a), ("phase_b", &timing.phase_b)] {
            assert_eq!(prof.get(&[phase]).map(|(c, _)| c), Some(1), "{phase}");
            let own = span(&[phase]).unwrap();
            let children: f64 = shards.iter().sum();
            assert!(children <= own, "{phase}: shards sum to {children}, the phase is {own}");
        }
    }

    /// A site double whose burst ingress is O(1), so a flow of billions of
    /// packets replays in no time: every packet carries tag 1, ingress
    /// chains the burst (order-sensitive), and egress adds its weight.
    #[derive(Default, Clone, PartialEq, Debug)]
    struct BulkSite {
        chain: u64,
        egress_acc: u64,
        ingress_pkts: u64,
        egress_pkts: u64,
    }

    impl EdgeSite<FiveTuple> for BulkSite {
        fn site_ingress(&mut self, f: &FiveTuple, ts: u8) -> u8 {
            self.site_ingress_burst(f, ts, 1);
            1
        }
        fn site_egress(&mut self, f: &FiveTuple, ts: u8, tag: u8) {
            self.site_egress_burst(f, ts, tag, 1);
        }
        fn site_ingress_burst(&mut self, f: &FiveTuple, ts: u8, pkts: u64) -> [(u8, u64); 3] {
            self.ingress_pkts += pkts;
            self.chain = chm_common::hash::mix64(self.chain ^ f.key64() ^ u64::from(ts) ^ pkts);
            [(1, pkts), (0, 0), (2, 0)]
        }
        fn site_egress_burst(&mut self, f: &FiveTuple, ts: u8, tag: u8, delivered: u64) {
            self.egress_pkts += delivered;
            self.egress_acc = self.egress_acc.wrapping_add(
                chm_common::hash::mix64(f.key64() ^ (u64::from(ts) << 8) ^ u64::from(tag))
                    .wrapping_mul(delivered),
            );
        }
    }

    #[test]
    fn a_run_longer_than_a_record_splits_into_records_that_add_up() {
        let (mut trace, plan, sim0) = setup();
        // A flow that enters at a shard-0 edge and leaves at a shard-1 edge
        // of the 2-shard layout, and loses nothing, grows past `u32::MAX`.
        let topo = FatTree::testbed();
        let crosses = |f: &FiveTuple| {
            let (i, o) = (topo.edge_of_host(f.src_host()), topo.edge_of_host(f.dst_host()));
            i % 2 == 0 && o % 2 == 1
        };
        let big = trace
            .flows
            .iter()
            .position(|(f, _)| crosses(f) && !plan.victims.contains_key(f))
            .expect("the trace has a clean cross-shard flow");
        let huge = u64::from(u32::MAX) + 5;
        trace.flows[big].1 = huge;
        let imp = ImpairmentSet::none();
        let mut sim_ref = sim0.clone();
        let mut ref_sites = vec![BulkSite::default(); 4];
        let r_ref = sim_ref.run_epoch_scenario(
            &trace,
            &plan,
            &imp,
            ReplayMode::Burst,
            &mut SiteArray(&mut ref_sites),
        );
        assert_eq!(r_ref.delivered.rows[big], (trace.flows[big].0, huge));
        for n in [1, 2, 3] {
            let mut sim = sim0.clone();
            let mut s = vec![BulkSite::default(); 4];
            let mut eng = ShardedReplay::new(Sharding::of(n));
            let (r, _) =
                eng.run_epoch(&mut sim, &trace, &plan, &imp, ReplayMode::Burst, &mut s, &|| 0.0);
            assert_eq!(r, r_ref, "report differs at {n} shards");
            assert_eq!(s, ref_sites, "site state differs at {n} shards");
            if n == 2 {
                // The outbox still holds the epoch's records: two for the row.
                let runs: Vec<u32> = eng.scratches[0].outbox[1]
                    .iter()
                    .filter(|run| run.row as usize == big)
                    .map(|run| run.pkts)
                    .collect();
                assert_eq!(runs, [u32::MAX, 5]);
            }
        }
    }

    #[test]
    fn per_packet_egress_extends_a_run_of_its_own_row_until_it_is_full() {
        let f = testbed_trace(WorkloadKind::Dctcp, 1, 8, 7).flows[0].0;
        let run = |row, pkts| EgressRun { row, pkts, site: 3, ts: 1, tag: 2 };
        let mut outbox = vec![run(6, 1), run(7, u32::MAX - 1)];
        let mut site = Site::default();
        for row in [7, 7, 7, 8] {
            let mut port = OutboxPort { site: &mut site, outbox: &mut outbox, row, dest_site: 3 };
            port.egress(&f, 1, 2);
        }
        assert_eq!(outbox, [run(6, 1), run(7, u32::MAX), run(7, 2), run(8, 1)]);
        // A burst of zero pushes nothing; one past the record's range, two.
        let mut port = OutboxPort { site: &mut site, outbox: &mut outbox, row: 9, dest_site: 3 };
        port.egress_burst(&f, 1, 2, 0);
        port.egress_burst(&f, 1, 2, u64::from(u32::MAX) + 1);
        assert_eq!(outbox[4..], [run(9, u32::MAX), run(9, 1)]);
    }

    /// A fat-tree of 65 538 single-host edges: one more site per shard than
    /// a `u16` indexes at one shard, half of that at two.
    fn wide_epoch(shards: usize) {
        let topo = FatTree::new(65_538, 1);
        let mut sim = Simulator::new(topo, crate::SimConfig::default());
        let trace = Trace { flows: Vec::<(FiveTuple, u64)>::new() };
        let mut s = vec![BulkSite::default(); 65_538];
        let mut eng = ShardedReplay::new(Sharding::of(shards));
        eng.run_epoch_burst_scenario(
            &mut sim,
            &trace,
            &LossPlan::none(),
            &ImpairmentSet::none(),
            &mut s,
        );
    }

    #[test]
    fn a_layout_whose_site_index_fits_u16_runs() {
        wide_epoch(2);
    }

    #[test]
    #[should_panic(expected = "65538 sites per shard; an egress record indexes a shard's sites \
                               with u16, so use at least 2 shards")]
    fn a_layout_whose_site_index_overflows_u16_is_refused() {
        wide_epoch(1);
    }

    #[test]
    fn sharded_scenario_paths_match_unsharded() {
        let (trace, plan, sim0) = setup();
        let imp = ImpairmentSet {
            seed: 11,
            gilbert_elliott: Some(crate::impair::GilbertElliott::bursty()),
            duplication: Some(crate::impair::Duplication { prob: 0.05 }),
            clock_skew: Some(crate::impair::ClockSkew { max_frac: 0.2 }),
            ..ImpairmentSet::none()
        };
        for mode in MODES {
            let mut sim_ref = sim0.clone();
            let mut ref_sites = sites(4);
            let r_ref = sim_ref.run_epoch_scenario(
                &trace,
                &plan,
                &imp,
                mode,
                &mut SiteArray(&mut ref_sites),
            );
            for n in [1usize, 2, 4] {
                let mut sim = sim0.clone();
                let mut s = sites(4);
                let mut eng = ShardedReplay::new(Sharding::of(n));
                let r = sharded(&mut eng, &mut sim, &trace, &plan, &imp, mode, &mut s);
                assert_eq!(r, r_ref, "report differs at {n} shards {mode:?}");
                assert_eq!(s, ref_sites, "site state differs at {n} shards {mode:?}");
            }
        }
    }

    #[test]
    fn multi_epoch_sharded_stream_stays_identical() {
        let (trace, plan, sim0) = setup();
        let mut sim_ref = sim0.clone();
        let mut sim = sim0.clone();
        let mut ref_sites = sites(4);
        let mut s = sites(4);
        let mut eng = ShardedReplay::new(Sharding::of(3));
        for _ in 0..4 {
            let r_ref = sim_ref.run_epoch_burst(&trace, &plan, &mut SiteArray(&mut ref_sites));
            let r = eng.run_epoch_burst_scenario(
                &mut sim,
                &trace,
                &plan,
                &ImpairmentSet::none(),
                &mut s,
            );
            assert_eq!(r, r_ref);
        }
        assert_eq!(s, ref_sites);
    }

    #[test]
    fn merge_is_permutation_invariant_for_disjoint_fragments() {
        // A real trace of ten rows; fragment `salt` owns the victims at rows
        // `salt - 1` and `salt + 3` (each loses one packet, at edge `salt`),
        // so the fragments' runs interleave and rows 8 and 9 lose nothing.
        let trace = testbed_trace(WorkloadKind::Dctcp, 10, 8, 7);
        let edge = |salt: usize| SwitchId { role: SwitchRole::Edge, index: salt };
        let mk = |salt: usize| {
            let mut frag = ReportFragment::<FiveTuple>::default();
            for row in [salt - 1, salt + 3] {
                frag.drops.push((edge(salt), 1));
                frag.victims.push((row, trace.flows[row].0, 1, frag.drops.len()));
            }
            *frag.hops_histogram.entry(3).or_insert(0) += salt as u64;
            frag
        };
        let mut a = [mk(1), mk(2), mk(3), mk(4)];
        let qd = BTreeMap::new();
        let merged = merge_fragments(&trace, 5, qd.clone(), &mut a);
        // One victim table in trace order, whichever fragment a row came from.
        let victims: Vec<_> =
            (0..8).map(|row| (trace.flows[row].0, 1, vec![(edge(row % 4 + 1), 1)])).collect();
        let table: Vec<_> = merged.lost.with_drops().map(|(&f, l, d)| (f, l, d.to_vec())).collect();
        assert_eq!(table, victims);
        // The trace's rows, in trace order, less the victims' losses.
        let rows = trace.flows.iter().enumerate();
        let delivered: Vec<_> = rows.map(|(row, &(f, pkts))| (f, pkts - u64::from(row < 8))).collect();
        assert_eq!(merged.delivered.iter().map(|(&f, &d)| (f, d)).collect::<Vec<_>>(), delivered);
        assert_eq!(merged.dropped_at, (1..=4).map(|salt| (edge(salt), 2)).collect());
        assert_eq!(merged.hops_histogram.get(&3), Some(&10));
        assert!(a.iter().all(|frag| frag.victims.is_empty() && frag.drops.is_empty()), "drained");
        for order in [[3, 1, 4, 2], [4, 3, 2, 1], [2, 4, 1, 3]] {
            let mut b = order.map(mk);
            assert_eq!(merge_fragments(&trace, 5, qd.clone(), &mut b), merged, "{order:?}");
        }
    }

    #[test]
    fn the_caller_works_the_first_chunk_and_spawns_one_thread_per_other() {
        let here = std::thread::current().id();
        for (workers, tasks, spawned) in [(1, 5, 0), (2, 2, 1), (2, 5, 1), (3, 8, 2), (16, 3, 2)] {
            let mut ran_on = vec![None; tasks];
            run_tasks(workers, &mut ran_on, |i, slot| {
                *slot = Some((i, std::thread::current().id()));
            });
            // Every task ran once, under its own index.
            assert!(ran_on.iter().enumerate().all(|(i, r)| r.is_some_and(|(j, _)| i == j)));
            assert_eq!(ran_on[0].map(|(_, id)| id), Some(here), "{workers} workers, {tasks} tasks");
            let mut others: Vec<_> =
                ran_on.iter().flatten().map(|&(_, id)| id).filter(|&id| id != here).collect();
            others.dedup();
            assert_eq!(others.len(), spawned, "{workers} workers, {tasks} tasks");
        }
        run_tasks(4, &mut [] as &mut [u8], |_, _| unreachable!("no task, no call"));
    }

    #[test]
    fn timing_critical_path_sums_the_slowest_shards() {
        let t = ShardTiming {
            prologue_s: 1.0,
            phase_a: vec![2.0, 5.0, 3.0],
            phase_b: vec![0.5, 0.25, 1.0],
            merge_s: 0.5,
        };
        assert_eq!(t.critical_path_s(), 1.0 + 5.0 + 1.0 + 0.5);
        assert_eq!(t.total_work_s(), 1.0 + 10.0 + 1.75 + 0.5);
    }

    #[test]
    fn workers_beyond_shards_and_shards_beyond_edges_are_safe() {
        let (trace, plan, sim0) = setup();
        let mut sim_ref = sim0.clone();
        let mut ref_sites = sites(4);
        let r_ref = sim_ref.run_epoch_burst(&trace, &plan, &mut SiteArray(&mut ref_sites));
        // 9 shards over 4 edges: shards 4..9 own no edges and stay idle.
        let mut sim = sim0.clone();
        let mut s = sites(4);
        let mut eng = ShardedReplay::new(Sharding { shards: 9, workers: 16 });
        let r = eng.run_epoch_burst_scenario(
            &mut sim,
            &trace,
            &plan,
            &ImpairmentSet::none(),
            &mut s,
        );
        assert_eq!(r, r_ref);
        assert_eq!(s, ref_sites);
    }

    #[test]
    fn a_core_share_holds_inside_its_scope_and_nests() {
        let machine = core_share();
        assert!(machine >= 1);
        let inner = with_core_share(3, || {
            assert_eq!(core_share(), 3);
            let nested = with_core_share(0, core_share);
            (nested, core_share())
        });
        assert_eq!(inner, (1, 3), "a zero share clamps to one, and the outer share comes back");
        assert_eq!(core_share(), machine);
        let unwound = std::panic::catch_unwind(|| with_core_share(2, || panic!("worker failed")));
        assert!(unwound.is_err());
        assert_eq!(core_share(), machine, "a panicking scope restores the share too");
    }
}
