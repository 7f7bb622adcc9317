//! The sharded epoch pipeline: intra-trial parallel replay.
//!
//! [`Simulator`]'s four replay paths walk a trace single-threaded. This
//! module partitions the same work by **ingress edge** — every flow is
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
//!   later ingress decision. Shards therefore record egress work as
//!   run-length-encoded `EgressRun`s in per-destination-shard outboxes
//!   (phase A), and the owning shard applies them in deterministic
//!   (source-shard, record) order after a barrier (phase B).
//! * **Randomness is split-seed.** Loss plans realize in a serial prologue
//!   (one global RNG stream, untouched; the scenario paths realize the
//!   victims' lost counts only); per-flow impairment fates are pure
//!   functions of `(seed, epoch_seed, flow_key)` — the same discipline that
//!   makes `chm_bench::parallel` byte-identical at any worker count — so a
//!   shard realizes exactly what the serial loop would.
//!
//! # SoA layout
//!
//! `ShardFlows` keeps the partition as flat parallel arrays (trace slot,
//! global/local ingress edge, destination shard/local edge) indexed by flow
//! slot, and `ShardScratch` reuses route/probability/fate buffers across
//! epochs — shards stream cache-linearly instead of chasing per-flow heap
//! objects.
//!
//! `shards` fixes the partition (and is what byte-identity is proven over);
//! `workers` only scales execution — any worker count replays the same
//! shard set in the same per-shard order, so it never affects output.
//!
//! Timing is injected: [`ShardedReplay::run_epoch_burst_timed`] (and the
//! other `_timed` variants) accept a monotonic-seconds closure from the
//! caller, because only `crates/bench` may read wall clocks. Per-shard
//! phase times make the scaling curve honest on any builder: the critical
//! path `prologue + max(phase A) + max(phase B) + merge` is what an
//! `n`-core machine would pay.

use crate::impair::{ImpairmentSet, LinkLoss};
use crate::queue::QueueDepthStat;
use crate::sim::{
    attribute_fates, attribute_spread, spread_drop, spread_drop_prefix, BurstHooks,
    EdgeHooks, EpochReport, Routable, Simulator,
};
use crate::topology::{SwitchId, Topology};
use crate::{CongestionRealization, FabricFates, QueueRealization};
use chm_common::FlowId;
use chm_obs::SpanProfiler;
use chm_workloads::{LossPlan, Trace};
use std::collections::{BTreeMap, HashMap};

/// One edge switch's measurement pipeline, as the sharded replay drives it.
///
/// This is the per-site twin of [`EdgeHooks`]/[`BurstHooks`]: the same four
/// operations without the `edge` index (the shard already holds the site it
/// owns). `Send` is required so shards can carry their sites across scoped
/// threads. Blanket adapters go the other way: [`SiteArray`] presents a
/// `&mut [E]` of sites as `EdgeHooks`/`BurstHooks` for the serial replay
/// paths, so one implementation serves both engines.
pub trait EdgeSite<F>: Send {
    /// Packet of `f` enters the network here; returns the carried 2-bit tag.
    fn site_ingress(&mut self, f: &F, ts_bit: u8) -> u8;
    /// Packet of `f` exits the network here.
    fn site_egress(&mut self, f: &F, ts_bit: u8, tag: u8);
    /// Burst ingress: `pkts` packets of `f`, tag runs in packet order.
    fn site_ingress_burst(&mut self, f: &F, ts_bit: u8, pkts: u64) -> [(u8, u64); 3];
    /// Burst egress for `delivered` packets of one tag run.
    fn site_egress_burst(&mut self, f: &F, ts_bit: u8, tag: u8, delivered: u64);
}

/// Presents a slice of [`EdgeSite`]s as the [`EdgeHooks`]/[`BurstHooks`]
/// pair the serial [`Simulator`] paths expect — the shared replacement for
/// the per-crate `EdgeArray` adapters that used to live in `chamelemon`,
/// `chm_scenarios`, and `chm_serve`.
pub struct SiteArray<'a, E>(pub &'a mut [E]);

impl<F, E: EdgeSite<F>> EdgeHooks<F> for SiteArray<'_, E> {
    fn on_ingress(&mut self, edge: usize, f: &F, ts_bit: u8) -> u8 {
        self.0[edge].site_ingress(f, ts_bit)
    }
    fn on_egress(&mut self, edge: usize, f: &F, ts_bit: u8, tag: u8) {
        self.0[edge].site_egress(f, ts_bit, tag)
    }
}

impl<F, E: EdgeSite<F>> BurstHooks<F> for SiteArray<'_, E> {
    fn on_ingress_burst(&mut self, edge: usize, f: &F, ts_bit: u8, pkts: u64)
        -> [(u8, u64); 3] {
        self.0[edge].site_ingress_burst(f, ts_bit, pkts)
    }
    fn on_egress_burst(&mut self, edge: usize, f: &F, ts_bit: u8, tag: u8, delivered: u64) {
        self.0[edge].site_egress_burst(f, ts_bit, tag, delivered)
    }
}

/// How a trial is sharded.
///
/// `shards` fixes the flow partition — the unit byte-identity is proven
/// over. `workers` caps the scoped threads actually spawned; any value
/// produces identical output because shards are static work units merged in
/// shard order. Both are clamped to ≥ 1 at construction.
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

/// One shard's slice of an [`EpochReport`]: everything a shard accumulates
/// locally in phase A. Per-flow entries are disjoint across shards (every
/// flow lives on exactly one shard); per-switch and histogram maps overlap
/// and merge by addition — both reductions are order-independent, which is
/// what makes [`merge_fragments`] permutation-invariant (property-tested).
#[derive(Debug, Clone)]
pub struct ReportFragment<F> {
    /// Realized per-flow deliveries (scenario paths; clean paths take these
    /// from the loss plan's global application instead), as a dense column:
    /// one `(flow, delivered)` entry per flow the shard owns, in partition
    /// order. Every flow has an entry, so a keyed map here would hash the
    /// whole trace once per shard and again in the merge; the column is
    /// appended to, and [`merge_fragments`] hashes each flow exactly once.
    pub delivered: Vec<(F, u64)>,
    /// Realized per-flow losses (scenario paths).
    pub lost: HashMap<F, u64>,
    /// Per-switch drop totals for this shard's flows.
    pub dropped_at: BTreeMap<SwitchId, u64>,
    /// Per-victim drop attribution for this shard's flows.
    pub lost_at: HashMap<F, BTreeMap<SwitchId, u64>>,
    /// Route-length histogram contribution.
    pub hops_histogram: BTreeMap<usize, u64>,
}

// Manual impls: the derives would bound `F: Default` / `F: PartialEq`,
// but an empty fragment needs no `F` and map equality needs `Eq + Hash`.
impl<F> Default for ReportFragment<F> {
    fn default() -> Self {
        ReportFragment {
            delivered: Vec::new(),
            lost: HashMap::new(),
            dropped_at: BTreeMap::new(),
            lost_at: HashMap::new(),
            hops_histogram: BTreeMap::new(),
        }
    }
}

impl<F: Eq + std::hash::Hash> PartialEq for ReportFragment<F> {
    fn eq(&self, other: &Self) -> bool {
        self.delivered == other.delivered
            && self.lost == other.lost
            && self.dropped_at == other.dropped_at
            && self.lost_at == other.lost_at
            && self.hops_histogram == other.hops_histogram
    }
}

impl<F: Copy + Eq + std::hash::Hash> ReportFragment<F> {
    fn clear(&mut self) {
        self.delivered.clear();
        self.lost.clear();
        self.dropped_at.clear();
        self.lost_at.clear();
        self.hops_histogram.clear();
    }
}

/// Merges one fragment into the accumulator, draining the source so its
/// capacity is reused next epoch. Per-flow entries are disjoint unions;
/// per-switch and histogram maps are keyed sums — both order-independent.
// chm-lint: hot
fn merge_one<F: Copy + Eq + std::hash::Hash>(
    acc: &mut EpochReport<F>,
    frag: &mut ReportFragment<F>,
) {
    acc.delivered.extend(frag.delivered.drain(..));
    acc.lost.extend(frag.lost.drain());
    acc.lost_at.extend(frag.lost_at.drain());
    for (&s, &c) in frag.dropped_at.iter() {
        *acc.dropped_at.entry(s).or_insert(0) += c;
    }
    frag.dropped_at.clear();
    for (&h, &c) in frag.hops_histogram.iter() {
        *acc.hops_histogram.entry(h).or_insert(0) += c;
    }
    frag.hops_histogram.clear();
}

/// The deterministic, order-independent reduction of per-shard fragments
/// into one [`EpochReport`]. Fragments are drained (capacity kept). The
/// result is invariant under any permutation of `frags` as long as the
/// per-flow key sets are disjoint — which the ingress-edge partition
/// guarantees and the proptest in `tests/shard_differential.rs` pins.
///
/// The report's keyed maps are sized from the summed fragment sizes before
/// anything is inserted: `delivered` — the one trace-sized map of an epoch —
/// is built here in a single pass, never regrown.
pub fn merge_fragments<F: FlowId>(
    epoch: u64,
    queue_depth: BTreeMap<SwitchId, QueueDepthStat>,
    frags: &mut [ReportFragment<F>],
) -> EpochReport<F> {
    let mut acc = EpochReport {
        delivered: HashMap::with_capacity(frags.iter().map(|f| f.delivered.len()).sum()),
        lost: HashMap::with_capacity(frags.iter().map(|f| f.lost.len()).sum()),
        dropped_at: BTreeMap::new(),
        lost_at: HashMap::with_capacity(frags.iter().map(|f| f.lost_at.len()).sum()),
        hops_histogram: BTreeMap::new(),
        queue_depth,
        epoch,
    };
    for frag in frags.iter_mut() {
        merge_one(&mut acc, frag);
    }
    acc
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

/// The flow partition, struct-of-arrays: one entry per flow owned by this
/// shard, in trace order. Global ingress edges ride along because
/// [`ImpairmentSet::realize_flow`] derives per-edge clock skew from the
/// *global* edge index — a local index would silently change realizations.
#[derive(Debug, Default)]
struct ShardFlows {
    /// Index into `trace.flows`.
    idx: Vec<u32>,
    /// Global ingress edge (for impairment realization).
    in_edge: Vec<u32>,
    /// Ingress edge's index into this shard's owned-site list.
    in_local: Vec<u32>,
    /// Destination shard (`out_edge % shards`, precomputed — hot loops may
    /// not reduce).
    out_shard: Vec<u32>,
    /// Egress edge's index into the destination shard's owned-site list.
    out_local: Vec<u32>,
}

impl ShardFlows {
    fn clear(&mut self) {
        self.idx.clear();
        self.in_edge.clear();
        self.in_local.clear();
        self.out_shard.clear();
        self.out_local.clear();
    }
}

/// One egress work record: `pkts` packets of `f` leaving through the
/// destination shard's site `edge_local`, all carrying the same timestamp
/// bit and tag (run-length encoding of consecutive identical egress calls).
#[derive(Debug, Clone, Copy)]
struct EgressRun<F> {
    edge_local: u32,
    ts: u8,
    tag: u8,
    f: F,
    pkts: u64,
}

/// Per-shard reusable working state: the egress outboxes (one per
/// destination shard), the report fragment, and the per-flow scratch
/// buffers the serial replay paths keep as locals.
///
/// The engine keeps one per shard in a `Vec`, and phase A has every worker
/// rewrite its own entry's vector headers on every flow (`fates` lengths,
/// the `delivered` column's length). Aligned to a cache-line pair (Intel
/// prefetches lines in pairs) so that neighbouring entries never share one:
/// unaligned (344 bytes, 8-aligned), entry `i`'s `fates` headers and entry
/// `i + 1`'s `outbox`/`delivered` headers sat in one line that two workers
/// fought over per flow — ~10 ms of a 40 ms phase A at 250 k flows, more or
/// less of it depending on where the allocator put the `Vec` and how the
/// workers' timing fell, so the fastest epoch of a run was a matter of luck.
#[derive(Debug)]
#[repr(align(128))]
struct ShardScratch<F> {
    outbox: Vec<Vec<EgressRun<F>>>,
    frag: ReportFragment<F>,
    route: Vec<SwitchId>,
    hop_probs: Vec<f64>,
    slot_counts: Vec<u64>,
    fates: FabricFates,
}

impl<F> Default for ShardScratch<F> {
    fn default() -> Self {
        ShardScratch {
            outbox: Vec::new(),
            frag: ReportFragment::default(),
            route: Vec::new(),
            hop_probs: Vec::new(),
            slot_counts: Vec::new(),
            fates: FabricFates::default(),
        }
    }
}

/// Everything a per-flow phase-A body needs, copied out of the SoA arrays.
#[derive(Clone, Copy)]
struct FlowArgs<F> {
    f: F,
    pkts: u64,
    in_edge: usize,
    out_shard: usize,
    out_local: u32,
}

/// Run-length emitter: merges consecutive egress packets with identical
/// `(ts, tag)` into one [`EgressRun`] so per-packet replay ships runs, not
/// packets, across the shard boundary.
struct RunEmitter {
    ts: u8,
    tag: u8,
    count: u64,
}

impl RunEmitter {
    fn start() -> Self {
        RunEmitter { ts: 0, tag: 0, count: 0 }
    }

    // chm-lint: hot
    #[inline]
    fn emit<F: FlowId>(
        &mut self,
        ob: &mut Vec<EgressRun<F>>,
        edge_local: u32,
        f: &F,
        ts: u8,
        tag: u8,
        n: u64,
    ) {
        if self.count > 0 && self.ts == ts && self.tag == tag {
            self.count += n;
            return;
        }
        self.flush(ob, edge_local, f);
        self.ts = ts;
        self.tag = tag;
        self.count = n;
    }

    // chm-lint: hot
    #[inline]
    fn flush<F: FlowId>(&mut self, ob: &mut Vec<EgressRun<F>>, edge_local: u32, f: &F) {
        if self.count > 0 {
            ob.push(EgressRun {
                edge_local,
                ts: self.ts,
                tag: self.tag,
                f: *f,
                pkts: self.count,
            });
            self.count = 0;
        }
    }
}

/// Phase-A body of the clean per-packet path — the sharded twin of the flow
/// loop in [`Simulator::run_epoch`].
// chm-lint: hot
#[allow(clippy::too_many_arguments)]
fn clean_flow_per_packet<F: Routable, E: EdgeSite<F>>(
    a: FlowArgs<F>,
    n_lost: u64,
    ts_bit: u8,
    epoch_seed: u64,
    topo: &Topology,
    site: &mut E,
    sc: &mut ShardScratch<F>,
) {
    let f = &a.f;
    let pkts = a.pkts;
    topo.route_into(f.src_host(), f.dst_host(), f.key64(), &mut sc.route);
    *sc.frag.hops_histogram.entry(sc.route.len()).or_insert(0) += pkts;
    let mut em = RunEmitter::start();
    if n_lost == 0 {
        // Lossless fast path, exactly as the serial loop takes it.
        for _ in 0..pkts {
            let tag = site.site_ingress(f, ts_bit);
            em.emit(&mut sc.outbox[a.out_shard], a.out_local, f, ts_bit, tag, 1);
        }
        em.flush(&mut sc.outbox[a.out_shard], a.out_local, f);
        return;
    }
    attribute_spread(
        f,
        f.key64(),
        pkts,
        n_lost,
        epoch_seed,
        &sc.route,
        &mut sc.frag.dropped_at,
        &mut sc.frag.lost_at,
    );
    for i in 0..pkts {
        let tag = site.site_ingress(f, ts_bit);
        if spread_drop(i, pkts, n_lost) {
            continue;
        }
        em.emit(&mut sc.outbox[a.out_shard], a.out_local, f, ts_bit, tag, 1);
    }
    em.flush(&mut sc.outbox[a.out_shard], a.out_local, f);
}

/// Phase-A body of the clean burst path — the sharded twin of the flow loop
/// in [`Simulator::run_epoch_burst`]. Zero-delivery runs are skipped: a
/// weight-0 egress is a state no-op on every data plane.
// chm-lint: hot
#[allow(clippy::too_many_arguments)]
fn clean_flow_burst<F: Routable, E: EdgeSite<F>>(
    a: FlowArgs<F>,
    n_lost: u64,
    ts_bit: u8,
    epoch_seed: u64,
    topo: &Topology,
    site: &mut E,
    sc: &mut ShardScratch<F>,
) {
    let f = &a.f;
    let pkts = a.pkts;
    topo.route_into(f.src_host(), f.dst_host(), f.key64(), &mut sc.route);
    *sc.frag.hops_histogram.entry(sc.route.len()).or_insert(0) += pkts;
    if n_lost > 0 {
        attribute_spread(
            f,
            f.key64(),
            pkts,
            n_lost,
            epoch_seed,
            &sc.route,
            &mut sc.frag.dropped_at,
            &mut sc.frag.lost_at,
        );
    }
    let runs = site.site_ingress_burst(f, ts_bit, pkts);
    let ob = &mut sc.outbox[a.out_shard];
    let mut pos = 0u64;
    for (tag, len) in runs {
        if len == 0 {
            continue;
        }
        let dropped = spread_drop_prefix(pos + len, pkts, n_lost)
            - spread_drop_prefix(pos, pkts, n_lost);
        let out = len - dropped;
        if out > 0 {
            ob.push(EgressRun { edge_local: a.out_local, ts: ts_bit, tag, f: a.f, pkts: out });
        }
        pos += len;
    }
    debug_assert_eq!(pos, pkts, "tag runs must cover the whole burst");
}

/// Shared scenario prologue per flow: route, link-loss view, and the fate
/// realization — identical inputs to the serial scenario paths, so the
/// realization is bit-equal.
// chm-lint: hot
#[allow(clippy::too_many_arguments)]
fn scenario_realize<F: Routable>(
    a: FlowArgs<F>,
    n_lost: u64,
    epoch_seed: u64,
    topo: &Topology,
    imp: &ImpairmentSet,
    queue: Option<&QueueRealization>,
    cong: Option<&CongestionRealization>,
    sc: &mut ShardScratch<F>,
) -> usize {
    let f = &a.f;
    let pkts = a.pkts;
    sc.hop_probs.clear();
    topo.route_into(f.src_host(), f.dst_host(), f.key64(), &mut sc.route);
    let route_len = match (queue, cong) {
        (Some(q), _) => {
            q.hop_slot_probs(&sc.route, f.dst_host(), &mut sc.hop_probs);
            q.flow_slot_counts(f.key64(), pkts, &mut sc.slot_counts);
            sc.route.len()
        }
        (None, Some(c)) => {
            c.hop_probs(&sc.route, f.dst_host(), &mut sc.hop_probs);
            sc.route.len()
        }
        (None, None) => sc.route.len(),
    };
    *sc.frag.hops_histogram.entry(route_len).or_insert(0) += pkts;
    let link_loss = match queue {
        Some(q) => LinkLoss::Slotted {
            probs: &sc.hop_probs,
            slot_counts: &sc.slot_counts,
            n_slots: q.n_slots(),
        },
        None if cong.is_some() => LinkLoss::Static(&sc.hop_probs),
        None => LinkLoss::None,
    };
    imp.realize_flow(
        &mut sc.fates,
        f.key64(),
        pkts,
        n_lost,
        epoch_seed,
        a.in_edge,
        route_len,
        link_loss,
    );
    route_len
}

/// Fold one realized flow's outcome into the fragment (delivered column,
/// lost map, attribution) — shared by both scenario phase-A bodies.
// chm-lint: hot
fn scenario_account<F: Routable>(a: FlowArgs<F>, sc: &mut ShardScratch<F>) {
    let del = sc.fates.n_delivered();
    sc.frag.delivered.push((a.f, del));
    if del < a.pkts {
        sc.frag.lost.insert(a.f, a.pkts - del);
        attribute_fates(
            &a.f,
            &sc.route,
            &sc.fates,
            &mut sc.frag.dropped_at,
            &mut sc.frag.lost_at,
        );
    }
}

/// Phase-A body of the scenario per-packet path — the sharded twin of
/// [`Simulator::run_epoch_scenario`]'s flow loop.
// chm-lint: hot
#[allow(clippy::too_many_arguments)]
fn scenario_flow_per_packet<F: Routable, E: EdgeSite<F>>(
    a: FlowArgs<F>,
    n_lost: u64,
    ts_bit: u8,
    prev_bit: u8,
    epoch_seed: u64,
    topo: &Topology,
    imp: &ImpairmentSet,
    queue: Option<&QueueRealization>,
    cong: Option<&CongestionRealization>,
    site: &mut E,
    sc: &mut ShardScratch<F>,
) {
    scenario_realize(a, n_lost, epoch_seed, topo, imp, queue, cong, sc);
    let f = &a.f;
    let mut em = RunEmitter::start();
    for i in 0..a.pkts {
        let ts = if i < sc.fates.skew_split { prev_bit } else { ts_bit };
        let tag = site.site_ingress(f, ts);
        if sc.fates.delivered_mask[i as usize] {
            em.emit(&mut sc.outbox[a.out_shard], a.out_local, f, ts, tag, 1);
            if sc.fates.dup[i as usize] {
                em.emit(&mut sc.outbox[a.out_shard], a.out_local, f, ts, tag, 1);
            }
        }
    }
    em.flush(&mut sc.outbox[a.out_shard], a.out_local, f);
    scenario_account(a, sc);
}

/// Phase-A body of the scenario burst path — the sharded twin of
/// [`Simulator::run_epoch_burst_scenario`]'s flow loop.
// chm-lint: hot
#[allow(clippy::too_many_arguments)]
fn scenario_flow_burst<F: Routable, E: EdgeSite<F>>(
    a: FlowArgs<F>,
    n_lost: u64,
    ts_bit: u8,
    prev_bit: u8,
    epoch_seed: u64,
    topo: &Topology,
    imp: &ImpairmentSet,
    queue: Option<&QueueRealization>,
    cong: Option<&CongestionRealization>,
    site: &mut E,
    sc: &mut ShardScratch<F>,
) {
    scenario_realize(a, n_lost, epoch_seed, topo, imp, queue, cong, sc);
    let f = &a.f;
    let pkts = a.pkts;
    let k = sc.fates.skew_split;
    let mut pos = 0u64;
    for (seg_ts, seg_len) in [(prev_bit, k), (ts_bit, pkts - k)] {
        if seg_len == 0 {
            continue;
        }
        let runs = site.site_ingress_burst(f, seg_ts, seg_len);
        for (tag, len) in runs {
            if len == 0 {
                continue;
            }
            let out = sc.fates.delivered_in(pos, len) + sc.fates.dups_in(pos, len);
            if out > 0 {
                sc.outbox[a.out_shard].push(EgressRun {
                    edge_local: a.out_local,
                    ts: seg_ts,
                    tag,
                    f: a.f,
                    pkts: out,
                });
            }
            pos += len;
        }
    }
    debug_assert_eq!(pos, pkts, "tag runs must cover the whole burst");
    scenario_account(a, sc);
}

/// Phase-B application of one per-packet-path run: `pkts` individual egress
/// calls, exactly what the serial per-packet loop issues.
// chm-lint: hot
fn apply_run_per_packet<F, E: EdgeSite<F>>(site: &mut E, run: &EgressRun<F>) {
    for _ in 0..run.pkts {
        site.site_egress(&run.f, run.ts, run.tag);
    }
}

/// Phase-B application of one burst-path run: a single weighted egress.
// chm-lint: hot
fn apply_run_burst<F, E: EdgeSite<F>>(site: &mut E, run: &EgressRun<F>) {
    site.site_egress_burst(&run.f, run.ts, run.tag, run.pkts);
}

/// Round-robin split of the edge-site slice: shard `s` owns sites
/// `{e : e % shards == s}` in ascending order, so site `e`'s local index is
/// `e / shards` everywhere.
fn split_edges<E>(edges: &mut [E], shards: usize) -> Vec<Vec<&mut E>> {
    let mut buckets: Vec<Vec<&mut E>> = (0..shards).map(|_| Vec::new()).collect();
    for (e, site) in edges.iter_mut().enumerate() {
        buckets[e % shards].push(site);
    }
    buckets
}

/// Runs `work` over every task, statically chunked across at most `workers`
/// scoped threads. Chunking is contiguous and deterministic; worker count
/// never changes which task gets which index. Panics in any worker
/// propagate at scope join.
fn run_tasks<T, W>(workers: usize, tasks: &mut [T], work: W)
where
    T: Send,
    W: Fn(usize, &mut T) + Sync,
{
    let n = tasks.len();
    if n == 0 {
        return;
    }
    let w = workers.max(1).min(n);
    if w == 1 {
        for (i, t) in tasks.iter_mut().enumerate() {
            work(i, t);
        }
        return;
    }
    let per = n.div_ceil(w);
    std::thread::scope(|scope| {
        for (c, chunk) in tasks.chunks_mut(per).enumerate() {
            let work = &work;
            scope.spawn(move || {
                for (j, t) in chunk.iter_mut().enumerate() {
                    work(c * per + j, t);
                }
            });
        }
    });
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
/// buffers are reused across epochs (arena-style). Once their capacities
/// stabilize, what an epoch allocates is the [`EpochReport`] it returns —
/// one `delivered` entry per flow, the victims' `lost`/`lost_at` entries —
/// plus the plan's victim-sized lost-count map and a handful of per-phase
/// task vectors; `netsim/tests/alloc_budget.rs` holds an epoch to twice the
/// report's own size.
#[derive(Debug)]
pub struct ShardedReplay<F> {
    sharding: Sharding,
    parts: Vec<ShardFlows>,
    scratches: Vec<ShardScratch<F>>,
    /// `shard_{i}` span names, one per shard, built once.
    shard_names: Vec<String>,
    /// Span tree of the most recent epoch (`prologue`, `phase_a/shard_i`,
    /// `phase_b/shard_i`, `merge`) — the same durations the timed entry
    /// points return as a [`ShardTiming`].
    last_profile: SpanProfiler,
}

impl<F: Routable> ShardedReplay<F> {
    /// Builds an engine with `sharding` (clamped to ≥ 1 shard/worker).
    pub fn new(sharding: Sharding) -> Self {
        let sharding = sharding.normalized();
        ShardedReplay {
            sharding,
            parts: (0..sharding.shards).map(|_| ShardFlows::default()).collect(),
            scratches: (0..sharding.shards).map(|_| ShardScratch::default()).collect(),
            shard_names: (0..sharding.shards).map(|i| format!("shard_{i}")).collect(),
            last_profile: SpanProfiler::new(),
        }
    }

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

    /// Sharded [`Simulator::run_epoch`]: byte-identical report and sketch
    /// state at any shard/worker count.
    pub fn run_epoch<E: EdgeSite<F>>(
        &mut self,
        sim: &mut Simulator,
        trace: &Trace<F>,
        plan: &LossPlan<F>,
        edges: &mut [E],
    ) -> EpochReport<F> {
        self.run_epoch_timed(sim, trace, plan, edges, &|| 0.0).0
    }

    /// [`run_epoch`](Self::run_epoch) with per-phase timing from the
    /// injected `clock` (monotonic seconds; only `crates/bench` owns one).
    pub fn run_epoch_timed<E: EdgeSite<F>>(
        &mut self,
        sim: &mut Simulator,
        trace: &Trace<F>,
        plan: &LossPlan<F>,
        edges: &mut [E],
        clock: &(dyn Fn() -> f64 + Sync),
    ) -> (EpochReport<F>, ShardTiming) {
        let t0 = clock();
        let epoch = sim.current_epoch();
        let ts_bit = sim.current_ts_bit();
        let epoch_seed = sim.epoch_seed();
        let (delivered, lost) = plan.apply_to_trace(trace, epoch_seed);
        let prologue = clock() - t0;
        let topo = &sim.topology;
        let lost_by_flow = &lost;
        let (mut report, mut timing) = self.drive(
            topo,
            trace,
            edges,
            clock,
            epoch,
            BTreeMap::new(),
            |a: FlowArgs<F>, site: &mut E, sc: &mut ShardScratch<F>| {
                let n_lost = lost_by_flow.get(&a.f).copied().unwrap_or(0);
                clean_flow_per_packet(a, n_lost, ts_bit, epoch_seed, topo, site, sc);
            },
            apply_run_per_packet,
        );
        timing.prologue_s += prologue;
        self.last_profile.record(&["prologue"], prologue);
        install_globals(&mut report, delivered, lost);
        sim.set_epoch(epoch + 1);
        (report, timing)
    }

    /// Sharded [`Simulator::run_epoch_burst`]: byte-identical report and
    /// sketch state at any shard/worker count.
    pub fn run_epoch_burst<E: EdgeSite<F>>(
        &mut self,
        sim: &mut Simulator,
        trace: &Trace<F>,
        plan: &LossPlan<F>,
        edges: &mut [E],
    ) -> EpochReport<F> {
        self.run_epoch_burst_timed(sim, trace, plan, edges, &|| 0.0).0
    }

    /// [`run_epoch_burst`](Self::run_epoch_burst) with per-phase timing —
    /// what `chm-bench perf --threads` builds the scaling curve from.
    pub fn run_epoch_burst_timed<E: EdgeSite<F>>(
        &mut self,
        sim: &mut Simulator,
        trace: &Trace<F>,
        plan: &LossPlan<F>,
        edges: &mut [E],
        clock: &(dyn Fn() -> f64 + Sync),
    ) -> (EpochReport<F>, ShardTiming) {
        let t0 = clock();
        let epoch = sim.current_epoch();
        let ts_bit = sim.current_ts_bit();
        let epoch_seed = sim.epoch_seed();
        let (delivered, lost) = plan.apply_to_trace(trace, epoch_seed);
        let prologue = clock() - t0;
        let topo = &sim.topology;
        let lost_by_flow = &lost;
        let (mut report, mut timing) = self.drive(
            topo,
            trace,
            edges,
            clock,
            epoch,
            BTreeMap::new(),
            |a: FlowArgs<F>, site: &mut E, sc: &mut ShardScratch<F>| {
                let n_lost = lost_by_flow.get(&a.f).copied().unwrap_or(0);
                clean_flow_burst(a, n_lost, ts_bit, epoch_seed, topo, site, sc);
            },
            apply_run_burst,
        );
        timing.prologue_s += prologue;
        self.last_profile.record(&["prologue"], prologue);
        install_globals(&mut report, delivered, lost);
        sim.set_epoch(epoch + 1);
        (report, timing)
    }

    /// Sharded [`Simulator::run_epoch_scenario`]: byte-identical report and
    /// sketch state at any shard/worker count.
    pub fn run_epoch_scenario<E: EdgeSite<F>>(
        &mut self,
        sim: &mut Simulator,
        trace: &Trace<F>,
        plan: &LossPlan<F>,
        imp: &ImpairmentSet,
        edges: &mut [E],
    ) -> EpochReport<F> {
        self.run_epoch_scenario_timed(sim, trace, plan, imp, edges, &|| 0.0).0
    }

    /// [`run_epoch_scenario`](Self::run_epoch_scenario) with timing.
    pub fn run_epoch_scenario_timed<E: EdgeSite<F>>(
        &mut self,
        sim: &mut Simulator,
        trace: &Trace<F>,
        plan: &LossPlan<F>,
        imp: &ImpairmentSet,
        edges: &mut [E],
        clock: &(dyn Fn() -> f64 + Sync),
    ) -> (EpochReport<F>, ShardTiming) {
        let t0 = clock();
        let epoch = sim.current_epoch();
        let ts_bit = sim.current_ts_bit();
        let prev_bit = ts_bit ^ 1;
        let epoch_seed = sim.epoch_seed();
        let base_lost = plan.realize_losses(trace, epoch_seed);
        let queue = imp
            .queue
            .as_ref()
            .map(|q| q.realize(&sim.topology, trace, epoch, imp.seed));
        let cong = match &queue {
            Some(_) => None,
            None => imp.congestion.as_ref().map(|m| m.realize(&sim.topology, trace, epoch)),
        };
        let queue_depth = queue.as_ref().map(|q| q.depths().clone()).unwrap_or_default();
        let prologue = clock() - t0;
        let topo = &sim.topology;
        let base = &base_lost;
        let q = queue.as_ref();
        let c = cong.as_ref();
        let (report, mut timing) = self.drive(
            topo,
            trace,
            edges,
            clock,
            epoch,
            queue_depth,
            |a: FlowArgs<F>, site: &mut E, sc: &mut ShardScratch<F>| {
                let n_lost = base.get(&a.f).copied().unwrap_or(0);
                scenario_flow_per_packet(
                    a, n_lost, ts_bit, prev_bit, epoch_seed, topo, imp, q, c, site, sc,
                );
            },
            apply_run_per_packet,
        );
        timing.prologue_s += prologue;
        self.last_profile.record(&["prologue"], prologue);
        sim.set_epoch(epoch + 1);
        (report, timing)
    }

    /// Sharded [`Simulator::run_epoch_burst_scenario`]: byte-identical
    /// report and sketch state at any shard/worker count.
    pub fn run_epoch_burst_scenario<E: EdgeSite<F>>(
        &mut self,
        sim: &mut Simulator,
        trace: &Trace<F>,
        plan: &LossPlan<F>,
        imp: &ImpairmentSet,
        edges: &mut [E],
    ) -> EpochReport<F> {
        self.run_epoch_burst_scenario_timed(sim, trace, plan, imp, edges, &|| 0.0).0
    }

    /// [`run_epoch_burst_scenario`](Self::run_epoch_burst_scenario) with
    /// timing.
    pub fn run_epoch_burst_scenario_timed<E: EdgeSite<F>>(
        &mut self,
        sim: &mut Simulator,
        trace: &Trace<F>,
        plan: &LossPlan<F>,
        imp: &ImpairmentSet,
        edges: &mut [E],
        clock: &(dyn Fn() -> f64 + Sync),
    ) -> (EpochReport<F>, ShardTiming) {
        let t0 = clock();
        let epoch = sim.current_epoch();
        let ts_bit = sim.current_ts_bit();
        let prev_bit = ts_bit ^ 1;
        let epoch_seed = sim.epoch_seed();
        let base_lost = plan.realize_losses(trace, epoch_seed);
        let queue = imp
            .queue
            .as_ref()
            .map(|q| q.realize(&sim.topology, trace, epoch, imp.seed));
        let cong = match &queue {
            Some(_) => None,
            None => imp.congestion.as_ref().map(|m| m.realize(&sim.topology, trace, epoch)),
        };
        let queue_depth = queue.as_ref().map(|q| q.depths().clone()).unwrap_or_default();
        let prologue = clock() - t0;
        let topo = &sim.topology;
        let base = &base_lost;
        let q = queue.as_ref();
        let c = cong.as_ref();
        let (report, mut timing) = self.drive(
            topo,
            trace,
            edges,
            clock,
            epoch,
            queue_depth,
            |a: FlowArgs<F>, site: &mut E, sc: &mut ShardScratch<F>| {
                let n_lost = base.get(&a.f).copied().unwrap_or(0);
                scenario_flow_burst(
                    a, n_lost, ts_bit, prev_bit, epoch_seed, topo, imp, q, c, site, sc,
                );
            },
            apply_run_burst,
        );
        timing.prologue_s += prologue;
        self.last_profile.record(&["prologue"], prologue);
        sim.set_epoch(epoch + 1);
        (report, timing)
    }

    /// Rebuilds the SoA partition for this trace (buffers reused).
    fn partition(&mut self, topo: &Topology, trace: &Trace<F>) {
        let shards = self.sharding.shards;
        assert!(
            trace.flows.len() <= u32::MAX as usize,
            "shard partition indexes flows with u32"
        );
        for p in &mut self.parts {
            p.clear();
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
            let out_edge = topo.edge_of_host(f.dst_host());
            let p = &mut self.parts[in_edge % shards];
            p.idx.push(i as u32);
            p.in_edge.push(in_edge as u32);
            p.in_local.push((in_edge / shards) as u32);
            p.out_shard.push((out_edge % shards) as u32);
            p.out_local.push((out_edge / shards) as u32);
        }
    }

    /// The shared engine: partition → phase A (parallel ingress + fragment
    /// accounting into outboxes) → barrier → phase B (parallel egress inbox
    /// drain in deterministic source order) → serial fragment merge.
    #[allow(clippy::too_many_arguments)]
    fn drive<E, PA, PB>(
        &mut self,
        topo: &Topology,
        trace: &Trace<F>,
        edges: &mut [E],
        clock: &(dyn Fn() -> f64 + Sync),
        epoch: u64,
        queue_depth: BTreeMap<SwitchId, QueueDepthStat>,
        flow_fn: PA,
        run_fn: PB,
    ) -> (EpochReport<F>, ShardTiming)
    where
        E: EdgeSite<F>,
        PA: Fn(FlowArgs<F>, &mut E, &mut ShardScratch<F>) + Sync,
        PB: Fn(&mut E, &EgressRun<F>) + Sync,
    {
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

        // Phase A: each shard ingests its own flows (trace order preserved)
        // and records egress work into per-destination outboxes.
        let buckets = split_edges(edges, shards);
        let mut tasks: Vec<TaskA<'_, '_, F, E>> = self
            .parts
            .iter()
            .zip(self.scratches.iter_mut())
            .zip(buckets)
            .map(|((part, scratch), edges)| TaskA { part, scratch, edges, time: 0.0 })
            .collect();
        run_tasks(workers, &mut tasks, |_, t| {
            let start = clock();
            let part = t.part;
            for k in 0..part.idx.len() {
                let (f, pkts) = trace.flows[part.idx[k] as usize];
                let args = FlowArgs {
                    f,
                    pkts,
                    in_edge: part.in_edge[k] as usize,
                    out_shard: part.out_shard[k] as usize,
                    out_local: part.out_local[k],
                };
                flow_fn(args, &mut *t.edges[part.in_local[k] as usize], t.scratch);
            }
            t.time = clock() - start;
        });
        let phase_a: Vec<f64> = tasks.iter().map(|t| t.time).collect();

        // Barrier: phase-A tasks drop their scratch borrows; the sites move
        // into phase-B tasks. Scratches are now read shared (outboxes).
        let mut tasks_b: Vec<TaskB<'_, E>> = tasks
            .into_iter()
            .map(|t| TaskB { edges: t.edges, time: 0.0 })
            .collect();
        let scratches = &self.scratches;
        run_tasks(workers, &mut tasks_b, |shard, t| {
            let start = clock();
            for sc in scratches.iter() {
                for run in &sc.outbox[shard] {
                    run_fn(&mut *t.edges[run.edge_local as usize], run);
                }
            }
            t.time = clock() - start;
        });
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
        let report = merge_fragments(epoch, queue_depth, &mut frags);
        for (s, frag) in self.scratches.iter_mut().zip(frags) {
            s.frag = frag; // drained, capacity retained for the next epoch
        }
        let merge_s = clock() - m0;

        // Record the epoch as a span tree; the timing struct handed back
        // carries the same durations.
        let prof = &mut self.last_profile;
        prof.clear();
        prof.record(&["prologue"], partition_s);
        for (name, t) in self.shard_names.iter().zip(&phase_a) {
            prof.record(&["phase_a", name], *t);
        }
        for (name, t) in self.shard_names.iter().zip(&phase_b) {
            prof.record(&["phase_b", name], *t);
        }
        prof.record(&["merge"], merge_s);
        (report, ShardTiming { prologue_s: partition_s, phase_a, phase_b, merge_s })
    }
}

/// Installs the clean paths' globally-applied plan outcome into the merged
/// report (fragments carry no per-flow maps on those paths). Scenario paths
/// pass empty maps and keep the fragment-accumulated ones.
fn install_globals<F: FlowId>(
    report: &mut EpochReport<F>,
    delivered: HashMap<F, u64>,
    lost: HashMap<F, u64>,
) {
    if !delivered.is_empty() {
        debug_assert!(report.delivered.is_empty(), "clean fragments carry no deliveries");
        report.delivered = delivered;
    }
    if !lost.is_empty() {
        debug_assert!(report.lost.is_empty(), "clean fragments carry no losses");
        report.lost = lost;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{FatTree, SwitchRole};
    use chm_common::FiveTuple;
    use chm_workloads::{testbed_trace, VictimSelection, WorkloadKind};

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

    fn setup() -> (Trace<FiveTuple>, LossPlan<FiveTuple>, Simulator) {
        let trace = testbed_trace(WorkloadKind::Dctcp, 600, 8, 7);
        let plan = LossPlan::build(&trace, VictimSelection::RandomRatio(0.1), 0.05, 9);
        let sim = Simulator::new(FatTree::testbed(), crate::SimConfig::default());
        (trace, plan, sim)
    }

    #[test]
    fn sharded_clean_paths_match_unsharded_at_any_layout() {
        let (trace, plan, sim0) = setup();
        for burst in [false, true] {
            let mut sim_ref = sim0.clone();
            let mut ref_sites = sites(4);
            let r_ref = if burst {
                sim_ref.run_epoch_burst(&trace, &plan, &mut SiteArray(&mut ref_sites))
            } else {
                sim_ref.run_epoch(&trace, &plan, &mut SiteArray(&mut ref_sites))
            };
            for sharding in [
                Sharding::single(),
                Sharding::of(2),
                Sharding { shards: 3, workers: 2 },
                Sharding::of(7),
            ] {
                let mut sim = sim0.clone();
                let mut s = sites(4);
                let mut eng = ShardedReplay::new(sharding);
                let r = if burst {
                    eng.run_epoch_burst(&mut sim, &trace, &plan, &mut s)
                } else {
                    eng.run_epoch(&mut sim, &trace, &plan, &mut s)
                };
                assert_eq!(r, r_ref, "report differs at {sharding:?} burst={burst}");
                assert_eq!(s, ref_sites, "site state differs at {sharding:?} burst={burst}");
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
        let (_, timing) = eng.run_epoch_timed(&mut sim, &trace, &plan, &mut s, &clock);
        let prof = eng.last_profile();
        assert!(prof.balanced());
        let span = |path: &[&str]| prof.get(path).map(|(_, t)| t);
        assert_eq!(span(&["prologue"]), Some(timing.prologue_s));
        assert_eq!(span(&["merge"]), Some(timing.merge_s));
        for (i, name) in ["shard_0", "shard_1", "shard_2"].iter().enumerate() {
            assert_eq!(span(&["phase_a", name]), Some(timing.phase_a[i]));
            assert_eq!(span(&["phase_b", name]), Some(timing.phase_b[i]));
        }
        assert_eq!((timing.phase_a.len(), timing.phase_b.len()), (3, 3));
        assert_eq!(prof.get(&["phase_a", "shard_2"]).map(|(c, _)| c), Some(1));
        assert!(prof.get(&["phase_a", "shard_3"]).is_none());
        assert!(timing.total_work_s() > 0.0);
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
        for burst in [false, true] {
            let mut sim_ref = sim0.clone();
            let mut ref_sites = sites(4);
            let r_ref = if burst {
                sim_ref.run_epoch_burst_scenario(
                    &trace,
                    &plan,
                    &imp,
                    &mut SiteArray(&mut ref_sites),
                )
            } else {
                sim_ref.run_epoch_scenario(&trace, &plan, &imp, &mut SiteArray(&mut ref_sites))
            };
            for n in [1usize, 2, 4] {
                let mut sim = sim0.clone();
                let mut s = sites(4);
                let mut eng = ShardedReplay::new(Sharding::of(n));
                let r = if burst {
                    eng.run_epoch_burst_scenario(&mut sim, &trace, &plan, &imp, &mut s)
                } else {
                    eng.run_epoch_scenario(&mut sim, &trace, &plan, &imp, &mut s)
                };
                assert_eq!(r, r_ref, "scenario report differs at {n} shards burst={burst}");
                assert_eq!(s, ref_sites, "site state differs at {n} shards burst={burst}");
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
            let r = eng.run_epoch_burst(&mut sim, &trace, &plan, &mut s);
            assert_eq!(r, r_ref);
        }
        assert_eq!(s, ref_sites);
    }

    #[test]
    fn merge_is_permutation_invariant_for_disjoint_fragments() {
        let mk = |salt: u64| {
            let mut frag = ReportFragment::<FiveTuple>::default();
            let f = FiveTuple::unpack(salt as u128);
            frag.delivered.push((f, 10 + salt));
            frag.lost.insert(f, salt);
            let mut at = BTreeMap::new();
            at.insert(SwitchId { role: SwitchRole::Edge, index: salt as usize }, salt);
            frag.lost_at.insert(f, at);
            let core = SwitchId { role: SwitchRole::Core, index: (salt % 3) as usize };
            *frag.dropped_at.entry(core).or_insert(0) += salt;
            *frag.hops_histogram.entry(3).or_insert(0) += salt;
            frag
        };
        let mut a = [mk(1), mk(2), mk(3), mk(4)];
        let mut b = [mk(3), mk(1), mk(4), mk(2)];
        let qd = BTreeMap::new();
        assert_eq!(
            merge_fragments(5, qd.clone(), &mut a),
            merge_fragments(5, qd, &mut b)
        );
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
        let r = eng.run_epoch_burst(&mut sim, &trace, &plan, &mut s);
        assert_eq!(r, r_ref);
        assert_eq!(s, ref_sites);
    }
}
