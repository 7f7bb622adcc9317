//! The packet loop: replays a trace through the fabric, epoch by epoch,
//! invoking measurement hooks at the ingress and egress edge switches and
//! applying the loss plan in between — the software equivalent of the §5.2
//! testbed run (DPDK senders, proactive ECN drops, ChameleMon on all four
//! ToR switches), generalized to any [`Topology`] in the zoo.
//!
//! The fabric has one behaviour, so it is written down once: an epoch
//! prologue (`Simulator::begin_epoch`), a per-flow realize-and-account
//! step, and two walkers ([`ReplayMode`]) that differ only in how many hook
//! calls a flow costs. [`Simulator`] drives them serially and is the
//! reference; [`ShardedReplay`](crate::ShardedReplay) drives the same
//! pieces per edge shard. The clean fabric of §5.2 is the replay under
//! [`ImpairmentSet::none`].

use crate::impair::{FabricFates, ImpairmentSet, LinkLoss};
use crate::queue::{QueueDepthStat, QueueRealization};
use crate::shard::{merge_fragments, ReportFragment};
use crate::topology::{Fabric, SwitchId, Topology};
use chm_common::{FiveTuple, FlowId};
use chm_workloads::trace::ip_host;
use chm_workloads::{LossPlan, Trace};
use std::collections::BTreeMap;

/// One edge switch's measurement pipeline: the hooks a data plane exposes
/// to the replay, the one boundary both drivers cross.
///
/// `ts_bit` is the 1-bit epoch timestamp the packet reads at its ingress
/// edge and carries through the network (Appendix B); `tag` is the 2-bit
/// flow-hierarchy tag the ingress pipeline writes into the ToS field so the
/// egress pipeline knows which encoder to use (§3.2.3). The burst forms
/// ingest a run of consecutive same-flow packets in one call and must leave
/// the same state as the per-packet forms (ChameleMon's engine classifies a
/// burst in closed form — [`ReplayMode::Burst`] exploits it). `Send` is
/// required so shards can carry their sites across scoped threads.
pub trait EdgeSite<F>: Send {
    /// Packet of `f` enters the network here; returns the tag it carries.
    fn site_ingress(&mut self, f: &F, ts_bit: u8) -> u8;
    /// Packet of `f` exits the network here (unless it was dropped).
    fn site_egress(&mut self, f: &F, ts_bit: u8, tag: u8);
    /// Burst ingress: `pkts` packets of `f`; returns the carried tags as
    /// `(tag, count)` runs **in packet order** (zero-count runs allowed).
    fn site_ingress_burst(&mut self, f: &F, ts_bit: u8, pkts: u64) -> [(u8, u64); 3];
    /// Burst egress for `delivered` packets of one tag run.
    fn site_egress_burst(&mut self, f: &F, ts_bit: u8, tag: u8, delivered: u64);
}

/// A borrowed site is a site: a shard holds its owned sites as `&mut E`
/// and drives them through the same port as the serial driver.
impl<F, E: EdgeSite<F> + ?Sized> EdgeSite<F> for &mut E {
    #[inline]
    fn site_ingress(&mut self, f: &F, ts_bit: u8) -> u8 {
        (**self).site_ingress(f, ts_bit)
    }
    #[inline]
    fn site_egress(&mut self, f: &F, ts_bit: u8, tag: u8) {
        (**self).site_egress(f, ts_bit, tag)
    }
    #[inline]
    fn site_ingress_burst(&mut self, f: &F, ts_bit: u8, pkts: u64) -> [(u8, u64); 3] {
        (**self).site_ingress_burst(f, ts_bit, pkts)
    }
    #[inline]
    fn site_egress_burst(&mut self, f: &F, ts_bit: u8, tag: u8, delivered: u64) {
        (**self).site_egress_burst(f, ts_bit, tag, delivered)
    }
}

/// The fabric's edge sites as the serial [`Simulator`] takes them: one
/// [`EdgeSite`] per edge switch, indexed by edge.
pub struct SiteArray<'a, E>(pub &'a mut [E]);

/// Flows the simulator can route: they name their endpoints.
pub trait Routable: FlowId {
    /// Source host index.
    fn src_host(&self) -> usize;
    /// Destination host index.
    fn dst_host(&self) -> usize;
}

impl Routable for FiveTuple {
    fn src_host(&self) -> usize {
        ip_host(self.src_ip) as usize
    }
    fn dst_host(&self) -> usize {
        ip_host(self.dst_ip) as usize
    }
}

/// Static simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Epoch length in milliseconds (testbed default: 50 ms).
    pub epoch_ms: f64,
    /// Master seed (loss realization varies per epoch on top of this).
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { epoch_ms: 50.0, seed: 0xc4a3 }
    }
}

/// Per-flow counts as `(flow, count)` rows in **trace order** — the order of
/// `trace.flows`, whose flow IDs are unique. The report holds two:
/// [`EpochReport::delivered`] has one row per flow of the trace (a copy of
/// the trace's own rows, lowered at the victims, so no flow is hashed or
/// even visited for it), and [`EpochReport::lost`] one per victim.
///
/// It is read whole ([`iter`](Self::iter), [`values`](Self::values),
/// [`keys`](Self::keys)) and compared row for row; there is deliberately no
/// keyed lookup — a reader that needs one collects the rows into its own map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowColumn<F> {
    pub(crate) rows: Vec<(F, u64)>,
}

impl<F> FlowColumn<F> {
    /// The trace's own rows: every flow with its full packet count.
    pub(crate) fn of_trace(trace: &Trace<F>) -> Self
    where
        F: Copy,
    {
        FlowColumn { rows: trace.flows.clone() }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows as `(flow, count)`, in trace order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&F, &u64)> + '_ {
        self.rows.iter().map(|(f, c)| (f, c))
    }

    /// The flow IDs, in trace order.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = &F> + '_ {
        self.rows.iter().map(|(f, _)| f)
    }

    /// The counts, in trace order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &u64> + '_ {
        self.rows.iter().map(|(_, c)| c)
    }
}

/// The victims of an epoch: one `(flow, lost)` row per flow that lost
/// packets, in trace order, read like any [`FlowColumn`] (through `Deref`).
/// Each row also carries where its packets died — `(switch, count)` pairs
/// sorted by [`SwitchId`], one per switch, summing to the row's `lost` — as
/// a slice of one list shared by all rows, read with
/// [`with_drops`](Self::with_drops). A flow that delivered nothing is a row
/// like any other, its `lost` everything it sent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VictimTable<F> {
    rows: FlowColumn<F>,
    /// Row `i`'s drops are `drops[bounds[i]..bounds[i + 1]]`.
    bounds: Vec<usize>,
    pub(crate) drops: Vec<(SwitchId, u64)>,
}

impl<F> VictimTable<F> {
    /// An empty table with room for `rows` victims and `drops` drop entries.
    pub(crate) fn with_capacity(rows: usize, drops: usize) -> Self {
        let mut bounds = Vec::with_capacity(rows + 1);
        bounds.push(0);
        let rows = FlowColumn { rows: Vec::with_capacity(rows) };
        VictimTable { rows, bounds, drops: Vec::with_capacity(drops) }
    }

    /// Appends the next victim in trace order.
    pub(crate) fn push(&mut self, f: F, lost: u64, drops: &[(SwitchId, u64)]) {
        self.rows.rows.push((f, lost));
        self.drops.extend_from_slice(drops);
        self.bounds.push(self.drops.len());
    }

    /// The rows as `(flow, lost, drops by switch)`, in trace order.
    pub fn with_drops(&self) -> impl ExactSizeIterator<Item = (&F, u64, &[(SwitchId, u64)])> + '_ {
        let rows = self.rows.rows.iter().zip(self.bounds.windows(2));
        rows.map(|((f, lost), b)| (f, *lost, &self.drops[b[0]..b[1]]))
    }
}

impl<F> std::ops::Deref for VictimTable<F> {
    type Target = FlowColumn<F>;
    fn deref(&self) -> &FlowColumn<F> {
        &self.rows
    }
}

/// The switch that dropped most of a victim's packets, read off its row's
/// drops (ties break toward the smaller [`SwitchId`]) — the localization
/// target for that victim.
pub fn dominant_drop_switch(drops: &[(SwitchId, u64)]) -> Option<SwitchId> {
    let best = drops.iter().fold(None, |best: Option<&(SwitchId, u64)>, d| match best {
        Some(b) if b.1 >= d.1 => best,
        _ => Some(d),
    });
    best.map(|&(s, _)| s)
}

/// Ground truth of one simulated epoch, **fabric-attributed**: besides the
/// per-flow delivered/lost counts, every dropped packet is pinned to the
/// switch that dropped it (the per-switch visibility a per-link deployment
/// like LossRadar would have) — the ground truth victim-localization
/// accuracy is scored against. Every part has one canonical layout (rows in
/// trace order, switches sorted), so the derived `PartialEq` is content
/// equality — what the sharded-vs-unsharded differential suites assert —
/// and the layout is stable wherever it feeds JSON goldens.
///
/// Both drivers produce it the same way, through
/// [`merge_fragments`].
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReport<F> {
    /// Packets that traversed the full path: one row per flow of the trace,
    /// in trace order — what the flow sent less its row in `lost` (a fabric
    /// duplicate is noise, not a delivery, so no row exceeds the trace's
    /// count).
    pub delivered: FlowColumn<F>,
    /// The victims, each with the packets it lost and where they died.
    pub lost: VictimTable<F>,
    /// Packets dropped, attributed to the switch that dropped them
    /// (fabric-wide totals: the victims' drops summed per switch).
    pub dropped_at: BTreeMap<SwitchId, u64>,
    /// Distribution of route lengths (switches on path → packets).
    pub hops_histogram: BTreeMap<usize, u64>,
    /// Per-switch queue-depth telemetry (empty unless
    /// [`ImpairmentSet::queue`] is configured) — what the switches would
    /// export via INT/queue-occupancy counters. Read off the epoch's one
    /// queue realization, so it does not depend on the walker or the driver.
    pub queue_depth: BTreeMap<SwitchId, QueueDepthStat>,
    /// Epoch index this report covers.
    pub epoch: u64,
}

impl<F> EpochReport<F> {
    /// Flows that entered the network this epoch.
    pub fn total_flows(&self) -> usize {
        self.delivered.len()
    }

    /// Victim flows this epoch.
    pub fn victim_flows(&self) -> usize {
        self.lost.len()
    }

    /// Total packets sent into the network.
    pub fn total_sent(&self) -> u64 {
        self.delivered.values().sum::<u64>() + self.lost.values().sum::<u64>()
    }

    /// Total packets with an attributed drop switch (equals the sum of
    /// `lost` — every drop happens *somewhere*).
    pub fn total_attributed(&self) -> u64 {
        self.dropped_at.values().sum()
    }
}

/// True when packet `i` of a `pkts`-packet flow is one of the `n_lost`
/// drops, with drops spread evenly over the flow's packet sequence
/// (`⌊(i+1)·L/P⌋ > ⌊i·L/P⌋` marks exactly `L` of `P` packets).
///
/// Degenerate inputs are clamped rather than left to the formula:
/// `n_lost > pkts` behaves as `n_lost == pkts` (every packet drops — a loss
/// count can never exceed the flow), and `pkts == 0` never drops (there is
/// no packet to drop). So exactly `min(n_lost, pkts)` of the indices
/// `0..pkts` return true.
#[inline]
pub fn spread_drop(i: u64, pkts: u64, n_lost: u64) -> bool {
    if pkts == 0 {
        return false;
    }
    let l = n_lost.min(pkts);
    (i + 1) * l / pkts > i * l / pkts
}

/// Prefix form of [`spread_drop`]: how many of the first `x` packets drop.
/// `spread_drop(i, ..)` is true iff this function increases from `i` to
/// `i + 1`, so both replay paths share one spreading rule.
#[inline]
pub fn spread_drop_prefix(x: u64, pkts: u64, n_lost: u64) -> u64 {
    if pkts == 0 {
        return 0;
    }
    x * n_lost.min(pkts) / pkts
}

/// The `k`-th (0-based) dropped packet index under [`spread_drop`]'s
/// spreading rule: the smallest `i` with
/// `spread_drop_prefix(i + 1, pkts, n_lost) == k + 1`. Valid for
/// `k < min(n_lost, pkts)`; lets the burst path enumerate drop positions in
/// `O(n_lost)` instead of scanning every packet.
#[inline]
pub fn spread_drop_nth(k: u64, pkts: u64, n_lost: u64) -> u64 {
    let l = n_lost.min(pkts).max(1);
    ((k + 1) * pkts).div_ceil(l) - 1
}

/// Which walker replays a flow's packets through the hooks. Both read the
/// same per-flow [`FabricFates`] and must be observationally identical under
/// every scenario — that is the burst-replay equivalence contract the
/// impairment layer preserves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayMode {
    /// One hook call per packet — the reference walker.
    PerPacket,
    /// One ingress call per flow segment and one egress call per tag run.
    Burst,
}

/// Where a walker's packets go: ingress at the flow's ingress edge, egress
/// toward its egress edge. The serial driver calls the two sites on the spot,
/// and so does a shard whose own site is the egress edge; a shard whose flow
/// leaves through another shard's site queues the egress as runs for it.
pub(crate) trait Port<F> {
    fn ingress(&mut self, f: &F, ts_bit: u8) -> u8;
    fn egress(&mut self, f: &F, ts_bit: u8, tag: u8);
    fn ingress_burst(&mut self, f: &F, ts_bit: u8, pkts: u64) -> [(u8, u64); 3];
    fn egress_burst(&mut self, f: &F, ts_bit: u8, tag: u8, delivered: u64);
}

/// Immediate calls on the flow's two sites — held by index, not as two
/// `&mut`, because a same-rack flow enters and leaves at one site. The
/// serial driver indexes every site by edge; a shard indexes its owned
/// sites by local index when the flow's egress edge is one of them.
pub(crate) struct SitePort<'a, E> {
    pub(crate) sites: &'a mut [E],
    pub(crate) in_edge: usize,
    pub(crate) out_edge: usize,
}

impl<F, E: EdgeSite<F>> Port<F> for SitePort<'_, E> {
    #[inline]
    fn ingress(&mut self, f: &F, ts_bit: u8) -> u8 {
        self.sites[self.in_edge].site_ingress(f, ts_bit)
    }
    #[inline]
    fn egress(&mut self, f: &F, ts_bit: u8, tag: u8) {
        self.sites[self.out_edge].site_egress(f, ts_bit, tag)
    }
    #[inline]
    fn ingress_burst(&mut self, f: &F, ts_bit: u8, pkts: u64) -> [(u8, u64); 3] {
        self.sites[self.in_edge].site_ingress_burst(f, ts_bit, pkts)
    }
    #[inline]
    fn egress_burst(&mut self, f: &F, ts_bit: u8, tag: u8, delivered: u64) {
        self.sites[self.out_edge].site_egress_burst(f, ts_bit, tag, delivered)
    }
}

impl ReplayMode {
    /// Replays one realized flow through `port` with this mode's walker.
    #[inline]
    pub(crate) fn walk<F>(
        self,
        f: &F,
        pkts: u64,
        ts_bit: u8,
        fates: &FabricFates,
        port: &mut impl Port<F>,
    ) {
        match self {
            ReplayMode::PerPacket => walk_per_packet(f, pkts, ts_bit, fates, port),
            ReplayMode::Burst => walk_burst(f, pkts, ts_bit, fates, port),
        }
    }
}

/// The per-packet walker: ingress fires for every packet, egress for the
/// delivered ones (twice for a fabric duplicate); the clock-skewed prefix
/// carries the previous epoch's timestamp bit.
// chm-lint: hot
fn walk_per_packet<F>(
    f: &F,
    pkts: u64,
    ts_bit: u8,
    fates: &FabricFates,
    port: &mut impl Port<F>,
) {
    for i in 0..pkts {
        let ts = if i < fates.skew_split() { ts_bit ^ 1 } else { ts_bit };
        let tag = port.ingress(f, ts);
        // Drops are spread across the flow's lifetime (the testbed marks
        // ECN on a rate basis): the classifier's per-packet hierarchy
        // decision depends on the flow's size *so far*, so dropping only
        // early packets would push every loss into the LL phase and starve
        // the HL encoders.
        if fates.delivered(i) {
            port.egress(f, ts, tag);
            if fates.dup(i) {
                port.egress(f, ts, tag);
            }
        }
    }
}

/// The burst walker: a clock-skewed flow splits into two ingress bursts
/// (the mis-stamped prefix carries the previous epoch's bit); each tag
/// run's egress weight is the run's delivered count plus its fabric
/// duplicates, read off the same fates the per-packet walker indexes.
// chm-lint: hot
fn walk_burst<F>(f: &F, pkts: u64, ts_bit: u8, fates: &FabricFates, port: &mut impl Port<F>) {
    let k = fates.skew_split();
    let mut pos = 0u64;
    for (seg_ts, seg_len) in [(ts_bit ^ 1, k), (ts_bit, pkts - k)] {
        if seg_len == 0 {
            continue;
        }
        for (tag, len) in port.ingress_burst(f, seg_ts, seg_len) {
            if len == 0 {
                continue;
            }
            let out = fates.delivered_in(pos, len) + fates.dups_in(pos, len);
            port.egress_burst(f, seg_ts, tag, out);
            pos += len;
        }
    }
    debug_assert_eq!(pos, pkts, "tag runs must cover the whole burst");
}

/// Per-flow buffers the realize step reuses from flow to flow — and, held by
/// the [`Simulator`] and by each engine shard, from epoch to epoch. The
/// realize step overwrites every buffer it reads, so nothing carries over.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlowScratch {
    route: Vec<SwitchId>,
    hop_probs: Vec<f64>,
    slot_counts: Vec<u64>,
    hop_drops: Vec<u64>,
    pub(crate) fates: FabricFates,
}

/// What one epoch fixes before any flow replays: the fabric and its
/// impairments, the timestamp bit, the seed, the plan's realized losses and
/// the link-loss realization. Built once per epoch by
/// [`Simulator::begin_epoch`]; both drivers replay every flow against it,
/// then move its queue telemetry into the report
/// ([`take_queue_depth`](Self::take_queue_depth)).
pub(crate) struct EpochSetup<'a> {
    pub(crate) topo: &'a Topology,
    imp: &'a ImpairmentSet,
    pub(crate) epoch: u64,
    pub(crate) ts_bit: u8,
    epoch_seed: u64,
    /// The plan's realized losses, `(trace index, lost)` ascending.
    base_lost: Vec<(usize, u64)>,
    /// The epoch's one link-loss realization, if a model is configured.
    link: Option<QueueRealization>,
}

/// Reads the epoch's plan losses by position. Every driver — and every
/// shard — walks its flows in ascending trace index, so a flow's planned
/// loss is found by advancing past the victims before it, never by a lookup.
pub(crate) struct PlanLosses<'a> {
    rest: &'a [(usize, u64)],
}

impl PlanLosses<'_> {
    /// The plan's loss for trace row `idx` (0 for a non-victim). Calls must
    /// come in ascending `idx`.
    #[inline]
    pub(crate) fn take(&mut self, idx: usize) -> u64 {
        while let Some((&(i, lost), tail)) = self.rest.split_first() {
            if i > idx {
                break;
            }
            self.rest = tail;
            if i == idx {
                return lost;
            }
        }
        0
    }
}

impl EpochSetup<'_> {
    /// Per-switch queue telemetry of the epoch, moved out of the link-loss
    /// realization once the replay is done with it: exported when a queue
    /// model is configured, not for a congestion model's one-slot
    /// realization.
    pub(crate) fn take_queue_depth(&mut self) -> BTreeMap<SwitchId, QueueDepthStat> {
        match &mut self.link {
            Some(link) if self.imp.queue.is_some() => link.take_depths(),
            _ => BTreeMap::new(),
        }
    }

    /// The plan's victim count this epoch — a floor for the report's `lost`.
    pub(crate) fn planned_victims(&self) -> usize {
        self.base_lost.len()
    }

    /// A fresh cursor over the plan's realized losses.
    pub(crate) fn plan_losses(&self) -> PlanLosses<'_> {
        PlanLosses { rest: &self.base_lost }
    }

    /// The per-flow step both drivers share: route the flow at trace row
    /// `idx`, read the link-loss view off the route, realize its fates into
    /// `sc.fates` (`base_lost` is the plan's loss for it, read off
    /// [`plan_losses`](Self::plan_losses)), and account it in `acc`: the hop
    /// histogram, and for a victim — only for a victim — one row with its
    /// loss and its per-switch drops.
    // chm-lint: hot
    pub(crate) fn realize_flow<F: Routable>(
        &self,
        idx: usize,
        (f, pkts): (F, u64),
        base_lost: u64,
        in_edge: usize,
        sc: &mut FlowScratch,
        acc: &mut ReportFragment<F>,
    ) {
        // The route lands in a reusable buffer (allocation-free); its length
        // is the hop count by definition, and the link-loss layer reads
        // its per-hop probabilities off it.
        let dst = f.dst_host();
        self.topo.route_into(f.src_host(), dst, f.key64(), &mut sc.route);
        *acc.hops_histogram.entry(sc.route.len()).or_insert(0) += pkts;
        // A route whose links drop in no slot draws nothing: it replays
        // exactly as under no link loss, and needs no slot layout.
        let link_loss = match &self.link {
            Some(link) => {
                link.hop_slot_probs(&sc.route, dst, &mut sc.hop_probs);
                if !sc.hop_probs.iter().all(|&p| p <= 0.0) {
                    link.flow_slot_counts(f.key64(), pkts, &mut sc.slot_counts);
                    LinkLoss::Slotted {
                        probs: &sc.hop_probs,
                        slot_counts: &sc.slot_counts,
                        n_slots: link.n_slots(),
                    }
                } else {
                    LinkLoss::None
                }
            }
            None => LinkLoss::None,
        };
        self.imp.realize_flow(
            &mut sc.fates,
            f.key64(),
            pkts,
            base_lost,
            self.epoch_seed,
            in_edge,
            sc.route.len(),
            link_loss,
        );
        let del = sc.fates.n_delivered();
        if del < pkts {
            attribute_drops(&sc.route, &sc.fates, &mut sc.hop_drops, &mut acc.drops);
            acc.victims.push((idx, f, pkts - del, acc.drops.len()));
        }
    }
}

/// Appends one victim's drops to `drops`: every dropped packet is charged to
/// the switch at its drop hop on the flow's route — counted per hop in
/// `per_hop`, a buffer reused from flow to flow — and each switch that
/// dropped any gets one `(switch, count)` entry, sorted by switch.
// chm-lint: hot
fn attribute_drops(
    route: &[SwitchId],
    fates: &FabricFates,
    per_hop: &mut Vec<u64>,
    drops: &mut Vec<(SwitchId, u64)>,
) {
    per_hop.clear();
    per_hop.resize(route.len(), 0);
    fates.for_each_drop(|_, hop| per_hop[hop as usize] += 1);
    let start = drops.len();
    for (&s, &c) in route.iter().zip(per_hop.iter()).filter(|&(_, &c)| c > 0) {
        // A route that crosses a switch twice still gives it one entry.
        match drops[start..].iter_mut().find(|(t, _)| *t == s) {
            Some(d) => d.1 += c,
            None => drops.push((s, c)),
        }
    }
    drops[start..].sort_unstable_by_key(|&(s, _)| s);
}

/// The fabric simulator: the serial replay driver, and the reference the
/// sharded driver ([`ShardedReplay`](crate::ShardedReplay)) is held to.
///
/// Like each engine shard, it holds its per-flow scratch across epochs, so
/// a warm simulator's replay regrows no buffer. The scratch is not state:
/// every epoch is a function of `(seed, epoch)` alone, and a fresh
/// simulator placed at the same epoch ([`set_epoch`](Self::set_epoch))
/// replays it identically.
#[derive(Debug, Clone)]
pub struct Simulator {
    /// The fabric wiring.
    pub topology: Topology,
    /// Simulation parameters.
    pub config: SimConfig,
    epoch: u64,
    scratch: FlowScratch,
}

impl Simulator {
    /// Creates a simulator over `topology` (any [`Topology`], or a bare
    /// fabric like [`FatTree`](crate::topology::FatTree) via `Into`).
    pub fn new(topology: impl Into<Topology>, config: SimConfig) -> Self {
        Simulator { topology: topology.into(), config, epoch: 0, scratch: FlowScratch::default() }
    }

    /// The epoch index about to run.
    pub fn current_epoch(&self) -> u64 {
        self.epoch
    }

    /// The 1-bit timestamp of the epoch about to run.
    pub fn current_ts_bit(&self) -> u8 {
        (self.epoch & 1) as u8
    }

    /// Fast-forwards (or rewinds) the simulator to `epoch`. The replay
    /// derives its randomness from `(seed, epoch)` alone, so a simulator
    /// positioned here behaves bit-identically to one that actually ran the
    /// preceding epochs — this is what lets a restored streaming runtime
    /// (`chm-serve` snapshots) resume mid-stream.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Replays one clean epoch per packet: every flow in `trace` sends its
    /// full packet count; packets of victim flows are dropped per `plan`
    /// (realized fresh each epoch — every victim that sent anything loses at
    /// least one packet). Ingress hooks fire for *all* packets, egress hooks
    /// only for delivered ones, matching where the upstream/downstream
    /// encoders sit (§3.2).
    pub fn run_epoch<F: Routable, E: EdgeSite<F>>(
        &mut self,
        trace: &Trace<F>,
        plan: &LossPlan<F>,
        hooks: &mut SiteArray<'_, E>,
    ) -> EpochReport<F> {
        self.run_epoch_scenario(trace, plan, &ImpairmentSet::none(), ReplayMode::PerPacket, hooks)
    }

    /// [`run_epoch`](Self::run_epoch) through the burst walker: identical
    /// sketch state and report at a fraction of the replay cost.
    pub fn run_epoch_burst<F: Routable, E: EdgeSite<F>>(
        &mut self,
        trace: &Trace<F>,
        plan: &LossPlan<F>,
        hooks: &mut SiteArray<'_, E>,
    ) -> EpochReport<F> {
        self.run_epoch_scenario(trace, plan, &ImpairmentSet::none(), ReplayMode::Burst, hooks)
    }

    /// [`run_epoch_scenario`](Self::run_epoch_scenario) with
    /// [`ReplayMode::Burst`].
    pub fn run_epoch_burst_scenario<F: Routable, E: EdgeSite<F>>(
        &mut self,
        trace: &Trace<F>,
        plan: &LossPlan<F>,
        imp: &ImpairmentSet,
        hooks: &mut SiteArray<'_, E>,
    ) -> EpochReport<F> {
        self.run_epoch_scenario(trace, plan, imp, ReplayMode::Burst, hooks)
    }

    /// Replays one epoch with `imp` perturbing the fabric — per-link
    /// congestion or queue drops, extra correlated losses, duplicates
    /// re-traversing egress, reordered drop positions, and clock-skewed
    /// timestamp bits — through `mode`'s walker. The report's
    /// `delivered`/`lost` reflect the *realized* fates (plan losses ∪ link
    /// losses ∪ impairment losses; duplicates are fabric noise and never
    /// counted as deliveries), and every drop is attributed to the switch
    /// the flow's [`FabricFates`] pins it to. The report and the hooks'
    /// state do not depend on `mode`.
    ///
    /// [`ImpairmentSet::none`] is the clean fabric: plan losses only.
    pub fn run_epoch_scenario<F: Routable, E: EdgeSite<F>>(
        &mut self,
        trace: &Trace<F>,
        plan: &LossPlan<F>,
        imp: &ImpairmentSet,
        mode: ReplayMode,
        hooks: &mut SiteArray<'_, E>,
    ) -> EpochReport<F> {
        // The scratch leaves `self` for the epoch: the setup borrows the
        // simulator whole.
        let mut sc = std::mem::take(&mut self.scratch);
        let mut setup = self.begin_epoch(trace, plan, imp);
        let mut acc = ReportFragment::default();
        // Room for the planned victims: an epoch's fresh fragment must not
        // regrow its victim list row by row.
        acc.victims.reserve(setup.planned_victims());
        let mut plan_lost = setup.plan_losses();
        // chm-lint: allow(map-iter-order, "trace.flows is the trace's Vec, walked in trace order -- it only shares a field name with the decoders' flow maps")
        for (i, &(f, pkts)) in trace.flows.iter().enumerate() {
            let in_edge = self.topology.edge_of_host(f.src_host());
            let out_edge = self.topology.edge_of_host(f.dst_host());
            setup.realize_flow(i, (f, pkts), plan_lost.take(i), in_edge, &mut sc, &mut acc);
            let mut port = SitePort { sites: &mut *hooks.0, in_edge, out_edge };
            mode.walk(&f, pkts, setup.ts_bit, &sc.fates, &mut port);
        }
        let frags = std::slice::from_mut(&mut acc);
        let report = merge_fragments(trace, setup.epoch, setup.take_queue_depth(), frags);
        self.scratch = sc;
        self.epoch += 1;
        report
    }

    /// The epoch prologue both drivers share: realizes the plan's losses
    /// (victims only) and the fabric's link-loss layer for the epoch about
    /// to run ([`ImpairmentSet::link_model`], whichever model configured it).
    pub(crate) fn begin_epoch<'a, F: Routable>(
        &'a self,
        trace: &Trace<F>,
        plan: &LossPlan<F>,
        imp: &'a ImpairmentSet,
    ) -> EpochSetup<'a> {
        let epoch_seed = self
            .config
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(self.epoch);
        EpochSetup {
            topo: &self.topology,
            imp,
            epoch: self.epoch,
            ts_bit: self.current_ts_bit(),
            epoch_seed,
            base_lost: plan.realize_losses(trace, epoch_seed),
            link: imp
                .link_model()
                .map(|m| m.realize(&self.topology, trace, self.epoch, imp.seed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::FatTree;
    use chm_workloads::{testbed_trace, VictimSelection, WorkloadKind};

    /// A site that just counts its calls.
    #[derive(Default)]
    struct Counter {
        ingress: u64,
        egress: u64,
        ts_bits: Vec<u8>,
    }

    impl EdgeSite<FiveTuple> for Counter {
        fn site_ingress(&mut self, _f: &FiveTuple, ts: u8) -> u8 {
            self.ingress += 1;
            self.ts_bits.push(ts);
            2 // arbitrary tag
        }
        fn site_egress(&mut self, _f: &FiveTuple, _ts: u8, tag: u8) {
            assert_eq!(tag, 2, "tag must round-trip");
            self.egress += 1;
        }
        fn site_ingress_burst(&mut self, f: &FiveTuple, ts: u8, pkts: u64) -> [(u8, u64); 3] {
            for _ in 0..pkts {
                self.site_ingress(f, ts);
            }
            [(2, pkts), (2, 0), (2, 0)]
        }
        fn site_egress_burst(&mut self, f: &FiveTuple, ts: u8, tag: u8, delivered: u64) {
            for _ in 0..delivered {
                self.site_egress(f, ts, tag);
            }
        }
    }

    /// One counter per testbed edge.
    fn counters() -> Vec<Counter> {
        (0..4).map(|_| Counter::default()).collect()
    }

    fn ingress(sites: &[Counter]) -> u64 {
        sites.iter().map(|s| s.ingress).sum()
    }

    fn egress(sites: &[Counter]) -> u64 {
        sites.iter().map(|s| s.egress).sum()
    }

    #[test]
    fn lossless_epoch_balances_ingress_egress() {
        let trace = testbed_trace(WorkloadKind::Dctcp, 500, 8, 1);
        let mut sim = Simulator::new(FatTree::testbed(), SimConfig::default());
        let mut sites = counters();
        let report = sim.run_epoch(&trace, &LossPlan::none(), &mut SiteArray(&mut sites));
        let total: u64 = trace.flows.iter().map(|&(_, s)| s).sum();
        assert_eq!(ingress(&sites), total);
        assert_eq!(egress(&sites), total);
        assert_eq!(report.total_sent(), total);
        assert!(report.lost.is_empty());
    }

    #[test]
    fn losses_skip_egress_only() {
        let trace = testbed_trace(WorkloadKind::Dctcp, 500, 8, 2);
        let plan = LossPlan::build(&trace, VictimSelection::RandomRatio(0.1), 0.05, 3);
        let mut sim = Simulator::new(FatTree::testbed(), SimConfig::default());
        let mut sites = counters();
        let report = sim.run_epoch(&trace, &plan, &mut SiteArray(&mut sites));
        let total: u64 = trace.flows.iter().map(|&(_, s)| s).sum();
        let lost: u64 = report.lost.values().sum();
        assert!(lost > 0);
        assert_eq!(ingress(&sites), total);
        assert_eq!(egress(&sites), total - lost);
        assert_eq!(report.victim_flows(), plan.num_victims());
    }

    #[test]
    fn ts_bit_flips_between_epochs() {
        let trace = testbed_trace(WorkloadKind::Cache, 50, 8, 3);
        let mut sim = Simulator::new(FatTree::testbed(), SimConfig::default());
        let mut sites = counters();
        assert_eq!(sim.current_ts_bit(), 0);
        sim.run_epoch(&trace, &LossPlan::none(), &mut SiteArray(&mut sites));
        assert!(sites.iter().flat_map(|s| &s.ts_bits).all(|&b| b == 0));
        assert_eq!(sim.current_ts_bit(), 1);
        sites.iter_mut().for_each(|s| s.ts_bits.clear());
        sim.run_epoch(&trace, &LossPlan::none(), &mut SiteArray(&mut sites));
        assert!(sites.iter().flat_map(|s| &s.ts_bits).all(|&b| b == 1));
    }

    #[test]
    fn loss_realization_varies_per_epoch() {
        let trace = testbed_trace(WorkloadKind::Vl2, 300, 8, 4);
        let plan = LossPlan::build(&trace, VictimSelection::RandomRatio(0.2), 0.1, 5);
        let mut sim = Simulator::new(FatTree::testbed(), SimConfig::default());
        let mut sites = counters();
        let r1 = sim.run_epoch(&trace, &plan, &mut SiteArray(&mut sites));
        let r2 = sim.run_epoch(&trace, &plan, &mut SiteArray(&mut sites));
        // Victim sets identical (plan is fixed) but realized loss counts
        // should differ somewhere.
        assert_eq!(r1.victim_flows(), r2.victim_flows());
        assert_ne!(
            r1.lost.values().collect::<Vec<_>>(),
            r2.lost.values().collect::<Vec<_>>(),
        );
    }

    #[test]
    fn spread_drop_zero_losses_drops_nothing() {
        for pkts in [1u64, 2, 7, 1000] {
            assert!((0..pkts).all(|i| !spread_drop(i, pkts, 0)));
            assert_eq!(spread_drop_prefix(pkts, pkts, 0), 0);
        }
    }

    #[test]
    fn spread_drop_total_loss_drops_everything() {
        for pkts in [1u64, 2, 7, 1000] {
            assert!((0..pkts).all(|i| spread_drop(i, pkts, pkts)));
            assert_eq!(spread_drop_prefix(pkts, pkts, pkts), pkts);
        }
    }

    #[test]
    fn spread_drop_excess_losses_clamp_to_flow_size() {
        // n_lost > pkts cannot happen from a LossPlan (realize_losses caps),
        // but the function is public: clamp instead of relying on the raw
        // formula's accidental behavior.
        for (pkts, n_lost) in [(5u64, 6u64), (5, 100), (1, u32::MAX as u64)] {
            assert!((0..pkts).all(|i| spread_drop(i, pkts, n_lost)));
            assert_eq!(spread_drop_prefix(pkts, pkts, n_lost), pkts);
        }
    }

    #[test]
    fn spread_drop_zero_packets_never_drops() {
        assert!(!spread_drop(0, 0, 0));
        assert!(!spread_drop(0, 0, 3));
        assert_eq!(spread_drop_prefix(0, 0, 3), 0);
    }

    #[test]
    fn spread_drop_marks_exactly_n_lost_spread_out() {
        for (pkts, n_lost) in [(10u64, 3u64), (17, 5), (100, 1), (9, 9), (8, 12)]
        {
            let marks: Vec<u64> =
                (0..pkts).filter(|&i| spread_drop(i, pkts, n_lost)).collect();
            assert_eq!(marks.len() as u64, n_lost.min(pkts), "{pkts}/{n_lost}");
            // Prefix form agrees with the per-index form at every cut.
            for x in 0..=pkts {
                assert_eq!(
                    spread_drop_prefix(x, pkts, n_lost),
                    marks.iter().filter(|&&i| i < x).count() as u64
                );
            }
            // Spread: no run of drops longer than ceil(L/P)·… — adjacent
            // drops only appear when L > P/2.
            if n_lost <= pkts / 2 && n_lost > 0 {
                assert!(marks.windows(2).all(|w| w[1] > w[0] + 1), "clustered");
            }
        }
    }

    #[test]
    fn attribution_conserves_and_stays_on_route() {
        let trace = testbed_trace(WorkloadKind::Vl2, 600, 8, 21);
        let plan = LossPlan::build(&trace, VictimSelection::RandomRatio(0.2), 0.1, 22);
        let mut sim = Simulator::new(FatTree::testbed(), SimConfig::default());
        let mut sites = counters();
        let r = sim.run_epoch(&trace, &plan, &mut SiteArray(&mut sites));
        // Every lost packet is attributed exactly once.
        assert_eq!(r.total_attributed(), r.lost.values().sum::<u64>());
        let topo = FatTree::testbed();
        for (f, lost, drops) in r.lost.with_drops() {
            assert_eq!(drops.iter().map(|&(_, c)| c).sum::<u64>(), lost, "per-victim sum");
            let route = topo.route(f.src_host(), f.dst_host(), f.key64());
            for (s, _) in drops {
                assert!(route.contains(s), "attributed off-route: {s:?}");
            }
            assert!(dominant_drop_switch(drops).is_some());
        }
        // Histogram covers every packet.
        assert_eq!(r.hops_histogram.values().sum::<u64>(), r.total_sent());
    }

    #[test]
    fn spread_drop_nth_enumerates_exactly_the_marked_indices() {
        for (pkts, n_lost) in [(10u64, 3u64), (17, 5), (100, 1), (9, 9), (8, 12)] {
            let marks: Vec<u64> =
                (0..pkts).filter(|&i| spread_drop(i, pkts, n_lost)).collect();
            let nth: Vec<u64> =
                (0..n_lost.min(pkts)).map(|k| spread_drop_nth(k, pkts, n_lost)).collect();
            assert_eq!(marks, nth, "{pkts}/{n_lost}");
        }
    }

    #[test]
    fn duplication_inflates_egress_but_not_report() {
        let trace = testbed_trace(WorkloadKind::Dctcp, 300, 8, 10);
        let imp = ImpairmentSet {
            seed: 4,
            duplication: Some(crate::impair::Duplication { prob: 1.0 }),
            ..ImpairmentSet::none()
        };
        let mut sim = Simulator::new(FatTree::testbed(), SimConfig::default());
        let mut sites = counters();
        let report = sim.run_epoch_scenario(&trace, &LossPlan::none(), &imp, ReplayMode::PerPacket, &mut SiteArray(&mut sites));
        let total: u64 = trace.flows.iter().map(|&(_, s)| s).sum();
        assert!(report.lost.is_empty(), "duplication is not loss");
        assert_eq!(report.total_sent(), total);
        assert_eq!(ingress(&sites), total);
        // Every delivered packet egressed twice.
        assert_eq!(egress(&sites), 2 * total);
    }

    #[test]
    fn gilbert_elliott_losses_show_up_in_ground_truth() {
        let trace = testbed_trace(WorkloadKind::Hadoop, 300, 8, 11);
        let imp = ImpairmentSet {
            seed: 5,
            gilbert_elliott: Some(crate::impair::GilbertElliott::bursty()),
            ..ImpairmentSet::none()
        };
        let mut sim = Simulator::new(FatTree::testbed(), SimConfig::default());
        let mut sites = counters();
        let report = sim.run_epoch_scenario(&trace, &LossPlan::none(), &imp, ReplayMode::PerPacket, &mut SiteArray(&mut sites));
        let lost: u64 = report.lost.values().sum();
        assert!(lost > 0, "GE must create victims without any loss plan");
        let total: u64 = trace.flows.iter().map(|&(_, s)| s).sum();
        assert_eq!(egress(&sites), total - lost);
    }

    #[test]
    fn clock_skew_stamps_a_prefix_with_previous_bit() {
        let trace = testbed_trace(WorkloadKind::Vl2, 200, 8, 12);
        let imp = ImpairmentSet {
            seed: 6,
            clock_skew: Some(crate::impair::ClockSkew { max_frac: 0.3 }),
            ..ImpairmentSet::none()
        };
        let mut sim = Simulator::new(FatTree::testbed(), SimConfig::default());
        let mut sites = counters();
        sim.run_epoch_scenario(&trace, &LossPlan::none(), &imp, ReplayMode::PerPacket, &mut SiteArray(&mut sites));
        // Epoch 0 (bit 0): mis-stamped packets carry bit 1.
        let skewed = sites.iter().flat_map(|s| &s.ts_bits).filter(|&&b| b == 1).count();
        assert!(skewed > 0, "0.3 max skew must mis-stamp something");
        assert!(skewed < ingress(&sites) as usize / 2, "skew must stay a minority");
    }

    #[test]
    fn all_edges_carry_traffic() {
        let trace = testbed_trace(WorkloadKind::Hadoop, 2000, 8, 6);
        let mut sim = Simulator::new(FatTree::testbed(), SimConfig::default());
        let mut sites = counters();
        sim.run_epoch(&trace, &LossPlan::none(), &mut SiteArray(&mut sites));
        for (e, site) in sites.iter().enumerate() {
            assert!(site.ingress > 0, "edge {e} idle");
            assert!(site.egress > 0, "edge {e} idle");
        }
    }
}
