//! The packet loop: replays a trace through the fabric, epoch by epoch,
//! invoking measurement hooks at the ingress and egress edge switches and
//! applying the loss plan in between — the software equivalent of the §5.2
//! testbed run (DPDK senders, proactive ECN drops, ChameleMon on all four
//! ToR switches), generalized to any [`Topology`] in the zoo.

use crate::impair::{hash_hop, FabricFates, ImpairmentSet, LinkLoss};
use crate::queue::QueueDepthStat;
use crate::topology::{SwitchId, Topology};
use chm_common::{FiveTuple, FlowId};
use chm_workloads::trace::ip_host;
use chm_workloads::{LossPlan, Trace};
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// Measurement hooks an edge-switch data plane exposes to the simulator.
///
/// `ts_bit` is the 1-bit epoch timestamp the packet reads at its ingress
/// edge and carries through the network (Appendix B); `tag` is the 2-bit
/// flow-hierarchy tag the ingress pipeline writes into the ToS field so the
/// egress pipeline knows which encoder to use (§3.2.3).
pub trait EdgeHooks<F> {
    /// Called when a packet enters the network. Returns the hierarchy tag
    /// the packet carries to its egress edge.
    fn on_ingress(&mut self, edge: usize, f: &F, ts_bit: u8) -> u8;

    /// Called when a packet exits the network (unless it was dropped).
    fn on_egress(&mut self, edge: usize, f: &F, ts_bit: u8, tag: u8);
}

/// Burst-capable measurement hooks: a data plane that can ingest a run of
/// consecutive same-flow packets in one call, producing the same state as
/// the per-packet path (ChameleMon's engine classifies a burst in closed
/// form — [`run_epoch_burst`](Simulator::run_epoch_burst) exploits it).
pub trait BurstHooks<F>: EdgeHooks<F> {
    /// Ingests a burst of `pkts` packets of `f`; returns the carried tags
    /// as `(tag, count)` runs **in packet order** (zero-count runs allowed).
    fn on_ingress_burst(&mut self, edge: usize, f: &F, ts_bit: u8, pkts: u64)
        -> [(u8, u64); 3];

    /// Egress for `delivered` packets of one tag run.
    fn on_egress_burst(&mut self, edge: usize, f: &F, ts_bit: u8, tag: u8, delivered: u64);
}

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

/// Ground truth of one simulated epoch, **fabric-attributed**: besides the
/// per-flow delivered/lost counts, every dropped packet is pinned to the
/// switch that dropped it (the per-switch visibility a per-link deployment
/// like LossRadar would have) — the ground truth victim-localization
/// accuracy is scored against. The per-switch maps are `BTreeMap`s so their
/// iteration order is stable wherever they feed JSON goldens.
///
/// `PartialEq` compares the full report — the sharded-vs-unsharded
/// differential suites assert whole-report equality.
#[derive(Debug, Clone)]
pub struct EpochReport<F> {
    /// Packets that traversed the full path, per flow.
    pub delivered: HashMap<F, u64>,
    /// Packets dropped in the fabric, per victim flow.
    pub lost: HashMap<F, u64>,
    /// Packets dropped, attributed to the switch that dropped them
    /// (fabric-wide totals).
    pub dropped_at: BTreeMap<SwitchId, u64>,
    /// Per-victim drop attribution: which switches dropped this flow's
    /// packets, and how many each. Values sum to `lost[f]`.
    pub lost_at: HashMap<F, BTreeMap<SwitchId, u64>>,
    /// Distribution of route lengths (switches on path → packets).
    pub hops_histogram: BTreeMap<usize, u64>,
    /// Per-switch queue-depth telemetry from the time-resolved queue model
    /// (empty when the epoch ran without one) — what the switches would
    /// export via INT/queue-occupancy counters. Computed identically by
    /// both scenario replay paths from the shared realization; the clean
    /// paths have no queues and leave it empty.
    pub queue_depth: BTreeMap<SwitchId, QueueDepthStat>,
    /// Epoch index this report covers.
    pub epoch: u64,
}

// Hand-written because the derive would bound `F: PartialEq`, while the
// `HashMap` comparisons actually need `F: Eq + Hash` (content equality,
// independent of iteration order).
impl<F: Eq + Hash> PartialEq for EpochReport<F> {
    fn eq(&self, other: &Self) -> bool {
        self.delivered == other.delivered
            && self.lost == other.lost
            && self.dropped_at == other.dropped_at
            && self.lost_at == other.lost_at
            && self.hops_histogram == other.hops_histogram
            && self.queue_depth == other.queue_depth
            && self.epoch == other.epoch
    }
}

impl<F: Copy + Eq + Hash> EpochReport<F> {
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

    /// The switch that dropped most of `f`'s packets (ties break toward
    /// the smaller [`SwitchId`]) — the localization target for this victim.
    pub fn dominant_drop_switch(&self, f: &F) -> Option<SwitchId> {
        let at = self.lost_at.get(f)?;
        at.iter()
            .fold(None, |best: Option<(SwitchId, u64)>, (&s, &c)| match best {
                Some((_, bc)) if bc >= c => best,
                _ => Some((s, c)),
            })
            .map(|(s, _)| s)
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

/// Folds one victim's drop points into the epoch accumulators, for losses
/// realized by the spread rule (the clean replay paths): each of the
/// `min(n_lost, pkts)` drops picks its switch by [`hash_hop`] over the
/// flow's route — both clean paths call this with identical inputs, so
/// their attribution is byte-identical.
#[allow(clippy::too_many_arguments)]
pub(crate) fn attribute_spread<F: Copy + Eq + Hash>(
    f: &F,
    flow_key: u64,
    pkts: u64,
    n_lost: u64,
    epoch_seed: u64,
    route: &[SwitchId],
    dropped_at: &mut BTreeMap<SwitchId, u64>,
    lost_at: &mut HashMap<F, BTreeMap<SwitchId, u64>>,
) {
    if n_lost == 0 || pkts == 0 {
        return;
    }
    let mut at: BTreeMap<SwitchId, u64> = BTreeMap::new();
    for k in 0..n_lost.min(pkts) {
        let i = spread_drop_nth(k, pkts, n_lost);
        let h = hash_hop(epoch_seed, flow_key, i, route.len());
        *at.entry(route[h as usize]).or_insert(0) += 1;
    }
    for (&s, &c) in &at {
        *dropped_at.entry(s).or_insert(0) += c;
    }
    lost_at.insert(*f, at);
}

/// Folds one flow's realized [`FabricFates`] drop points into the epoch
/// accumulators (the scenario replay paths). No-op for lossless flows.
pub(crate) fn attribute_fates<F: Copy + Eq + Hash>(
    f: &F,
    route: &[SwitchId],
    fates: &FabricFates,
    dropped_at: &mut BTreeMap<SwitchId, u64>,
    lost_at: &mut HashMap<F, BTreeMap<SwitchId, u64>>,
) {
    let mut at: BTreeMap<SwitchId, u64> = BTreeMap::new();
    for (i, &d) in fates.delivered_mask.iter().enumerate() {
        if !d {
            *at.entry(route[fates.drop_hop[i] as usize]).or_insert(0) += 1;
        }
    }
    if at.is_empty() {
        return;
    }
    for (&s, &c) in &at {
        *dropped_at.entry(s).or_insert(0) += c;
    }
    lost_at.insert(*f, at);
}

/// The fabric simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    /// The fabric wiring.
    pub topology: Topology,
    /// Simulation parameters.
    pub config: SimConfig,
    epoch: u64,
}

impl Simulator {
    /// Creates a simulator over `topology` (any [`Topology`], or a bare
    /// fabric like [`FatTree`](crate::topology::FatTree) via `Into`).
    pub fn new(topology: impl Into<Topology>, config: SimConfig) -> Self {
        Simulator { topology: topology.into(), config, epoch: 0 }
    }

    /// The epoch index about to run.
    pub fn current_epoch(&self) -> u64 {
        self.epoch
    }

    /// The 1-bit timestamp of the epoch about to run.
    pub fn current_ts_bit(&self) -> u8 {
        (self.epoch & 1) as u8
    }

    /// Fast-forwards (or rewinds) the simulator to `epoch`. Every replay
    /// path derives its randomness from `(seed, epoch)` alone, so a
    /// simulator positioned here behaves bit-identically to one that
    /// actually ran the preceding epochs — this is what lets a restored
    /// streaming runtime (`chm-serve` snapshots) resume mid-stream.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Replays one epoch: every flow in `trace` sends its full packet count;
    /// packets of victim flows are dropped per `plan` (realized fresh each
    /// epoch — every victim loses at least one packet). Ingress hooks fire
    /// for *all* packets, egress hooks only for delivered ones, matching
    /// where the upstream/downstream encoders sit (§3.2).
    pub fn run_epoch<F: Routable>(
        &mut self,
        trace: &Trace<F>,
        plan: &LossPlan<F>,
        hooks: &mut impl EdgeHooks<F>,
    ) -> EpochReport<F> {
        let ts_bit = self.current_ts_bit();
        let epoch_seed = self.epoch_seed();
        let (delivered, lost) = plan.apply_to_trace(trace, epoch_seed);
        let mut dropped_at = BTreeMap::new();
        let mut lost_at = HashMap::new();
        let mut hops_histogram = BTreeMap::new();
        let mut route = Vec::with_capacity(self.topology.max_hops());
        for &(f, pkts) in &trace.flows {
            let (src, dst) = (f.src_host(), f.dst_host());
            let in_edge = self.topology.edge_of_host(src);
            let out_edge = self.topology.edge_of_host(dst);
            // Hop counts are definitionally the route length; the route
            // lands in a reusable buffer, so this stays allocation-free.
            self.topology.route_into(src, dst, f.key64(), &mut route);
            *hops_histogram.entry(route.len()).or_insert(0) += pkts;
            let n_lost = lost.get(&f).copied().unwrap_or(0);
            if n_lost == 0 {
                // Lossless fast path — the overwhelmingly common case (most
                // flows are not victims): skip the per-packet drop test.
                for _ in 0..pkts {
                    let tag = hooks.on_ingress(in_edge, &f, ts_bit);
                    hooks.on_egress(out_edge, &f, ts_bit, tag);
                }
                continue;
            }
            attribute_spread(
                &f,
                f.key64(),
                pkts,
                n_lost,
                epoch_seed,
                &route,
                &mut dropped_at,
                &mut lost_at,
            );
            for i in 0..pkts {
                let tag = hooks.on_ingress(in_edge, &f, ts_bit);
                // Drops must be spread across the flow's lifetime (the
                // testbed marks ECN on a rate basis): the classifier's
                // per-packet hierarchy decision depends on the flow's size
                // *so far*, so dropping only early packets would push every
                // loss into the LL phase and starve the HL encoders.
                if spread_drop(i, pkts, n_lost) {
                    continue;
                }
                hooks.on_egress(out_edge, &f, ts_bit, tag);
            }
        }
        let report = EpochReport {
            delivered,
            lost,
            dropped_at,
            lost_at,
            hops_histogram,
            queue_depth: BTreeMap::new(),
            epoch: self.epoch,
        };
        self.epoch += 1;
        report
    }

    /// The batched replay: one [`BurstHooks`] call per flow instead of one
    /// [`EdgeHooks`] call per packet, with drops distributed across the
    /// burst's tag runs by the same spread formula — the resulting sketch
    /// state and report are identical to [`run_epoch`](Self::run_epoch)
    /// (property-tested), at a fraction of the replay cost.
    pub fn run_epoch_burst<F: Routable>(
        &mut self,
        trace: &Trace<F>,
        plan: &LossPlan<F>,
        hooks: &mut impl BurstHooks<F>,
    ) -> EpochReport<F> {
        let ts_bit = self.current_ts_bit();
        let epoch_seed = self.epoch_seed();
        let (delivered, lost) = plan.apply_to_trace(trace, epoch_seed);
        let mut dropped_at = BTreeMap::new();
        let mut lost_at = HashMap::new();
        let mut hops_histogram = BTreeMap::new();
        let mut route = Vec::with_capacity(self.topology.max_hops());
        for &(f, pkts) in &trace.flows {
            let (src, dst) = (f.src_host(), f.dst_host());
            let in_edge = self.topology.edge_of_host(src);
            let out_edge = self.topology.edge_of_host(dst);
            // Hop counts are definitionally the route length (reused
            // buffer, allocation-free).
            self.topology.route_into(src, dst, f.key64(), &mut route);
            *hops_histogram.entry(route.len()).or_insert(0) += pkts;
            let n_lost = lost.get(&f).copied().unwrap_or(0);
            if n_lost > 0 {
                attribute_spread(
                    &f,
                    f.key64(),
                    pkts,
                    n_lost,
                    epoch_seed,
                    &route,
                    &mut dropped_at,
                    &mut lost_at,
                );
            }
            let runs = hooks.on_ingress_burst(in_edge, &f, ts_bit, pkts);
            // Packets dropped before position x (exclusive): ⌊x·L/P⌋ — the
            // prefix form of `spread_drop`.
            let mut pos = 0u64;
            for (tag, len) in runs {
                if len == 0 {
                    continue;
                }
                let dropped = spread_drop_prefix(pos + len, pkts, n_lost)
                    - spread_drop_prefix(pos, pkts, n_lost);
                hooks.on_egress_burst(out_edge, &f, ts_bit, tag, len - dropped);
                pos += len;
            }
            debug_assert_eq!(pos, pkts, "tag runs must cover the whole burst");
        }
        let report = EpochReport {
            delivered,
            lost,
            dropped_at,
            lost_at,
            hops_histogram,
            queue_depth: BTreeMap::new(),
            epoch: self.epoch,
        };
        self.epoch += 1;
        report
    }

    /// Scenario replay, per-packet path: like [`run_epoch`](Self::run_epoch)
    /// but with an [`ImpairmentSet`] perturbing the fabric — per-link
    /// congestion drops, extra correlated losses, duplicates re-traversing
    /// egress, reordered drop positions, and clock-skewed timestamp bits.
    /// The epoch report's `delivered`/`lost` reflect the *realized* fates
    /// (plan losses ∪ congestion losses ∪ impairment losses; duplicates are
    /// fabric noise and never counted as deliveries), and every drop is
    /// attributed to the switch the shared [`FabricFates`] realization pins
    /// it to.
    ///
    /// With [`ImpairmentSet::none`] this is observationally identical to
    /// [`run_epoch`](Self::run_epoch), drop attribution included.
    pub fn run_epoch_scenario<F: Routable>(
        &mut self,
        trace: &Trace<F>,
        plan: &LossPlan<F>,
        imp: &ImpairmentSet,
        hooks: &mut impl EdgeHooks<F>,
    ) -> EpochReport<F> {
        let ts_bit = self.current_ts_bit();
        let prev_bit = ts_bit ^ 1;
        let epoch_seed = self.epoch_seed();
        let base_lost = plan.realize_losses(trace, epoch_seed);
        // The queue model supersedes the static congestion model: both are
        // link-level loss generators, and exactly one realization feeds the
        // fates so the two layers can never double-drop.
        let queue = imp
            .queue
            .as_ref()
            .map(|q| q.realize(&self.topology, trace, self.epoch, imp.seed));
        let cong = match &queue {
            Some(_) => None,
            None => imp
                .congestion
                .as_ref()
                .map(|m| m.realize(&self.topology, trace, self.epoch)),
        };
        let queue_depth = queue.as_ref().map(|q| q.depths().clone()).unwrap_or_default();
        let mut delivered = HashMap::with_capacity(trace.num_flows());
        let mut lost = HashMap::new();
        let mut dropped_at = BTreeMap::new();
        let mut lost_at = HashMap::new();
        let mut hops_histogram = BTreeMap::new();
        let mut fates = FabricFates::default();
        let mut route = Vec::with_capacity(self.topology.max_hops());
        let mut hop_probs = Vec::with_capacity(self.topology.max_hops());
        let mut slot_counts = Vec::new();
        for &(f, pkts) in &trace.flows {
            let (src, dst) = (f.src_host(), f.dst_host());
            let in_edge = self.topology.edge_of_host(src);
            let out_edge = self.topology.edge_of_host(dst);
            // The route lands in a reusable buffer (allocation-free); its
            // length is the hop count by definition, and the link-level
            // loss layers read their per-hop probabilities off it.
            hop_probs.clear();
            self.topology.route_into(src, dst, f.key64(), &mut route);
            let route_len = match (&queue, &cong) {
                (Some(q), _) => {
                    q.hop_slot_probs(&route, dst, &mut hop_probs);
                    q.flow_slot_counts(f.key64(), pkts, &mut slot_counts);
                    route.len()
                }
                (None, Some(c)) => {
                    c.hop_probs(&route, dst, &mut hop_probs);
                    route.len()
                }
                (None, None) => route.len(),
            };
            *hops_histogram.entry(route_len).or_insert(0) += pkts;
            let n_lost = base_lost.get(&f).copied().unwrap_or(0);
            let link_loss = match &queue {
                Some(q) => LinkLoss::Slotted {
                    probs: &hop_probs,
                    slot_counts: &slot_counts,
                    n_slots: q.n_slots(),
                },
                None if cong.is_some() => LinkLoss::Static(&hop_probs),
                None => LinkLoss::None,
            };
            imp.realize_flow(
                &mut fates,
                f.key64(),
                pkts,
                n_lost,
                epoch_seed,
                in_edge,
                route_len,
                link_loss,
            );
            for i in 0..pkts {
                let ts = if i < fates.skew_split { prev_bit } else { ts_bit };
                let tag = hooks.on_ingress(in_edge, &f, ts);
                if fates.delivered_mask[i as usize] {
                    hooks.on_egress(out_edge, &f, ts, tag);
                    if fates.dup[i as usize] {
                        hooks.on_egress(out_edge, &f, ts, tag);
                    }
                }
            }
            let del = fates.n_delivered();
            delivered.insert(f, del);
            if del < pkts {
                lost.insert(f, pkts - del);
                attribute_fates(&f, &route, &fates, &mut dropped_at, &mut lost_at);
            }
        }
        let report = EpochReport {
            delivered,
            lost,
            dropped_at,
            lost_at,
            hops_histogram,
            queue_depth,
            epoch: self.epoch,
        };
        self.epoch += 1;
        report
    }

    /// Scenario replay, burst path: the batched twin of
    /// [`run_epoch_scenario`](Self::run_epoch_scenario). Both paths consult
    /// the same per-flow [`FabricFates`] realization, so the resulting sketch
    /// state and epoch report are byte-identical — impairments live above
    /// the hook boundary, not inside one path. A clock-skewed flow splits
    /// into two ingress bursts (the mis-stamped prefix carries the previous
    /// epoch's bit); each tag run's egress weight is the run's delivered
    /// count plus its fabric duplicates.
    pub fn run_epoch_burst_scenario<F: Routable>(
        &mut self,
        trace: &Trace<F>,
        plan: &LossPlan<F>,
        imp: &ImpairmentSet,
        hooks: &mut impl BurstHooks<F>,
    ) -> EpochReport<F> {
        let ts_bit = self.current_ts_bit();
        let prev_bit = ts_bit ^ 1;
        let epoch_seed = self.epoch_seed();
        let base_lost = plan.realize_losses(trace, epoch_seed);
        // Identical link-loss layering to the per-packet scenario path:
        // queue supersedes static congestion, one realization feeds both.
        let queue = imp
            .queue
            .as_ref()
            .map(|q| q.realize(&self.topology, trace, self.epoch, imp.seed));
        let cong = match &queue {
            Some(_) => None,
            None => imp
                .congestion
                .as_ref()
                .map(|m| m.realize(&self.topology, trace, self.epoch)),
        };
        let queue_depth = queue.as_ref().map(|q| q.depths().clone()).unwrap_or_default();
        let mut delivered = HashMap::with_capacity(trace.num_flows());
        let mut lost = HashMap::new();
        let mut dropped_at = BTreeMap::new();
        let mut lost_at = HashMap::new();
        let mut hops_histogram = BTreeMap::new();
        let mut fates = FabricFates::default();
        let mut route = Vec::with_capacity(self.topology.max_hops());
        let mut hop_probs = Vec::with_capacity(self.topology.max_hops());
        let mut slot_counts = Vec::new();
        for &(f, pkts) in &trace.flows {
            let (src, dst) = (f.src_host(), f.dst_host());
            let in_edge = self.topology.edge_of_host(src);
            let out_edge = self.topology.edge_of_host(dst);
            // Reused route buffer — identical policy to the per-packet
            // scenario path, so attribution stays byte-equal.
            hop_probs.clear();
            self.topology.route_into(src, dst, f.key64(), &mut route);
            let route_len = match (&queue, &cong) {
                (Some(q), _) => {
                    q.hop_slot_probs(&route, dst, &mut hop_probs);
                    q.flow_slot_counts(f.key64(), pkts, &mut slot_counts);
                    route.len()
                }
                (None, Some(c)) => {
                    c.hop_probs(&route, dst, &mut hop_probs);
                    route.len()
                }
                (None, None) => route.len(),
            };
            *hops_histogram.entry(route_len).or_insert(0) += pkts;
            let n_lost = base_lost.get(&f).copied().unwrap_or(0);
            let link_loss = match &queue {
                Some(q) => LinkLoss::Slotted {
                    probs: &hop_probs,
                    slot_counts: &slot_counts,
                    n_slots: q.n_slots(),
                },
                None if cong.is_some() => LinkLoss::Static(&hop_probs),
                None => LinkLoss::None,
            };
            imp.realize_flow(
                &mut fates,
                f.key64(),
                pkts,
                n_lost,
                epoch_seed,
                in_edge,
                route_len,
                link_loss,
            );
            let k = fates.skew_split;
            let mut pos = 0u64;
            for (seg_ts, seg_len) in [(prev_bit, k), (ts_bit, pkts - k)] {
                if seg_len == 0 {
                    continue;
                }
                let runs = hooks.on_ingress_burst(in_edge, &f, seg_ts, seg_len);
                for (tag, len) in runs {
                    if len == 0 {
                        continue;
                    }
                    let out = fates.delivered_in(pos, len) + fates.dups_in(pos, len);
                    hooks.on_egress_burst(out_edge, &f, seg_ts, tag, out);
                    pos += len;
                }
            }
            debug_assert_eq!(pos, pkts, "tag runs must cover the whole burst");
            let del = fates.n_delivered();
            delivered.insert(f, del);
            if del < pkts {
                lost.insert(f, pkts - del);
                attribute_fates(&f, &route, &fates, &mut dropped_at, &mut lost_at);
            }
        }
        let report = EpochReport {
            delivered,
            lost,
            dropped_at,
            lost_at,
            hops_histogram,
            queue_depth,
            epoch: self.epoch,
        };
        self.epoch += 1;
        report
    }

    /// The per-epoch seed every replay path derives loss realizations from
    /// (the sharded engine in [`crate::shard`] must use the identical
    /// derivation, hence the crate visibility).
    pub(crate) fn epoch_seed(&self) -> u64 {
        self.config
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(self.epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::FatTree;
    use chm_workloads::{testbed_trace, VictimSelection, WorkloadKind};

    /// Hooks that just count calls per edge.
    #[derive(Default)]
    struct Counter {
        ingress: HashMap<usize, u64>,
        egress: HashMap<usize, u64>,
        ts_bits: Vec<u8>,
    }

    impl EdgeHooks<FiveTuple> for Counter {
        fn on_ingress(&mut self, edge: usize, _f: &FiveTuple, ts: u8) -> u8 {
            *self.ingress.entry(edge).or_insert(0) += 1;
            self.ts_bits.push(ts);
            2 // arbitrary tag
        }
        fn on_egress(&mut self, edge: usize, _f: &FiveTuple, _ts: u8, tag: u8) {
            assert_eq!(tag, 2, "tag must round-trip");
            *self.egress.entry(edge).or_insert(0) += 1;
        }
    }

    #[test]
    fn lossless_epoch_balances_ingress_egress() {
        let trace = testbed_trace(WorkloadKind::Dctcp, 500, 8, 1);
        let mut sim = Simulator::new(FatTree::testbed(), SimConfig::default());
        let mut hooks = Counter::default();
        let report = sim.run_epoch(&trace, &LossPlan::none(), &mut hooks);
        let total: u64 = trace.flows.iter().map(|&(_, s)| s).sum();
        assert_eq!(hooks.ingress.values().sum::<u64>(), total);
        assert_eq!(hooks.egress.values().sum::<u64>(), total);
        assert_eq!(report.total_sent(), total);
        assert!(report.lost.is_empty());
    }

    #[test]
    fn losses_skip_egress_only() {
        let trace = testbed_trace(WorkloadKind::Dctcp, 500, 8, 2);
        let plan = LossPlan::build(&trace, VictimSelection::RandomRatio(0.1), 0.05, 3);
        let mut sim = Simulator::new(FatTree::testbed(), SimConfig::default());
        let mut hooks = Counter::default();
        let report = sim.run_epoch(&trace, &plan, &mut hooks);
        let total: u64 = trace.flows.iter().map(|&(_, s)| s).sum();
        let lost: u64 = report.lost.values().sum();
        assert!(lost > 0);
        assert_eq!(hooks.ingress.values().sum::<u64>(), total);
        assert_eq!(hooks.egress.values().sum::<u64>(), total - lost);
        assert_eq!(report.victim_flows(), plan.num_victims());
    }

    #[test]
    fn ts_bit_flips_between_epochs() {
        let trace = testbed_trace(WorkloadKind::Cache, 50, 8, 3);
        let mut sim = Simulator::new(FatTree::testbed(), SimConfig::default());
        let mut hooks = Counter::default();
        assert_eq!(sim.current_ts_bit(), 0);
        sim.run_epoch(&trace, &LossPlan::none(), &mut hooks);
        assert!(hooks.ts_bits.iter().all(|&b| b == 0));
        assert_eq!(sim.current_ts_bit(), 1);
        hooks.ts_bits.clear();
        sim.run_epoch(&trace, &LossPlan::none(), &mut hooks);
        assert!(hooks.ts_bits.iter().all(|&b| b == 1));
    }

    #[test]
    fn loss_realization_varies_per_epoch() {
        let trace = testbed_trace(WorkloadKind::Vl2, 300, 8, 4);
        let plan = LossPlan::build(&trace, VictimSelection::RandomRatio(0.2), 0.1, 5);
        let mut sim = Simulator::new(FatTree::testbed(), SimConfig::default());
        let mut hooks = Counter::default();
        let r1 = sim.run_epoch(&trace, &plan, &mut hooks);
        let r2 = sim.run_epoch(&trace, &plan, &mut hooks);
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
    fn scenario_replay_with_no_impairments_matches_plain_replay() {
        let trace = testbed_trace(WorkloadKind::Dctcp, 400, 8, 9);
        let plan = LossPlan::build(&trace, VictimSelection::RandomRatio(0.1), 0.05, 9);
        let mut sim_a = Simulator::new(FatTree::testbed(), SimConfig::default());
        let mut sim_b = Simulator::new(FatTree::testbed(), SimConfig::default());
        let mut ha = Counter::default();
        let mut hb = Counter::default();
        let ra = sim_a.run_epoch(&trace, &plan, &mut ha);
        let rb = sim_b.run_epoch_scenario(&trace, &plan, &ImpairmentSet::none(), &mut hb);
        assert_eq!(ra.delivered, rb.delivered);
        assert_eq!(ra.lost, rb.lost);
        assert_eq!(ra.dropped_at, rb.dropped_at, "attribution must agree too");
        assert_eq!(ra.lost_at, rb.lost_at);
        assert_eq!(ra.hops_histogram, rb.hops_histogram);
        assert_eq!(ha.ingress, hb.ingress);
        assert_eq!(ha.egress, hb.egress);
    }

    #[test]
    fn attribution_conserves_and_stays_on_route() {
        let trace = testbed_trace(WorkloadKind::Vl2, 600, 8, 21);
        let plan = LossPlan::build(&trace, VictimSelection::RandomRatio(0.2), 0.1, 22);
        let mut sim = Simulator::new(FatTree::testbed(), SimConfig::default());
        let mut hooks = Counter::default();
        let r = sim.run_epoch(&trace, &plan, &mut hooks);
        // Every lost packet is attributed exactly once.
        assert_eq!(r.total_attributed(), r.lost.values().sum::<u64>());
        let topo = FatTree::testbed();
        for (f, at) in &r.lost_at {
            assert_eq!(at.values().sum::<u64>(), r.lost[f], "per-victim sum");
            let route = topo.route(f.src_host(), f.dst_host(), f.key64());
            for s in at.keys() {
                assert!(route.contains(s), "attributed off-route: {s:?}");
            }
            assert!(r.dominant_drop_switch(f).is_some());
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
        let mut hooks = Counter::default();
        let report = sim.run_epoch_scenario(&trace, &LossPlan::none(), &imp, &mut hooks);
        let total: u64 = trace.flows.iter().map(|&(_, s)| s).sum();
        assert!(report.lost.is_empty(), "duplication is not loss");
        assert_eq!(report.total_sent(), total);
        assert_eq!(hooks.ingress.values().sum::<u64>(), total);
        // Every delivered packet egressed twice.
        assert_eq!(hooks.egress.values().sum::<u64>(), 2 * total);
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
        let mut hooks = Counter::default();
        let report = sim.run_epoch_scenario(&trace, &LossPlan::none(), &imp, &mut hooks);
        let lost: u64 = report.lost.values().sum();
        assert!(lost > 0, "GE must create victims without any loss plan");
        let total: u64 = trace.flows.iter().map(|&(_, s)| s).sum();
        assert_eq!(hooks.egress.values().sum::<u64>(), total - lost);
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
        let mut hooks = Counter::default();
        sim.run_epoch_scenario(&trace, &LossPlan::none(), &imp, &mut hooks);
        // Epoch 0 (bit 0): mis-stamped packets carry bit 1.
        let skewed = hooks.ts_bits.iter().filter(|&&b| b == 1).count();
        assert!(skewed > 0, "0.3 max skew must mis-stamp something");
        assert!(skewed < hooks.ts_bits.len() / 2, "skew must stay a minority");
    }

    #[test]
    fn all_edges_carry_traffic() {
        let trace = testbed_trace(WorkloadKind::Hadoop, 2000, 8, 6);
        let mut sim = Simulator::new(FatTree::testbed(), SimConfig::default());
        let mut hooks = Counter::default();
        sim.run_epoch(&trace, &LossPlan::none(), &mut hooks);
        for e in 0..4 {
            assert!(hooks.ingress.get(&e).copied().unwrap_or(0) > 0, "edge {e} idle");
            assert!(hooks.egress.get(&e).copied().unwrap_or(0) > 0, "edge {e} idle");
        }
    }
}
