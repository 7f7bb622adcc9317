//! Per-packet impairment models: the adversarial conditions a real fabric
//! inflicts that the paper's clean evaluation (§5.2: Bernoulli loss on a
//! healthy fat-tree) never exercises — correlated bursty loss, duplication,
//! bounded reordering, and per-edge clock skew.
//!
//! # The burst-replay equivalence contract
//!
//! Every impairment is realized **per flow, above the hook boundary**: an
//! [`ImpairmentSet`] compiles, for each `(flow, epoch)` pair, a deterministic
//! [`FabricFates`] record — which packet indices are delivered, **at which
//! hop of the flow's ECMP route each lost packet died**, which delivered
//! packets carry a duplicate, and how many leading packets are mis-stamped
//! by clock skew.
//! Both walkers ([`ReplayMode::PerPacket`](crate::ReplayMode) and
//! [`ReplayMode::Burst`](crate::ReplayMode)) consult the *same* realization
//! through [`FabricFates`]' accessors, so the per-packet and burst replays
//! stay byte-identical under any scenario (property-tested in
//! `chm_scenarios/tests/differential.rs`). Nothing impairment-specific is
//! bolted into either walker, and the clean fabric is simply
//! [`ImpairmentSet::none`].
//!
//! Loss has two sources here: the flat plan/channel losses (spread drops,
//! Gilbert–Elliott bursts), whose drop hop is a seeded hash over the route,
//! and the link-loss layer's per-link losses ([`ImpairmentSet::link_model`]),
//! whose drop hop *is* the saturated link. Either way the
//! hop is what [`FabricFates::for_each_drop`] reports, which
//! [`EpochReport`](crate::sim::EpochReport) turns into per-switch drop
//! attribution — the ground truth for victim localization.
//!
//! All randomness is derived from the impairment seed, the epoch seed, and
//! the flow key — never from call order — so a scenario is reproducible
//! bit-for-bit from its seed alone.

use crate::congestion::CongestionModel;
use crate::queue::QueueModel;
use crate::sim::{spread_drop, spread_drop_nth, spread_drop_prefix};
use chm_common::hash::mix64;
use std::borrow::Cow;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Gilbert–Elliott two-state Markov loss model: packets traverse a channel
/// that alternates between a *Good* and a *Bad* state with per-packet
/// transition probabilities; each state drops packets at its own rate.
/// The classic model of correlated (bursty) loss — long loss-free stretches
/// punctuated by dense loss bursts, unlike Bernoulli loss which spreads
/// drops uniformly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// P(Good → Bad) per packet.
    pub p_enter_bad: f64,
    /// P(Bad → Good) per packet.
    pub p_exit_bad: f64,
    /// Drop probability while in the Good state (usually 0).
    pub loss_good: f64,
    /// Drop probability while in the Bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// A typical bursty profile: rare entry into Bad (2%), mean burst length
    /// 4 packets, half the packets in a burst lost.
    pub fn bursty() -> Self {
        GilbertElliott {
            p_enter_bad: 0.02,
            p_exit_bad: 0.25,
            loss_good: 0.0,
            loss_bad: 0.5,
        }
    }
}

/// Packet duplication: each delivered packet is duplicated in the fabric
/// with probability `prob`. The duplicate traverses the egress pipeline a
/// second time (same hierarchy tag, same timestamp bit) but never the
/// ingress pipeline — exactly what a fabric-level retransmit or a flaky
/// link-layer does to a measurement system that counts at the edges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Duplication {
    /// Per-delivered-packet duplication probability.
    pub prob: f64,
}

/// Bounded reordering: with probability `prob`, a packet swaps fates with a
/// packet up to `window` positions later in its flow. Reordering does not
/// change *how many* packets are lost, only *which positions* in the flow's
/// packet sequence the losses land on — which moves losses across the
/// LL/HL/HH hierarchy-tag boundaries the classifier assigns, the exact
/// effect in-fabric reordering has on ChameleMon's edge encoders.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reordering {
    /// Per-packet swap probability.
    pub prob: f64,
    /// Maximum displacement in packets (≥ 1).
    pub window: u64,
}

/// Per-edge clock skew (Appendix B): an edge switch whose clock lags the
/// fabric stamps the first packets of an epoch with the *previous* epoch's
/// 1-bit timestamp, steering them into the sketch group that monitors the
/// neighboring epoch. Each ingress edge gets a deterministic skew fraction
/// in `[0, max_frac)`; a flow entering at a skewed edge has a prefix of its
/// packets mis-stamped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockSkew {
    /// Upper bound on the per-edge skew, as a fraction of the epoch length.
    pub max_frac: f64,
}

/// A composable set of impairments, realized deterministically per
/// `(flow, epoch)`. [`ImpairmentSet::none`] is the clean fabric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ImpairmentSet {
    /// Seed folded into every realization (scenario identity).
    pub seed: u64,
    /// Per-link utilization-driven loss (congestion-coupled drops at the
    /// saturated switch), homogeneous over the epoch. Beside a
    /// [`queue`](Self::queue) it adds its derates to that model.
    pub congestion: Option<CongestionModel>,
    /// Time-resolved per-link queue dynamics: intra-epoch queue
    /// build-up/drain producing per-(link, slot) drop probabilities and
    /// (only when set) the report's queue-depth telemetry.
    pub queue: Option<QueueModel>,
    /// Correlated bursty loss, applied on top of the epoch's loss plan.
    pub gilbert_elliott: Option<GilbertElliott>,
    /// Fabric packet duplication.
    pub duplication: Option<Duplication>,
    /// Bounded packet reordering.
    pub reordering: Option<Reordering>,
    /// Per-edge 1-bit-timestamp clock skew.
    pub clock_skew: Option<ClockSkew>,
}

/// Salt distinguishing the per-edge skew hash from other derivations.
const SKEW_SALT: u64 = 0x0f00_5c1f_fa11_c10c;
/// Salt for the per-flow epoch phase used by clock skew.
const PHASE_SALT: u64 = 0x9a5e_0f10;
/// Salt for the hash-assigned drop hop of plan/channel losses.
const HOP_SALT: u64 = 0xd20b_40b5;

/// The deterministic drop hop of a non-congestion loss: plan and
/// Gilbert–Elliott drops have no saturated link to blame, so each dropped
/// packet picks a switch uniformly (by hash) along its flow's route — the
/// same rule the retired `run_detailed` path used. Never consumes RNG
/// state, so enabling attribution cannot shift any existing realization.
#[inline]
pub fn hash_hop(epoch_seed: u64, flow_key: u64, i: u64, route_len: usize) -> u8 {
    ((mix64(epoch_seed ^ flow_key ^ i ^ HOP_SALT) as usize) % route_len.max(1)) as u8
}

/// The link-level (fabric's own) loss view one flow replays under — how
/// the link-loss layer, if any, expresses itself to the fate realization.
#[derive(Debug, Clone, Copy)]
pub enum LinkLoss<'a> {
    /// No link-level loss: only the plan and the channel impairments drop.
    None,
    /// Per-(hop, slot) drop probabilities from the epoch's
    /// [`QueueRealization`](crate::queue::QueueRealization): `probs` is
    /// row-major `[hop][slot]` (`route_len × n_slots` entries), and
    /// `slot_counts` is this flow's per-slot packet layout (summing to the
    /// flow's packet count) — packet `i`'s seeded slot is where the
    /// cumulative layout places it, so a packet dies with the probability of
    /// the link *in its slot*, which is what makes drops time-correlated
    /// (one slot holding the whole flow under a [`CongestionModel`]).
    Slotted {
        /// Row-major `[hop][slot]` drop probabilities.
        probs: &'a [f64],
        /// This flow's per-slot packet counts.
        slot_counts: &'a [u64],
        /// Slots per epoch.
        n_slots: usize,
    },
}

impl<'a> LinkLoss<'a> {
    /// The view's `(probs, slot_counts, n_slots)` when some link on this
    /// flow's route can drop; `None` when link loss consumes no RNG.
    fn lossy(self) -> Option<(&'a [f64], &'a [u64], usize)> {
        let LinkLoss::Slotted { probs, slot_counts, n_slots } = self else { return None };
        (!probs.iter().all(|&p| p <= 0.0)).then_some((probs, slot_counts, n_slots))
    }
}

impl ImpairmentSet {
    /// The clean fabric: no impairments at all.
    pub fn none() -> Self {
        ImpairmentSet::default()
    }

    /// True when no impairment is configured: every flow then replays from
    /// the closed-form spread rule alone (see [`FabricFates`]).
    pub fn is_none(&self) -> bool {
        self.congestion.is_none()
            && self.queue.is_none()
            && self.gilbert_elliott.is_none()
            && self.duplication.is_none()
            && self.reordering.is_none()
            && self.clock_skew.is_none()
    }

    /// The one link-loss model this set configures: the queue model;
    /// without one, the congestion model as its one-slot case; with both,
    /// the queue model under the derates of both (a derate factor is a
    /// product over every matching entry, so the lists concatenate).
    pub fn link_model(&self) -> Option<Cow<'_, QueueModel>> {
        match (&self.queue, &self.congestion) {
            (Some(q), Some(c)) if !c.derates.is_empty() => {
                let mut q = q.clone();
                q.derates.extend_from_slice(&c.derates);
                Some(Cow::Owned(q))
            }
            (Some(q), _) => Some(Cow::Borrowed(q)),
            (None, Some(c)) => Some(Cow::Owned(c.one_slot_queue())),
            (None, None) => None,
        }
    }

    /// The deterministic skew fraction of `edge`'s clock in `[0, max_frac)`.
    pub fn edge_skew_frac(&self, edge: usize) -> f64 {
        match self.clock_skew {
            Some(cs) => {
                let u = mix64(self.seed ^ SKEW_SALT ^ (edge as u64)) >> 11;
                cs.max_frac * (u as f64 / (1u64 << 53) as f64)
            }
            None => 0.0,
        }
    }

    /// Realizes every impairment for one flow of `pkts` packets in the epoch
    /// identified by `epoch_seed`, writing the outcome into `out` (buffers
    /// are reused across calls). `base_lost` is the loss plan's realized
    /// drop count for this flow; plan drops are spread over the flow exactly
    /// as [`spread_drop`] spreads them, then the impairments perturb the
    /// pattern.
    ///
    /// A stage *draws* for this flow when it consumes the per-flow RNG: link
    /// loss with a positive probability somewhere on the route (a `Slotted`
    /// view whose probabilities are all zero counts as lossless, like
    /// [`LinkLoss::None`]), Gilbert–Elliott, reordering, or
    /// duplication. Plan drops, drop hops and clock skew are hashes, not
    /// draws. A flow no stage draws for is *quiet*: its fates are the spread
    /// rule itself, so `out` records the rule's parameters and answers every
    /// accessor in closed form — no per-packet column is written and the RNG
    /// is never built. This is exact, not an approximation: the generator is
    /// local to the call, so one that is never drawn from cannot influence
    /// any output. Every other flow gets the dense per-packet columns.
    ///
    /// `route_len` is the number of switches on the flow's ECMP route
    /// (every drop is attributed to one of them); `link_loss` is the
    /// link-loss layer's view of this flow's route — per-(hop, slot)
    /// probabilities, or nothing. The realization is a pure function of
    /// `(self, flow_key, pkts, base_lost, epoch_seed, in_edge, route_len, link_loss)`.
    #[allow(clippy::too_many_arguments)]
    pub fn realize_flow(
        &self,
        out: &mut FabricFates,
        flow_key: u64,
        pkts: u64,
        base_lost: u64,
        epoch_seed: u64,
        in_edge: usize,
        route_len: usize,
        link_loss: LinkLoss<'_>,
    ) {
        if let LinkLoss::Slotted { probs, slot_counts, n_slots } = link_loss {
            debug_assert_eq!(probs.len(), route_len * n_slots, "probs must cover route x slots");
            debug_assert_eq!(slot_counts.iter().sum::<u64>(), pkts, "slots must cover the flow");
        }
        out.skew_split = {
            let frac = self.edge_skew_frac(in_edge);
            if frac > 0.0 && pkts > 0 {
                // Packets are uniformly spread over the epoch; the flow's
                // phase acts as stochastic rounding so a 5% skew mis-stamps
                // ~5% of packets in expectation even for tiny flows.
                let phase =
                    (mix64(flow_key ^ epoch_seed ^ PHASE_SALT) >> 11) as f64
                        / (1u64 << 53) as f64;
                ((frac * pkts as f64 + phase).floor() as u64).min(pkts)
            } else {
                0
            }
        };
        let lossy_link = link_loss.lossy();
        if !(lossy_link.is_some()
            || self.gilbert_elliott.is_some()
            || self.reordering.is_some()
            || self.duplication.is_some())
        {
            out.quiet = Some(QuietFlow {
                pkts,
                lost: base_lost.min(pkts),
                epoch_seed,
                flow_key,
                route_len,
            });
            return;
        }
        out.quiet = None;
        // Bulk-fill the untouched outcome (everything delivered), then lay
        // the plan's drops down by enumerating their positions before the
        // drawing stages perturb them. The duplicate column stays empty —
        // "nothing duplicated" — unless duplication is configured.
        let n = pkts as usize;
        out.delivered_mask.clear();
        out.delivered_mask.resize(n, true);
        out.drop_hop.clear();
        out.drop_hop.resize(n, 0);
        out.dup.clear();
        for k in 0..base_lost.min(pkts) {
            let i = spread_drop_nth(k, pkts, base_lost);
            out.delivered_mask[i as usize] = false;
            out.drop_hop[i as usize] = hash_hop(epoch_seed, flow_key, i, route_len);
        }
        let mut rng = StdRng::seed_from_u64(
            mix64(self.seed ^ epoch_seed).wrapping_add(mix64(flow_key)),
        );
        // Link loss first: it is the fabric's own loss (the saturated
        // link/queue), everything below is channel/plan noise on top. A
        // packet already claimed by the plan is not offered to later links.
        // When no link on this route can drop, no RNG state is consumed, so
        // congestion-free scenarios realize exactly as before.
        if let Some((probs, slot_counts, n_slots)) = lossy_link {
            // Packets occupy slots in index order (index order is time
            // order within an epoch), so each packet tests the drop
            // probability of every hop *in its slot*, in route order. A hop
            // with `p == 0` draws nothing, so only the slot's dropping hops
            // are visited.
            let mut i = 0usize;
            for (t, &cnt) in slot_counts.iter().enumerate() {
                out.hot_hops.clear();
                out.hot_hops.extend((0..route_len).filter(|&h| probs[h * n_slots + t] > 0.0));
                if out.hot_hops.is_empty() {
                    i += cnt as usize;
                    continue;
                }
                for _ in 0..cnt {
                    if out.delivered_mask[i] {
                        for &h in &out.hot_hops {
                            if rng.gen_bool(probs[h * n_slots + t]) {
                                out.delivered_mask[i] = false;
                                out.drop_hop[i] = h as u8;
                                break;
                            }
                        }
                    }
                    i += 1;
                }
            }
        }
        if let Some(ge) = self.gilbert_elliott {
            // Start the chain in its stationary distribution so short flows
            // see the same loss statistics as long ones.
            let denom = ge.p_enter_bad + ge.p_exit_bad;
            let p_bad0 = if denom > 0.0 { ge.p_enter_bad / denom } else { 0.0 };
            let mut bad = rng.gen_bool(p_bad0);
            for i in 0..pkts as usize {
                let p = if bad { ge.loss_bad } else { ge.loss_good };
                if p > 0.0 && rng.gen_bool(p) && out.delivered_mask[i] {
                    out.delivered_mask[i] = false;
                    out.drop_hop[i] = hash_hop(epoch_seed, flow_key, i as u64, route_len);
                }
                bad = if bad {
                    !rng.gen_bool(ge.p_exit_bad)
                } else {
                    rng.gen_bool(ge.p_enter_bad)
                };
            }
        }
        if let Some(ro) = self.reordering {
            let w = ro.window.max(1);
            for i in 0..pkts {
                if rng.gen_bool(ro.prob) {
                    let j = i + rng.gen_range(1..=w);
                    if j < pkts {
                        // The whole fate moves with the packet: delivery
                        // flag and drop point swap together.
                        out.delivered_mask.swap(i as usize, j as usize);
                        out.drop_hop.swap(i as usize, j as usize);
                    }
                }
            }
        }
        if let Some(du) = self.duplication {
            let mask = &out.delivered_mask;
            out.dup.extend((0..n).map(|i| mask[i] && rng.gen_bool(du.prob)));
        }
    }
}

/// The spread rule's parameters for a quiet flow (see
/// [`ImpairmentSet::realize_flow`]): `lost` of `pkts` packets drop at the
/// indices [`spread_drop`] marks, each at its [`hash_hop`].
#[derive(Debug, Clone, Copy)]
struct QuietFlow {
    pkts: u64,
    /// Plan drops, clamped to the flow.
    lost: u64,
    epoch_seed: u64,
    flow_key: u64,
    route_len: usize,
}

/// The realized fate of one flow's packets in one epoch: which indices are
/// delivered, **where on the route** each lost packet died, which delivered
/// indices are duplicated in the fabric, and how many leading packets carry
/// the previous epoch's timestamp bit.
///
/// Read through the accessors only. Behind them sit two representations,
/// chosen per flow by [`ImpairmentSet::realize_flow`] from its inputs: a
/// quiet flow is the spread rule in closed form (`O(1)` to realize, `O(1)`
/// per range query, `O(drops)` to attribute), any other flow is dense
/// per-packet columns: delivery and drop hop, and duplicates only when
/// duplication is configured. The buffers persist across calls.
#[derive(Debug, Clone, Default)]
pub struct FabricFates {
    /// `delivered_mask[i]` — packet `i` exits the network.
    delivered_mask: Vec<bool>,
    /// `drop_hop[i]` — the route position (0 = ingress ToR) whose switch
    /// dropped packet `i`. Meaningful only where `delivered_mask[i]` is false.
    drop_hop: Vec<u8>,
    /// `dup[i]` — packet `i` additionally traverses egress a second time
    /// (only ever true for delivered packets). Empty when no duplication is
    /// configured: nothing is duplicated.
    dup: Vec<bool>,
    skew_split: u64,
    /// `Some` when the flow is quiet; the columns above are then stale.
    quiet: Option<QuietFlow>,
    /// Scratch of the link-loss draw: the route positions that can drop in
    /// the slot being drawn.
    hot_hops: Vec<usize>,
}

impl FabricFates {
    /// The first `skew_split` packets are stamped with the previous epoch's
    /// timestamp bit at ingress (and carry it to egress).
    #[inline]
    pub fn skew_split(&self) -> u64 {
        self.skew_split
    }

    /// Packets of the flow that exit the network (duplicates not counted).
    #[inline]
    pub fn n_delivered(&self) -> u64 {
        match self.quiet {
            Some(q) => q.pkts - q.lost,
            None => self.delivered_mask.iter().filter(|&&d| d).count() as u64,
        }
    }

    /// Packet `i` exits the network.
    #[inline]
    pub fn delivered(&self, i: u64) -> bool {
        match self.quiet {
            Some(q) => q.lost == 0 || !spread_drop(i, q.pkts, q.lost),
            None => self.delivered_mask[i as usize],
        }
    }

    /// Packet `i` traverses egress a second time (delivered packets only).
    #[inline]
    pub fn dup(&self, i: u64) -> bool {
        self.quiet.is_none() && !self.dup.is_empty() && self.dup[i as usize]
    }

    /// Delivered packets with index in `[start, start + len)`.
    #[inline]
    pub fn delivered_in(&self, start: u64, len: u64) -> u64 {
        match self.quiet {
            Some(q) if q.lost == 0 => len,
            Some(q) => {
                len - (spread_drop_prefix(start + len, q.pkts, q.lost)
                    - spread_drop_prefix(start, q.pkts, q.lost))
            }
            None => self.delivered_mask[start as usize..(start + len) as usize]
                .iter()
                .filter(|&&d| d)
                .count() as u64,
        }
    }

    /// Fabric duplicates with index in `[start, start + len)`.
    #[inline]
    pub fn dups_in(&self, start: u64, len: u64) -> u64 {
        match self.quiet {
            Some(_) => 0,
            None if self.dup.is_empty() => 0,
            None => self.dup[start as usize..(start + len) as usize]
                .iter()
                .filter(|&&d| d)
                .count() as u64,
        }
    }

    /// Calls `f(i, hop)` for every dropped packet `i`, in index order, with
    /// the route position (0 = ingress ToR) whose switch dropped it.
    #[inline]
    pub fn for_each_drop(&self, mut f: impl FnMut(u64, u8)) {
        match self.quiet {
            Some(q) => {
                for k in 0..q.lost {
                    let i = spread_drop_nth(k, q.pkts, q.lost);
                    f(i, hash_hop(q.epoch_seed, q.flow_key, i, q.route_len));
                }
            }
            None => {
                for (i, &d) in self.delivered_mask.iter().enumerate() {
                    if !d {
                        f(i as u64, self.drop_hop[i]);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything a walker or the drop fold can read of one flow's fates.
    #[derive(Debug, PartialEq)]
    struct Observed {
        delivered: Vec<bool>,
        dup: Vec<bool>,
        /// `(index, hop)` of every dropped packet, in index order.
        drops: Vec<(u64, u8)>,
        skew_split: u64,
    }

    /// Reads `f` through the accessors only — whichever representation it
    /// holds.
    fn observe(f: &FabricFates, pkts: u64) -> Observed {
        let mut drops = Vec::new();
        f.for_each_drop(|i, h| drops.push((i, h)));
        Observed {
            delivered: (0..pkts).map(|i| f.delivered(i)).collect(),
            dup: (0..pkts).map(|i| f.dup(i)).collect(),
            drops,
            skew_split: f.skew_split(),
        }
    }

    /// Reads the dense columns directly — the form the oracle writes.
    fn observe_columns(f: &FabricFates) -> Observed {
        Observed {
            delivered: f.delivered_mask.clone(),
            dup: f.dup.clone(),
            drops: (0..f.delivered_mask.len())
                .filter(|&i| !f.delivered_mask[i])
                .map(|i| (i as u64, f.drop_hop[i]))
                .collect(),
            skew_split: f.skew_split,
        }
    }

    fn realize(imp: &ImpairmentSet, key: u64, pkts: u64, lost: u64) -> FabricFates {
        let mut f = FabricFates::default();
        imp.realize_flow(&mut f, key, pkts, lost, 0x1234, 0, 5, LinkLoss::None);
        f
    }

    /// The per-packet realization this module shipped before the closed-form
    /// representation and the lazily built RNG — kept verbatim (only `self`
    /// renamed, and the columns marked as the live representation) as the
    /// oracle [`ImpairmentSet::realize_flow`] is compared against: every
    /// packet tested with [`spread_drop`], the RNG seeded unconditionally,
    /// always dense.
    #[allow(clippy::too_many_arguments)]
    fn realize_flow_per_packet(
        imp: &ImpairmentSet,
        out: &mut FabricFates,
        flow_key: u64,
        pkts: u64,
        base_lost: u64,
        epoch_seed: u64,
        in_edge: usize,
        route_len: usize,
        link_loss: LinkLoss<'_>,
    ) {
        if let LinkLoss::Slotted { probs, slot_counts, n_slots } = link_loss {
            debug_assert_eq!(probs.len(), route_len * n_slots, "probs must cover route x slots");
            debug_assert_eq!(slot_counts.iter().sum::<u64>(), pkts, "slots must cover the flow");
        }
        out.quiet = None;
        out.delivered_mask.clear();
        out.dup.clear();
        out.drop_hop.clear();
        out.drop_hop.resize(pkts as usize, 0);
        for i in 0..pkts {
            let dead = spread_drop(i, pkts, base_lost);
            out.delivered_mask.push(!dead);
            if dead {
                out.drop_hop[i as usize] = hash_hop(epoch_seed, flow_key, i, route_len);
            }
        }
        let mut rng = StdRng::seed_from_u64(
            mix64(imp.seed ^ epoch_seed).wrapping_add(mix64(flow_key)),
        );
        // Link loss first: it is the fabric's own loss (the saturated
        // link/queue), everything below is channel/plan noise on top. A
        // packet already claimed by the plan is not offered to later links.
        // When no link on this route can drop, no RNG state is consumed, so
        // congestion-free scenarios realize exactly as before.
        if let Some((probs, slot_counts, n_slots)) = link_loss.lossy() {
            // Packets occupy slots in index order (index order is time
            // order within an epoch), so each packet tests the drop
            // probability of every hop *in its slot*.
            let mut i = 0usize;
            for (t, &cnt) in slot_counts.iter().enumerate() {
                for _ in 0..cnt {
                    if out.delivered_mask[i] {
                        for h in 0..route_len {
                            let p = probs[h * n_slots + t];
                            if p > 0.0 && rng.gen_bool(p) {
                                out.delivered_mask[i] = false;
                                out.drop_hop[i] = h as u8;
                                break;
                            }
                        }
                    }
                    i += 1;
                }
            }
        }
        if let Some(ge) = imp.gilbert_elliott {
            // Start the chain in its stationary distribution so short flows
            // see the same loss statistics as long ones.
            let denom = ge.p_enter_bad + ge.p_exit_bad;
            let p_bad0 = if denom > 0.0 { ge.p_enter_bad / denom } else { 0.0 };
            let mut bad = rng.gen_bool(p_bad0);
            for i in 0..pkts as usize {
                let p = if bad { ge.loss_bad } else { ge.loss_good };
                if p > 0.0 && rng.gen_bool(p) && out.delivered_mask[i] {
                    out.delivered_mask[i] = false;
                    out.drop_hop[i] = hash_hop(epoch_seed, flow_key, i as u64, route_len);
                }
                bad = if bad {
                    !rng.gen_bool(ge.p_exit_bad)
                } else {
                    rng.gen_bool(ge.p_enter_bad)
                };
            }
        }
        if let Some(ro) = imp.reordering {
            let w = ro.window.max(1);
            for i in 0..pkts {
                if rng.gen_bool(ro.prob) {
                    let j = i + rng.gen_range(1..=w);
                    if j < pkts {
                        // The whole fate moves with the packet: delivery
                        // flag and drop point swap together.
                        out.delivered_mask.swap(i as usize, j as usize);
                        out.drop_hop.swap(i as usize, j as usize);
                    }
                }
            }
        }
        match imp.duplication {
            Some(du) => {
                out.dup.extend(
                    (0..pkts as usize)
                        .map(|i| out.delivered_mask[i] && rng.gen_bool(du.prob)),
                );
            }
            None => out.dup.extend((0..pkts).map(|_| false)),
        }
        out.skew_split = {
            let frac = imp.edge_skew_frac(in_edge);
            if frac > 0.0 && pkts > 0 {
                // Packets are uniformly spread over the epoch; the flow's
                // phase acts as stochastic rounding so a 5% skew mis-stamps
                // ~5% of packets in expectation even for tiny flows.
                let phase =
                    (mix64(flow_key ^ epoch_seed ^ PHASE_SALT) >> 11) as f64
                        / (1u64 << 53) as f64;
                ((frac * pkts as f64 + phase).floor() as u64).min(pkts)
            } else {
                0
            }
        };
    }

    /// A per-slot packet layout for `pkts` packets over 4 slots (sums to
    /// `pkts`, as `realize_flow` requires).
    fn slot_layout(pkts: u64) -> Vec<u64> {
        let mut counts = vec![pkts / 4; 4];
        counts[0] += pkts - counts.iter().sum::<u64>();
        counts
    }

    /// Per-hop probabilities as the view a [`CongestionModel`] replays
    /// under: one slot holding the whole flow (`whole` is `[pkts]`).
    fn one_slot<'a>(hop_probs: &'a [f64], whole: &'a [u64; 1]) -> LinkLoss<'a> {
        LinkLoss::Slotted { probs: hop_probs, slot_counts: whole, n_slots: 1 }
    }

    /// Every single impairment, nothing, and the `perfect-storm` scenario's
    /// combination of all four.
    fn impairment_sweep() -> Vec<(&'static str, ImpairmentSet)> {
        let one = |seed| ImpairmentSet { seed, ..ImpairmentSet::none() };
        vec![
            ("none", one(1)),
            (
                "gilbert-elliott",
                ImpairmentSet { gilbert_elliott: Some(GilbertElliott::bursty()), ..one(2) },
            ),
            (
                "duplication",
                ImpairmentSet { duplication: Some(Duplication { prob: 0.3 }), ..one(3) },
            ),
            (
                "reordering",
                ImpairmentSet { reordering: Some(Reordering { prob: 0.25, window: 8 }), ..one(4) },
            ),
            (
                "clock-skew",
                ImpairmentSet { clock_skew: Some(ClockSkew { max_frac: 0.3 }), ..one(5) },
            ),
            (
                "perfect-storm",
                ImpairmentSet {
                    gilbert_elliott: Some(GilbertElliott {
                        p_enter_bad: 0.01,
                        p_exit_bad: 0.3,
                        loss_good: 0.0,
                        loss_bad: 0.4,
                    }),
                    duplication: Some(Duplication { prob: 0.02 }),
                    reordering: Some(Reordering { prob: 0.1, window: 4 }),
                    clock_skew: Some(ClockSkew { max_frac: 0.02 }),
                    ..one(0xA119)
                },
            ),
        ]
    }

    #[test]
    fn closed_form_realization_equals_the_per_packet_oracle() {
        const ROUTE: usize = 3;
        const SLOTS: usize = 4;
        let one_slot_zero = [0.0; ROUTE];
        let one_slot_hot = [0.0, 0.2, 0.05];
        let slotted_zero = [0.0; ROUTE * SLOTS];
        let mut slotted_hot = [0.0; ROUTE * SLOTS];
        slotted_hot[SLOTS + 2] = 0.3; // hop 1, slot 2
        slotted_hot[2 * SLOTS] = 0.1; // hop 2, slot 0
        let (mut cases, mut closed_form) = (0u32, 0u32);
        // One pair of buffers for the whole sweep: every realization must
        // fully overwrite whatever the previous (often longer) flow left.
        let (mut got, mut want) = (FabricFates::default(), FabricFates::default());
        for (name, imp) in impairment_sweep() {
            for pkts in [0u64, 1, 2, 7, 64, 1500] {
                let (slots, whole) = (slot_layout(pkts), [pkts]);
                let views = [
                    ("none", LinkLoss::None),
                    ("one-slot-zero", one_slot(&one_slot_zero, &whole)),
                    ("one-slot", one_slot(&one_slot_hot, &whole)),
                    (
                        "slotted-zero",
                        LinkLoss::Slotted { probs: &slotted_zero, slot_counts: &slots, n_slots: SLOTS },
                    ),
                    (
                        "slotted",
                        LinkLoss::Slotted { probs: &slotted_hot, slot_counts: &slots, n_slots: SLOTS },
                    ),
                ];
                for base_lost in [0, 1, pkts / 3, pkts, pkts + 3] {
                    for (view, link_loss) in views {
                        for key in [7u64, 0xdead_beef] {
                            let epoch_seed = 0x1234 ^ key.rotate_left(17);
                            let in_edge = (key % 4) as usize;
                            imp.realize_flow(
                                &mut got, key, pkts, base_lost, epoch_seed, in_edge, ROUTE, link_loss,
                            );
                            realize_flow_per_packet(
                                &imp, &mut want, key, pkts, base_lost, epoch_seed, in_edge, ROUTE,
                                link_loss,
                            );
                            let tag = format!(
                                "{name} pkts={pkts} base_lost={base_lost} link={view} key={key:#x}"
                            );
                            let oracle = observe_columns(&want);
                            assert_eq!(observe(&got, pkts), oracle, "{tag}");
                            let count = |m: &[bool]| m.iter().filter(|&&d| d).count() as u64;
                            assert_eq!(got.n_delivered(), count(&oracle.delivered), "{tag}");
                            // Range helpers at every cut of a 3-way split.
                            let (a, b) = (pkts / 3, pkts - pkts / 4);
                            for (start, end) in [(0, a), (a, b), (b, pkts), (0, pkts)] {
                                let r = start as usize..end as usize;
                                assert_eq!(
                                    got.delivered_in(start, end - start),
                                    count(&oracle.delivered[r.clone()]),
                                    "{tag} delivered_in({start}..{end})"
                                );
                                assert_eq!(
                                    got.dups_in(start, end - start),
                                    count(&oracle.dup[r]),
                                    "{tag} dups_in({start}..{end})"
                                );
                            }
                            cases += 1;
                            closed_form += u32::from(got.quiet.is_some());
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 6 * 6 * 5 * 5 * 2);
        // Both representations are under test: quiet flows are exactly the
        // `none` and `clock-skew` sets under the three lossless link views.
        assert_eq!(closed_form, 2 * 6 * 5 * 3 * 2);
    }

    /// The RNG is skipped only when nothing can draw. Each stage that draws,
    /// switched on alone, must still see the seeded stream: the realization
    /// equals the oracle's (which always seeds) *and* shows the stage's
    /// effect, so the draws demonstrably happened.
    #[test]
    fn each_drawing_stage_alone_still_builds_the_rng() {
        let run = |imp: &ImpairmentSet, link_loss: LinkLoss<'_>| {
            let (mut got, mut want) = (FabricFates::default(), FabricFates::default());
            imp.realize_flow(&mut got, 91, 1500, 40, 0x77, 1, 3, link_loss);
            realize_flow_per_packet(imp, &mut want, 91, 1500, 40, 0x77, 1, 3, link_loss);
            assert_eq!(observe(&got, 1500), observe_columns(&want));
            got
        };
        let sweep = impairment_sweep();
        let quiet = run(&sweep[0].1, LinkLoss::None);
        assert_eq!(quiet.n_delivered(), 1460);

        let link = run(&sweep[0].1, one_slot(&[0.0, 0.2, 0.0], &[1500]));
        assert!(link.n_delivered() < 1460, "link loss must drop beyond the plan");
        let ge = run(&sweep[1].1, LinkLoss::None);
        assert!(ge.n_delivered() < 1460, "Gilbert–Elliott must drop beyond the plan");
        let dup = run(&sweep[2].1, LinkLoss::None);
        assert!(dup.dups_in(0, 1500) > 0, "duplication must duplicate something");
        let ro = run(&sweep[3].1, LinkLoss::None);
        assert_eq!(ro.n_delivered(), 1460);
        assert_ne!(
            observe(&ro, 1500).delivered,
            observe(&quiet, 1500).delivered,
            "reordering must move drops"
        );
        // Clock skew is a hash, not a draw: it changes the split and
        // nothing else.
        let skew = run(&sweep[4].1, LinkLoss::None);
        assert!(skew.skew_split() > 0);
        assert_eq!(observe(&skew, 1500).delivered, observe(&quiet, 1500).delivered);
    }

    #[test]
    fn none_reproduces_spread_drop() {
        let imp = ImpairmentSet::none();
        assert!(imp.is_none());
        let f = realize(&imp, 7, 100, 13);
        assert_eq!(f.n_delivered(), 87);
        for i in 0..100u64 {
            assert_eq!(!f.delivered(i), spread_drop(i, 100, 13));
        }
        assert_eq!(f.skew_split(), 0);
        assert_eq!(f.dups_in(0, 100), 0);
    }

    #[test]
    fn realization_is_deterministic() {
        let imp = ImpairmentSet {
            seed: 9,
            congestion: None,
            queue: None,
            gilbert_elliott: Some(GilbertElliott::bursty()),
            duplication: Some(Duplication { prob: 0.1 }),
            reordering: Some(Reordering { prob: 0.2, window: 4 }),
            clock_skew: Some(ClockSkew { max_frac: 0.1 }),
        };
        let a = realize(&imp, 42, 500, 20);
        let b = realize(&imp, 42, 500, 20);
        assert_eq!(observe(&a, 500), observe(&b, 500));
        // A different flow sees a different realization.
        let c = realize(&imp, 43, 500, 20);
        assert_ne!(observe(&a, 500).delivered, observe(&c, 500).delivered);
    }

    #[test]
    fn gilbert_elliott_adds_losses_in_bursts() {
        let imp = ImpairmentSet {
            seed: 3,
            gilbert_elliott: Some(GilbertElliott {
                p_enter_bad: 0.05,
                p_exit_bad: 0.2,
                loss_good: 0.0,
                loss_bad: 1.0,
            }),
            ..ImpairmentSet::none()
        };
        let f = realize(&imp, 11, 5_000, 0);
        let lost = 5_000 - f.n_delivered();
        assert!(lost > 0, "GE must drop something over 5000 packets");
        // Burstiness: among lost packets, the fraction whose successor is
        // also lost must far exceed the marginal loss rate.
        let mut runs_of_two = 0u64;
        for i in 0..4_999u64 {
            if !f.delivered(i) && !f.delivered(i + 1) {
                runs_of_two += 1;
            }
        }
        let marginal = lost as f64 / 5_000.0;
        assert!(
            runs_of_two as f64 / lost as f64 > 2.0 * marginal,
            "losses not bursty: {runs_of_two} adjacent pairs, {lost} lost"
        );
    }

    #[test]
    fn reordering_preserves_loss_count() {
        let imp = ImpairmentSet {
            seed: 5,
            reordering: Some(Reordering { prob: 0.5, window: 16 }),
            ..ImpairmentSet::none()
        };
        let f = realize(&imp, 21, 400, 40);
        assert_eq!(f.n_delivered(), 360, "reordering must not change counts");
        // But the drop pattern must differ from the clean spread.
        let clean = realize(&ImpairmentSet::none(), 21, 400, 40);
        assert_ne!(observe(&f, 400).delivered, observe(&clean, 400).delivered);
    }

    #[test]
    fn duplication_only_hits_delivered_packets() {
        let imp = ImpairmentSet {
            seed: 6,
            duplication: Some(Duplication { prob: 1.0 }),
            ..ImpairmentSet::none()
        };
        let f = realize(&imp, 31, 100, 30);
        for i in 0..100 {
            assert_eq!(f.dup(i), f.delivered(i));
        }
    }

    #[test]
    fn clock_skew_is_per_edge_and_bounded() {
        let imp = ImpairmentSet {
            seed: 7,
            clock_skew: Some(ClockSkew { max_frac: 0.25 }),
            ..ImpairmentSet::none()
        };
        let fracs: Vec<f64> = (0..4).map(|e| imp.edge_skew_frac(e)).collect();
        assert!(fracs.iter().all(|&f| (0.0..0.25).contains(&f)));
        assert!(
            fracs.windows(2).any(|w| w[0] != w[1]),
            "edges must not share one skew"
        );
        let mut f = FabricFates::default();
        imp.realize_flow(&mut f, 77, 1_000, 0, 1, 2, 5, LinkLoss::None);
        assert!(f.skew_split() <= 1_000);
        let expected = imp.edge_skew_frac(2) * 1_000.0;
        assert!(
            (f.skew_split() as f64 - expected).abs() <= 1.0,
            "split {} vs expected {expected}",
            f.skew_split()
        );
    }

    #[test]
    fn congestion_hop_probs_drop_at_the_saturated_hop() {
        let imp = ImpairmentSet { seed: 12, ..ImpairmentSet::none() };
        let mut f = FabricFates::default();
        // Only hop 2 is saturated: every congestion drop must blame it.
        imp.realize_flow(
            &mut f,
            55,
            2_000,
            0,
            0x99,
            0,
            5,
            one_slot(&[0.0, 0.0, 0.4, 0.0, 0.0], &[2_000]),
        );
        let lost = 2_000 - f.n_delivered();
        assert!(lost > 500, "a 0.4 link must drop plenty, got {lost}");
        f.for_each_drop(|i, hop| assert_eq!(hop, 2, "packet {i} blamed the wrong hop"));
    }

    #[test]
    fn congestion_free_realization_consumes_no_rng() {
        // An all-zero one-slot view must leave the downstream RNG stream
        // (GE, duplication, …) exactly where no link-loss layer does.
        let imp = ImpairmentSet {
            seed: 13,
            gilbert_elliott: Some(GilbertElliott::bursty()),
            duplication: Some(Duplication { prob: 0.2 }),
            ..ImpairmentSet::none()
        };
        let mut a = FabricFates::default();
        let mut b = FabricFates::default();
        imp.realize_flow(&mut a, 7, 600, 11, 0x42, 1, 5, LinkLoss::None);
        imp.realize_flow(&mut b, 7, 600, 11, 0x42, 1, 5, one_slot(&[0.0; 5], &[600]));
        assert_eq!(observe(&a, 600), observe(&b, 600));
    }

    #[test]
    fn plan_drops_get_on_route_hash_hops() {
        let f = realize(&ImpairmentSet::none(), 31, 200, 17);
        let mut drops = 0;
        f.for_each_drop(|i, hop| {
            assert!(hop < 5, "hop out of route");
            assert_eq!(hop, hash_hop(0x1234, 31, i, 5), "plan drops must use the shared hash rule");
            drops += 1;
        });
        assert_eq!(drops, 17);
    }

    #[test]
    fn range_helpers_sum_to_totals() {
        let imp = ImpairmentSet {
            seed: 8,
            gilbert_elliott: Some(GilbertElliott::bursty()),
            duplication: Some(Duplication { prob: 0.3 }),
            ..ImpairmentSet::none()
        };
        let f = realize(&imp, 99, 257, 19);
        let mut del = 0;
        let mut dups = 0;
        let mut pos = 0;
        for len in [0u64, 57, 100, 100] {
            del += f.delivered_in(pos, len);
            dups += f.dups_in(pos, len);
            pos += len;
        }
        assert_eq!(del, f.n_delivered());
        assert_eq!(dups, (0..257).filter(|&i| f.dup(i)).count() as u64);
    }
}
