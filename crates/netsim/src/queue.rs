//! Per-link queueing: the fabric's one link-loss engine, time-resolved
//! inside the epoch.
//!
//! This module models what happens at a switch egress port: each epoch
//! splits into `S` discrete slots, every flow's [`ArrivalProfile`] lays its
//! packets into slots in closed form, the per-(link, slot) offered load
//! feeds a **fluid queue** with a class-calibrated service rate, and the
//! queue's occupancy turns into time-correlated drop probabilities — a
//! microburst overwhelms a queue for two slots and is gone, a slow-drain ToR
//! stays deep all epoch, an incast ramp pushes its drops toward the epoch's
//! end.
//!
//! # Calibration, and the static model as the one-slot case
//!
//! Service is self-calibrating: a link's per-slot service is `headroom ×`
//! its link class's mean per-slot offered load, scaled by its [`Derate`]s.
//! The per-slot drop probability is a knee/slope mapping of the slot's
//! *pressure* — offered arrivals plus `queue_coupling ×` the queue carried
//! in from earlier slots:
//!
//! ```text
//! pressure(t) = (arrivals(t) + queue_coupling · q(t−1)) / service
//! p(t)        = clamp(slope · (pressure(t) − knee), 0, max_drop)   (+ RED)
//! q(t)        = q(t−1) + arrivals(t)·(1 − p(t)) − served(t)
//! ```
//!
//! The static [`CongestionModel`] — a link saturated for the whole epoch or
//! not at all — is *defined* as this model at `S = 1`,
//! [`Flat`](ArrivalProfile::Flat), `queue_coupling = 0`, no RED
//! ([`CongestionModel::one_slot_queue`]): the slot's pressure is then the
//! link's utilization, and [`QueueModel::realize`] is the only realization
//! either model has. More flat uncoupled slots change only the layout's
//! integer rounding (property-tested in `tests/properties.rs`); the coupling
//! term is precisely the temporal dynamics one slot lacks. Under sustained
//! overload the coupled queue converges to the loss that stabilizes it
//! (`1 − 1/util`), which sits *above* the knee-slope approximation — queues
//! remember, knees don't.
//!
//! # Conservation
//!
//! The fluid accounting is exactly conservative per link and per epoch:
//! `arrivals = served + dropped + residual` (the residual is whatever is
//! still buffered when the epoch ends), pinned by
//! [`QueueLinkStats`] and property-tested.
//!
//! # Determinism and the burst-replay contract
//!
//! A realization is a pure function of
//! `(model, topology, trace, epoch, seed)`: arrivals accumulate as
//! integers (order-independent), every float reduction runs in sorted link
//! order, and the only seeded quantity is the microburst window position.
//! The per-epoch tables are flat `[link × slot]` and `[switch × slot]`
//! arrays over the fabric's [`FabricIndex`], whose numbers follow that
//! sorted order, so no per-hop lookup hashes or searches a map.
//! Per-flow slot layouts come from the same
//! [`ArrivalProfile::slot_counts`] closed form the offered-load accounting
//! uses, so both drivers hand
//! [`ImpairmentSet::realize_flow`](crate::impair::ImpairmentSet::realize_flow)
//! identical [`LinkLoss::Slotted`](crate::impair::LinkLoss) views and stay
//! byte-identical.
//!
//! # What an epoch keeps
//!
//! One body realizes the model, into a scratch: the realization itself,
//! its `[link × slot]` and `[switch × slot]` work vectors, and the fabric
//! index with a copy of the fabric it numbers. [`QueueModel::realize`] runs
//! it in a fresh scratch; the [`Simulator`](crate::Simulator) keeps one
//! across epochs for the prologue both replay drivers share. The index is
//! rebuilt when the simulator's topology no longer equals that copy, and
//! every vector is overwritten before it is read, so a warm epoch realizes
//! exactly what a fresh call does (property-tested) and allocates only what
//! it outputs: the depth telemetry, which moves into the epoch's report.
//! The per-link conservation stats are one flat per-link table in the
//! realization, refilled in place like the drop probabilities.

use crate::congestion::{derate_factor, link_class_to, CongestionModel, Derate, Hop, LinkId};
use crate::index::FabricIndex;
use crate::sim::Routable;
use crate::topology::{Fabric, SwitchId, Topology};
use chm_common::hash::mix64;
use chm_workloads::{ArrivalProfile, Trace};
use std::collections::BTreeMap;

/// RED-style early drop: once the queue carried into a slot exceeds
/// `min_depth` (in units of one slot's service), an extra drop probability
/// ramps linearly up to `max_prob` at `max_depth` — drops begin *before*
/// the tail of the buffer, spreading loss over more flows and slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedDrop {
    /// Queue depth (in slot-service units) where early drop begins.
    pub min_depth: f64,
    /// Depth where early drop reaches `max_prob`.
    pub max_depth: f64,
    /// Early-drop probability ceiling.
    pub max_prob: f64,
}

impl RedDrop {
    /// The extra early-drop probability at `depth` slot-service units.
    fn prob(&self, depth: f64) -> f64 {
        if depth <= self.min_depth {
            return 0.0;
        }
        let span = (self.max_depth - self.min_depth).max(f64::MIN_POSITIVE);
        self.max_prob * ((depth - self.min_depth) / span).min(1.0)
    }
}

/// The discrete-slot fluid-queue model of every directed link. See the
/// module docs for the calibration contract.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueModel {
    /// Time slots per epoch (≥ 1).
    pub slots: usize,
    /// How flows lay their packets into slots.
    pub profile: ArrivalProfile,
    /// Per-slot service relative to the link class's mean per-slot load.
    pub headroom: f64,
    /// Pressure at which drops begin.
    pub knee: f64,
    /// Drop probability per unit of pressure above the knee.
    pub slope: f64,
    /// Ceiling on the knee/slope (tail) drop probability.
    pub max_drop: f64,
    /// Weight of carried queue in the pressure term (0 = memoryless slots,
    /// 1 = full fluid coupling).
    pub queue_coupling: f64,
    /// Optional RED-style early drop on top of the tail rule.
    pub red: Option<RedDrop>,
    /// Structural hot spots (service derates).
    pub derates: Vec<Derate>,
}

impl QueueModel {
    /// The calibrated default over `slots` slots: the congestion model's
    /// `2×`/knee-1.0/slope-0.3/cap-0.5 operating point with full queue
    /// coupling, a flat profile, tail drop only.
    pub fn calibrated(slots: usize) -> Self {
        assert!(slots >= 1, "need at least one slot");
        QueueModel { slots, queue_coupling: 1.0, ..CongestionModel::calibrated().one_slot_queue() }
    }

    /// Realizes the model for one epoch over one trace: per-flow slot
    /// layouts from the arrival profile, per-(link, slot) offered load from
    /// every flow's ECMP route, class-mean service rates, and the fluid
    /// queue's per-slot drop probabilities and depth telemetry. Pure
    /// function of `(self, topology, trace, epoch, seed)`.
    pub fn realize<F: Routable>(
        &self,
        topology: &Topology,
        trace: &Trace<F>,
        epoch: u64,
        seed: u64,
    ) -> QueueRealization {
        let mut kept = QueueScratch::default();
        self.realize_kept(topology, trace, epoch, seed, &mut kept);
        kept.real
    }

    /// [`realize`](Self::realize) into `kept`'s realization, with `kept`'s
    /// work vectors: a scratch kept from epoch to epoch regrows nothing,
    /// and its fabric index is rebuilt only when `topology` differs from
    /// the one it numbers. The realization it returns is the one
    /// `realize` would.
    pub(crate) fn realize_kept<'a, F: Routable>(
        &self,
        topology: &Topology,
        trace: &Trace<F>,
        epoch: u64,
        seed: u64,
        kept: &'a mut QueueScratch,
    ) -> &'a mut QueueRealization {
        let QueueScratch { real, fabric, work } = kept;
        if fabric.as_ref() != Some(topology) {
            real.index = FabricIndex::new(topology);
            *fabric = Some(topology.clone());
        }
        let s = self.slots;
        let slot_seed = mix64(seed ^ QSLOT_SALT).wrapping_add(epoch);
        let index = &real.index;
        let n_links = index.links().len();
        // Per-(link, slot) arrivals in packets, `[link × slot]` in link
        // order; `crossed` marks every link some flow's route takes.
        let QueueWork {
            arrivals,
            crossed,
            route,
            hops,
            counts,
            depth_by_switch,
            drops_by_switch,
            buffered,
            dropped_at,
            link_probs,
            depth_series,
            drop_series,
        } = work;
        refill(arrivals, n_links * s, 0);
        refill(crossed, n_links, false);
        for &(f, pkts) in &trace.flows {
            let (src, dst) = (f.src_host(), f.dst_host());
            topology.route_into(src, dst, f.key64(), route);
            self.profile.slot_counts(f.key64(), pkts, slot_seed, s, counts);
            index.route_links(route, dst, hops);
            for &l in hops.iter() {
                crossed[l] = true;
                for (a, &n) in arrivals[l * s..(l + 1) * s].iter_mut().zip(counts.iter()) {
                    *a += n;
                }
            }
        }
        // Offered packets and crossed links per link class
        // (`(from role, to role or host)`); integer sums, so order-free.
        let class = |(from, to): LinkId| {
            from.role as usize * 4 + link_class_to(to).map_or(3, |r| r as usize)
        };
        let mut class_sum = [(0u64, 0u64); 12];
        for (l, &link) in index.links().iter().enumerate().filter(|&(l, _)| crossed[l]) {
            let e = &mut class_sum[class(link)];
            e.0 += arrivals[l * s..(l + 1) * s].iter().sum::<u64>();
            e.1 += 1;
        }
        // Link order from here on: every float reduction below must be
        // order-deterministic. Per-switch series are `[switch × slot]`.
        let n_switches = index.n_switches();
        let probs = &mut real.probs;
        let stats = &mut real.stats;
        refill(probs, n_links * s, 0.0);
        refill(stats, n_links, None);
        refill(depth_by_switch, n_switches * s, 0.0);
        refill(drops_by_switch, n_switches * s, 0.0);
        refill(buffered, n_switches, false);
        refill(dropped_at, n_switches, false);
        refill(link_probs, s, 0.0);
        refill(depth_series, s, 0.0);
        refill(drop_series, s, 0.0);
        for (l, &(from, to)) in index.links().iter().enumerate().filter(|&(l, _)| crossed[l]) {
            let a = &arrivals[l * s..(l + 1) * s];
            let (sum, count) = class_sum[class((from, to))];
            let mean_slot = sum as f64 / count as f64 / s as f64;
            let service = self.headroom
                * mean_slot
                * derate_factor(&self.derates, from, epoch, topology.n_edges());
            let mut q = 0.0f64;
            let mut dropped_total = 0.0f64;
            let mut served_total = 0.0f64;
            for (t, &arr_pkts) in a.iter().enumerate() {
                let arr = arr_pkts as f64;
                let p = if service <= 0.0 {
                    // A fully-derated link (the zero-capacity clamp):
                    // everything offered drops at the tail ceiling.
                    self.max_drop
                } else {
                    let pressure = (arr + self.queue_coupling * q) / service;
                    let tail = (self.slope * (pressure - self.knee)).clamp(0.0, self.max_drop);
                    let early = match self.red {
                        Some(red) => red.prob(q / service),
                        None => 0.0,
                    };
                    (tail + early).min(MAX_TOTAL_DROP)
                };
                let dropped = arr * p;
                let avail = q + arr - dropped;
                let served = avail.min(service.max(0.0));
                q = avail - served;
                link_probs[t] = p;
                depth_series[t] = q;
                drop_series[t] = dropped;
                dropped_total += dropped;
                served_total += served;
            }
            if link_probs.iter().any(|&p| p > 0.0) {
                probs[l * s..(l + 1) * s].copy_from_slice(link_probs);
                stats[l] = Some(QueueLinkStats {
                    arrivals: a.iter().sum(),
                    served: served_total,
                    dropped: dropped_total,
                    residual: q,
                    service,
                });
            }
            let sw = index.link_from(l);
            for (series, per_switch, seen) in [
                (&*depth_series, &mut *depth_by_switch, &mut *buffered),
                (&*drop_series, &mut *drops_by_switch, &mut *dropped_at),
            ] {
                if series.iter().any(|&d| d > 0.0) {
                    seen[sw] = true;
                    for (acc, &d) in per_switch[sw * s..(sw + 1) * s].iter_mut().zip(series) {
                        *acc += d;
                    }
                }
            }
        }
        // The depth telemetry is an output: the replay moves it into the
        // epoch's report, so it is built fresh.
        let depth = &mut real.depth;
        depth.clear();
        for sw in (0..n_switches).filter(|&sw| buffered[sw] || dropped_at[sw]) {
            let mut stat = QueueDepthStat::default();
            if buffered[sw] {
                let series = &depth_by_switch[sw * s..(sw + 1) * s];
                stat.max_depth = series.iter().copied().fold(0.0, f64::max);
                stat.mean_depth = series.iter().sum::<f64>() / s as f64;
            }
            if dropped_at[sw] {
                stat.slot_drops = drops_by_switch[sw * s..(sw + 1) * s].to_vec();
            }
            depth.insert(index.switch(sw), stat);
        }
        real.n_slots = s;
        real.profile = self.profile;
        real.slot_seed = slot_seed;
        real
    }
}

/// Clears `v` and fills it with `len` copies of `value`, in the capacity it
/// already has when that is enough.
fn refill<T: Clone>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.resize(len, value);
}

/// What [`QueueModel::realize`] fills, kept across epochs by the
/// [`Simulator`](crate::Simulator) beside its per-flow scratch: the
/// realization itself, the fabric its index numbers, and the work vectors.
/// Nothing in it is an input — every vector is overwritten before it is
/// read, and the index is rebuilt whenever the fabric changed — so a kept
/// scratch realizes exactly what a fresh one does.
#[derive(Debug, Clone)]
pub(crate) struct QueueScratch {
    real: QueueRealization,
    /// The fabric `real.index` numbers; `None` until the first realization.
    fabric: Option<Topology>,
    work: QueueWork,
}

impl Default for QueueScratch {
    fn default() -> Self {
        QueueScratch {
            real: QueueRealization {
                n_slots: 0,
                profile: ArrivalProfile::Flat,
                slot_seed: 0,
                index: FabricIndex::empty(),
                probs: Vec::new(),
                stats: Vec::new(),
                depth: BTreeMap::new(),
            },
            fabric: None,
            work: QueueWork::default(),
        }
    }
}

/// The work vectors of one realization, outside the
/// [`QueueRealization`] so that its `PartialEq` sees only what it
/// realized.
#[derive(Debug, Clone, Default)]
struct QueueWork {
    /// `[link × slot]` offered packets.
    arrivals: Vec<u64>,
    /// Per link: some flow's route takes it.
    crossed: Vec<bool>,
    /// One flow's route, its link numbers and its slot layout.
    route: Vec<SwitchId>,
    hops: Vec<usize>,
    counts: Vec<u64>,
    /// `[switch × slot]` buffered and dropped packets over its out-links.
    depth_by_switch: Vec<f64>,
    drops_by_switch: Vec<f64>,
    /// Per switch: some out-link buffered, some out-link dropped.
    buffered: Vec<bool>,
    dropped_at: Vec<bool>,
    /// One link's per-slot drop probability, depth and drops.
    link_probs: Vec<f64>,
    depth_series: Vec<f64>,
    drop_series: Vec<f64>,
}

/// Hard ceiling on the combined tail + RED drop probability of one slot.
const MAX_TOTAL_DROP: f64 = 0.95;

/// Salt separating the slot-seed stream from other impairment derivations.
const QSLOT_SALT: u64 = 0x5107_7ed0;

/// Queue telemetry of one switch over one epoch: buffered packets summed
/// over its loaded out-links (max and mean across the epoch's slots) plus
/// the per-slot drop series. This is what a real switch exports via
/// INT/queue-occupancy and drop counters — the controller's localizer may
/// consume it as corroborating evidence, and the slot-resolved drop
/// *timing* lets it tell a two-slot microburst culprit from a switch that
/// bleeds uniformly all epoch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueueDepthStat {
    /// Deepest per-slot occupancy (packets).
    pub max_depth: f64,
    /// Mean per-slot occupancy (packets).
    pub mean_depth: f64,
    /// Expected packets dropped per slot across this switch's out-links
    /// (empty when the switch dropped nothing this epoch, or when the
    /// exporter only provides per-epoch aggregates).
    pub slot_drops: Vec<f64>,
}

impl QueueDepthStat {
    /// Total expected drops this epoch (sum of the slot series).
    pub fn drop_mass(&self) -> f64 {
        self.slot_drops.iter().sum()
    }

    /// Temporal concentration of the drops in `[0, 1]`: the share of the
    /// epoch's drop mass landing in the single worst slot. `1.0` means all
    /// drops hit one slot (a microburst signature); `1/slots` means the
    /// switch bled uniformly. `0.0` when the switch dropped nothing or no
    /// slot series was exported.
    pub fn drop_concentration(&self) -> f64 {
        let mass = self.drop_mass();
        if mass <= 0.0 {
            return 0.0;
        }
        self.slot_drops.iter().copied().fold(0.0, f64::max) / mass
    }
}

/// Exact fluid accounting of one loaded link over one epoch:
/// `arrivals = served + dropped + residual`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueLinkStats {
    /// Offered packets over the epoch.
    pub arrivals: u64,
    /// Packets serviced (fluid).
    pub served: f64,
    /// Packets dropped (fluid).
    pub dropped: f64,
    /// Packets still buffered at epoch end.
    pub residual: f64,
    /// Per-slot service rate the link ran at.
    pub service: f64,
}

/// One epoch's realized queue dynamics: per-(link, slot) drop
/// probabilities, per-link conservation stats of the dropping links, and
/// per-switch depth telemetry. The first two are flat tables in link-number
/// order, refilled in place by a kept realization.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueRealization {
    n_slots: usize,
    profile: ArrivalProfile,
    slot_seed: u64,
    /// The fabric's link numbering `probs` is laid out in.
    index: FabricIndex,
    /// `[link × slot]` drop probabilities in link-number order; a link
    /// that never drops is all zeros.
    probs: Vec<f64>,
    /// Per link in link-number order: its conservation stats if it drops
    /// in some slot, `None` if it never does.
    stats: Vec<Option<QueueLinkStats>>,
    depth: BTreeMap<SwitchId, QueueDepthStat>,
}

impl QueueRealization {
    /// Time slots per epoch.
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }

    /// True when no link in the fabric drops in any slot (replay can take
    /// the congestion-free path).
    pub fn is_lossless(&self) -> bool {
        self.stats.iter().all(Option::is_none)
    }

    /// Fills `out` with the row-major `[hop][slot]` drop probabilities of
    /// `route` (the link *out of* `route[i]`; the last hop is the link to
    /// `dst_host`). `out` is cleared first; its final length is
    /// `route.len() × n_slots`.
    pub fn hop_slot_probs(&self, route: &[SwitchId], dst_host: usize, out: &mut Vec<f64>) {
        out.clear();
        let s = self.n_slots;
        let mut push = |link: LinkId| match self.index.link_index(link) {
            Some(l) => out.extend_from_slice(&self.probs[l * s..(l + 1) * s]),
            None => out.extend(std::iter::repeat_n(0.0, s)),
        };
        for w in route.windows(2) {
            push((w[0], Hop::Switch(w[1])));
        }
        if let Some(&last) = route.last() {
            push((last, Hop::Host(dst_host)));
        }
    }

    /// This flow's per-slot packet layout — the same closed form the
    /// offered-load accounting used, so fates and loads always agree.
    pub fn flow_slot_counts(&self, flow_key: u64, pkts: u64, out: &mut Vec<u64>) {
        self.profile
            .slot_counts(flow_key, pkts, self.slot_seed, self.n_slots, out);
    }

    /// Per-switch queue-depth telemetry (switches whose out-links never
    /// buffered are absent).
    pub fn depths(&self) -> &BTreeMap<SwitchId, QueueDepthStat> {
        &self.depth
    }

    /// Moves the depth telemetry out, leaving none behind.
    pub(crate) fn take_depths(&mut self) -> BTreeMap<SwitchId, QueueDepthStat> {
        std::mem::take(&mut self.depth)
    }

    /// Exact per-link conservation stats of every dropping link, in link
    /// order.
    pub fn link_stats(&self) -> impl Iterator<Item = (LinkId, &QueueLinkStats)> + '_ {
        let links = self.index.links().iter().zip(&self.stats);
        links.filter_map(|(&l, st)| st.as_ref().map(|st| (l, st)))
    }

    /// The dropping links with their epoch-aggregate drop probability
    /// (`dropped / arrivals`), highest first (ties in link order).
    pub fn hot_links(&self) -> Vec<(LinkId, f64)> {
        let mut v: Vec<(LinkId, f64)> = self
            .link_stats()
            .map(|(l, st)| (l, st.dropped / (st.arrivals.max(1) as f64)))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{FatTree, KaryFatTree, LeafSpine, SwitchRole};
    use chm_common::FlowId;
    use chm_workloads::{testbed_trace, WorkloadKind};

    fn realize(model: &QueueModel, epoch: u64) -> QueueRealization {
        let topo: Topology = FatTree::testbed().into();
        let trace = testbed_trace(WorkloadKind::Dctcp, 800, 8, 42);
        model.realize(&topo, &trace, epoch, 0x1234)
    }

    #[test]
    fn calibrated_flat_traffic_is_lossless() {
        let r = realize(&QueueModel::calibrated(8), 0);
        assert!(r.is_lossless(), "2x headroom, flat load: {:?}", r.hot_links());
        assert!(r.depths().is_empty(), "no queue should ever build");
    }

    #[test]
    fn derated_switch_drops_and_buffers_only_there() {
        let mut m = QueueModel::calibrated(8);
        m.derates.push(Derate::Switch {
            role: SwitchRole::Core,
            index: 0,
            factor: 0.4,
        });
        let r = realize(&m, 0);
        assert!(!r.is_lossless(), "a 0.4x core must saturate");
        for ((from, _), _) in r.hot_links() {
            assert_eq!(from, SwitchId { role: SwitchRole::Core, index: 0 });
        }
        assert!(
            r.depths().keys().all(|&s| s
                == SwitchId { role: SwitchRole::Core, index: 0 }),
            "only the derated core may buffer: {:?}",
            r.depths()
        );
        let d = &r.depths()[&SwitchId { role: SwitchRole::Core, index: 0 }];
        assert!(d.max_depth > 0.0 && d.mean_depth > 0.0 && d.max_depth >= d.mean_depth);
        // The per-slot drop series agrees with the link-level accounting.
        let link_drops: f64 = r.link_stats().map(|(_, s)| s.dropped).sum();
        assert!((d.drop_mass() - link_drops).abs() <= 1e-9 * link_drops.max(1.0));
        assert!(d.drop_concentration() > 0.0 && d.drop_concentration() <= 1.0);
    }

    #[test]
    fn microburst_drop_timing_is_concentrated() {
        let mut m = QueueModel::calibrated(8);
        m.profile = ArrivalProfile::Microburst { frac: 0.6, width: 2 };
        let r = realize(&m, 0);
        assert!(!r.is_lossless());
        // A two-slot burst's drops concentrate far above the uniform 1/8
        // floor on every bleeding switch.
        for (sw, d) in r.depths() {
            if d.drop_mass() > 0.0 {
                assert!(
                    d.drop_concentration() > 0.3,
                    "{sw:?}: burst drops must be time-concentrated, got {:?}",
                    d.slot_drops
                );
            }
        }
    }

    #[test]
    fn queue_coupling_raises_sustained_overload_loss() {
        let mut memoryless = QueueModel::calibrated(8);
        memoryless.queue_coupling = 0.0;
        memoryless.derates.push(Derate::Switch {
            role: SwitchRole::Core,
            index: 1,
            factor: 0.4,
        });
        let mut coupled = memoryless.clone();
        coupled.queue_coupling = 1.0;
        let lm = realize(&memoryless, 0);
        let lc = realize(&coupled, 0);
        let drop = |r: &QueueRealization| {
            r.link_stats().map(|(_, s)| s.dropped).sum::<f64>()
        };
        assert!(
            drop(&lc) > drop(&lm),
            "carried queue must add pressure: {} vs {}",
            drop(&lc),
            drop(&lm)
        );
    }

    #[test]
    fn microburst_confines_drops_to_the_burst_slots() {
        let mut m = QueueModel::calibrated(8);
        m.profile = ArrivalProfile::Microburst { frac: 0.6, width: 2 };
        let r = realize(&m, 0);
        assert!(!r.is_lossless(), "a 60%-in-2-slots burst must overflow 2x headroom");
        for (link, ps) in r.index.links().iter().zip(r.probs.chunks(r.n_slots)) {
            let loss_slots = ps.iter().filter(|&&p| p > 0.0).count();
            assert!(
                loss_slots <= 4,
                "{link:?}: drops must be time-confined, got {ps:?}"
            );
        }
        // The flat profile under the same model is clean — the *timing* is
        // the whole difference.
        assert!(realize(&QueueModel::calibrated(8), 0).is_lossless());
    }

    #[test]
    fn red_starts_dropping_before_tail() {
        let mut tail = QueueModel::calibrated(8);
        tail.derates.push(Derate::Switch {
            role: SwitchRole::Edge,
            index: 1,
            factor: 0.45,
        });
        let mut red = tail.clone();
        red.red = Some(RedDrop { min_depth: 0.1, max_depth: 2.0, max_prob: 0.3 });
        let rt = realize(&tail, 0);
        let rr = realize(&red, 0);
        let total = |r: &QueueRealization| {
            r.link_stats().map(|(_, s)| s.dropped).sum::<f64>()
        };
        assert!(total(&rr) > total(&rt), "RED must add early drops");
        // RED drains the queue: residual depth must not grow.
        let resid = |r: &QueueRealization| {
            r.link_stats().map(|(_, s)| s.residual).sum::<f64>()
        };
        assert!(resid(&rr) <= resid(&rt) + 1e-9);
    }

    #[test]
    fn realization_is_deterministic_and_epoch_sensitive() {
        let mut m = QueueModel::calibrated(8);
        m.profile = ArrivalProfile::Microburst { frac: 0.5, width: 2 };
        assert_eq!(realize(&m, 3), realize(&m, 3));
        // The burst window moves with the epoch for at least some epoch.
        let r3 = realize(&m, 3);
        assert!(
            (0..8u64).any(|e| realize(&m, e).probs != r3.probs),
            "burst position must be epoch-seeded"
        );
    }

    /// The lossy model the kept-scratch proptest drives: `slots` slots, a
    /// two-slot microburst and a half-speed edge 1, so every fabric has
    /// dropping links, depth telemetry and per-slot drop series.
    fn lossy_model(slots: usize) -> QueueModel {
        let mut m = QueueModel::calibrated(slots);
        m.profile = ArrivalProfile::Microburst { frac: 0.5, width: 2 };
        m.derates.push(Derate::Switch { role: SwitchRole::Edge, index: 1, factor: 0.5 });
        m
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// One scratch kept across a random sequence of fabrics, traces,
        /// slot counts and epochs realizes exactly what a fresh
        /// [`QueueModel::realize`] does at every step: the work vectors
        /// carry nothing over, and the fabric index follows the fabric.
        #[test]
        fn a_kept_scratch_realizes_what_a_fresh_one_does(
            steps in proptest::collection::vec(
                (0usize..3, 0u64..4, 1usize..9, 0u64..16),
                1..8,
            ),
        ) {
            let fabrics: [Topology; 3] = [
                FatTree::testbed().into(),
                KaryFatTree::new(4).into(),
                LeafSpine::new(4, 2, 3).into(),
            ];
            let mut kept = QueueScratch::default();
            for (fabric, trace_seed, slots, epoch) in steps {
                let topo = &fabrics[fabric];
                let hosts = topo.n_hosts() as u32;
                let trace = testbed_trace(WorkloadKind::Dctcp, 300, hosts, trace_seed);
                let model = lossy_model(slots);
                let fresh = model.realize(topo, &trace, epoch, 0x1234);
                proptest::prop_assert!(!fresh.is_lossless());
                let reused = model.realize_kept(topo, &trace, epoch, 0x1234, &mut kept);
                proptest::prop_assert_eq!(&*reused, &fresh);
            }
        }
    }

    #[test]
    fn hop_slot_probs_align_with_route() {
        let mut m = QueueModel::calibrated(4);
        m.derates.push(Derate::Switch {
            role: SwitchRole::Core,
            index: 1,
            factor: 0.2,
        });
        let topo: Topology = FatTree::testbed().into();
        let trace = testbed_trace(WorkloadKind::Dctcp, 800, 8, 42);
        let r = m.realize(&topo, &trace, 0, 0x1234);
        let mut probs = Vec::new();
        for &(f, _) in &trace.flows {
            let route = topo.route(f.src_host(), f.dst_host(), f.key64());
            r.hop_slot_probs(&route, f.dst_host(), &mut probs);
            assert_eq!(probs.len(), route.len() * 4);
            for (i, &p) in probs.iter().enumerate() {
                if p > 0.0 {
                    assert_eq!(
                        route[i / 4],
                        SwitchId { role: SwitchRole::Core, index: 1 },
                        "only the derated core's out-links may drop"
                    );
                }
            }
        }
    }
}
