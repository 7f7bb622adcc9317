//! Victim localization: *where* did the fabric hurt this flow?
//!
//! ChameleMon's edge deployment sees a victim flow's loss as an
//! ingress/egress asymmetry — the upstream encoders at its ingress ToR
//! counted more packets than the downstream encoders at its egress ToR —
//! which brackets the drop somewhere on the flow's ECMP route between the
//! two edges. One victim cannot be localized further than its route, but
//! victims *in aggregate* can: routes that share the culprit switch all
//! bleed, routes that avoid it stay clean, so spreading every victim's
//! estimated loss over its route and accumulating across epochs
//! concentrates blame on the switches that actually drop (the classic
//! loss-tomography argument; per-link deployments like LossRadar get this
//! attribution for free, an edge deployment must infer it).
//!
//! Blame alone is not enough on a fat-tree: ECMP parity pins each core to
//! specific aggregation switches, so every victim route through a
//! browned-out core *also* contains one of two aggs — their blame ties the
//! core's exactly. The discriminator is **exoneration**: flows the
//! controller decoded that did *not* lose packets (the HH flowsets) still
//! name the switches they crossed, and same-pod healthy traffic transits
//! aggs but never cores. The localizer therefore keeps two
//! exponentially-decayed tables — per-switch *blame* (victims' estimated
//! loss, spread over their routes) and per-switch *transit* (known
//! traffic, victims and healthy alike, spread the same way) — and scores
//! each switch by `blame / (1 + transit)`, an estimated per-switch loss
//! intensity. The decay lets the picture track moving hot spots — a
//! rolling ToR degradation shifts the ranking within an epoch or two.
//!
//! Accuracy is scored as **top-k hit rate**: the fraction of ground-truth
//! victims whose true dominant drop switch appears among the first `k`
//! ranked candidates (`chm_scenarios::runner` scores k = 1 and 3 against
//! each victim row's drops in
//! [`EpochReport::lost`](chm_netsim::sim::EpochReport::lost)).
//!
//! Everything here is deterministic: victims and healthy flows are folded
//! in `(key64, flow)` order, so the floating-point tables — and therefore
//! every ranking — are a pure function of the epoch sequence, even when two
//! flows share a `key64`.

use chm_netsim::sim::Routable;
use chm_netsim::{Fabric, FabricIndex, QueueDepthStat, SwitchId, Topology};
use std::collections::{BTreeMap, HashMap};

/// Per-epoch decay of accumulated blame (0 would be memoryless, 1 never
/// forgets).
pub const BLAME_DECAY: f64 = 0.5;

/// Blame weight of a victim recovered from a *partial* delta-HL decode.
/// A full FermatSketch decode is exact, so its victims carry weight 1.0; a
/// flow peeled before a decode stall is only HH-attested — real, but its
/// loss estimate may be off (its cancelling negative twin can be stuck in
/// the residue), so its blame is discounted rather than trusted outright.
pub const PARTIAL_DECODE_CONFIDENCE: f64 = 0.5;

/// One epoch's localization inputs: what the controller decoded, how much
/// it trusts each victim's estimate, and what the switches told it about
/// their queues.
pub struct EpochEvidence<'a, F> {
    /// Decoded victim flow → estimated lost packets (blame mass).
    pub loss_report: &'a HashMap<F, u64>,
    /// Per-victim decode confidence in `[0, 1]`; victims absent from the
    /// map count as fully trusted (1.0). Blame is scaled by it, transit is
    /// not — an uncertain victim still certainly *crossed* its route.
    pub confidence: &'a HashMap<F, f64>,
    /// Every flow the controller decoded this epoch (victim or healthy)
    /// with its estimated packet count — healthy flows exonerate the
    /// switches they crossed.
    pub traffic: &'a HashMap<F, u64>,
    /// Per-switch queue-depth telemetry (INT/queue-occupancy export from
    /// the fabric). A deep queue corroborates blame: the scores of switches
    /// that buffered heavily are boosted relative to those that stayed
    /// shallow. Empty = no telemetry, scoring unchanged.
    pub queue_depth: &'a BTreeMap<SwitchId, QueueDepthStat>,
}

/// One epoch's localization output.
#[derive(Debug, Clone)]
pub struct Localization<F> {
    /// Per-victim candidate switches, most suspect first (the victim's
    /// route ordered by the network-wide suspicion score, ties toward the
    /// smaller [`SwitchId`]).
    pub per_victim: HashMap<F, Vec<SwitchId>>,
    /// Network-wide suspect ranking: every blamed switch with its
    /// suspicion score ([`Localizer::score`] — blame normalized by known
    /// transit, *not* the raw blame), highest first.
    pub ranking: Vec<(SwitchId, f64)>,
}

impl<F: Eq + std::hash::Hash> PartialEq for Localization<F> {
    fn eq(&self, other: &Self) -> bool {
        self.per_victim == other.per_victim && self.ranking == other.ranking
    }
}

impl<F: Routable> Localization<F> {
    /// The `k` most suspect switches network-wide.
    pub fn top(&self, k: usize) -> Vec<SwitchId> {
        self.ranking.iter().take(k).map(|&(s, _)| s).collect()
    }
}

/// Cross-epoch per-switch blame/transit accumulator (see module docs).
///
/// The tables are dense over the fabric's [`FabricIndex`] switch numbers,
/// which follow [`SwitchId`] order, so every fold and every export walks
/// the switches in the order a sorted map would. `None` marks a switch the
/// table has never held an entry for; the snapshot lists only the others.
#[derive(Debug, Clone)]
pub struct Localizer {
    topology: Topology,
    index: FabricIndex,
    blame: Vec<Option<f64>>,
    transit: Vec<Option<f64>>,
    /// Current-epoch telemetry boost per switch (normalized mean queue
    /// depth in `[0, 1]`); replaced wholesale each observation, all `None`
    /// when no telemetry arrived.
    telemetry: Vec<Option<f64>>,
    decay: f64,
    /// This epoch's [`score`](Self::score) of every switch, computed once
    /// the epoch's evidence is folded.
    scores: Vec<f64>,
    /// Route buffer reused from flow to flow.
    route: Vec<SwitchId>,
}

impl Localizer {
    /// A localizer over `topology`, decaying blame by [`BLAME_DECAY`].
    pub fn new(topology: impl Into<Topology>) -> Self {
        let topology = topology.into();
        let index = FabricIndex::new(&topology);
        let n = index.n_switches();
        Localizer {
            route: Vec::with_capacity(topology.max_hops()),
            topology,
            index,
            blame: vec![None; n],
            transit: vec![None; n],
            telemetry: vec![None; n],
            decay: BLAME_DECAY,
            scores: vec![0.0; n],
        }
    }

    /// The current blame of `switch` (victims' loss mass routed through
    /// it).
    pub fn blame(&self, switch: SwitchId) -> f64 {
        self.index.switch_index(switch).and_then(|s| self.blame[s]).unwrap_or(0.0)
    }

    /// The switch's suspicion score: accumulated blame normalized by the
    /// known traffic transiting it — an estimated per-switch loss
    /// intensity, so a switch is only suspect when its loss is large
    /// *relative to what it carries* — boosted by up to 2× when this
    /// epoch's queue telemetry shows the switch buffering heavily (no
    /// telemetry = no boost, scores bit-identical to the telemetry-free
    /// localizer).
    pub fn score(&self, switch: SwitchId) -> f64 {
        self.index.switch_index(switch).map_or(0.0, |s| self.score_at(s))
    }

    /// [`score`](Self::score) of the switch numbered `s`.
    fn score_at(&self, s: usize) -> f64 {
        let b = self.blame[s].unwrap_or(0.0);
        if b <= 0.0 {
            return 0.0;
        }
        let base = b / (1.0 + self.transit[s].unwrap_or(0.0));
        match self.telemetry[s] {
            Some(t) => base * (1.0 + t),
            None => base,
        }
    }

    /// Folds one epoch's evidence into the tables and returns the epoch's
    /// localization. `loss_report` is the controller's decoded victim →
    /// estimated-lost-packets map; `traffic` is every flow the controller
    /// decoded this epoch (victim or healthy) with its estimated packet
    /// count — healthy flows exonerate the switches they crossed. A victim
    /// missing from `traffic` contributes its loss estimate as a (lower
    /// bound) transit weight. Victims are fully trusted and no queue
    /// telemetry is consulted — the plain form of
    /// [`observe_evidence`](Self::observe_evidence).
    pub fn observe_epoch<F: Routable>(
        &mut self,
        loss_report: &HashMap<F, u64>,
        traffic: &HashMap<F, u64>,
    ) -> Localization<F> {
        self.observe_evidence(EpochEvidence {
            loss_report,
            confidence: &HashMap::new(),
            traffic,
            queue_depth: &BTreeMap::new(),
        })
    }

    /// Folds one epoch's full evidence — blame weighted by decode
    /// confidence, transit exoneration, and queue-depth telemetry — into
    /// the tables and returns the epoch's localization. With an empty
    /// confidence map and empty telemetry this is bit-identical to
    /// [`observe_epoch`](Self::observe_epoch). Telemetry for a switch
    /// outside the fabric still counts toward the normalization, but no
    /// route crosses that switch, so it is not kept.
    pub fn observe_evidence<F: Routable>(&mut self, ev: EpochEvidence<'_, F>) -> Localization<F> {
        for b in self.blame.iter_mut().chain(&mut self.transit).flatten() {
            *b *= self.decay;
        }
        // Telemetry is a per-epoch snapshot, not an accumulator: replace it
        // wholesale, normalized by the epoch's deepest/heaviest switch so
        // the boost is scale-free in `[0, 1]`. When the exporter provides
        // slot-resolved drop series, half the boost comes from drop *mass
        // and timing* — a switch that sheds its packets in a concentrated
        // burst is a stronger culprit signal than one whose queue merely
        // sat deep — and the depth share carries the other half. Exports
        // with per-epoch aggregates only (no slot series anywhere) keep the
        // pure depth normalization, bit-identical to the pre-slot-timing
        // localizer.
        self.telemetry.fill(None);
        let deepest = ev
            .queue_depth
            .values()
            .map(|d| d.mean_depth)
            .fold(0.0f64, f64::max);
        let heaviest = ev
            .queue_depth
            .values()
            .map(|d| d.drop_mass())
            .fold(0.0f64, f64::max);
        if deepest > 0.0 || heaviest > 0.0 {
            for (&s, d) in ev.queue_depth {
                let depth_part =
                    if deepest > 0.0 { d.mean_depth / deepest } else { 0.0 };
                let boost = if heaviest > 0.0 {
                    0.5 * depth_part
                        + 0.5 * (d.drop_mass() / heaviest) * d.drop_concentration()
                } else {
                    depth_part
                };
                if let Some(s) = self.index.switch_index(s) {
                    self.telemetry[s] = Some(boost);
                }
            }
        }
        // Deterministic fold order: the tables are floating point, so
        // accumulation must not depend on HashMap iteration order. The
        // sort key is computed once per flow; the flow itself breaks a
        // `key64` tie.
        let mut victims: Vec<(u64, &F, u64)> =
            ev.loss_report.iter().map(|(f, &l)| (f.key64(), f, l)).collect();
        victims.sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        let mut per_victim: HashMap<F, Vec<SwitchId>> = HashMap::with_capacity(victims.len());
        for (key, f, loss) in victims {
            self.topology.route_into(f.src_host(), f.dst_host(), key, &mut self.route);
            let conf = ev.confidence.get(f).copied().unwrap_or(1.0);
            let share = conf * loss as f64 / self.route.len() as f64;
            let weight =
                ev.traffic.get(f).copied().unwrap_or(loss) as f64 / self.route.len() as f64;
            for &s in &self.route {
                let s = self.index.switch_index(s).expect("routes stay in the fabric");
                *self.blame[s].get_or_insert(0.0) += share;
                *self.transit[s].get_or_insert(0.0) += weight;
            }
            per_victim.insert(*f, self.route.clone());
        }
        let loss_report = ev.loss_report;
        let mut healthy: Vec<(u64, &F, u64)> = Vec::with_capacity(ev.traffic.len());
        healthy.extend(
            ev.traffic
                .iter()
                .filter(|(f, _)| !loss_report.contains_key(f))
                .map(|(f, &w)| (f.key64(), f, w)),
        );
        healthy.sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        for (key, f, w) in healthy {
            self.topology.route_into(f.src_host(), f.dst_host(), key, &mut self.route);
            let share = w as f64 / self.route.len() as f64;
            for &s in &self.route {
                let s = self.index.switch_index(s).expect("routes stay in the fabric");
                *self.transit[s].get_or_insert(0.0) += share;
            }
        }
        for s in 0..self.scores.len() {
            self.scores[s] = self.score_at(s);
        }
        // chm-lint: allow(map-iter-order, "each route is ranked on its own; the order the rows are visited in changes nothing")
        for route in per_victim.values_mut() {
            self.rank_route(route);
        }
        let mut ranking: Vec<(SwitchId, f64)> = Vec::with_capacity(self.scores.len());
        ranking.extend(
            (0..self.scores.len())
                .filter(|&s| self.blame[s].is_some_and(|b| b > 0.0))
                .map(|s| (self.index.switch(s), self.scores[s])),
        );
        ranking.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        Localization { per_victim, ranking }
    }

    /// Orders `route` most-suspect-first by this epoch's score (ties toward
    /// the smaller switch id).
    fn rank_route(&self, route: &mut [SwitchId]) {
        let score = |s: SwitchId| self.index.switch_index(s).map_or(0.0, |s| self.scores[s]);
        route.sort_by(|a, b| score(*b).total_cmp(&score(*a)).then(a.cmp(b)));
    }

    /// One dense table as sorted `(switch, value)` rows.
    fn rows(&self, table: &[Option<f64>]) -> Vec<(SwitchId, f64)> {
        table
            .iter()
            .enumerate()
            .filter_map(|(s, v)| v.map(|v| (self.index.switch(s), v)))
            .collect()
    }

    /// Exports the cross-epoch tables for persistence. Together with the
    /// topology (which the host reconstructs) this is the localizer's
    /// entire state: [`restore`](Self::restore) onto a fresh localizer over
    /// the same topology reproduces every future ranking bit for bit.
    pub fn snapshot(&self) -> LocalizerSnapshot {
        LocalizerSnapshot {
            blame: self.rows(&self.blame),
            transit: self.rows(&self.transit),
            telemetry: self.rows(&self.telemetry),
            decay: self.decay,
        }
    }

    /// Replaces the cross-epoch tables with a previously exported
    /// [`snapshot`](Self::snapshot) (the inverse operation; the topology is
    /// not part of the snapshot and stays as constructed). A row for a
    /// switch outside the fabric has no place in the tables and is
    /// dropped — a host restoring outside input refuses such a snapshot
    /// first. A later row for the same switch wins.
    pub fn restore(&mut self, snap: &LocalizerSnapshot) {
        for (table, rows) in [
            (&mut self.blame, &snap.blame),
            (&mut self.transit, &snap.transit),
            (&mut self.telemetry, &snap.telemetry),
        ] {
            table.fill(None);
            for &(s, v) in rows {
                if let Some(s) = self.index.switch_index(s) {
                    table[s] = Some(v);
                }
            }
        }
        self.decay = snap.decay;
    }
}

/// A [`Localizer`]'s persistable state: the decayed blame/transit tables
/// and the current-epoch telemetry boost, in sorted switch order, one row
/// per switch the table holds (so the vectors round-trip exactly).
#[derive(Debug, Clone, PartialEq)]
pub struct LocalizerSnapshot {
    /// Per-switch accumulated blame.
    pub blame: Vec<(SwitchId, f64)>,
    /// Per-switch accumulated transit (exoneration mass).
    pub transit: Vec<(SwitchId, f64)>,
    /// Per-switch telemetry boost of the last observed epoch.
    pub telemetry: Vec<(SwitchId, f64)>,
    /// The per-epoch decay factor in effect.
    pub decay: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use chm_common::FiveTuple;
    use chm_netsim::{FatTree, SwitchRole};
    use chm_workloads::trace::host_ip;

    fn flow(src: u32, dst: u32, port: u16) -> FiveTuple {
        FiveTuple {
            src_ip: host_ip(src),
            dst_ip: host_ip(dst),
            src_port: port,
            dst_port: 80,
            proto: 17,
        }
    }

    #[test]
    fn shared_egress_tor_dominates_the_ranking() {
        // Victims from many sources all egress at ToR 3 (hosts 6/7): its
        // blame accumulates from every victim, transit switches split.
        let mut loc = Localizer::new(FatTree::testbed());
        let mut report = HashMap::new();
        for (i, src) in [0u32, 1, 2, 3, 4, 5].iter().enumerate() {
            report.insert(flow(*src, 6 + (i as u32 % 2), 1000 + i as u16), 30u64);
        }
        let l = loc.observe_epoch(&report, &HashMap::new());
        assert_eq!(
            l.top(1),
            vec![SwitchId { role: SwitchRole::Edge, index: 3 }],
            "ranking: {:?}",
            l.ranking
        );
        // Every victim's candidate list starts with the shared ToR.
        for (f, cands) in &l.per_victim {
            assert_eq!(
                cands[0],
                SwitchId { role: SwitchRole::Edge, index: 3 },
                "victim {f:?} candidates {cands:?}"
            );
        }
    }

    #[test]
    fn decay_lets_blame_track_a_moving_culprit() {
        let mut loc = Localizer::new(FatTree::testbed());
        // Epochs 0-2: victims egress at ToR 0; epochs 3-5: at ToR 2. Source
        // and port diversity spreads the transit (agg/core) blame across
        // the ECMP fan-out, so the shared egress ToR dominates.
        let mut early = HashMap::new();
        let mut late = HashMap::new();
        for i in 0..24u32 {
            early.insert(flow(2 + (i % 6), i % 2, 2000 + i as u16), 40u64);
            late.insert(flow(i % 4, 4 + (i % 2), 3000 + 7 * i as u16), 40u64);
        }
        for _ in 0..3 {
            loc.observe_epoch(&early, &HashMap::new());
        }
        let mut last = loc.observe_epoch(&late, &HashMap::new());
        for _ in 0..2 {
            last = loc.observe_epoch(&late, &HashMap::new());
        }
        assert_eq!(
            last.top(1),
            vec![SwitchId { role: SwitchRole::Edge, index: 2 }],
            "ranking must have moved on: {:?}",
            last.ranking
        );
    }

    #[test]
    fn healthy_traffic_exonerates_the_parity_pinned_aggs() {
        // Every victim crosses core 0 (and, by ECMP parity, one of aggs
        // 0/2) — blame alone ties the three. Healthy same-pod flows transit
        // the aggs but never the core: exoneration must break the tie in
        // the core's favor.
        let mut loc = Localizer::new(FatTree::testbed());
        let mut victims = HashMap::new();
        let mut traffic = HashMap::new();
        let topo = FatTree::testbed();
        let mut port = 5000u16;
        // Collect cross-pod victims actually routed via core 0.
        'outer: for src in 0..4u32 {
            for dst in 4..8u32 {
                loop {
                    port += 1;
                    let f = flow(src, dst, port);
                    use chm_common::FlowId as _;
                    let r = topo.route(src as usize, dst as usize, f.key64());
                    if r.iter().any(|s| {
                        *s == SwitchId { role: SwitchRole::Core, index: 0 }
                    }) {
                        victims.insert(f, 25u64);
                        traffic.insert(f, 400u64);
                        break;
                    }
                    if port > 6000 {
                        break 'outer;
                    }
                }
            }
        }
        assert!(victims.len() >= 12);
        // Healthy same-pod traffic exercising the aggs.
        for i in 0..40u32 {
            let (src, dst) = if i % 2 == 0 { (i % 2, 2 + (i % 2)) } else { (4, 6) };
            traffic.insert(flow(src, dst + i % 2, 7000 + i as u16), 500u64);
        }
        let mut l = loc.observe_epoch(&victims, &traffic);
        for _ in 0..2 {
            l = loc.observe_epoch(&victims, &traffic);
        }
        assert_eq!(
            l.top(1),
            vec![SwitchId { role: SwitchRole::Core, index: 0 }],
            "exoneration must single out the core: {:?}",
            l.ranking
        );
        for (f, cands) in &l.per_victim {
            assert_eq!(
                cands[0],
                SwitchId { role: SwitchRole::Core, index: 0 },
                "victim {f:?} candidates {cands:?}"
            );
        }
    }

    #[test]
    fn observation_is_deterministic() {
        let mut report = HashMap::new();
        for i in 0..20u32 {
            report.insert(flow(i % 8, (i + 3) % 8, 4000 + i as u16), 5 + i as u64);
        }
        let mut a = Localizer::new(FatTree::testbed());
        let mut b = Localizer::new(FatTree::testbed());
        for _ in 0..4 {
            let la = a.observe_epoch(&report, &HashMap::new());
            let lb = b.observe_epoch(&report, &HashMap::new());
            assert_eq!(la, lb);
        }
    }

    #[test]
    fn empty_evidence_extras_are_bit_identical_to_observe_epoch() {
        let mut report = HashMap::new();
        let mut traffic = HashMap::new();
        for i in 0..30u32 {
            report.insert(flow(i % 8, (i + 5) % 8, 4100 + i as u16), 7 + i as u64);
            traffic.insert(flow((i + 1) % 8, (i + 4) % 8, 8100 + i as u16), 200u64);
        }
        let mut plain = Localizer::new(FatTree::testbed());
        let mut evidenced = Localizer::new(FatTree::testbed());
        for _ in 0..4 {
            let a = plain.observe_epoch(&report, &traffic);
            let b = evidenced.observe_evidence(EpochEvidence {
                loss_report: &report,
                confidence: &HashMap::new(),
                traffic: &traffic,
                queue_depth: &BTreeMap::new(),
            });
            assert_eq!(a, b, "no confidence + no telemetry must change nothing");
        }
    }

    #[test]
    fn low_confidence_victims_swing_the_ranking_less() {
        // Full-confidence victims at ToR 1 vs discounted victims at ToR 3,
        // equal loss mass, pods kept separate so neither group's ingress
        // ToR pollutes the other's egress blame: the trusted side must
        // outrank the shaky side.
        let mut report = HashMap::new();
        let mut confidence = HashMap::new();
        for i in 0..12u32 {
            let trusted = flow(i % 2, 2 + (i % 2), 5000 + i as u16);
            let shaky = flow(4 + (i % 2), 6 + (i % 2), 5100 + i as u16);
            report.insert(trusted, 40u64);
            report.insert(shaky, 40u64);
            confidence.insert(shaky, PARTIAL_DECODE_CONFIDENCE);
        }
        let mut loc = Localizer::new(FatTree::testbed());
        let mut l = loc.observe_evidence(EpochEvidence {
            loss_report: &report,
            confidence: &confidence,
            traffic: &HashMap::new(),
            queue_depth: &BTreeMap::new(),
        });
        for _ in 0..2 {
            l = loc.observe_evidence(EpochEvidence {
                loss_report: &report,
                confidence: &confidence,
                traffic: &HashMap::new(),
                queue_depth: &BTreeMap::new(),
            });
        }
        let tor1 = SwitchId { role: SwitchRole::Edge, index: 1 };
        let tor3 = SwitchId { role: SwitchRole::Edge, index: 3 };
        let rank = |s: SwitchId| l.ranking.iter().position(|&(r, _)| r == s).unwrap();
        assert!(
            rank(tor1) < rank(tor3),
            "discounted blame must rank below trusted blame: {:?}",
            l.ranking
        );
        assert!(loc.blame(tor1) > loc.blame(tor3) * 1.5);
    }

    #[test]
    fn queue_telemetry_breaks_a_blame_tie() {
        // Two victim groups with symmetric blame (ToR 0 and ToR 2 egress);
        // telemetry showing only ToR 2 buffering must promote it.
        let mut report = HashMap::new();
        for i in 0..8u32 {
            report.insert(flow(4 + (i % 2), i % 2, 6000 + i as u16), 30u64);
            report.insert(flow(i % 2, 4 + (i % 2), 6100 + i as u16), 30u64);
        }
        let tor0 = SwitchId { role: SwitchRole::Edge, index: 0 };
        let tor2 = SwitchId { role: SwitchRole::Edge, index: 2 };
        let mut depth = BTreeMap::new();
        depth.insert(
            tor2,
            chm_netsim::QueueDepthStat {
                max_depth: 900.0,
                mean_depth: 400.0,
                slot_drops: Vec::new(),
            },
        );
        let mut loc = Localizer::new(FatTree::testbed());
        let l = loc.observe_evidence(EpochEvidence {
            loss_report: &report,
            confidence: &HashMap::new(),
            traffic: &HashMap::new(),
            queue_depth: &depth,
        });
        let rank = |l: &Localization<FiveTuple>, s: SwitchId| {
            l.ranking.iter().position(|&(r, _)| r == s).unwrap()
        };
        assert!(
            rank(&l, tor2) < rank(&l, tor0),
            "the buffering ToR must outrank the shallow one: {:?}",
            l.ranking
        );
        // Telemetry is a per-epoch snapshot: a telemetry-free epoch resets
        // the boost.
        let l2 = loc.observe_epoch(&report, &HashMap::new());
        let s0 = l2.ranking.iter().find(|&&(r, _)| r == tor0).unwrap().1;
        let s2 = l2.ranking.iter().find(|&&(r, _)| r == tor2).unwrap().1;
        assert!((s0 - s2).abs() < 1e-12, "boost must not persist: {l2:?}");
    }

    #[test]
    fn concentrated_drop_timing_outranks_equal_depth() {
        // Two victim groups with symmetric blame; both ToRs report the same
        // mean queue depth and the same drop mass, but ToR 2's drops land
        // in one slot (microburst signature) while ToR 0 bleeds uniformly:
        // the slot-timing evidence must promote ToR 2.
        let mut report = HashMap::new();
        for i in 0..8u32 {
            report.insert(flow(4 + (i % 2), i % 2, 6000 + i as u16), 30u64);
            report.insert(flow(i % 2, 4 + (i % 2), 6100 + i as u16), 30u64);
        }
        let tor0 = SwitchId { role: SwitchRole::Edge, index: 0 };
        let tor2 = SwitchId { role: SwitchRole::Edge, index: 2 };
        let mut depth = BTreeMap::new();
        depth.insert(
            tor0,
            chm_netsim::QueueDepthStat {
                max_depth: 500.0,
                mean_depth: 200.0,
                slot_drops: vec![10.0; 8],
            },
        );
        depth.insert(
            tor2,
            chm_netsim::QueueDepthStat {
                max_depth: 500.0,
                mean_depth: 200.0,
                slot_drops: vec![0.0, 0.0, 80.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            },
        );
        let mut loc = Localizer::new(FatTree::testbed());
        let l = loc.observe_evidence(EpochEvidence {
            loss_report: &report,
            confidence: &HashMap::new(),
            traffic: &HashMap::new(),
            queue_depth: &depth,
        });
        let rank = |s: SwitchId| l.ranking.iter().position(|&(r, _)| r == s).unwrap();
        assert!(
            rank(tor2) < rank(tor0),
            "concentrated drops must outrank uniform ones: {:?}",
            l.ranking
        );
    }

    #[test]
    fn aggregate_only_telemetry_matches_the_pre_slot_localizer() {
        // Exports with empty slot series everywhere must reproduce the pure
        // depth normalization: boost = mean_depth / deepest.
        let mut report = HashMap::new();
        for i in 0..8u32 {
            report.insert(flow(i % 4, 4 + (i % 4), 6300 + i as u16), 20u64);
        }
        let agg = SwitchId { role: SwitchRole::Edge, index: 1 };
        let mut depth = BTreeMap::new();
        depth.insert(
            agg,
            chm_netsim::QueueDepthStat {
                max_depth: 100.0,
                mean_depth: 40.0,
                slot_drops: Vec::new(),
            },
        );
        let mut with_slots = Localizer::new(FatTree::testbed());
        let mut plain = Localizer::new(FatTree::testbed());
        let a = with_slots.observe_evidence(EpochEvidence {
            loss_report: &report,
            confidence: &HashMap::new(),
            traffic: &HashMap::new(),
            queue_depth: &depth,
        });
        let b = plain.observe_evidence(EpochEvidence {
            loss_report: &report,
            confidence: &HashMap::new(),
            traffic: &HashMap::new(),
            queue_depth: &depth,
        });
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_restore_reproduces_future_rankings() {
        let mut report = HashMap::new();
        let mut traffic = HashMap::new();
        for i in 0..16u32 {
            report.insert(flow(i % 8, (i + 3) % 8, 4200 + i as u16), 9 + i as u64);
            traffic.insert(flow((i + 2) % 8, (i + 5) % 8, 8200 + i as u16), 150u64);
        }
        let mut a = Localizer::new(FatTree::testbed());
        for _ in 0..3 {
            a.observe_epoch(&report, &traffic);
        }
        let snap = a.snapshot();
        let mut b = Localizer::new(FatTree::testbed());
        b.restore(&snap);
        assert_eq!(a.snapshot(), b.snapshot());
        for _ in 0..3 {
            let la = a.observe_epoch(&report, &traffic);
            let lb = b.observe_epoch(&report, &traffic);
            assert_eq!(la, lb, "restored localizer must track the original");
        }
    }

    /// A flow whose `key64` ignores its `tag`: flows that differ only in
    /// their tag share a sort key.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct Colliding {
        host: u8,
        tag: u8,
    }

    impl chm_common::FlowId for Colliding {
        const FRAGMENTS: usize = 1;
        fn fragment(&self, _: usize) -> u64 {
            (self.host as u64) << 8 | self.tag as u64
        }
        fn try_from_fragments(frags: &[u64]) -> Option<Self> {
            match *frags {
                [f] if f < 1 << 16 => Some(Colliding { host: (f >> 8) as u8, tag: f as u8 }),
                _ => None,
            }
        }
        fn key64(&self) -> u64 {
            self.host as u64
        }
    }

    impl Routable for Colliding {
        fn src_host(&self) -> usize {
            self.host as usize
        }
        fn dst_host(&self) -> usize {
            self.host as usize ^ 1
        }
    }

    #[test]
    fn colliding_keys_fold_in_flow_order_whatever_the_map_seed() {
        // Three intra-rack flows (one-switch routes) share a key. 2^53 + 1
        // + 1 rounds to 2^53 in one order and is exact in another, so the
        // fold order shows in the tables' bits.
        let big = 1u64 << 53;
        let victims = [(2, big), (0, 1), (1, 1)];
        let healthy = [(5, big), (3, 1), (4, 1)];
        let mut runs = Vec::new();
        // Every `HashMap::new()` draws its own hash seed, so each map
        // iterates the colliding flows in its own order.
        for _ in 0..16 {
            let mut report = HashMap::new();
            let mut traffic = HashMap::new();
            for &(tag, loss) in &victims {
                report.insert(Colliding { host: 2, tag }, loss);
            }
            for &(tag, w) in &healthy {
                traffic.insert(Colliding { host: 2, tag }, w);
            }
            let mut loc = Localizer::new(FatTree::testbed());
            let l = loc.observe_epoch(&report, &traffic);
            runs.push((l, loc.snapshot()));
        }
        let tor1 = SwitchId { role: SwitchRole::Edge, index: 1 };
        assert_eq!(runs[0].0.top(1), vec![tor1]);
        for (l, snap) in &runs[1..] {
            assert_eq!(*l, runs[0].0);
            let bits = |rows: &[(SwitchId, f64)]| {
                rows.iter().map(|&(s, v)| (s, v.to_bits())).collect::<Vec<_>>()
            };
            assert_eq!(bits(&snap.blame), bits(&runs[0].1.blame));
            assert_eq!(bits(&snap.transit), bits(&runs[0].1.transit));
        }
    }

    #[test]
    fn empty_report_decays_toward_silence() {
        let mut loc = Localizer::new(FatTree::testbed());
        let mut report = HashMap::new();
        report.insert(flow(0, 7, 99), 100u64);
        loc.observe_epoch(&report, &HashMap::new());
        let empty: HashMap<FiveTuple, u64> = HashMap::new();
        let mut l = loc.observe_epoch(&empty, &HashMap::new());
        for _ in 0..80 {
            l = loc.observe_epoch(&empty, &HashMap::new());
        }
        assert!(l.per_victim.is_empty());
        // Blame halves per epoch; after 80 silent epochs it is numerically
        // negligible (never asserted to hit exactly zero).
        assert!(l.ranking.iter().all(|&(_, b)| b < 1e-12), "{:?}", l.ranking);
    }
}
