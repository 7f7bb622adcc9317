//! The per-edge-switch data plane (§3.2): flow classifier, upstream flow
//! encoder (HH/HL/LL), downstream flow encoder (HL/LL), LL sampling, and the
//! two-group epoch rotation of Appendix B.
//!
//! Every packet entering the network at this switch passes
//! classifier → hierarchy decision → upstream encoder; the 2-bit hierarchy
//! tag travels in the packet header (ToS bits, §3.2.3) so the egress switch
//! can pick the right downstream encoder without a classifier of its own.

use crate::config::{DataPlaneConfig, RuntimeConfig};
use chm_common::hash::{BatchHasher, PairwiseHash};
use chm_common::FlowId;
use chm_fermat::FermatSketch;
use chm_tower::TowerSketch;

/// Flow hierarchy assigned by the classifier (§3.2.1): the 2-bit tag
/// carried in the packet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hierarchy {
    /// Classifier size ≥ `Th`.
    HhCandidate,
    /// `Tl ≤ size < Th`.
    HlCandidate,
    /// `size < Tl`, selected by the sampler.
    SampledLl,
    /// `size < Tl`, not selected — not encoded anywhere.
    NonSampledLl,
}

impl Hierarchy {
    /// Encodes into the 2 header bits.
    pub fn to_tag(self) -> u8 {
        match self {
            Hierarchy::HhCandidate => 0,
            Hierarchy::HlCandidate => 1,
            Hierarchy::SampledLl => 2,
            Hierarchy::NonSampledLl => 3,
        }
    }

    /// Decodes from the 2 header bits.
    pub fn from_tag(tag: u8) -> Self {
        match tag & 0b11 {
            0 => Hierarchy::HhCandidate,
            1 => Hierarchy::HlCandidate,
            2 => Hierarchy::SampledLl,
            _ => Hierarchy::NonSampledLl,
        }
    }
}

/// Hash-seed salts distinguishing encoder roles. All switches share these,
/// which makes same-role encoders addable/subtractable network-wide.
mod salt {
    pub const HH: u64 = 0x48_48;
    pub const HL: u64 = 0x48_4c;
    pub const LL: u64 = 0x4c_4c;
}

/// One group of sketches (one of the two epoch-rotated copies).
///
/// `PartialEq` compares full sketch state (every counter, IDsum lane and
/// port counter) — the sharded-vs-unsharded differential suites assert
/// whole-group equality at every shard count.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchGroup<F: FlowId> {
    /// The flow classifier.
    pub classifier: TowerSketch,
    /// Upstream HH encoder (`m_hh` buckets/array).
    pub up_hh: FermatSketch<F>,
    /// Upstream HL encoder (`m_hl`).
    pub up_hl: FermatSketch<F>,
    /// Upstream LL encoder (`m_ll`; zero-sized in the healthy state).
    pub up_ll: FermatSketch<F>,
    /// Downstream HL encoder (same geometry as upstream HL).
    pub down_hl: FermatSketch<F>,
    /// Downstream LL encoder (same geometry as upstream LL).
    pub down_ll: FermatSketch<F>,
    /// Packets that entered the network at this edge during the group's
    /// epoch — the switch's ingress port counter, collected alongside the
    /// sketches. With [`egress_pkts`](Self::egress_pkts) it surfaces the
    /// raw per-edge ingress/egress asymmetry (network-wide, ingress minus
    /// egress is the epoch's total loss) to operators and tests.
    pub ingress_pkts: u64,
    /// Packets that exited the network at this edge (fabric duplicates
    /// count twice, exactly as a real port counter would).
    pub egress_pkts: u64,
    /// The runtime configuration this group monitors under.
    pub runtime: RuntimeConfig,
}

impl<F: FlowId> SketchGroup<F> {
    fn new(cfg: &DataPlaneConfig, runtime: RuntimeConfig) -> Self {
        let p = runtime.partition;
        SketchGroup {
            classifier: TowerSketch::new(cfg.tower.clone()),
            up_hh: FermatSketch::new(cfg.fermat_for(p.m_hh, salt::HH)),
            up_hl: FermatSketch::new(cfg.fermat_for(p.m_hl, salt::HL)),
            up_ll: FermatSketch::new(cfg.fermat_for(p.m_ll, salt::LL)),
            down_hl: FermatSketch::new(cfg.fermat_for(p.m_hl, salt::HL)),
            down_ll: FermatSketch::new(cfg.fermat_for(p.m_ll, salt::LL)),
            ingress_pkts: 0,
            egress_pkts: 0,
            runtime,
        }
    }

    /// Zeroes the group for `runtime` in place: every sketch whose geometry
    /// already matches is `clear()`ed, and every sketch the partition
    /// resized — or a [`tombstone`](Self::tombstone)'s — is rebuilt. A
    /// cleared sketch equals a fresh one (its hashes derive from its
    /// configuration), so the result is exactly [`new`](Self::new)'s.
    fn reset(&mut self, cfg: &DataPlaneConfig, runtime: RuntimeConfig) {
        if *self.classifier.config() == cfg.tower {
            self.classifier.clear();
        } else {
            self.classifier = TowerSketch::new(cfg.tower.clone());
        }
        let p = runtime.partition;
        for (sketch, m, salt) in [
            (&mut self.up_hh, p.m_hh, salt::HH),
            (&mut self.up_hl, p.m_hl, salt::HL),
            (&mut self.up_ll, p.m_ll, salt::LL),
            (&mut self.down_hl, p.m_hl, salt::HL),
            (&mut self.down_ll, p.m_ll, salt::LL),
        ] {
            let want = cfg.fermat_for(m, salt);
            if *sketch.config() == want {
                sketch.clear();
            } else {
                *sketch = FermatSketch::new(want);
            }
        }
        self.ingress_pkts = 0;
        self.egress_pkts = 0;
        self.runtime = runtime;
    }

    /// A zero-memory stand-in installed by [`EdgeDataPlane::take_group`]
    /// while the real group is away; building it allocates nothing. Its
    /// classifier is [`TowerSketch::saturated`], so every ingress packet
    /// classifies as an HH candidate, whatever the runtime's thresholds,
    /// and reaches the zero-bucket `up_hh`, which panics: traffic arriving
    /// between the take and the epoch flip is a loud bug instead of silent
    /// data loss. Egress trusts the packet's tag: an HH, HL or sampled-LL
    /// tag reaches a zero-bucket downstream encoder and panics, while a
    /// non-sampled-LL tag encodes nothing at any group, so the tombstone
    /// only counts it in `egress_pkts`.
    fn tombstone(cfg: &DataPlaneConfig, runtime: RuntimeConfig) -> Self {
        SketchGroup {
            classifier: TowerSketch::saturated(),
            up_hh: FermatSketch::new(cfg.fermat_for(0, salt::HH)),
            up_hl: FermatSketch::new(cfg.fermat_for(0, salt::HL)),
            up_ll: FermatSketch::new(cfg.fermat_for(0, salt::LL)),
            down_hl: FermatSketch::new(cfg.fermat_for(0, salt::HL)),
            down_ll: FermatSketch::new(cfg.fermat_for(0, salt::LL)),
            ingress_pkts: 0,
            egress_pkts: 0,
            runtime,
        }
    }
}

/// A snapshot of one group, as collected by the controller after the epoch
/// it monitored ends.
pub type CollectedGroup<F> = SketchGroup<F>;

/// The data plane of one edge switch.
#[derive(Debug, Clone)]
pub struct EdgeDataPlane<F: FlowId> {
    cfg: DataPlaneConfig,
    /// groups[0] monitors even-timestamp epochs, groups[1] odd.
    groups: [SketchGroup<F>; 2],
    /// Reconfiguration staged by the controller; applied to a group when it
    /// flips from "collected" to "monitoring" (§4.3: "the reconfiguration
    /// will not function immediately, but in the next epoch").
    pending: Option<RuntimeConfig>,
    /// The sampler's hash (shared network-wide so ingress decisions are
    /// consistent; egress trusts the header tag anyway).
    sample_hash: PairwiseHash,
}

impl<F: FlowId> EdgeDataPlane<F> {
    /// Builds a data plane with the initial runtime configuration.
    pub fn new(cfg: DataPlaneConfig, runtime: RuntimeConfig) -> Self {
        cfg.validate().expect("invalid static config");
        runtime.validate(&cfg).expect("invalid runtime config");
        let sample_hash = PairwiseHash::from_seed(cfg.seed ^ 0x5a3b_1e00);
        let groups = [
            SketchGroup::new(&cfg, runtime),
            SketchGroup::new(&cfg, runtime),
        ];
        EdgeDataPlane { cfg, groups, pending: None, sample_hash }
    }

    /// The static configuration.
    pub fn config(&self) -> &DataPlaneConfig {
        &self.cfg
    }

    /// The group monitoring epochs with timestamp bit `ts`.
    pub fn group(&self, ts: u8) -> &SketchGroup<F> {
        &self.groups[(ts & 1) as usize]
    }

    fn group_mut(&mut self, ts: u8) -> &mut SketchGroup<F> {
        &mut self.groups[(ts & 1) as usize]
    }

    /// Classifies and encodes a packet entering the network here; returns
    /// the hierarchy for the header tag (§3.2.1–3.2.2).
    // chm-lint: hot
    pub fn on_ingress(&mut self, f: &F, ts: u8) -> Hierarchy {
        let key = f.key64();
        let sample16 = self.sample_hash.sample16(key) as u32;
        let g = self.group_mut(ts);
        g.ingress_pkts += 1;
        let size = g.classifier.insert_and_query(key);
        let rt = &g.runtime;
        let h = if size >= rt.th {
            Hierarchy::HhCandidate
        } else if size >= rt.tl {
            Hierarchy::HlCandidate
        } else if sample16 < rt.sample_threshold {
            Hierarchy::SampledLl
        } else {
            Hierarchy::NonSampledLl
        };
        let encoder = match h {
            Hierarchy::HhCandidate => &mut g.up_hh,
            Hierarchy::HlCandidate => &mut g.up_hl,
            Hierarchy::SampledLl => &mut g.up_ll,
            Hierarchy::NonSampledLl => return h,
        };
        encoder.insert_keyed(f, BatchHasher::new(key));
        h
    }

    /// Encodes a packet exiting the network here, per the carried tag.
    /// HH candidates are encoded into the **downstream HL encoder**
    /// (§3.2.3: "packets of HH candidates are also encoded into the
    /// downstream HL encoder").
    #[inline]
    // chm-lint: hot
    pub fn on_egress(&mut self, f: &F, ts: u8, h: Hierarchy) {
        self.on_egress_burst(f, ts, h, 1);
    }

    /// Classifies and encodes a **burst** of `n` consecutive packets of
    /// flow `f` entering the network here — the batched form of
    /// [`on_ingress`](Self::on_ingress), with identical resulting sketch
    /// state (see [`TowerSketch::insert_burst`]).
    ///
    /// Returns the burst's hierarchy segments **in packet order** (the
    /// classifier size is non-decreasing within a burst, so a burst always
    /// splits LL → HL → HH); segments with zero packets are included so the
    /// caller can index positionally. The egress switch replays the
    /// segments through [`on_egress_burst`](Self::on_egress_burst) with its
    /// delivered counts.
    // chm-lint: hot
    pub fn on_ingress_burst(&mut self, f: &F, ts: u8, n: u64) -> [(Hierarchy, u64); 3] {
        let key = f.key64();
        let sample16 = self.sample_hash.sample16(key) as u32;
        let g = self.group_mut(ts);
        g.ingress_pkts += n;
        let rt = &g.runtime;
        let (th, tl, sampled) = (rt.th, rt.tl, sample16 < rt.sample_threshold);
        let (n_ll, n_hl, n_hh) = g.classifier.insert_burst(key, n, tl, th);
        let n_ll_encoded = if sampled { n_ll } else { 0 };
        if n_hh + n_hl + n_ll_encoded > 0 {
            // One mix of the key serves every encoder this burst reaches.
            let bh = BatchHasher::new(key);
            let encoders = [
                (&mut g.up_hh, n_hh),
                (&mut g.up_hl, n_hl),
                (&mut g.up_ll, n_ll_encoded),
            ];
            for (encoder, packets) in encoders {
                if packets > 0 {
                    encoder.insert_weighted_keyed(f, bh, packets as i64);
                }
            }
        }
        let ll_tag = if sampled { Hierarchy::SampledLl } else { Hierarchy::NonSampledLl };
        [
            (ll_tag, n_ll),
            (Hierarchy::HlCandidate, n_hl),
            (Hierarchy::HhCandidate, n_hh),
        ]
    }

    /// Encodes `delivered` packets of one hierarchy segment exiting the
    /// network here — the batched form of [`on_egress`](Self::on_egress).
    #[inline]
    // chm-lint: hot
    pub fn on_egress_burst(&mut self, f: &F, ts: u8, h: Hierarchy, delivered: u64) {
        if delivered == 0 {
            return;
        }
        let g = self.group_mut(ts);
        g.egress_pkts += delivered;
        let encoder = match h {
            Hierarchy::HhCandidate | Hierarchy::HlCandidate => &mut g.down_hl,
            Hierarchy::SampledLl => &mut g.down_ll,
            Hierarchy::NonSampledLl => return,
        };
        encoder.insert_weighted_keyed(f, BatchHasher::new(f.key64()), delivered as i64);
    }

    /// Controller staging: the next flip applies this runtime to the group
    /// that begins monitoring.
    pub fn stage_runtime(&mut self, rt: RuntimeConfig) {
        rt.validate(&self.cfg).expect("invalid staged runtime");
        self.pending = Some(rt);
    }

    /// Collects (snapshots) the group that monitored epochs with timestamp
    /// `ts` by **cloning** — the inspection-friendly path for tests and
    /// offline analysis. The epoch body borrows the group instead
    /// ([`group`](Self::group)) and the flip clears it in place.
    pub fn collect_group(&self, ts: u8) -> CollectedGroup<F> {
        self.group(ts).clone()
    }

    /// Hands the caller **ownership** of the group that monitored timestamp
    /// `ts`, leaving a zero-memory tombstone in its place — no sketch is
    /// copied. For callers that must keep a group past the flip (the repo
    /// benchmark's stage-by-stage pass, inspection); the epoch body
    /// borrows instead. The take allocates nothing. The caller must
    /// [`flip`](Self::flip) before traffic with this timestamp bit arrives
    /// again (every ingress into the tombstone panics, see
    /// [`SketchGroup`]'s tombstone); the flip rebuilds the tombstone's
    /// classifier and every encoder the staged runtime gives buckets, and
    /// allocates exactly what those fresh sketches hold.
    pub fn take_group(&mut self, ts: u8) -> CollectedGroup<F> {
        let slot = (ts & 1) as usize;
        let rt = self.groups[slot].runtime;
        std::mem::replace(&mut self.groups[slot], SketchGroup::tombstone(&self.cfg, rt))
    }

    /// Epoch flip: the group that monitored timestamp `ended_ts` has been
    /// collected; reset it, and install any staged reconfiguration on
    /// **both** groups — the other group is empty (it was collected and
    /// reset at the previous flip) and begins monitoring the next epoch
    /// right now, which is exactly when the paper's updated table entries
    /// (matching the next timestamp value) start functioning (§4.3, §D.2).
    ///
    /// Allocation discipline: a group is zeroed in place under one rule —
    /// every sketch whose geometry matches the staged runtime is cleared,
    /// every sketch the partition resized is rebuilt. The ended group is
    /// always zeroed (a [`take_group`](Self::take_group) tombstone's
    /// zero-memory classifier matches no configuration, and its zero-bucket
    /// encoders match only a zero-size partition, so all but those are
    /// rebuilt); the idle group only when the staged
    /// runtime actually changed. A steady-state flip therefore allocates
    /// nothing, and a reconfiguring one only the encoders whose size moved.
    ///
    /// The idle group is usually empty at the flip (it was collected and
    /// reset one epoch ago), but **clock skew legitimately violates that**:
    /// an edge whose clock lags stamps early next-epoch packets with the
    /// next timestamp bit, landing them in the idle group before the flip
    /// (Appendix B). Those early packets are preserved when the runtime is
    /// unchanged and wiped when a reconfiguration rewrites the group — the
    /// same fate a real table rewrite hands them.
    pub fn flip(&mut self, ended_ts: u8) {
        let rt = self.pending.take().unwrap_or(self.group(ended_ts).runtime);
        let ended = (ended_ts & 1) as usize;
        let other = 1 - ended;
        self.groups[ended].reset(&self.cfg, rt);
        if self.groups[other].runtime != rt {
            self.groups[other].reset(&self.cfg, rt);
        }
    }
}

/// The data plane as a measurement site — the one hook boundary both replay
/// drivers cross: `chm_netsim::ShardedReplay` hands each shard the sites it
/// owns, the serial `Simulator` indexes the same slice through
/// [`chm_netsim::SiteArray`].
///
/// The 2-bit wire tag is the [`Hierarchy`] encoding of §3.2.3; ingress
/// returns it, egress decodes it — exactly the ToS-field contract between a
/// real ingress and egress pipeline.
impl<F: FlowId> chm_netsim::EdgeSite<F> for EdgeDataPlane<F> {
    // chm-lint: hot
    fn site_ingress(&mut self, f: &F, ts_bit: u8) -> u8 {
        self.on_ingress(f, ts_bit).to_tag()
    }

    // chm-lint: hot
    fn site_egress(&mut self, f: &F, ts_bit: u8, tag: u8) {
        self.on_egress(f, ts_bit, Hierarchy::from_tag(tag));
    }

    // chm-lint: hot
    fn site_ingress_burst(&mut self, f: &F, ts_bit: u8, pkts: u64) -> [(u8, u64); 3] {
        self.on_ingress_burst(f, ts_bit, pkts).map(|(h, n)| (h.to_tag(), n))
    }

    // chm-lint: hot
    fn site_egress_burst(&mut self, f: &F, ts_bit: u8, tag: u8, delivered: u64) {
        self.on_egress_burst(f, ts_bit, Hierarchy::from_tag(tag), delivered);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Partition;

    fn dp(seed: u64) -> EdgeDataPlane<u32> {
        let cfg = DataPlaneConfig::small(seed);
        let rt = RuntimeConfig::initial(&cfg);
        EdgeDataPlane::new(cfg, rt)
    }

    #[test]
    fn tag_roundtrip() {
        for h in [
            Hierarchy::HhCandidate,
            Hierarchy::HlCandidate,
            Hierarchy::SampledLl,
            Hierarchy::NonSampledLl,
        ] {
            assert_eq!(Hierarchy::from_tag(h.to_tag()), h);
        }
    }

    #[test]
    fn initial_state_classifies_everything_hh() {
        // Th = 1: every flow's first packet already reaches size 1 ≥ Th.
        let mut d = dp(1);
        let h = d.on_ingress(&42, 0);
        assert_eq!(h, Hierarchy::HhCandidate);
        let r = d.group(0).up_hh.decode();
        assert_eq!(r.flows.get(&42), Some(&1));
    }

    #[test]
    fn thresholds_route_to_hierarchies() {
        let cfg = DataPlaneConfig::small(2);
        let mut rt = RuntimeConfig::initial(&cfg);
        rt.partition = Partition { m_hh: 128, m_hl: 320, m_ll: 64 };
        rt.th = 10;
        rt.tl = 3;
        let mut d = EdgeDataPlane::<u32>::new(cfg, rt);
        // Packets 1-2: size < 3 -> LL (sampled; rate 1.0).
        assert_eq!(d.on_ingress(&7, 0), Hierarchy::SampledLl);
        assert_eq!(d.on_ingress(&7, 0), Hierarchy::SampledLl);
        // Packets 3-9: HL candidate.
        for _ in 3..10 {
            assert_eq!(d.on_ingress(&7, 0), Hierarchy::HlCandidate);
        }
        // Packet 10+: HH candidate.
        assert_eq!(d.on_ingress(&7, 0), Hierarchy::HhCandidate);
        let g = d.group(0);
        assert_eq!(g.up_ll.decode().flows.get(&7), Some(&2));
        assert_eq!(g.up_hl.decode().flows.get(&7), Some(&7));
        assert_eq!(g.up_hh.decode().flows.get(&7), Some(&1));
    }

    #[test]
    fn sampling_threshold_zero_drops_all_ll() {
        let cfg = DataPlaneConfig::small(3);
        let mut rt = RuntimeConfig::initial(&cfg);
        rt.partition = Partition { m_hh: 128, m_hl: 320, m_ll: 64 };
        rt.th = 100;
        rt.tl = 100; // everything below 100 is LL
        rt.sample_threshold = 0; // sample nothing
        let mut d = EdgeDataPlane::<u32>::new(cfg, rt);
        for f in 0..50u32 {
            assert_eq!(d.on_ingress(&f, 0), Hierarchy::NonSampledLl);
        }
        assert!(d.group(0).up_ll.is_zero());
    }

    #[test]
    fn egress_routes_hh_to_down_hl() {
        let mut d = dp(4);
        d.on_egress(&9, 0, Hierarchy::HhCandidate);
        d.on_egress(&9, 0, Hierarchy::HlCandidate);
        let g = d.group(0);
        assert_eq!(g.down_hl.decode().flows.get(&9), Some(&2));
        assert!(g.down_ll.is_zero());
    }

    #[test]
    fn groups_are_isolated_by_timestamp() {
        let mut d = dp(5);
        d.on_ingress(&1, 0);
        d.on_ingress(&2, 1);
        assert_eq!(d.group(0).up_hh.decode().flows.len(), 1);
        assert_eq!(d.group(1).up_hh.decode().flows.len(), 1);
        assert!(d.group(0).up_hh.decode().flows.contains_key(&1));
        assert!(d.group(1).up_hh.decode().flows.contains_key(&2));
    }

    #[test]
    fn flip_clears_and_applies_staged_runtime() {
        let mut d = dp(6);
        d.on_ingress(&1, 0);
        let cfg = d.config().clone();
        let mut rt = RuntimeConfig::initial(&cfg);
        rt.th = 77;
        d.stage_runtime(rt);
        d.flip(0);
        assert!(d.group(0).up_hh.is_zero(), "group must be reset");
        assert_eq!(d.group(0).runtime.th, 77, "staged config must apply");
        // The idle group starts monitoring the next epoch under the new
        // configuration too (next-epoch semantics, §4.3).
        assert_eq!(d.group(1).runtime.th, 77);
    }

    #[test]
    fn burst_ingress_is_equivalent_to_per_packet() {
        // The burst path must leave the data plane in exactly the state the
        // per-packet path produces, for every threshold regime.
        let cfg = DataPlaneConfig::small(11);
        for (th, tl, sample_threshold) in
            [(1u64, 1u64, 65_536u32), (10, 3, 65_536), (10, 3, 0), (100, 100, 20_000)]
        {
            let mut rt = RuntimeConfig::initial(&cfg);
            rt.partition = Partition { m_hh: 128, m_hl: 320, m_ll: 64 };
            rt.th = th;
            rt.tl = tl;
            rt.sample_threshold = sample_threshold;
            let mut per_packet = EdgeDataPlane::<u32>::new(cfg.clone(), rt);
            let mut burst = EdgeDataPlane::<u32>::new(cfg.clone(), rt);
            for round in 0..40u32 {
                for f in 0..25u32 {
                    let n = 1 + ((f as u64 + round as u64) % 9);
                    let mut tags = Vec::new();
                    for _ in 0..n {
                        tags.push(per_packet.on_ingress(&f, 0));
                    }
                    let segs = burst.on_ingress_burst(&f, 0, n);
                    // Segment view must match the per-packet tag sequence.
                    let flat: Vec<Hierarchy> = segs
                        .iter()
                        .flat_map(|&(h, c)| std::iter::repeat_n(h, c as usize))
                        .collect();
                    assert_eq!(tags, flat, "f={f} n={n} th={th} tl={tl}");
                    // Egress: drop the first packet of each burst.
                    for (i, &h) in tags.iter().enumerate() {
                        if i > 0 {
                            per_packet.on_egress(&f, 0, h);
                        }
                    }
                    let mut pos = 0u64;
                    for &(h, c) in &segs {
                        let dropped = u64::from(pos == 0 && c > 0);
                        burst.on_egress_burst(&f, 0, h, c - dropped);
                        pos += c;
                    }
                }
            }
            let (a, b) = (per_packet.group(0), burst.group(0));
            assert_eq!(a.classifier, b.classifier, "classifier th={th} tl={tl}");
            assert_eq!(a.up_hh, b.up_hh, "up_hh");
            assert_eq!(a.up_hl, b.up_hl, "up_hl");
            assert_eq!(a.up_ll, b.up_ll, "up_ll");
            assert_eq!(a.down_hl, b.down_hl, "down_hl");
            assert_eq!(a.down_ll, b.down_ll, "down_ll");
        }
    }

    #[test]
    fn take_group_hands_over_ownership_without_copying() {
        let mut d = dp(9);
        d.on_ingress(&5, 0);
        let taken = d.take_group(0);
        assert_eq!(taken.up_hh.decode().flows.get(&5), Some(&1));
        // The tombstone left behind holds nothing and has zero encoder
        // memory; the flip rebuilds a real group.
        assert!(d.group(0).up_hh.is_zero());
        assert_eq!(d.group(0).up_hh.config().buckets_per_array, 0);
        d.flip(0);
        assert!(d.group(0).up_hh.config().buckets_per_array > 0);
        let h = d.on_ingress(&6, 0);
        assert_eq!(h, Hierarchy::HhCandidate);
    }

    /// Every packet that reaches a tombstone is refused loudly, under the
    /// initial runtime (`Th = 1`, where every packet is an HH candidate
    /// anyway) and under an ill runtime whose thresholds would make most
    /// packets non-sampled LLs that touch no encoder; egress refuses every
    /// tag that encodes, and only counts a non-sampled LL. The flip then
    /// restores a group equal to a fresh plane's under the same traffic.
    #[test]
    fn every_packet_into_a_tombstone_panics_until_the_flip() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let cfg = DataPlaneConfig::small(3);
        let mut ill = RuntimeConfig::initial(&cfg);
        ill.partition = cfg.ill_partition;
        ill.th = 50;
        ill.tl = 10;
        ill.sample_threshold = 8192;
        for rt in [RuntimeConfig::initial(&cfg), ill] {
            let mut d = EdgeDataPlane::<u32>::new(cfg.clone(), rt);
            for f in 0..200u32 {
                d.on_ingress(&f, 0);
            }
            drop(d.take_group(0));
            for f in 0..200u32 {
                let ingress = catch_unwind(AssertUnwindSafe(|| d.on_ingress(&f, 0)));
                assert!(ingress.is_err(), "{rt:?}: flow {f} entered a tombstone");
                let burst = catch_unwind(AssertUnwindSafe(|| d.on_ingress_burst(&f, 0, 3)));
                assert!(
                    burst.is_err(),
                    "{rt:?}: a burst of flow {f} entered a tombstone"
                );
            }
            for h in [
                Hierarchy::HhCandidate,
                Hierarchy::HlCandidate,
                Hierarchy::SampledLl,
            ] {
                let egress = catch_unwind(AssertUnwindSafe(|| d.on_egress(&7, 0, h)));
                assert!(
                    egress.is_err(),
                    "{rt:?}: a {h:?} packet left through a tombstone"
                );
            }
            let counted = d.group(0).egress_pkts;
            d.on_egress_burst(&7, 0, Hierarchy::NonSampledLl, 4);
            assert_eq!(d.group(0).egress_pkts, counted + 4);

            d.flip(0);
            let mut fresh = EdgeDataPlane::<u32>::new(cfg.clone(), rt);
            for plane in [&mut d, &mut fresh] {
                for f in 0..200u32 {
                    for (h, n) in plane.on_ingress_burst(&f, 0, 1 + u64::from(f % 60)) {
                        plane.on_egress_burst(&f, 0, h, n);
                    }
                }
            }
            assert_eq!(
                d.group(0),
                fresh.group(0),
                "{rt:?}: the flip restores encoding"
            );
        }
    }

    #[test]
    fn take_then_flip_matches_collect_then_flip() {
        // The zero-clone path must be observationally identical to the
        // cloning path.
        let mut a = dp(10);
        let mut b = dp(10);
        for f in 0..50u32 {
            a.on_ingress(&f, 0);
            b.on_ingress(&f, 0);
        }
        let via_take = a.take_group(0);
        let via_clone = b.collect_group(0);
        assert_eq!(
            via_take.up_hh.decode().flows,
            via_clone.up_hh.decode().flows
        );
        a.flip(0);
        b.flip(0);
        assert_eq!(a.group(0).runtime, b.group(0).runtime);
        assert!(a.group(0).up_hh.is_zero() && b.group(0).up_hh.is_zero());
    }

    /// The in-place flip against the rebuilding one: plane `a` flips with
    /// its ended group in place, plane `b` takes it first (the tombstone
    /// path, which rebuilds every sketch with buckets). Staged runtimes go healthy →
    /// grown → ill → thresholds only → healthy, so partitions resize both
    /// ways, and a lagging clock lands early packets in the idle group.
    #[test]
    fn in_place_flip_matches_the_rebuilding_flip() {
        let cfg = DataPlaneConfig::small(12);
        let initial = RuntimeConfig::initial(&cfg);
        let mut grown = initial;
        grown.partition = Partition { m_hh: 320, m_hl: 192, m_ll: 0 };
        grown.th = 6;
        let mut ill = grown;
        ill.partition = cfg.ill_partition;
        ill.tl = 6;
        ill.set_sample_rate(0.5);
        let mut ill_tl = ill;
        ill_tl.tl = 4;
        let staged = [initial, grown, grown, ill, ill, ill_tl, initial, initial];
        let mut a = EdgeDataPlane::<u32>::new(cfg.clone(), initial);
        let mut b = a.clone();
        for (epoch, rt) in (0u32..).zip(staged) {
            let ts = (epoch & 1) as u8;
            let before = a.group(ts).runtime;
            for d in [&mut a, &mut b] {
                for f in 0..300u32 {
                    for (h, n) in d.on_ingress_burst(&(f ^ epoch), ts, 1 + u64::from(f % 17)) {
                        d.on_egress_burst(&(f ^ epoch), ts, h, n - u64::from(n > 0 && f % 7 == 0));
                    }
                }
                // Early next-epoch packets from a lagging clock.
                for f in 0..20u32 {
                    d.on_ingress(&(f + 1000), 1 - ts);
                }
            }
            let ended = a.collect_group(ts);
            a.stage_runtime(rt);
            a.flip(ts);
            assert_eq!(b.take_group(ts), ended, "epoch {epoch}: same traffic");
            b.stage_runtime(rt);
            b.flip(ts);
            for g in [0, 1] {
                assert_eq!(a.group(g), b.group(g), "epoch {epoch}, group {g}");
                assert_eq!(a.group(g).runtime, rt, "epoch {epoch}, group {g}");
            }
            assert!(a.group(ts).up_hh.is_zero() && a.group(ts).ingress_pkts == 0);
            let idle = a.group(1 - ts);
            if rt == before {
                assert_eq!(idle.ingress_pkts, 20, "epoch {epoch}: early packets kept");
            } else {
                assert_eq!(idle.ingress_pkts, 0, "epoch {epoch}: early packets wiped");
                assert!(idle.up_hh.is_zero() && idle.up_hl.is_zero() && idle.up_ll.is_zero());
            }
        }
    }

    #[test]
    fn upstream_downstream_encoders_are_compatible_across_switches() {
        // Two different switches, same config: their HL encoders must be
        // addable/subtractable (identical hash functions & geometry).
        let a = dp(7);
        let b = dp(7);
        assert!(a.group(0).up_hl.compatible(&b.group(0).down_hl));
    }

    #[test]
    fn loss_detection_end_to_end_single_switch() {
        let mut d = dp(8);
        // 100 flows × 5 packets; flows 0..10 lose 2 packets each.
        for f in 0..100u32 {
            for i in 0..5 {
                let h = d.on_ingress(&f, 0);
                let dropped = f < 10 && i < 2;
                if !dropped {
                    d.on_egress(&f, 0, h);
                }
            }
        }
        let g = d.collect_group(0);
        // Healthy initial config: everything is a HH candidate; reinsert HH
        // flowset into up_hl, then delta = up_hl - down_hl.
        let hh = g.up_hh.decode();
        assert!(hh.success);
        let mut up_hl = g.up_hl.clone();
        for (f, c) in &hh.flows {
            up_hl.insert_weighted(f, *c);
        }
        up_hl.sub_assign_sketch(&g.down_hl);
        let delta = up_hl.decode();
        assert!(delta.success);
        assert_eq!(delta.flows.len(), 10);
        for (f, lost) in delta.flows {
            assert!(f < 10);
            assert_eq!(lost, 2);
        }
    }
}
