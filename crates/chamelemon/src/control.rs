//! The ChameleMon control plane (§4): collection analysis, the seven
//! measurement tasks' inputs, and — the heart of the paper — the
//! attention-shifting state machine of §4.3.
//!
//! Every epoch the controller:
//! 1. decodes each switch's upstream HH encoder (HH flowsets);
//! 2. re-inserts decoded HH flows into the upstream HL encoders, builds the
//!    cumulative upstream/downstream HL and LL encoders across switches,
//!    subtracts, and decodes the **delta** encoders — whose flowsets are the
//!    victim flows (§4.2 "Packet loss detection");
//! 3. estimates the real-time network state (#flows, flow-size
//!    distribution, #victim flows) with linear counting + MRAC fallbacks;
//! 4. reconfigures the data plane — memory division, `Th`, `Tl`, sample
//!    rate — targeting ~70% load factor on every Fermat encoder, moving
//!    between the **healthy** and **ill** network states (§4.3.1–4.3.2).

use crate::config::{DataPlaneConfig, Partition, RuntimeConfig};
use crate::dataplane::{CollectedGroup, EdgeDataPlane};
use crate::localize::{
    EpochEvidence, Localization, Localizer, LocalizerSnapshot, PARTIAL_DECODE_CONFIDENCE,
};
use chm_common::hash::PairwiseHash;
use chm_common::FlowId;
use chm_fermat::{DecodeResult, DecodeScratch, FermatSketch};
use chm_netsim::sim::Routable;
use chm_netsim::{QueueDepthStat, SwitchId, Topology};
use chm_obs::SpanProfiler;
use chm_tower::{MracConfig, MracScratch};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};

/// How a caller profiles [`Controller::close_epoch`]: the span tree (the
/// body's spans nest under its open span), the injected clock (`&mut ||
/// 0.0` outside the bench harness) and a reader of the process-global
/// allocation counter (`&|| 0` when nobody counts).
pub struct EpochProbe<'a> {
    pub spans: &'a mut SpanProfiler,
    pub clock: &'a mut dyn FnMut() -> f64,
    pub allocs: &'a dyn Fn() -> u64,
}

/// One epoch closed by [`Controller::close_epoch`]. The ended groups are
/// not in it: they were analyzed where they lie and zeroed by the flip, so
/// a caller that keeps them clones them first
/// ([`EdgeDataPlane::collect_group`]).
pub struct ClosedEpoch<F: FlowId> {
    /// The analysis of the groups whose report arrived.
    pub analysis: EpochAnalysis<F>,
    /// The runtime staged on every edge; it functions from the next epoch.
    pub staged: RuntimeConfig,
    /// `None` unless localization is enabled.
    pub localization: Option<Localization<F>>,
    /// Probed only: analyze + decide on the probe's clock (Figure 20).
    pub response_time_s: Option<f64>,
    /// Probed only: allocations of collect, analyze, reconfigure, localize.
    pub stage_allocs: [u64; 4],
}

/// Load-factor targets (§4.3: reconfigure toward 70%, act below 60%).
pub const TARGET_LOAD: f64 = 0.70;
/// Low-water mark under which encoders are compressed / thresholds relaxed.
pub const LOW_LOAD: f64 = 0.60;

/// The two network states (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkState {
    /// All victim flows can be monitored with the available memory.
    Healthy,
    /// Victim flows exceed capacity: monitor HLs, sample LLs.
    Ill,
}

/// The controller's evolving decision state, exported by
/// [`Controller::snapshot`] and re-imported by [`Controller::restore`].
///
/// Holds exactly the state that is *not* derivable from the static
/// [`DataPlaneConfig`]: the deployed runtime, the healthy/ill belief, the
/// blocklist of HL sizes that failed to decode, and (when localization is
/// enabled) the localizer's EWMA tables. `failed_hl_sizes` is kept sorted
/// so two snapshots of identical controllers compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerSnapshot {
    /// Runtime configuration deployed at snapshot time.
    pub deployed: RuntimeConfig,
    /// Network-state belief (§4.3) at snapshot time.
    pub state: NetworkState,
    /// Sorted HL partition sizes that previously failed to decode.
    pub failed_hl_sizes: Vec<usize>,
    /// Localizer tables, present iff localization was enabled.
    pub localizer: Option<LocalizerSnapshot>,
}

/// The controller's decoded view of one epoch.
#[derive(Debug, Clone)]
pub struct EpochAnalysis<F> {
    /// Per-switch decoded HH flowsets (flow → packets recorded in the HH
    /// encoder, i.e. estimated size − Th).
    pub hh_flowsets: Vec<HashMap<F, i64>>,
    /// Whether **all** upstream HH encoders decoded.
    pub hh_decode_ok: bool,
    /// Decoded delta-HL flowset (victims among HH/HL candidates), `None` on
    /// decode failure.
    pub hl_flowset: Option<HashMap<F, i64>>,
    /// Decoded delta-LL flowset (sampled light losses), `None` on failure
    /// (also `None` when the LL encoders have zero memory).
    pub ll_flowset: Option<HashMap<F, i64>>,
    /// Packet loss detection output: victim flow → estimated lost packets
    /// (sum of its HL- and LL-flowset sizes, §4.2). When the delta HL
    /// encoder fails to fully decode, flows peeled before the stall are
    /// still reported if the fully-decoded upstream HH flowsets attest
    /// they exist; the residual 2-core is recovered after the controller
    /// resizes the encoder for the next epoch.
    pub loss_report: HashMap<F, u64>,
    /// Estimated number of flows per switch (linear counting on the
    /// classifier).
    pub est_flows_per_switch: Vec<f64>,
    /// Estimated flows network-wide (sum over ingress switches).
    pub est_flows: f64,
    /// Estimated number of HLs (decoded count, or linear counting on the
    /// delta HL encoder when decoding fails).
    pub est_hls: f64,
    /// Estimated number of sampled LLs (decoded or linear-counted).
    pub est_lls: f64,
    /// Estimated number of victim flows network-wide.
    pub est_victims: f64,
    /// Network-wide flow-size distribution estimate (`dist[s]` ≈ #flows of
    /// size `s`), the element-wise sum of the reporting edges'
    /// [`TowerSketch::flow_size_distribution`](chm_tower::TowerSketch::flow_size_distribution)s:
    /// it ends at the largest size any edge's estimate lands on (empty when
    /// none does), and every size past it is estimated at zero flows.
    pub flow_size_dist: Vec<f64>,
    /// Victim flow-size distribution (ill state; from sampled victims).
    pub victim_size_dist: Option<Vec<f64>>,
    /// Per-edge ingress port counters, in collection order. With
    /// [`edge_egress`](Self::edge_egress) this surfaces the raw per-edge
    /// asymmetry for operators and tests: on a duplication-free fabric,
    /// ingress sum − egress sum is exactly the epoch's loss; fabric
    /// duplicates traverse egress twice (as a real port counter would
    /// count them), so under duplication the egress sum can exceed the
    /// ingress sum. The localization pass itself ranks switches from the
    /// decoded flowsets.
    pub edge_ingress: Vec<u64>,
    /// Per-edge egress port counters, in collection order.
    pub edge_egress: Vec<u64>,
    /// The runtime configuration this epoch was monitored under.
    pub runtime: RuntimeConfig,
    /// The network state the controller believed during this epoch.
    pub state_during: NetworkState,
    /// How many switches' collected groups actually reached the controller
    /// this epoch. On a lossy control channel this can be fewer than the
    /// deployment's switch count — `0` means the controller flew blind and
    /// [`Controller::reconfigure`] keeps the deployed runtime unchanged.
    pub switches_reporting: usize,
}

impl<F: FlowId> EpochAnalysis<F> {
    /// Number of HH candidates decoded at switch `i` (Figure 7(b) plots
    /// switch 0).
    pub fn hh_count(&self, i: usize) -> usize {
        self.hh_flowsets.get(i).map(|m| m.len()).unwrap_or(0)
    }

    /// Decoded HLs in the network.
    pub fn hl_count(&self) -> usize {
        self.hl_flowset.as_ref().map(|m| m.len()).unwrap_or(0)
    }

    /// Decoded sampled LLs in the network.
    pub fn ll_count(&self) -> usize {
        self.ll_flowset.as_ref().map(|m| m.len()).unwrap_or(0)
    }

    /// Total decoded flows across HH (all switches) + HL + LL flowsets —
    /// the "number of decoded flows" series of Figures 7(b)/8(b).
    pub fn total_decoded(&self) -> usize {
        self.hh_flowsets.iter().map(|m| m.len()).sum::<usize>()
            + self.hl_count()
            + self.ll_count()
    }

    /// The epoch's decode verdict: every encoder that had memory decoded —
    /// HH at every reporting switch, and each delta encoder whose partition
    /// was non-empty. A blind analysis (no report arrived) has
    /// `hh_decode_ok == false`, so it is never fully decoded.
    pub fn fully_decoded(&self) -> bool {
        let p = self.runtime.partition;
        self.hh_decode_ok
            && (p.m_hl == 0 || self.hl_flowset.is_some())
            && (p.m_ll == 0 || self.ll_flowset.is_some())
    }
}

/// The central controller.
#[derive(Debug, Clone)]
pub struct Controller<F: FlowId> {
    cfg: DataPlaneConfig,
    deployed: RuntimeConfig,
    state: NetworkState,
    sample_hash: PairwiseHash,
    mrac: MracConfig,
    /// HL-encoder sizes whose delta decode failed. The failure mode is a
    /// full-array hash collision, which with fixed per-salt seeds is
    /// deterministic in (bucket count, flow set) — so under stationary
    /// traffic, redeploying one of these sizes would fail identically.
    /// The resize logic steps past them.
    failed_hl_sizes: std::collections::HashSet<usize>,
    /// Reusable decode workspace: every epoch's sketch decodes run through
    /// this scratch, so the controller never clones a sketch to decode it
    /// and its peeling allocations persist across epochs.
    scratch: RefCell<DecodeScratch<F>>,
    /// Reusable MRAC workspace, for the same reason: the per-edge
    /// flow-size-distribution estimates of every epoch run through it, and
    /// are staged in it until they are added into the epoch's distribution.
    mrac_scratch: RefCell<MracScratch>,
    /// Cross-epoch victim-localization state, present once
    /// [`enable_localization`](Self::enable_localization) gave the
    /// controller the fabric topology.
    localizer: Option<Localizer>,
    _f: std::marker::PhantomData<F>,
}

/// Runs `body` — unprobed, as is; probed, under the span `name` below the
/// open span, adding its allocations to `allocs`. The stages of
/// [`Controller::close_epoch`] and the blocks of the analysis inside them
/// are all spanned through it.
fn span<'p, R>(
    probe: &mut Option<EpochProbe<'p>>,
    name: &str,
    allocs: &mut u64,
    body: impl FnOnce(&mut Option<EpochProbe<'p>>) -> R,
) -> R {
    let a0 = probe.as_mut().map(|p| {
        let a0 = (p.allocs)();
        p.spans.enter(name, p.clock);
        a0
    });
    let r = body(probe);
    if let (Some(p), Some(a0)) = (probe.as_mut(), a0) {
        p.spans.exit(p.clock);
        *allocs += (p.allocs)() - a0;
    }
    r
}

/// Decodes `sketch` through the shared scratch and records the decode twice:
/// as `decode/{label}` and under its occupancy class (`decode/sparse` or
/// `decode/loaded`, [`chm_fermat::DecodeStats`]). The label is formatted
/// only when the pass is profiled.
fn decode_spanned<F: FlowId>(
    sketch: &FermatSketch<F>,
    scratch: &mut DecodeScratch<F>,
    probe: &mut Option<EpochProbe<'_>>,
    label: std::fmt::Arguments<'_>,
) -> DecodeResult<F> {
    let t0 = probe.as_mut().map(|p| (p.clock)());
    let r = sketch.decode_with(scratch);
    if let (Some(p), Some(t0)) = (probe.as_mut(), t0) {
        let dur = (p.clock)() - t0;
        p.spans.record(&["decode", &label.to_string()], dur);
        let class = if scratch.last_stats.sparse { "sparse" } else { "loaded" };
        p.spans.record(&["decode", class], dur);
    }
    r
}

/// The cumulative delta encoder of §4.2 — every edge's upstream sketch plus
/// the decoded HH flows in `reinsert` (empty when they must not be
/// re-inserted), minus every edge's downstream sketch — folded into one
/// accumulator. Counts are plain `i64` adds and the ID/fingerprint lanes
/// canonical residues mod p, so the order of the folds does not show in the
/// result.
fn delta_encoder<F: FlowId>(
    collected: &[&CollectedGroup<F>],
    up: impl Fn(&CollectedGroup<F>) -> &FermatSketch<F>,
    down: impl Fn(&CollectedGroup<F>) -> &FermatSketch<F>,
    reinsert: &[HashMap<F, i64>],
) -> FermatSketch<F> {
    let mut delta = up(collected[0]).clone();
    for g in &collected[1..] {
        delta.add_assign_sketch(up(g));
    }
    for hh in reinsert {
        // chm-lint: allow(map-iter-order, "sketch insertion is commutative counter addition mod p; final sketch state is independent of insert order")
        for (f, c) in hh {
            delta.insert_weighted(f, *c);
        }
    }
    for g in collected {
        delta.sub_assign_sketch(down(g));
    }
    delta
}

impl<F: FlowId> Controller<F> {
    /// Creates a controller for switches running `cfg`, starting in the
    /// healthy state with the initial runtime.
    pub fn new(cfg: DataPlaneConfig) -> Self {
        let deployed = RuntimeConfig::initial(&cfg);
        let sample_hash = PairwiseHash::from_seed(cfg.seed ^ 0x5a3b_1e00);
        Controller {
            cfg,
            deployed,
            state: NetworkState::Healthy,
            sample_hash,
            mrac: MracConfig::realtime(),
            failed_hl_sizes: std::collections::HashSet::new(),
            scratch: RefCell::new(DecodeScratch::new()),
            mrac_scratch: RefCell::new(MracScratch::default()),
            localizer: None,
            _f: std::marker::PhantomData,
        }
    }

    /// Gives the controller the fabric topology, enabling the per-epoch
    /// victim-localization pass
    /// ([`localize_with_telemetry`](Self::localize_with_telemetry)).
    pub fn enable_localization(&mut self, topology: impl Into<Topology>) {
        self.localizer = Some(Localizer::new(topology));
    }

    /// The localization pass: folds this epoch's decoded evidence — victim
    /// loss estimates (blame) and every decoded HH flow's estimated size
    /// (transit/exoneration) — into the cross-epoch tables and ranks
    /// candidate drop switches for every victim (see [`crate::localize`]).
    /// Returns `None` until
    /// [`enable_localization`](Self::enable_localization) is called.
    ///
    /// Call once per epoch, after [`analyze_epoch`](Self::analyze_epoch) —
    /// on a blind epoch (empty analysis) the tables simply decay.
    ///
    /// Per-switch queue-depth exports (INT/queue-occupancy counters, e.g.
    /// [`EpochReport::queue_depth`](chm_netsim::sim::EpochReport); an empty
    /// map when the fabric exports none) boost the suspicion of switches
    /// that buffered heavily this epoch. Blame is weighted by decode
    /// confidence: victims recovered from a *partial* delta-HL decode (the
    /// encoder stalled; the flow is only HH-attested) count at
    /// [`PARTIAL_DECODE_CONFIDENCE`] instead of 1.0, so an epoch of shaky
    /// decodes cannot swing the ranking as hard as a clean one.
    pub fn localize_with_telemetry(
        &mut self,
        a: &EpochAnalysis<F>,
        queue_depth: &BTreeMap<SwitchId, QueueDepthStat>,
    ) -> Option<Localization<F>>
    where
        F: Routable,
    {
        let localizer = self.localizer.as_mut()?;
        // The decoded HH flowsets are the controller's traffic sample: the
        // flow existed, crossed its route, and its recorded count plus Th
        // estimates its size (§4.2). Healthy ones exonerate their routes.
        let th = a.runtime.th;
        let mut traffic: HashMap<F, u64> =
            HashMap::with_capacity(a.hh_flowsets.iter().map(|fs| fs.len()).sum());
        for fs in &a.hh_flowsets {
            for (f, &q) in fs {
                let est = th + q.max(0) as u64;
                let e = traffic.entry(*f).or_insert(0);
                *e = (*e).max(est);
            }
        }
        // Decode confidence: when the delta-HL decode stalled, every
        // reported victim the fully-decoded LL flowset cannot vouch for
        // came from the partial peel — discount it.
        let mut confidence: HashMap<F, f64> = HashMap::new();
        if a.hl_flowset.is_none() {
            confidence.reserve(a.loss_report.len());
            // chm-lint: allow(map-iter-order, "each key is inserted once with the same constant; the resulting map is order-independent as a value")
            for f in a.loss_report.keys() {
                let ll_attested = a
                    .ll_flowset
                    .as_ref()
                    .is_some_and(|ll| ll.contains_key(f));
                if !ll_attested {
                    confidence.insert(*f, PARTIAL_DECODE_CONFIDENCE);
                }
            }
        }
        Some(localizer.observe_evidence(EpochEvidence {
            loss_report: &a.loss_report,
            confidence: &confidence,
            traffic: &traffic,
            queue_depth,
        }))
    }

    /// Nearest size to `m` not on the failed-size list: steps up toward
    /// `m_df` first; if the cap itself has failed, steps down toward
    /// `min_hl_buckets` instead — any change of modulus re-randomizes the
    /// bucket mapping, which is what breaks the collision.
    fn step_past_failed_hl(&self, m: usize) -> usize {
        let mut up = m;
        while self.failed_hl_sizes.contains(&up) && up < self.cfg.m_df {
            up += 1;
        }
        if !self.failed_hl_sizes.contains(&up) {
            return up;
        }
        let mut down = m;
        while self.failed_hl_sizes.contains(&down) && down > self.cfg.min_hl_buckets {
            down -= 1;
        }
        down
    }

    /// The runtime configuration currently deployed on the switches.
    pub fn deployed_runtime(&self) -> &RuntimeConfig {
        &self.deployed
    }

    /// Force-redeploys `rt` as the current runtime without consulting an
    /// analysis — the degraded-mode control a supervising runtime
    /// (`chm-serve`'s watchdog) uses to pin the last-known-good
    /// configuration while decodes are stalled. The network-state belief
    /// and the failed-size blocklist are untouched, so normal
    /// [`reconfigure`](Self::reconfigure) resumes cleanly afterwards.
    ///
    /// # Panics
    /// If `rt` is not valid under this controller's static configuration.
    pub fn hold_runtime(&mut self, rt: RuntimeConfig) {
        rt.validate(&self.cfg).expect("held runtime must be valid");
        self.deployed = rt;
    }

    /// Exports the controller's evolving decision state — everything that
    /// is not a pure function of the static [`DataPlaneConfig`] — for
    /// persistence. [`restore`](Self::restore) onto a freshly built
    /// controller (same config, localization enabled the same way)
    /// reproduces every future analysis, reconfiguration, and localization
    /// bit for bit: the decode scratch is reusable workspace, and the
    /// sample hash and MRAC settings derive from the config.
    pub fn snapshot(&self) -> ControllerSnapshot {
        let mut failed: Vec<usize> = self.failed_hl_sizes.iter().copied().collect();
        failed.sort_unstable();
        ControllerSnapshot {
            deployed: self.deployed,
            state: self.state,
            failed_hl_sizes: failed,
            localizer: self.localizer.as_ref().map(|l| l.snapshot()),
        }
    }

    /// Restores a [`snapshot`](Self::snapshot). The controller must have
    /// been built with the same static configuration; if the snapshot
    /// carries localizer tables, localization must already be enabled
    /// (the topology is not part of the snapshot).
    ///
    /// # Panics
    /// If the snapshot's runtime is invalid under this controller's static
    /// configuration, or if it carries localizer state while localization
    /// is not enabled.
    pub fn restore(&mut self, snap: &ControllerSnapshot) {
        snap.deployed
            .validate(&self.cfg)
            .expect("snapshot runtime must be valid for this config");
        self.deployed = snap.deployed;
        self.state = snap.state;
        // chm-lint: allow(map-iter-order, "iterates the snapshot's sorted Vec -- same field name as the controller's set -- and rebuilds a HashSet, whose insertion order is immaterial")
        self.failed_hl_sizes = snap.failed_hl_sizes.iter().copied().collect();
        match (&mut self.localizer, &snap.localizer) {
            (Some(l), Some(ls)) => l.restore(ls),
            (_, None) => {}
            (None, Some(_)) => {
                panic!("snapshot has localizer state but localization is not enabled")
            }
        }
    }

    /// The controller's current belief about the network state.
    pub fn state(&self) -> NetworkState {
        self.state
    }

    /// Closes `epoch` after its replay — the one epoch body of §4.3 that
    /// every driver runs: **collect** the group that monitored `epoch` from
    /// every edge whose report `arrived` (`None`: all) by borrowing it in
    /// place, in edge order, **analyze** those groups, **reconfigure** —
    /// `decide` the next runtime (usually [`Controller::reconfigure`]),
    /// stage it on every edge and flip, which zeroes each ended group in
    /// place ([`EdgeDataPlane::flip`]) — and **localize** with the
    /// switches' `queue_depth` exports. No group is moved or copied, so a
    /// steady-state epoch body allocates no sketch memory.
    ///
    /// With a `probe`, each stage gets a span and an allocation count.
    /// Inside `analyze`, every Fermat decode records `decode/edge_{i}`,
    /// `decode/delta_hl` or `decode/delta_ll`, and `decode/sparse` or
    /// `decode/loaded` ([`chm_fermat::DecodeStats`]); the blocks between
    /// them record `cardinality`, `fsd`, `delta_hl_build`, `delta_ll_build`
    /// and `victims`. Under the zero clock every duration stays `0.0` while
    /// the counts accumulate deterministically.
    pub fn close_epoch(
        &mut self,
        edges: &mut [EdgeDataPlane<F>],
        epoch: u64,
        arrived: Option<&[bool]>,
        queue_depth: &BTreeMap<SwitchId, QueueDepthStat>,
        decide: impl FnOnce(&mut Self, &EpochAnalysis<F>) -> RuntimeConfig,
        mut probe: Option<EpochProbe<'_>>,
    ) -> ClosedEpoch<F>
    where
        F: Routable,
    {
        assert!(arrived.is_none_or(|m| m.len() == edges.len()), "one arrival flag per edge");
        let ts_bit = (epoch & 1) as u8;
        let mut allocs = [0u64; 4];
        let collected: Vec<&CollectedGroup<F>> = span(&mut probe, "collect", &mut allocs[0], |_| {
            let arrived = |i: usize| arrived.is_none_or(|m| m[i]);
            let edges = edges.iter().enumerate().filter(|&(i, _)| arrived(i));
            edges.map(|(_, e)| e.group(ts_bit)).collect()
        });
        let t_analyze = probe.as_mut().map(|p| (p.clock)());
        let analysis = span(&mut probe, "analyze", &mut allocs[1], |probe| {
            self.analyze_epoch_inner(&collected, probe)
        });
        let mut t_decided = None;
        let staged = span(&mut probe, "reconfigure", &mut allocs[2], |probe| {
            let staged = decide(self, &analysis);
            t_decided = probe.as_mut().map(|p| (p.clock)());
            for e in edges.iter_mut() {
                e.stage_runtime(staged);
                e.flip(ts_bit);
            }
            staged
        });
        let localization = span(&mut probe, "localize", &mut allocs[3], |_| {
            self.localize_with_telemetry(&analysis, queue_depth)
        });
        ClosedEpoch {
            analysis,
            staged,
            localization,
            response_time_s: t_analyze.zip(t_decided).map(|(t0, t1)| t1 - t0),
            stage_allocs: allocs,
        }
    }

    /// §4.2 packet loss detection + §4.3 network-state monitoring over the
    /// collected groups of the edge switches whose reports arrived.
    ///
    /// Tolerant to a lossy control channel: `collected` may hold any subset
    /// of the deployment's switches. With a partial subset the analysis
    /// proceeds on what arrived (flows egressing at a missing switch then
    /// surface as spurious victims — the honest degradation a lost report
    /// causes); with an *empty* subset the controller returns a blind
    /// analysis (`switches_reporting == 0`, nothing decoded, estimates
    /// zero) and [`reconfigure`](Self::reconfigure) leaves the deployed
    /// runtime untouched.
    pub fn analyze_epoch(&self, collected: &[CollectedGroup<F>]) -> EpochAnalysis<F> {
        let groups: Vec<&CollectedGroup<F>> = collected.iter().collect();
        self.analyze_epoch_inner(&groups, &mut None)
    }

    fn analyze_epoch_inner(
        &self,
        collected: &[&CollectedGroup<F>],
        probe: &mut Option<EpochProbe<'_>>,
    ) -> EpochAnalysis<F> {
        if collected.is_empty() {
            return EpochAnalysis {
                hh_flowsets: Vec::new(),
                hh_decode_ok: false,
                hl_flowset: None,
                ll_flowset: None,
                loss_report: HashMap::new(),
                est_flows_per_switch: Vec::new(),
                est_flows: 0.0,
                est_hls: 0.0,
                est_lls: 0.0,
                est_victims: 0.0,
                flow_size_dist: Vec::new(),
                victim_size_dist: None,
                edge_ingress: Vec::new(),
                edge_egress: Vec::new(),
                runtime: self.deployed,
                state_during: self.state,
                switches_reporting: 0,
            };
        }
        let scratch = &mut *self.scratch.borrow_mut();
        let runtime = collected[0].runtime;

        // --- flows & flow-size distribution per switch -------------------
        let (est_flows_per_switch, est_flows) = span(probe, "cardinality", &mut 0, |_| {
            let per_switch: Vec<f64> =
                collected.iter().map(|g| g.classifier.cardinality_estimate()).collect();
            let est_flows: f64 = per_switch.iter().sum();
            (per_switch, est_flows)
        });

        // --- decode upstream HH encoders ---------------------------------
        let mut hh_flowsets = Vec::with_capacity(collected.len());
        let mut hh_decode_ok = true;
        for (i, g) in collected.iter().enumerate() {
            if g.runtime.partition.m_hh == 0 {
                hh_flowsets.push(HashMap::new());
                continue;
            }
            let r = decode_spanned(&g.up_hh, scratch, probe, format_args!("edge_{i}"));
            if !r.success {
                hh_decode_ok = false;
            }
            hh_flowsets.push(r.flows);
        }

        // Aggregate flow-size distribution (classifier MRAC + HH tail): every
        // edge's estimate is staged in edge order, then added into a
        // distribution allocated once, at the length the estimates end at.
        let flow_size_dist = span(probe, "fsd", &mut 0, |_| {
            let mrac_scratch = &mut *self.mrac_scratch.borrow_mut();
            let mut tail: Vec<u64> = Vec::new();
            for (g, hh) in collected.iter().zip(&hh_flowsets) {
                tail.clear();
                // chm-lint: allow(map-iter-order, "the tail is a multiset: its entries are staged as 1.0 terms added to integer-valued bins, exact in any order")
                tail.extend(hh.values().map(|&q| runtime.th + q.max(0) as u64));
                g.classifier.stage_flow_sizes(&tail, &self.mrac, mrac_scratch);
            }
            let mut dist = Vec::new();
            mrac_scratch.add_staged_into(&mut dist);
            dist
        });

        // --- delta HL encoder ---------------------------------------------
        // If any HH decode failed we cannot re-insert; monitoring stops for
        // the HL path (§4.3.1), but we still estimate counts.
        let p = runtime.partition;
        let mut delta_hl: Option<FermatSketch<F>> = None;
        if p.m_hl > 0 {
            let reinsert: &[HashMap<F, i64>] = if hh_decode_ok { &hh_flowsets } else { &[] };
            delta_hl = Some(span(probe, "delta_hl_build", &mut 0, |_| {
                delta_encoder(collected, |g| &g.up_hl, |g| &g.down_hl, reinsert)
            }));
        }
        // On a failed decode the flows peeled before the stall are still
        // verified extractions (pure-bucket test + negative-flow
        // cancellation, §A.2) — only the residual 2-core is unrecoverable.
        // Keep them for the loss report; `hl_flowset = None` still signals
        // the reconfiguration logic that the encoder needs more memory.
        let mut hl_partial: HashMap<F, i64> = HashMap::new();
        let (hl_flowset, est_hls) = match &delta_hl {
            Some(delta) if hh_decode_ok => {
                let r = decode_spanned(delta, scratch, probe, format_args!("delta_hl"));
                if r.success {
                    let n = r.flows.len() as f64;
                    (Some(r.flows), n)
                } else {
                    hl_partial = r.flows;
                    (None, delta.linear_count(0))
                }
            }
            Some(delta) => (None, delta.linear_count(0)),
            None => (None, 0.0),
        };

        // --- delta LL encoder ---------------------------------------------
        let mut delta_ll: Option<FermatSketch<F>> = None;
        if p.m_ll > 0 {
            delta_ll = Some(span(probe, "delta_ll_build", &mut 0, |_| {
                delta_encoder(collected, |g| &g.up_ll, |g| &g.down_ll, &[])
            }));
        }
        let (ll_flowset, est_lls) = match &delta_ll {
            Some(delta) => {
                let r = decode_spanned(delta, scratch, probe, format_args!("delta_ll"));
                if r.success {
                    let n = r.flows.len() as f64;
                    (Some(r.flows), n)
                } else {
                    (None, delta.linear_count(0))
                }
            }
            None => (None, 0.0),
        };

        // --- loss report (§4.2) -------------------------------------------
        // Full decodes report as-is. A *partial* HL decode may contain a
        // false extraction whose cancelling negative twin is stuck in the
        // undecoded residue, so partial flows are reported only when the
        // fully-decoded upstream HH flowsets attest the flow exists (sound:
        // a successful FermatSketch decode is exact). Partial LL flows have
        // no such witness and are never reported.
        let mut loss_report: HashMap<F, u64> = HashMap::new();
        match &hl_flowset {
            Some(hl) => {
                for (f, c) in hl {
                    if *c > 0 {
                        *loss_report.entry(*f).or_insert(0) += *c as u64;
                    }
                }
            }
            None => {
                // chm-lint: allow(map-iter-order, "integer += accumulation into per-flow entries commutes; the loss report is order-independent as a value")
                for (f, c) in &hl_partial {
                    if *c > 0 && hh_flowsets.iter().any(|m| m.contains_key(f)) {
                        *loss_report.entry(*f).or_insert(0) += *c as u64;
                    }
                }
            }
        }
        if let Some(ll) = &ll_flowset {
            for (f, c) in ll {
                if *c > 0 {
                    *loss_report.entry(*f).or_insert(0) += *c as u64;
                }
            }
        }

        // --- victim estimates (§4.3.2 "Monitoring real-time network state")
        let rate = runtime.sample_rate();
        let (est_victims, victim_size_dist) = span(probe, "victims", &mut 0, |_| match self.state {
            NetworkState::Healthy => (est_hls, None),
            NetworkState::Ill => {
                match (&hl_flowset, &ll_flowset) {
                    (Some(hl), Some(ll)) => {
                        // Sample the HLs with the same method/rate as LLs,
                        // merge with sampled LLs, scale by the rate.
                        let sampled_hls: Vec<&F> = hl
                            .keys()
                            .filter(|f| {
                                (self.sample_hash.sample16(f.key64()) as u32)
                                    < runtime.sample_threshold
                            })
                            .collect();
                        let mut sampled: Vec<&F> = sampled_hls;
                        for f in ll.keys() {
                            if !hl.contains_key(f) {
                                sampled.push(f);
                            }
                        }
                        let est = if rate > 0.0 {
                            sampled.len() as f64 / rate
                        } else {
                            0.0
                        };
                        let dist = self.victim_distribution(collected, sampled.iter().copied());
                        (est, Some(dist))
                    }
                    (None, Some(ll)) => {
                        // HL decode failed: use the sampled-LL distribution.
                        let est = if rate > 0.0 {
                            est_hls + ll.len() as f64 / rate
                        } else {
                            est_hls
                        };
                        let dist = self.victim_distribution(collected, ll.keys());
                        (est, Some(dist))
                    }
                    _ => {
                        let est = if rate > 0.0 { est_hls + est_lls / rate } else { est_hls };
                        (est, None)
                    }
                }
            }
        });

        EpochAnalysis {
            hh_flowsets,
            hh_decode_ok,
            hl_flowset,
            ll_flowset,
            loss_report,
            est_flows_per_switch,
            est_flows,
            est_hls,
            est_lls,
            est_victims,
            flow_size_dist,
            victim_size_dist,
            edge_ingress: collected.iter().map(|g| g.ingress_pkts).collect(),
            edge_egress: collected.iter().map(|g| g.egress_pkts).collect(),
            runtime,
            state_during: self.state,
            switches_reporting: collected.len(),
        }
    }

    /// Flow-size distribution of a set of (victim) flows, via classifier
    /// queries (§4.3.2). A flow is only inserted at its ingress switch, so
    /// we take the max over switches of the (min-)query.
    fn victim_distribution<'a>(
        &self,
        collected: &[&CollectedGroup<F>],
        flows: impl Iterator<Item = &'a F>,
    ) -> Vec<f64>
    where
        F: 'a,
    {
        let mut dist = vec![0.0; 16];
        for f in flows {
            let size = collected
                .iter()
                .map(|g| g.classifier.query_clamped(f.key64()))
                .max()
                .unwrap_or(0) as usize;
            if size >= dist.len() {
                dist.resize(size + 1, 0.0);
            }
            dist[size] += 1.0;
        }
        dist
    }

    /// §4.3 "Reconfiguring ChameleMon data plane". Consumes the analysis and
    /// returns the runtime configuration for the next epoch, updating the
    /// controller's network-state belief.
    pub fn reconfigure(&mut self, a: &EpochAnalysis<F>) -> RuntimeConfig {
        if a.switches_reporting == 0 {
            // Every report was lost this epoch: no evidence to act on.
            // Redeploy the current runtime unchanged rather than reacting
            // to the blind analysis's zeroed estimates.
            return self.deployed;
        }
        let rt = match self.state {
            NetworkState::Healthy => self.reconfigure_healthy(a),
            NetworkState::Ill => self.reconfigure_ill(a),
        };
        rt.validate(&self.cfg).expect("controller produced invalid runtime");
        self.deployed = rt;
        rt
    }

    // ------------------------------------------------------------------
    // Healthy network state (§4.3.1)
    // ------------------------------------------------------------------
    fn reconfigure_healthy(&mut self, a: &EpochAnalysis<F>) -> RuntimeConfig {
        let mut rt = self.deployed;
        let d = self.cfg.arrays as f64;
        let flows_sw = max_or_zero(&a.est_flows_per_switch);

        // Step 1: ensure the upstream HH encoders decode.
        if !a.hh_decode_ok {
            let cap = TARGET_LOAD * rt.partition.m_hh as f64 * d;
            let new_th = threshold_for_target(&a.flow_size_dist, flows_sw, cap);
            rt.th = new_th.max(rt.th + 1); // "turns up Th"
            rt.tl = rt.tl.min(rt.th);
            // Decoding of the delta HL encoder could not proceed: stop.
            return rt;
        }

        // Step 2: delta HL decoding / memory utilization.
        match &a.hl_flowset {
            None => {
                // This size just failed to decode under live traffic;
                // remember it so resizing never lands on it again.
                self.failed_hl_sizes.insert(a.runtime.partition.m_hl);
                let required_total = a.est_hls / TARGET_LOAD; // buckets (m·d)
                let max_total = self.cfg.m_df as f64 * d;
                if required_total > max_total {
                    // Healthy → Ill transition.
                    self.state = NetworkState::Ill;
                    rt.partition = self.cfg.ill_partition;
                    rt.tl = rt.th.max(2); // Tl = Th (must exceed 1 in ill state)
                    rt.th = rt.th.max(rt.tl);
                    let ll_cap = TARGET_LOAD * self.cfg.ill_partition.m_ll as f64 * d;
                    // Assume each HL will be a LL (§4.3.1 step 2).
                    rt.set_sample_rate(ll_cap / a.est_hls.max(1.0));
                    return self.finish_with_th(rt, a);
                }
                // Expand the HL encoders to the required memory — and
                // always *strictly* grow: the estimate can claim the
                // current size suffices when the failure was a rare
                // all-arrays collision (the (1/m)^{d-1} 2-core), and
                // redeploying the same `m` would retry the identical
                // mapping every epoch. Growing changes the modulus, which
                // re-randomizes the mapping and breaks the collision.
                let grown = rt.partition.m_hl + (rt.partition.m_hl / 2).max(1);
                let new_m_hl = self.step_past_failed_hl(
                    ((required_total / d).ceil() as usize)
                        .max(grown)
                        .clamp(self.cfg.min_hl_buckets, self.cfg.m_df),
                );
                rt.partition = Partition {
                    m_hh: self.cfg.m_uf - new_m_hl,
                    m_hl: new_m_hl,
                    m_ll: 0,
                };
            }
            Some(hl) => {
                let load = hl.len() as f64 / (rt.partition.m_hl as f64 * d);
                if load < LOW_LOAD {
                    // Compress toward 70%, but keep the reserved minimum —
                    // and never compress onto a size that failed to decode.
                    let new_m_hl = self.step_past_failed_hl(
                        ((hl.len() as f64 / TARGET_LOAD / d).ceil() as usize)
                            .clamp(self.cfg.min_hl_buckets, self.cfg.m_df),
                    );
                    rt.partition = Partition {
                        m_hh: self.cfg.m_uf - new_m_hl,
                        m_hl: new_m_hl,
                        m_ll: 0,
                    };
                }
            }
        }

        self.finish_with_th(rt, a)
    }

    // ------------------------------------------------------------------
    // Ill network state (§4.3.2)
    // ------------------------------------------------------------------
    fn reconfigure_ill(&mut self, a: &EpochAnalysis<F>) -> RuntimeConfig {
        let mut rt = self.deployed;
        let d = self.cfg.arrays as f64;
        let flows_sw = max_or_zero(&a.est_flows_per_switch);

        // Step 1a: HH encoders must decode.
        if !a.hh_decode_ok {
            let cap = TARGET_LOAD * rt.partition.m_hh as f64 * d;
            let new_th = threshold_for_target(&a.flow_size_dist, flows_sw, cap);
            rt.th = new_th.max(rt.th + 1);
            rt.tl = rt.tl.min(rt.th);
            return rt;
        }
        // Step 1b: delta LL encoder must decode.
        if a.ll_flowset.is_none() && rt.partition.m_ll > 0 {
            let cap = TARGET_LOAD * rt.partition.m_ll as f64 * d;
            // est_lls is the linear-counting estimate of *sampled* LLs under
            // the current rate; rescale the rate toward the capacity.
            if a.est_lls > 0.0 {
                let new_rate = rt.sample_rate() * cap / a.est_lls;
                rt.set_sample_rate(new_rate.min(1.0));
            }
            return rt;
        }

        // Step 2: delta HL encoder must decode — turn up Tl.
        if a.hl_flowset.is_none() {
            let cap = TARGET_LOAD * rt.partition.m_hl as f64 * d;
            let dist = a
                .victim_size_dist
                .as_deref()
                .unwrap_or(&a.flow_size_dist);
            let new_tl = threshold_for_target(dist, a.est_victims, cap);
            rt.tl = new_tl.max(rt.tl + 1).min(rt.th);
            return self.finish_with_th(rt, a);
        }

        // Step 3: both delta encoders decoded.
        let hl_load = a.hl_count() as f64 / (rt.partition.m_hl as f64 * d);
        let ll_load = if rt.partition.m_ll > 0 {
            a.ll_count() as f64 / (rt.partition.m_ll as f64 * d)
        } else {
            TARGET_LOAD
        };
        let required_total = a.est_victims / TARGET_LOAD;
        let max_total = self.cfg.m_df as f64 * d;
        if required_total <= max_total {
            // Ill → Healthy transition: eliminate LL encoders, give the
            // required memory (≥ reserved minimum) to the HL encoders.
            self.state = NetworkState::Healthy;
            let new_m_hl = self.step_past_failed_hl(
                ((required_total / d).ceil() as usize)
                    .clamp(self.cfg.min_hl_buckets, self.cfg.m_df),
            );
            rt.partition = Partition {
                m_hh: self.cfg.m_uf - new_m_hl,
                m_hl: new_m_hl,
                m_ll: 0,
            };
            rt.tl = 1;
            rt.sample_threshold = 65_536;
            return self.finish_with_th(rt, a);
        }
        // Still ill: keep utilization high.
        if hl_load < LOW_LOAD {
            // Admit more HLs: tune Tl toward 70% HL load using the victim
            // size distribution. Damped — Tl at most halves per epoch — so
            // estimation noise in the sampled victim distribution cannot
            // make Tl overshoot down, overload the HL encoder, and
            // oscillate.
            let cap = TARGET_LOAD * rt.partition.m_hl as f64 * d;
            let dist = a
                .victim_size_dist
                .as_deref()
                .unwrap_or(&a.flow_size_dist);
            let new_tl = threshold_for_target(dist, a.est_victims, cap);
            rt.tl = new_tl.max(rt.tl / 2).clamp(2, rt.th);
        }
        if ll_load < LOW_LOAD && rt.partition.m_ll > 0 {
            let cap = TARGET_LOAD * rt.partition.m_ll as f64 * d;
            // Unsampled LLs ≈ sampled/rate; pick the rate that fills the cap.
            let rate = rt.sample_rate();
            if rate > 0.0 && a.est_lls > 0.0 {
                let unsampled = a.est_lls / rate;
                rt.set_sample_rate((cap / unsampled).min(1.0));
            }
        }

        self.finish_with_th(rt, a)
    }

    /// Final step of both states: keep the upstream HH encoders' expected
    /// load in [60%, 70%] by tuning `Th` (§4.3.1 step 3 / §4.3.2 step 4).
    fn finish_with_th(&self, mut rt: RuntimeConfig, a: &EpochAnalysis<F>) -> RuntimeConfig {
        let d = self.cfg.arrays as f64;
        if rt.partition.m_hh == 0 {
            return rt;
        }
        let cap = rt.partition.m_hh as f64 * d;
        let hh_sw = a
            .hh_flowsets
            .iter()
            .map(|m| m.len())
            .max()
            .unwrap_or(0) as f64;
        let expected_load = hh_sw / cap;
        if !(LOW_LOAD..=TARGET_LOAD).contains(&expected_load) {
            let flows_sw = max_or_zero(&a.est_flows_per_switch);
            let new_th =
                threshold_for_target(&a.flow_size_dist, flows_sw, TARGET_LOAD * cap);
            rt.th = new_th.max(rt.tl).max(1);
        }
        rt
    }
}

/// Largest element or 0 for empty slices.
fn max_or_zero(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// The smallest threshold `t ≥ 1` such that the expected number of flows of
/// size ≥ `t` — `n_flows · P(size ≥ t)` under `dist` — is at most
/// `target_count`. `dist` is an absolute histogram; it is normalized
/// internally.
///
/// Both passes stop at the histogram's support, its last non-zero entry:
/// the zero tail adds nothing to the total, and every tail threshold has
/// the same expected count, so one test stands for all of them.
pub fn threshold_for_target(dist: &[f64], n_flows: f64, target_count: f64) -> u64 {
    let support = dist.iter().rposition(|&x| x != 0.0).map_or(0, |i| i + 1);
    let total: f64 = dist[..support].iter().sum();
    if total <= 0.0 || n_flows <= 0.0 {
        return 1;
    }
    let within = |surv: f64| n_flows * surv / total <= target_count;
    // Survival function from the top. Past the support it is zero, so
    // every threshold there passes or fails together.
    let mut best = dist.len() as u64; // worst case: above the whole histogram
    if support < dist.len() {
        if !within(0.0) {
            return best;
        }
        best = support as u64;
    }
    let mut surv = 0.0;
    for t in (1..support).rev() {
        surv += dist[t];
        if within(surv) {
            best = t as u64;
        } else {
            break;
        }
    }
    best.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chm_netsim::FatTree;

    #[test]
    fn threshold_for_target_basics() {
        // 100 flows: 90 of size 1, 9 of size 10, 1 of size 100.
        let mut dist = vec![0.0; 101];
        dist[1] = 90.0;
        dist[10] = 9.0;
        dist[100] = 1.0;
        // Want at most 10 candidates => threshold 2 (sizes >= 2: 10 flows).
        assert_eq!(threshold_for_target(&dist, 100.0, 10.0), 2);
        // Want at most 1 candidate => threshold 11.
        assert_eq!(threshold_for_target(&dist, 100.0, 1.0), 11);
        // Want everything => threshold 1.
        assert_eq!(threshold_for_target(&dist, 100.0, 1000.0), 1);
        // Impossible target => beyond the histogram.
        assert_eq!(threshold_for_target(&dist, 100.0, 0.5), 101);
    }

    #[test]
    fn threshold_for_target_degenerate() {
        assert_eq!(threshold_for_target(&[], 100.0, 10.0), 1);
        assert_eq!(threshold_for_target(&[0.0, 5.0], 0.0, 10.0), 1);
    }

    /// The search as it was before it stopped at the support: sums and
    /// walks the whole histogram.
    fn threshold_for_target_full_walk(dist: &[f64], n_flows: f64, target_count: f64) -> u64 {
        let total: f64 = dist.iter().sum();
        if total <= 0.0 || n_flows <= 0.0 {
            return 1;
        }
        let mut surv = 0.0;
        let mut best = dist.len() as u64;
        for t in (1..dist.len()).rev() {
            surv += dist[t];
            let expected = n_flows * surv / total;
            if expected <= target_count {
                best = t as u64;
            } else {
                break;
            }
        }
        best.max(1)
    }

    #[test]
    fn threshold_for_target_matches_the_full_walk() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x7a12);
        let specials = [f64::NAN, f64::INFINITY, -1.0, -0.0, 0.0, 0.5];
        let mut dists: Vec<Vec<f64>> = vec![
            vec![],
            vec![0.0],
            vec![0.0; 64],
            vec![-0.0; 9],
            vec![3.0],
            vec![0.0, 0.0, 2.0],
            vec![5.0, 0.0, 0.0, 0.0],
            vec![0.0, f64::NAN, 0.0, 0.0],
            vec![1.0, -1.0, 0.0],
        ];
        for _ in 0..400 {
            let support = rng.gen_range(0..40usize);
            let tail = rng.gen_range(0..40usize);
            let mut d: Vec<f64> = (0..support)
                .map(|_| match rng.gen_range(0..6) {
                    0 | 1 => 0.0,
                    2 => rng.gen_range(0..5) as f64,
                    _ => rng.gen_range(0.0..1e4),
                })
                .collect();
            d.extend(std::iter::repeat_n(0.0, tail));
            dists.push(d);
        }
        for dist in &dists {
            let total: f64 = dist.iter().sum();
            let mut n_flows = vec![rng.gen_range(0.0..1e5), 1.0, 0.0, -5.0];
            let mut targets = vec![rng.gen_range(0.0..1e3), 0.0, total, 1e9];
            n_flows.extend(specials);
            targets.extend(specials);
            for &n in &n_flows {
                for &target in &targets {
                    assert_eq!(
                        threshold_for_target(dist, n, target),
                        threshold_for_target_full_walk(dist, n, target),
                        "dist {dist:?}, n_flows {n}, target {target}"
                    );
                }
            }
        }
    }

    /// `fully_decoded` against the expression the scenario scorer, the serve
    /// runtime and the profile harness each spelled out before it existed.
    #[test]
    fn fully_decoded_truth_table() {
        let c: Controller<u64> = Controller::new(DataPlaneConfig::small(7));
        let spelled_out = |a: &EpochAnalysis<u64>| {
            let rt = a.runtime;
            a.switches_reporting > 0
                && a.hh_decode_ok
                && (rt.partition.m_hl == 0 || a.hl_flowset.is_some())
                && (rt.partition.m_ll == 0 || a.ll_flowset.is_some())
        };
        let blind = c.analyze_epoch(&[]);
        let mut all_ok = c.analyze_epoch(&[]);
        all_ok.switches_reporting = 4;
        all_ok.hh_decode_ok = true;
        all_ok.runtime.partition = Partition { m_hh: 32, m_hl: 16, m_ll: 8 };
        all_ok.hl_flowset = Some(HashMap::new());
        all_ok.ll_flowset = Some(HashMap::new());
        let case = |edit: &dyn Fn(&mut EpochAnalysis<u64>)| {
            let mut a = all_ok.clone();
            edit(&mut a);
            a
        };
        for (name, a, want) in [
            ("blind", blind, false),
            ("everything decoded", all_ok.clone(), true),
            ("HH stalled", case(&|a| a.hh_decode_ok = false), false),
            ("HL stalled with memory", case(&|a| a.hl_flowset = None), false),
            ("LL stalled with memory", case(&|a| a.ll_flowset = None), false),
            (
                "m_hl == 0: nothing to decode",
                case(&|a| {
                    a.runtime.partition.m_hl = 0;
                    a.hl_flowset = None;
                }),
                true,
            ),
            (
                "m_ll == 0: nothing to decode",
                case(&|a| {
                    a.runtime.partition.m_ll = 0;
                    a.ll_flowset = None;
                }),
                true,
            ),
        ] {
            assert_eq!(a.fully_decoded(), want, "{name}");
            assert_eq!(a.fully_decoded(), spelled_out(&a), "{name}: left the old expression");
        }
    }

    /// The folded delta encoder equals the clone chain it replaced — each
    /// edge's upstream HL sketch cloned and given that edge's decoded HH
    /// flows, the clones summed, a separately summed downstream subtracted —
    /// on four edges with traffic in every hierarchy and losses in between.
    #[test]
    fn folded_delta_equals_the_clone_chain() {
        use crate::dataplane::EdgeDataPlane;
        let cfg = DataPlaneConfig::small(0xde17a);
        let mut rt = RuntimeConfig::initial(&cfg);
        rt.partition = crate::Partition { m_hh: 256, m_hl: 192, m_ll: 64 };
        rt.th = 12;
        rt.tl = 4;
        let mut edges: Vec<EdgeDataPlane<u64>> =
            (0..4).map(|_| EdgeDataPlane::new(cfg.clone(), rt)).collect();
        for f in 0..400u64 {
            let (src, dst) = ((f % 4) as usize, ((f / 4 + 1) % 4) as usize);
            let pkts = 1 + f % 40;
            let mut pos = 0;
            for (h, len) in edges[src].on_ingress_burst(&f, 0, pkts) {
                // Every third packet of every third flow is lost.
                let lost = if f % 3 == 0 { (pos + len) / 3 - pos / 3 } else { 0 };
                edges[dst].on_egress_burst(&f, 0, h, len - lost);
                pos += len;
            }
        }
        let collected: Vec<CollectedGroup<u64>> =
            edges.iter_mut().map(|e| e.take_group(0)).collect();
        let hh: Vec<HashMap<u64, i64>> = collected
            .iter()
            .map(|g| {
                let r = g.up_hh.decode();
                assert!(r.success && !r.flows.is_empty(), "fixture must re-insert something");
                r.flows
            })
            .collect();

        let mut want = FermatSketch::new(*collected[0].up_hl.config());
        let mut cum_down = want.clone();
        for (g, hh) in collected.iter().zip(&hh) {
            let mut up = g.up_hl.clone();
            for (f, c) in hh {
                up.insert_weighted(f, *c);
            }
            want.add_assign_sketch(&up);
            cum_down.add_assign_sketch(&g.down_hl);
        }
        want.sub_assign_sketch(&cum_down);

        let groups: Vec<&CollectedGroup<u64>> = collected.iter().collect();
        let got = delta_encoder(&groups, |g| &g.up_hl, |g| &g.down_hl, &hh);
        assert!(!got.is_zero(), "the fixture loses packets");
        assert_eq!(got, want);
        // The LL form: no re-insertion, and the old chain summed the
        // downstream side separately there too.
        let mut want_ll = collected[0].up_ll.clone();
        let mut cum_down_ll = collected[0].down_ll.clone();
        for g in &collected[1..] {
            want_ll.add_assign_sketch(&g.up_ll);
            cum_down_ll.add_assign_sketch(&g.down_ll);
        }
        want_ll.sub_assign_sketch(&cum_down_ll);
        assert!(!want_ll.is_zero(), "the fixture loses LL packets too");
        assert_eq!(delta_encoder(&groups, |g| &g.up_ll, |g| &g.down_ll, &[]), want_ll);
    }

    #[test]
    fn max_or_zero_works() {
        assert_eq!(max_or_zero(&[]), 0.0);
        assert_eq!(max_or_zero(&[1.0, 3.0, 2.0]), 3.0);
    }

    #[test]
    fn snapshot_restore_round_trips_decision_state() {
        let cfg = DataPlaneConfig::small(7);
        let mut c: Controller<u64> = Controller::new(cfg.clone());
        // Mutate every snapshotted field away from its initial value.
        let mut rt = *c.deployed_runtime();
        rt.partition = Partition {
            m_hl: rt.partition.m_hl + 16,
            m_hh: rt.partition.m_hh - 16,
            ..rt.partition
        };
        c.hold_runtime(rt);
        c.state = NetworkState::Ill;
        c.failed_hl_sizes.insert(320);
        c.failed_hl_sizes.insert(480);

        let snap = c.snapshot();
        assert_eq!(snap.failed_hl_sizes, vec![320, 480]);
        assert!(snap.localizer.is_none());

        let mut fresh: Controller<u64> = Controller::new(cfg);
        fresh.restore(&snap);
        assert_eq!(fresh.deployed_runtime(), c.deployed_runtime());
        assert_eq!(fresh.state(), c.state());
        assert_eq!(fresh.snapshot(), snap);
    }

    #[test]
    fn snapshot_carries_localizer_tables() {
        let topo = FatTree::new(2, 2);
        let cfg = DataPlaneConfig::small(7);
        let mut c: Controller<u64> = Controller::new(cfg.clone());
        c.enable_localization(topo.clone());
        let snap = c.snapshot();
        assert!(snap.localizer.is_some());

        let mut fresh: Controller<u64> = Controller::new(cfg);
        fresh.enable_localization(topo);
        fresh.restore(&snap);
        assert_eq!(fresh.snapshot(), snap);
    }

    #[test]
    #[should_panic(expected = "held runtime must be valid")]
    fn hold_runtime_rejects_invalid_config() {
        let cfg = DataPlaneConfig::small(7);
        let mut c: Controller<u64> = Controller::new(cfg);
        let mut rt = *c.deployed_runtime();
        rt.partition.m_hh += 1; // breaks m_hh + m_hl + m_ll == m_uf
        c.hold_runtime(rt);
    }
}
