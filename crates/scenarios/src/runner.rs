//! Drives a [`Scenario`] through the full measurement pipeline and scores
//! every epoch's loss detection against the simulator's ground truth.
//!
//! An epoch is the two calls every driver of this stack makes (`chm-serve`
//! and `chm-bench profile` too): [`ScenarioStack::replay`], then
//! `chamelemon::Controller::close_epoch` — collection over a control channel
//! that loses what [`Scenario::reports_received`] says, analysis,
//! reconfiguration and flip, localization. [`ScenarioStack::step_epoch`]
//! returns the ground truth, the groups of **all** switches and the decoded
//! view, so the differential tests can compare shard layouts, and the serial
//! reference, epoch by epoch.

use crate::Scenario;
use chamelemon::config::DataPlaneConfig;
use chamelemon::{
    ChameleMon, ClosedEpoch, CollectedGroup, Controller, EdgeDataPlane, EpochEvidence,
    Localization, Localizer, RuntimeConfig,
};
use chm_baselines::{FlowRadar, LossDetector, LossRadar};
use chm_common::metrics::{average_relative_error, detection_score};
use chm_common::FiveTuple;
use chm_netsim::sim::EpochReport;
pub use chm_netsim::ReplayMode;
use chm_netsim::{
    dominant_drop_switch, ImpairmentSet, ShardedReplay, Sharding, SimConfig, Simulator,
};
use chm_obs::SpanProfiler;
use chm_workloads::{LossPlan, Trace};
use std::collections::{HashMap, HashSet};

/// One comparison track's score — a baseline detector's decoded victims,
/// scored against ground truth and fed through the same blame localizer as
/// ChameleMon's. `D = bool` is one epoch (did the sketch decode?); `D = f64`
/// is the mean over a scenario's epochs (the fraction that decoded).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackScore<D = bool> {
    /// Victim-detection F1.
    pub f1: f64,
    /// The sketch's decode outcome.
    pub decode_ok: D,
    /// Localization top-1 hit rate.
    pub top1: f64,
    /// Localization top-3 hit rate.
    pub top3: f64,
}

impl TrackScore<f64> {
    /// The mean over `epochs` of the track `track` picks.
    pub fn mean(epochs: &[EpochMetrics], track: impl Fn(&EpochMetrics) -> TrackScore) -> Self {
        TrackScore {
            f1: mean(epochs, |e| track(e).f1),
            decode_ok: share(epochs, |e| track(e).decode_ok),
            top1: mean(epochs, |e| track(e).top1),
            top3: mean(epochs, |e| track(e).top3),
        }
    }
}

/// A scorecard column averaged over `epochs`: summed in epoch order and
/// divided once, so every mean in a [`ScenarioResult`] keeps the bits of a
/// hand-written `sum / n` (0 over no epochs).
fn mean(epochs: &[EpochMetrics], col: impl Fn(&EpochMetrics) -> f64) -> f64 {
    epochs.iter().map(col).sum::<f64>() / epochs.len().max(1) as f64
}

/// The fraction of `epochs` that `pred` holds in.
fn share(epochs: &[EpochMetrics], pred: impl Fn(&EpochMetrics) -> bool) -> f64 {
    epochs.iter().filter(|e| pred(e)).count() as f64 / epochs.len().max(1) as f64
}

/// One epoch's scorecard.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochMetrics {
    /// Epoch index.
    pub epoch: u64,
    /// Victim-detection F1 (reported victims vs ground-truth victims).
    pub f1: f64,
    /// Victim-detection precision.
    pub precision: f64,
    /// Victim-detection recall.
    pub recall: f64,
    /// Average relative error of the per-victim loss estimates.
    pub are: f64,
    /// All deployed encoders decoded this epoch (HH everywhere, and each
    /// delta encoder that had memory). `false` when no report arrived.
    pub decode_ok: bool,
    /// Switch reports that reached the controller.
    pub reports_received: usize,
    /// Ground-truth victim flows.
    pub true_victims: usize,
    /// Victim flows the controller reported.
    pub reported_victims: usize,
    /// Flows live this epoch.
    pub flows: usize,
    /// Packets sent into the fabric this epoch.
    pub packets_sent: u64,
    /// Localization top-1 hit rate: the fraction of ground-truth victims
    /// whose true dominant drop switch is the controller's first-ranked
    /// candidate (1.0 when the epoch has no victims).
    pub loc_top1: f64,
    /// Localization top-3 hit rate.
    pub loc_top3: f64,
    /// The LossRadar comparison track over the same epoch (F1 is 0 when its
    /// delta IBF fails to decode).
    pub lossradar: TrackScore,
    /// The FlowRadar comparison track (F1 is 0 when either direction's
    /// counting table fails to decode; its memory scales with *flows*, so
    /// flow-heavy epochs are what break it).
    pub flowradar: TrackScore,
    /// Deepest per-switch queue this epoch (packets; 0 when the scenario
    /// runs without the queue model).
    pub qdepth_max: f64,
}

/// Everything observable from one stepped epoch — enough for the
/// differential tests to compare two replay modes bit for bit.
pub struct EpochTrace {
    /// Ground truth from the fabric.
    pub report: EpochReport<FiveTuple>,
    /// Clones of the ended groups of **all** edges (pre report-loss), taken
    /// just before the epoch closed: the epoch body analyzes the groups in
    /// place and its flip zeroes them, so this copy is what the
    /// differential suites compare. [`run_with_config`] steps without it
    /// (empty).
    pub collected: Vec<CollectedGroup<FiveTuple>>,
    /// Which of those reports reached the controller.
    pub received: Vec<bool>,
    /// The controller's per-victim loss estimates.
    pub loss_report: HashMap<FiveTuple, u64>,
    /// The controller's localization pass: per-victim candidate switches
    /// and the network-wide suspect ranking.
    pub localization: Localization<FiveTuple>,
    /// The runtime staged for the next epoch.
    pub staged: RuntimeConfig,
    /// The epoch's scorecard.
    pub metrics: EpochMetrics,
}

/// A whole scenario's result: per-epoch scorecards plus aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: String,
    /// Replay mode that produced the result.
    pub mode: ReplayMode,
    /// Per-epoch scorecards, in epoch order.
    pub epochs: Vec<EpochMetrics>,
    /// Mean victim-detection F1 over all epochs.
    pub mean_f1: f64,
    /// Mean per-victim loss-estimate ARE over all epochs.
    pub mean_are: f64,
    /// Fraction of epochs with every deployed encoder decoding.
    pub decode_success: f64,
    /// Fraction of switch reports that survived the control channel.
    pub report_delivery: f64,
    /// Mean localization top-1 hit rate over all epochs.
    pub mean_loc_top1: f64,
    /// Mean localization top-3 hit rate over all epochs.
    pub mean_loc_top3: f64,
    /// The LossRadar comparison track, averaged over all epochs.
    pub lossradar: TrackScore<f64>,
    /// The FlowRadar comparison track, averaged over all epochs.
    pub flowradar: TrackScore<f64>,
    /// Mean over epochs of the deepest per-switch queue (packets).
    pub mean_qdepth_max: f64,
}

/// The live stack: per-edge data planes, the central controller, and the
/// simulator with the replay engine that drives it, stepped one epoch at a
/// time.
pub struct ScenarioStack {
    /// One data plane per edge switch.
    pub edges: Vec<EdgeDataPlane<FiveTuple>>,
    /// The central controller.
    pub controller: Controller<FiveTuple>,
    /// The fabric simulator.
    pub simulator: Simulator,
    /// The comparison tracks' localizers, LossRadar's then FlowRadar's (their
    /// decoded victims run through the same blame accumulation as ours).
    track_localizers: [Localizer; 2],
    /// The replay engine: one shard until
    /// [`set_sharding`](Self::set_sharding) lays out another.
    engine: ShardedReplay<FiveTuple>,
}

impl ScenarioStack {
    /// Builds the stack for `s` over the scenario's topology with the
    /// scaled-down data-plane configuration (the scenario engine's default;
    /// the matrix sizes workloads to it).
    pub fn new(s: &Scenario) -> Self {
        Self::with_config(s, DataPlaneConfig::small(s.seed ^ CFG_SALT))
    }

    /// Builds the stack with an explicit data-plane configuration.
    pub fn with_config(s: &Scenario, cfg: DataPlaneConfig) -> Self {
        let topology = s.build_topology();
        let ChameleMon { edges, mut controller, simulator, .. } = ChameleMon::new(
            cfg,
            topology.clone(),
            SimConfig { epoch_ms: 50.0, seed: s.seed ^ 0x51b },
        );
        controller.enable_localization(topology.clone());
        ScenarioStack {
            edges,
            controller,
            simulator,
            track_localizers: [Localizer::new(topology.clone()), Localizer::new(topology)],
            engine: ShardedReplay::new(Sharding::single()),
        }
    }

    /// Replays subsequent epochs on an engine laid out as `sharding`.
    /// Output is byte-identical to the serial driver at any shard/worker
    /// count (the `sharded_matrix` differential suite pins it); the knob only
    /// changes how the replay work is scheduled.
    ///
    /// `shards` and `workers` are clamped to the stack's edge count: a
    /// shard past it would own no edge and no flow, so the clamp moves no
    /// output bit, and it keeps the engine's per-shard state (which grows
    /// with shards²) bounded by the fabric.
    pub fn set_sharding(&mut self, sharding: Sharding) {
        let n = self.edges.len();
        let sharding =
            Sharding { shards: sharding.shards.min(n), workers: sharding.workers.min(n) };
        self.engine = ShardedReplay::new(sharding);
    }

    /// Replays one epoch through the fabric and every edge data plane, on
    /// the stack's engine. `clock` times the engine's span tree
    /// ([`replay_profile`](Self::replay_profile)); `&|| 0.0` when nobody is.
    pub fn replay(
        &mut self,
        trace: &Trace<FiveTuple>,
        plan: &LossPlan<FiveTuple>,
        imp: &ImpairmentSet,
        mode: ReplayMode,
        clock: &(dyn Fn() -> f64 + Sync),
    ) -> EpochReport<FiveTuple> {
        let sim = &mut self.simulator;
        self.engine.run_epoch(sim, trace, plan, imp, mode, &mut self.edges, clock).0
    }

    /// The engine's span tree of the last [`replay`](Self::replay)
    /// (`prologue`, `phase_a` over its `phase_a/shard_i`, `phase_b` over its
    /// `phase_b/shard_i`, `merge`).
    pub fn replay_profile(&self) -> &SpanProfiler {
        self.engine.last_profile()
    }

    /// Runs one epoch of `s` under `mode`: evolve the workload, replay with
    /// impairments, close the epoch over the scenario's report-loss channel,
    /// and score it — returning everything observable for scoring and
    /// differential comparison.
    pub fn step_epoch(
        &mut self,
        s: &Scenario,
        base: &Trace<FiveTuple>,
        mode: ReplayMode,
    ) -> EpochTrace {
        self.step(s, base, mode, true)
    }

    /// [`step_epoch`](Self::step_epoch), copying the ended groups into
    /// [`EpochTrace::collected`] only when `keep_groups` — the scorer
    /// ([`run_with_config`]) reads the metrics alone and skips the copy.
    fn step(
        &mut self,
        s: &Scenario,
        base: &Trace<FiveTuple>,
        mode: ReplayMode,
        keep_groups: bool,
    ) -> EpochTrace {
        let epoch = self.simulator.current_epoch();
        let trace = s.trace_for_epoch(base, epoch);
        let plan = s.plan_for_epoch(&trace, epoch);
        let report = self.replay(&trace, &plan, &s.impairments, mode, &|| 0.0);
        let received = s.reports_received(report.epoch, self.edges.len());
        // The switches' queue-depth exports (INT-style telemetry) ride along
        // with the sketch reports: deep queues corroborate blame. Scenarios
        // without the queue model export nothing, and the localizer is then
        // bit-identical to the telemetry-free pass.
        let ts_bit = (report.epoch & 1) as u8;
        let collected = if keep_groups {
            self.edges.iter().map(|e| e.collect_group(ts_bit)).collect()
        } else {
            Vec::new()
        };
        let ClosedEpoch { analysis, staged, localization, .. } =
            self.controller.close_epoch(
                &mut self.edges,
                report.epoch,
                Some(&received),
                &report.queue_depth,
                Controller::reconfigure,
                None,
            );
        let localization = localization.expect("stack always enables localization");
        let (loc_top1, loc_top3) = localization_hits(&report, &localization);

        let truth: HashSet<FiveTuple> = report.lost.keys().copied().collect();
        // The LossRadar comparison track: an idealized per-packet IBF pair
        // fed from the realized ground truth (upstream sees every packet,
        // downstream the delivered ones), provisioned for ~1.5% packet
        // loss — the paper's premise that its memory scales with *lost
        // packets*, which heavy scenarios are expected to overflow.
        let lossradar = score_track(
            &mut self.track_localizers[0],
            &report,
            &truth,
            lossradar_epoch(s, &trace, &report),
        );
        // The FlowRadar comparison track: Bloom filter + IBLT counting
        // tables recording *every flow's* exact size on both sides of the
        // fabric, provisioned for the scenario's base flow count — the
        // paper's premise that its memory scales with the number of
        // *flows* (category 3), so flow-heavy epochs (floods, churn
        // arrivals) are what overflow it, not loss-heavy ones.
        let flowradar = score_track(
            &mut self.track_localizers[1],
            &report,
            &truth,
            flowradar_epoch(s, &trace, &report),
        );

        let score = detection_score(analysis.loss_report.keys().copied(), &truth);
        // chm-lint: allow(map-iter-order, "report.lost is the report's trace-ordered victim table, and average_relative_error sorts the pairs it is given")
        let are = average_relative_error(report.lost.iter(), &analysis.loss_report);
        let metrics = EpochMetrics {
            epoch: report.epoch,
            f1: score.f1,
            precision: score.precision,
            recall: score.recall,
            are,
            decode_ok: analysis.fully_decoded(),
            reports_received: analysis.switches_reporting,
            true_victims: truth.len(),
            reported_victims: analysis.loss_report.len(),
            flows: trace.num_flows(),
            packets_sent: report.total_sent(),
            loc_top1,
            loc_top3,
            lossradar,
            flowradar,
            qdepth_max: report
                .queue_depth
                .values()
                .map(|d| d.max_depth)
                .fold(0.0, f64::max),
        };
        EpochTrace {
            report,
            collected,
            received,
            loss_report: analysis.loss_report,
            localization,
            staged,
            metrics,
        }
    }
}

/// Top-1/top-3 localization hit rates of one epoch: over the ground-truth
/// victims, how often the victim's true dominant drop switch leads (or
/// makes the top 3 of) its ranked candidate list. Victims the detector
/// missed entirely count as localization misses — the metric couples
/// detection and localization on purpose (an unfound victim is an
/// unlocalized one). Epochs with no victims score 1.0.
pub fn localization_hits(
    report: &EpochReport<FiveTuple>,
    loc: &Localization<FiveTuple>,
) -> (f64, f64) {
    let mut total = 0u64;
    let mut hit1 = 0u64;
    let mut hit3 = 0u64;
    for (f, _, drops) in report.lost.with_drops() {
        let Some(truth) = dominant_drop_switch(drops) else { continue };
        total += 1;
        if let Some(cands) = loc.per_victim.get(f) {
            if cands.first() == Some(&truth) {
                hit1 += 1;
            }
            if cands.iter().take(3).any(|&s| s == truth) {
                hit3 += 1;
            }
        }
    }
    if total == 0 {
        (1.0, 1.0)
    } else {
        (hit1 as f64 / total as f64, hit3 as f64 / total as f64)
    }
}

/// Scores one comparison track's epoch: the baseline's decoded victims (none
/// when its sketch failed to decode), then the track's own localizer.
///
/// A baseline decodes victims only — it has no flowsets to exonerate with,
/// so its localizer runs on pure victim blame. It *does* get the same
/// fabric queue telemetry as ChameleMon's localizer: the INT-style exports
/// come from the switches, not from the measurement system, so a fair
/// three-way comparison hands every track the same corroborating evidence.
fn score_track(
    localizer: &mut Localizer,
    report: &EpochReport<FiveTuple>,
    truth: &HashSet<FiveTuple>,
    decoded: Option<HashMap<FiveTuple, u64>>,
) -> TrackScore {
    let decode_ok = decoded.is_some();
    let loss_report = decoded.unwrap_or_default();
    let loc = localizer.observe_evidence(EpochEvidence {
        loss_report: &loss_report,
        confidence: &HashMap::new(),
        traffic: &HashMap::new(),
        queue_depth: &report.queue_depth,
    });
    let (top1, top3) = localization_hits(report, &loc);
    let f1 = detection_score(loss_report.keys().copied(), truth).f1;
    TrackScore { f1, decode_ok, top1, top3 }
}

/// Runs the per-epoch LossRadar baseline and returns its decoded victim
/// loss map, `None` on decode failure.
fn lossradar_epoch(
    s: &Scenario,
    trace: &Trace<FiveTuple>,
    report: &EpochReport<FiveTuple>,
) -> Option<HashMap<FiveTuple, u64>> {
    let cells = (report.total_sent() as f64 * 0.015).max(256.0);
    let memory_bytes = (cells * 10.0) as usize;
    let mut lr: LossRadar<FiveTuple> =
        LossRadar::new(memory_bytes, s.seed ^ LR_SALT ^ report.epoch);
    // chm-lint: allow(map-iter-order, "trace.flows and report.delivered are the trace's rows and the report's trace-ordered column, walked in step")
    for (&(f, pkts), &delivered) in trace.flows.iter().zip(report.delivered.values()) {
        for seq in 0..pkts {
            lr.observe_upstream(&f, seq as u32);
        }
        for seq in pkts - delivered..pkts {
            lr.observe_downstream(&f, seq as u32);
        }
    }
    lr.decode_losses()
}

/// Runs the per-epoch FlowRadar baseline and returns its decoded victim
/// loss map, `None` on decode failure. Memory is provisioned for ~1.3 cells
/// per *base-trace flow* (decode succeeds w.h.p. just above the 3-hash IBLT
/// threshold), so the table budget tracks the flow count the operator
/// planned for — epochs with materially more flows than planned are the
/// ones that stall the peel.
fn flowradar_epoch(
    s: &Scenario,
    trace: &Trace<FiveTuple>,
    report: &EpochReport<FiveTuple>,
) -> Option<HashMap<FiveTuple, u64>> {
    let cells = (s.n_flows as f64 * 1.3).max(64.0);
    // The counting table gets 90% of FlowRadar's memory (12 B/cell).
    let memory_bytes = (cells * 12.0 / 0.9) as usize;
    let mut fr: FlowRadar<FiveTuple> =
        FlowRadar::new(memory_bytes, s.seed ^ FR_SALT ^ report.epoch);
    // chm-lint: allow(map-iter-order, "trace.flows and report.delivered are the trace's rows and the report's trace-ordered column, walked in step")
    for (&(f, pkts), &delivered) in trace.flows.iter().zip(report.delivered.values()) {
        fr.observe_upstream_flow(&f, pkts);
        fr.observe_downstream_flow(&f, delivered);
    }
    fr.decode_losses()
}

/// Salt separating the LossRadar hash seeds from the scenario seed.
const LR_SALT: u64 = 0x10_55;

/// Salt separating the FlowRadar hash seeds from the scenario seed.
const FR_SALT: u64 = 0xf10b;

/// Salt separating the data-plane hash seeds from the scenario seed.
pub const CFG_SALT: u64 = 0xd9c0;

/// Runs `s` to completion under `mode` and aggregates the scorecards,
/// using the scaled-down data plane ([`ScenarioStack::new`]).
pub fn run(s: &Scenario, mode: ReplayMode) -> ScenarioResult {
    run_with_config(s, mode, DataPlaneConfig::small(s.seed ^ CFG_SALT))
}

/// Runs `s` under `mode` on an explicit data-plane configuration (the full
/// matrix uses the paper's §5.2 parameters; quick/CI sizing uses
/// [`DataPlaneConfig::small`]).
pub fn run_with_config(
    s: &Scenario,
    mode: ReplayMode,
    cfg: DataPlaneConfig,
) -> ScenarioResult {
    let mut stack = ScenarioStack::with_config(s, cfg);
    let base = s.base_trace();
    let mut epochs = Vec::with_capacity(s.epochs as usize);
    let mut delivered_reports = 0usize;
    let mut total_reports = 0usize;
    for _ in 0..s.epochs {
        let t = stack.step(s, &base, mode, false);
        delivered_reports += t.metrics.reports_received;
        total_reports += stack.edges.len();
        epochs.push(t.metrics);
    }
    let report_delivery = if total_reports == 0 {
        1.0
    } else {
        delivered_reports as f64 / total_reports as f64
    };
    ScenarioResult {
        name: s.name.clone(),
        mode,
        mean_f1: mean(&epochs, |e| e.f1),
        mean_are: mean(&epochs, |e| e.are),
        decode_success: share(&epochs, |e| e.decode_ok),
        report_delivery,
        mean_loc_top1: mean(&epochs, |e| e.loc_top1),
        mean_loc_top3: mean(&epochs, |e| e.loc_top3),
        lossradar: TrackScore::mean(&epochs, |e| e.lossradar),
        flowradar: TrackScore::mean(&epochs, |e| e.flowradar),
        mean_qdepth_max: mean(&epochs, |e| e.qdepth_max),
        epochs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `TrackScore::mean` against the per-field `sum / n` lines
    /// `run_with_config` carried for each track before it existed: same
    /// summation order, so the same bits, not "within tolerance".
    #[test]
    fn track_mean_is_bit_identical_to_the_per_field_sums() {
        let epoch = |epoch: u64, lossradar: TrackScore, flowradar: TrackScore| EpochMetrics {
            epoch,
            f1: 1.0,
            precision: 1.0,
            recall: 1.0,
            are: 0.0,
            decode_ok: true,
            reports_received: 4,
            true_victims: 10,
            reported_victims: 10,
            flows: 100,
            packets_sent: 1_000,
            loc_top1: 1.0,
            loc_top3: 1.0,
            lossradar,
            flowradar,
            qdepth_max: 0.0,
        };
        // Thirds and tenths: sums whose rounding depends on the order.
        let epochs = [
            epoch(
                0,
                TrackScore { f1: 0.1, decode_ok: true, top1: 1.0 / 3.0, top3: 0.7 },
                TrackScore { f1: 0.9, decode_ok: false, top1: 0.0, top3: 0.3 },
            ),
            epoch(
                1,
                TrackScore { f1: 0.2, decode_ok: false, top1: 2.0 / 3.0, top3: 0.1 },
                TrackScore { f1: 1.0 / 7.0, decode_ok: false, top1: 0.6, top3: 0.6 },
            ),
            epoch(
                2,
                TrackScore { f1: 0.3, decode_ok: true, top1: 0.1, top3: 0.2 },
                TrackScore { f1: 0.7, decode_ok: true, top1: 0.3, top3: 1.0 },
            ),
        ];
        let tracks: [fn(&EpochMetrics) -> TrackScore; 2] = [|e| e.lossradar, |e| e.flowradar];
        for track in tracks {
            let n = epochs.len().max(1) as f64;
            let mean_f1 = epochs.iter().map(|e| track(e).f1).sum::<f64>() / n;
            let decode_success = epochs.iter().filter(|e| track(e).decode_ok).count() as f64 / n;
            let mean_top1 = epochs.iter().map(|e| track(e).top1).sum::<f64>() / n;
            let mean_top3 = epochs.iter().map(|e| track(e).top3).sum::<f64>() / n;
            let got = TrackScore::mean(&epochs, track);
            assert_eq!(got.f1.to_bits(), mean_f1.to_bits());
            assert_eq!(got.decode_ok.to_bits(), decode_success.to_bits());
            assert_eq!(got.top1.to_bits(), mean_top1.to_bits());
            assert_eq!(got.top3.to_bits(), mean_top3.to_bits());
        }
        // No epochs: every column is 0 / 1, never NaN.
        let empty = TrackScore::mean(&[], |e| e.lossradar);
        assert_eq!(empty, TrackScore { f1: 0.0, decode_ok: 0.0, top1: 0.0, top3: 0.0 });
    }
}
