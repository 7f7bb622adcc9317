//! Drives a [`Scenario`] through the full measurement pipeline — trace
//! replay with impairments, zero-clone collection over a (possibly lossy)
//! control channel, controller analysis, reconfiguration, epoch flip — and
//! scores every epoch's loss detection against the simulator's ground
//! truth.
//!
//! The stack mirrors `chamelemon::ChameleMon` but keeps every stage
//! explicit so the differential tests can compare the per-packet and burst
//! replay paths epoch by epoch: [`ScenarioStack::step_epoch`] returns the
//! epoch's ground truth, the collected sketch groups of **all** switches
//! (before report loss filters them), and the controller's decoded view.

use crate::Scenario;
use chamelemon::config::DataPlaneConfig;
use chamelemon::{
    CollectedGroup, Controller, EdgeDataPlane, EpochEvidence, Localization, Localizer,
    RuntimeConfig,
};
use chm_baselines::{FlowRadar, LossDetector, LossRadar};
use chm_common::metrics::{average_relative_error, detection_score};
use chm_common::FiveTuple;
use chm_netsim::sim::EpochReport;
pub use chm_netsim::ReplayMode;
use chm_netsim::{ShardedReplay, Sharding, SimConfig, Simulator, SiteArray};
use chm_workloads::Trace;
use std::collections::{HashMap, HashSet};

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
    /// LossRadar baseline: victim-detection F1 over the same epoch (0 when
    /// its IBF fails to decode).
    pub lr_f1: f64,
    /// LossRadar baseline: did the delta IBF decode?
    pub lr_decode_ok: bool,
    /// LossRadar baseline: localization top-1 hit rate (its decoded victims
    /// fed through the same blame localizer).
    pub lr_top1: f64,
    /// LossRadar baseline: localization top-3 hit rate.
    pub lr_top3: f64,
    /// FlowRadar baseline: victim-detection F1 over the same epoch (0 when
    /// either direction's counting table fails to decode).
    pub fr_f1: f64,
    /// FlowRadar baseline: did both counting tables decode? (Its memory
    /// scales with *flows*, so flow-heavy epochs are what break it.)
    pub fr_decode_ok: bool,
    /// FlowRadar baseline: localization top-1 hit rate.
    pub fr_top1: f64,
    /// FlowRadar baseline: localization top-3 hit rate.
    pub fr_top3: f64,
    /// Deepest per-switch queue this epoch (packets; 0 when the scenario
    /// runs without the queue model).
    pub qdepth_max: f64,
}

/// Everything observable from one stepped epoch — enough for the
/// differential tests to compare two replay modes bit for bit.
pub struct EpochTrace {
    /// Ground truth from the fabric.
    pub report: EpochReport<FiveTuple>,
    /// The collected groups of **all** edges (pre report-loss).
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
    /// LossRadar baseline: mean victim-detection F1.
    pub lr_mean_f1: f64,
    /// LossRadar baseline: fraction of epochs whose delta IBF decoded.
    pub lr_decode_success: f64,
    /// LossRadar baseline: mean localization top-1 hit rate.
    pub lr_mean_top1: f64,
    /// LossRadar baseline: mean localization top-3 hit rate.
    pub lr_mean_top3: f64,
    /// FlowRadar baseline: mean victim-detection F1.
    pub fr_mean_f1: f64,
    /// FlowRadar baseline: fraction of epochs whose tables decoded.
    pub fr_decode_success: f64,
    /// FlowRadar baseline: mean localization top-1 hit rate.
    pub fr_mean_top1: f64,
    /// FlowRadar baseline: mean localization top-3 hit rate.
    pub fr_mean_top3: f64,
    /// Mean over epochs of the deepest per-switch queue (packets).
    pub mean_qdepth_max: f64,
}

/// The live stack: per-edge data planes, the central controller, and the
/// simulator, stepped one epoch at a time.
pub struct ScenarioStack {
    /// One data plane per edge switch.
    pub edges: Vec<EdgeDataPlane<FiveTuple>>,
    /// The central controller.
    pub controller: Controller<FiveTuple>,
    /// The fabric simulator.
    pub simulator: Simulator,
    /// The LossRadar comparison track's localizer (its decoded victims run
    /// through the same blame accumulation as ChameleMon's).
    lr_localizer: Localizer,
    /// The FlowRadar comparison track's localizer.
    fr_localizer: Localizer,
    /// When set, epochs replay through the sharded engine instead of the
    /// serial paths — byte-identical output at any shard/worker count (the
    /// `sharded_matrix` differential suite pins it), so this is purely an
    /// execution-strategy knob.
    sharded: Option<ShardedReplay<FiveTuple>>,
}

impl ScenarioStack {
    /// Builds the stack for `s` over the §5.2 testbed topology with the
    /// scaled-down data-plane configuration (the scenario engine's default;
    /// the matrix sizes workloads to it).
    pub fn new(s: &Scenario) -> Self {
        Self::with_config(s, DataPlaneConfig::small(s.seed ^ CFG_SALT))
    }

    /// Builds the stack with an explicit data-plane configuration.
    pub fn with_config(s: &Scenario, cfg: DataPlaneConfig) -> Self {
        let topology = s.build_topology();
        let runtime = RuntimeConfig::initial(&cfg);
        let edges = (0..topology.n_edges())
            .map(|_| EdgeDataPlane::new(cfg.clone(), runtime))
            .collect();
        let mut controller = Controller::new(cfg);
        controller.enable_localization(topology.clone());
        ScenarioStack {
            edges,
            controller,
            lr_localizer: Localizer::new(topology.clone()),
            fr_localizer: Localizer::new(topology.clone()),
            simulator: Simulator::new(
                topology,
                SimConfig { epoch_ms: 50.0, seed: s.seed ^ 0x51b },
            ),
            sharded: None,
        }
    }

    /// Replays subsequent epochs through the sharded engine with `sharding`.
    /// Output is byte-identical to the serial paths at any layout; the knob
    /// only changes how the replay work is scheduled.
    pub fn set_sharding(&mut self, sharding: Sharding) {
        self.sharded = Some(ShardedReplay::new(sharding));
    }

    /// Runs one epoch of `s` under `mode`: evolve the workload, replay with
    /// impairments, collect (dropping lost reports), analyze, reconfigure,
    /// flip — returning everything observable for scoring and differential
    /// comparison.
    pub fn step_epoch(
        &mut self,
        s: &Scenario,
        base: &Trace<FiveTuple>,
        mode: ReplayMode,
    ) -> EpochTrace {
        let epoch = self.simulator.current_epoch();
        let trace = s.trace_for_epoch(base, epoch);
        let plan = s.plan_for_epoch(&trace, epoch);
        let imp = &s.impairments;
        let report = match &mut self.sharded {
            Some(eng) => {
                eng.run_epoch(&mut self.simulator, &trace, &plan, imp, mode, &mut self.edges, &|| 0.0)
                    .0
            }
            None => {
                let mut hooks = SiteArray(&mut self.edges);
                self.simulator.run_epoch_scenario(&trace, &plan, imp, mode, &mut hooks)
            }
        };
        let ts_bit = (report.epoch & 1) as u8;
        let collected: Vec<CollectedGroup<FiveTuple>> =
            self.edges.iter_mut().map(|e| e.take_group(ts_bit)).collect();
        let received = s.reports_received(report.epoch, collected.len());
        // Only a lossy control channel pays for sketch clones: the common
        // all-arrived epoch analyzes the taken groups in place, preserving
        // PR 2's zero-clone collection on the paths that benchmark it.
        let analysis = if received.iter().all(|&keep| keep) {
            self.controller.analyze_epoch(&collected)
        } else {
            let arrived: Vec<CollectedGroup<FiveTuple>> = collected
                .iter()
                .zip(&received)
                .filter(|&(_, &keep)| keep)
                .map(|(g, _)| g.clone())
                .collect();
            self.controller.analyze_epoch(&arrived)
        };
        let staged = self.controller.reconfigure(&analysis);
        for e in &mut self.edges {
            e.stage_runtime(staged);
            e.flip(ts_bit);
        }
        // The switches' queue-depth exports (INT-style telemetry) ride along
        // with the sketch reports: deep queues corroborate blame. Scenarios
        // without the queue model export nothing, and the localizer is then
        // bit-identical to the telemetry-free pass.
        let localization = self
            .controller
            .localize_with_telemetry(&analysis, &report.queue_depth)
            .expect("stack always enables localization");
        let (loc_top1, loc_top3) = localization_hits(&report, &localization);

        // The LossRadar comparison track: an idealized per-packet IBF pair
        // fed from the realized ground truth (upstream sees every packet,
        // downstream the delivered ones), provisioned for ~1.5% packet
        // loss — the paper's premise that its memory scales with *lost
        // packets*, which heavy scenarios are expected to overflow.
        let (lr_report, lr_decode_ok) = lossradar_epoch(s, &trace, &report);
        let lr_score = {
            let truth: HashSet<FiveTuple> = report.lost.keys().copied().collect();
            detection_score(lr_report.keys().copied(), &truth)
        };
        // LossRadar decodes victims only — it has no flowsets to exonerate
        // with, so its localizer runs on pure victim blame. It *does* get
        // the same fabric queue telemetry as ChameleMon's localizer: the
        // INT-style exports come from the switches, not from the
        // measurement system, so a fair three-way comparison hands every
        // track the same corroborating evidence.
        let lr_loc = self.lr_localizer.observe_evidence(EpochEvidence {
            loss_report: &lr_report,
            confidence: &HashMap::new(),
            traffic: &HashMap::new(),
            queue_depth: &report.queue_depth,
        });
        let (lr_top1, lr_top3) = localization_hits(&report, &lr_loc);

        // The FlowRadar comparison track: Bloom filter + IBLT counting
        // tables recording *every flow's* exact size on both sides of the
        // fabric, provisioned for the scenario's base flow count — the
        // paper's premise that its memory scales with the number of
        // *flows* (category 3), so flow-heavy epochs (floods, churn
        // arrivals) are what overflow it, not loss-heavy ones.
        let (fr_report, fr_decode_ok) = flowradar_epoch(s, &trace, &report);
        let fr_score = {
            let truth: HashSet<FiveTuple> = report.lost.keys().copied().collect();
            detection_score(fr_report.keys().copied(), &truth)
        };
        let fr_loc = self.fr_localizer.observe_evidence(EpochEvidence {
            loss_report: &fr_report,
            confidence: &HashMap::new(),
            traffic: &HashMap::new(),
            queue_depth: &report.queue_depth,
        });
        let (fr_top1, fr_top3) = localization_hits(&report, &fr_loc);

        let truth: HashSet<FiveTuple> = report.lost.keys().copied().collect();
        let score = detection_score(analysis.loss_report.keys().copied(), &truth);
        let are = average_relative_error(&report.lost, &analysis.loss_report);
        let rt = analysis.runtime;
        let decode_ok = analysis.switches_reporting > 0
            && analysis.hh_decode_ok
            && (rt.partition.m_hl == 0 || analysis.hl_flowset.is_some())
            && (rt.partition.m_ll == 0 || analysis.ll_flowset.is_some());
        let metrics = EpochMetrics {
            epoch: report.epoch,
            f1: score.f1,
            precision: score.precision,
            recall: score.recall,
            are,
            decode_ok,
            reports_received: analysis.switches_reporting,
            true_victims: truth.len(),
            reported_victims: analysis.loss_report.len(),
            flows: trace.num_flows(),
            packets_sent: report.total_sent(),
            loc_top1,
            loc_top3,
            lr_f1: lr_score.f1,
            lr_decode_ok,
            lr_top1,
            lr_top3,
            fr_f1: fr_score.f1,
            fr_decode_ok,
            fr_top1,
            fr_top3,
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
    // Deterministic victim order: `lost_at` is a HashMap, so sort its keys
    // before walking them (the hit counters would commute, but a fixed
    // order keeps any future per-victim output stable too).
    let mut victims: Vec<&FiveTuple> = report.lost_at.keys().collect();
    victims.sort_unstable();
    for f in victims {
        let Some(truth) = report.dominant_drop_switch(f) else { continue };
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

/// Runs the per-epoch LossRadar baseline and returns its decoded victim
/// loss map (empty on decode failure) plus the decode outcome.
fn lossradar_epoch(
    s: &Scenario,
    trace: &Trace<FiveTuple>,
    report: &EpochReport<FiveTuple>,
) -> (HashMap<FiveTuple, u64>, bool) {
    let cells = (report.total_sent() as f64 * 0.015).max(256.0);
    let memory_bytes = (cells * 10.0) as usize;
    let mut lr: LossRadar<FiveTuple> =
        LossRadar::new(memory_bytes, s.seed ^ LR_SALT ^ report.epoch);
    for &(f, pkts) in &trace.flows {
        let lost = report.lost.get(&f).copied().unwrap_or(0);
        for seq in 0..pkts {
            lr.observe_upstream(&f, seq as u32);
        }
        for seq in lost..pkts {
            lr.observe_downstream(&f, seq as u32);
        }
    }
    match lr.decode_losses() {
        Some(m) => (m, true),
        None => (HashMap::new(), false),
    }
}

/// Runs the per-epoch FlowRadar baseline and returns its decoded victim
/// loss map (empty on decode failure) plus the decode outcome. Memory is
/// provisioned for ~1.3 cells per *base-trace flow* (decode succeeds w.h.p.
/// just above the 3-hash IBLT threshold), so the table budget tracks the
/// flow count the operator planned for — epochs with materially more flows
/// than planned are the ones that stall the peel.
fn flowradar_epoch(
    s: &Scenario,
    trace: &Trace<FiveTuple>,
    report: &EpochReport<FiveTuple>,
) -> (HashMap<FiveTuple, u64>, bool) {
    let cells = (s.n_flows as f64 * 1.3).max(64.0);
    // The counting table gets 90% of FlowRadar's memory (12 B/cell).
    let memory_bytes = (cells * 12.0 / 0.9) as usize;
    let mut fr: FlowRadar<FiveTuple> =
        FlowRadar::new(memory_bytes, s.seed ^ FR_SALT ^ report.epoch);
    for &(f, pkts) in &trace.flows {
        let lost = report.lost.get(&f).copied().unwrap_or(0);
        fr.observe_upstream_flow(&f, pkts);
        fr.observe_downstream_flow(&f, pkts - lost);
    }
    match fr.decode_losses() {
        Some(m) => (m, true),
        None => (HashMap::new(), false),
    }
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
        let t = stack.step_epoch(s, &base, mode);
        delivered_reports += t.metrics.reports_received;
        total_reports += stack.edges.len();
        epochs.push(t.metrics);
    }
    let n = epochs.len().max(1) as f64;
    let mean_f1 = epochs.iter().map(|e| e.f1).sum::<f64>() / n;
    let mean_are = epochs.iter().map(|e| e.are).sum::<f64>() / n;
    let decode_success =
        epochs.iter().filter(|e| e.decode_ok).count() as f64 / n;
    let report_delivery = if total_reports == 0 {
        1.0
    } else {
        delivered_reports as f64 / total_reports as f64
    };
    let mean_loc_top1 = epochs.iter().map(|e| e.loc_top1).sum::<f64>() / n;
    let mean_loc_top3 = epochs.iter().map(|e| e.loc_top3).sum::<f64>() / n;
    let lr_mean_f1 = epochs.iter().map(|e| e.lr_f1).sum::<f64>() / n;
    let lr_decode_success =
        epochs.iter().filter(|e| e.lr_decode_ok).count() as f64 / n;
    let lr_mean_top1 = epochs.iter().map(|e| e.lr_top1).sum::<f64>() / n;
    let lr_mean_top3 = epochs.iter().map(|e| e.lr_top3).sum::<f64>() / n;
    let fr_mean_f1 = epochs.iter().map(|e| e.fr_f1).sum::<f64>() / n;
    let fr_decode_success =
        epochs.iter().filter(|e| e.fr_decode_ok).count() as f64 / n;
    let fr_mean_top1 = epochs.iter().map(|e| e.fr_top1).sum::<f64>() / n;
    let fr_mean_top3 = epochs.iter().map(|e| e.fr_top3).sum::<f64>() / n;
    let mean_qdepth_max = epochs.iter().map(|e| e.qdepth_max).sum::<f64>() / n;
    ScenarioResult {
        name: s.name.clone(),
        mode,
        epochs,
        mean_f1,
        mean_are,
        decode_success,
        report_delivery,
        mean_loc_top1,
        mean_loc_top3,
        lr_mean_f1,
        lr_decode_success,
        lr_mean_top1,
        lr_mean_top3,
        fr_mean_f1,
        fr_decode_success,
        fr_mean_top1,
        fr_mean_top3,
        mean_qdepth_max,
    }
}
