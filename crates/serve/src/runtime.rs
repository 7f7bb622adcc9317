//! **The streaming runtime** — an endless collection → decode →
//! reconfigure → localize loop under injected control-plane faults.
//!
//! [`ServeRuntime::step`] serves exactly one epoch:
//!
//! 1. pull the epoch's workload from the [`EpochStream`] (pure in epoch);
//! 2. replay it through the fabric and every edge data plane;
//! 3. realize the epoch's [`EpochFaults`]: rebooted switches are reset (they
//!    report empty groups), lost/timed-out reports never arrive, delayed
//!    ones pay deterministic retry backoff, duplicates are deduplicated,
//!    the bounded inbox drops overflow, and a paused controller receives
//!    nothing (reports are perishable);
//! 4. close the epoch through `chamelemon::Controller::close_epoch`, the
//!    body every driver shares, with the [`Watchdog`] deciding: in degraded
//!    mode the last-known-good runtime is held instead of acting on garbage;
//! 5. score the epoch and emit one [`EpochRecord`].
//!
//! Everything is a deterministic function of the serve configuration:
//! no clocks, no ambient randomness, no iteration-order dependence. The
//! companion [`snapshot`](ServeRuntime::snapshot)/[`restore`](ServeRuntime::restore)
//! pair exploits that — at any epoch boundary the runtime's evolving
//! state fits in a [`ServeSnapshot`], and a restored process reproduces
//! the uninterrupted run's decisions and metrics byte for byte
//! (property-tested in `tests/service.rs`).

use std::collections::BTreeMap;

use chamelemon::control::EpochAnalysis;
use chamelemon::{EdgeDataPlane, EpochProbe, RuntimeConfig};
use chm_common::FiveTuple;
use chm_netsim::sim::EpochReport;
use chm_netsim::Sharding;
use chm_scenarios::{localization_hits, EpochStream, ReplayMode, Scenario, ScenarioStack};

use crate::fault::{EpochFaults, FaultPlan, ReportFate};
use crate::metrics::EpochRecord;
use crate::obs::ServeObs;
use crate::snapshot::ServeSnapshot;
use crate::watchdog::{ServeState, Watchdog};

/// Fixed virtual cost of one analyze + reconfigure pass (milliseconds) in
/// the deterministic latency model.
const DECODE_BASE_MS: f64 = 2.0;
/// Virtual per-report collection cost (milliseconds).
const PER_REPORT_MS: f64 = 0.25;

/// Static configuration of a serve run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The workload/impairment scenario streamed endlessly. Serve takes
    /// the workload and the fabric impairments from it and nothing else:
    /// [`Scenario::reports_received`] (the scorer's report-loss channel) is
    /// never consulted.
    pub scenario: Scenario,
    /// The control-plane fault model — the one source of control-channel
    /// faults in serve mode.
    pub faults: FaultPlan,
    /// Replay mode (burst by default; per-packet for differential runs).
    pub mode: ReplayMode,
    /// Bounded collection inbox: at most this many reports are accepted
    /// per epoch; `None` sizes it to the edge count (no backpressure).
    pub inbox_capacity: Option<usize>,
    /// Consecutive bad epochs before the watchdog degrades.
    pub stall_threshold: u32,
    /// Initial healthy-decode requirement to recover (strictly grows).
    pub base_recovery: u32,
}

impl ServeConfig {
    /// Service defaults over `scenario` and `faults`: burst replay, inbox
    /// sized to the topology, degrade after 4 bad epochs, recover after 2
    /// good ones (growing).
    pub fn new(scenario: Scenario, faults: FaultPlan) -> Self {
        ServeConfig {
            scenario,
            faults,
            mode: ReplayMode::Burst,
            inbox_capacity: None,
            stall_threshold: 4,
            base_recovery: 2,
        }
    }
}

/// Tallies of one epoch's collection step.
#[derive(Debug, Default)]
struct CollectionTally {
    delivered: u32,
    lost: u32,
    delayed: u32,
    timed_out: u32,
    duplicates: u32,
    backpressure_drops: u32,
    reboots: u32,
    max_backoff_ms: f64,
}

/// The streaming controller runtime. Build with [`new`](Self::new), drive
/// with [`step`](Self::step), persist with [`snapshot`](Self::snapshot).
pub struct ServeRuntime {
    serve: ServeConfig,
    stream: EpochStream,
    /// The deployment — edges, controller, simulator, and the replay driver
    /// choice — exactly as the scenario scorer builds and replays it, so
    /// serve-mode results are comparable with the scenario matrix. The
    /// driver choice is never part of a snapshot (execution strategy, not
    /// stream state).
    stack: ScenarioStack,
    watchdog: Watchdog,
    last_good: RuntimeConfig,
    /// Telemetry (metric registry + span tree), fed once per epoch. Like a
    /// restarted Prometheus target, this is process-lifetime state — it is
    /// deliberately *not* part of a [`ServeSnapshot`] and restarts at zero.
    obs: ServeObs,
}

impl ServeRuntime {
    /// Builds the runtime on the scenario engine's stack
    /// ([`ScenarioStack::new`]: same topology, data-plane configuration and
    /// simulator seed as the scenario matrix).
    pub fn new(serve: ServeConfig) -> Self {
        let stack = ScenarioStack::new(&serve.scenario);
        ServeRuntime {
            stream: EpochStream::new(serve.scenario.clone()),
            watchdog: Watchdog::new(serve.stall_threshold, serve.base_recovery),
            last_good: *stack.controller.deployed_runtime(),
            stack,
            serve,
            obs: ServeObs::new(),
        }
    }

    /// The runtime's telemetry: metric registry and span tree. Snapshot it
    /// with [`ServeObs::prom_snapshot`] / [`ServeObs::jsonl_line`].
    pub fn obs(&self) -> &ServeObs {
        &self.obs
    }

    /// Replays subsequent epochs through the sharded engine with `sharding`.
    /// The metrics stream stays byte-identical at any shard/worker count;
    /// snapshots taken under sharding restore into any other layout.
    pub fn set_sharding(&mut self, sharding: Sharding) {
        self.stack.set_sharding(sharding);
    }

    /// The epoch [`step`](Self::step) will serve next.
    pub fn next_epoch(&self) -> u64 {
        self.stack.simulator.current_epoch()
    }

    /// Current serving state (live/degraded).
    pub fn state(&self) -> ServeState {
        self.watchdog.state()
    }

    /// Healthy decodes currently required to leave degraded mode.
    pub fn recovery_needed(&self) -> u32 {
        self.watchdog.recovery_needed()
    }

    /// Serves one epoch and returns its record. See the module docs for
    /// the pipeline.
    pub fn step(&mut self) -> EpochRecord {
        let epoch = self.next_epoch();
        let config_in_effect = *self.stack.controller.deployed_runtime();
        let (trace, plan) = self.stream.at(epoch);

        // The service pipeline runs under the zero clock: span *counts*
        // accumulate (stages per epoch, decodes per edge and occupancy class)
        // while every duration stays exactly 0.0 — telemetry output is
        // byte-identical across runs and shard layouts. Real time only
        // ever enters via the bench harness.
        let mut zero = || 0.0;
        self.obs.spans.enter("epoch", &mut zero);

        // Replay through the fabric and the edge data planes: one leaf span,
        // whatever the shard layout.
        let imp = &self.serve.scenario.impairments;
        let report = self.stack.replay(&trace, &plan, imp, self.serve.mode, &|| 0.0);
        self.obs.spans.record(&["replay"], 0.0);

        // Faulted collection decides which reports reach the controller. A
        // paused controller missed the collection window: the delivered
        // reports perish unread (their sketches describe an epoch whose
        // groups are about to be recycled), and no fabric telemetry arrives
        // either.
        let faults = self.serve.faults.realize(epoch, self.stack.edges.len());
        let (arrived, tally) = self.collect(config_in_effect, &faults, epoch);
        let empty_depths = BTreeMap::new();
        let depths = if faults.controller_paused { &empty_depths } else { &report.queue_depth };

        // Close the epoch. The decode verdict fed to the watchdog is the
        // scenario scorer's `decode_ok`: every encoder that had memory
        // decoded. Degraded mode never acts on a garbage decode: it
        // re-stages the last-known-good runtime.
        let mut state_after = ServeState::Live;
        let closed = self.stack.controller.close_epoch(
            &mut self.stack.edges,
            epoch,
            Some(&arrived),
            depths,
            |controller, analysis| {
                let good = analysis.switches_reporting > 0 && analysis.fully_decoded();
                state_after = self.watchdog.observe(good);
                if state_after == ServeState::Degraded {
                    controller.hold_runtime(self.last_good);
                    return self.last_good;
                }
                let staged = controller.reconfigure(analysis);
                if good {
                    self.last_good = staged;
                }
                staged
            },
            Some(EpochProbe { spans: &mut self.obs.spans, clock: &mut zero, allocs: &|| 0 }),
        );
        let (analysis, staged) = (&closed.analysis, closed.staged);
        // A blind epoch still localizes: its tables only decay.
        let localization = closed.localization.as_ref().expect("the stack enables localization");
        let (loc_top1, loc_top3) = localization_hits(&report, localization);

        // Score + record.
        let (precision, recall, f1) = score_detection(&report, analysis);
        let reaction_ms = if faults.clock_stalled {
            None
        } else {
            Some(
                DECODE_BASE_MS
                    + PER_REPORT_MS * f64::from(tally.delivered + tally.delayed)
                    + tally.max_backoff_ms,
            )
        };
        self.obs.spans.exit(&mut zero);
        let record = EpochRecord {
            epoch,
            state: state_after.label(),
            blind: analysis.switches_reporting == 0,
            decode_ok: analysis.fully_decoded(),
            delivered: tally.delivered,
            lost: tally.lost,
            delayed: tally.delayed,
            timed_out: tally.timed_out,
            duplicates: tally.duplicates,
            backpressure_drops: tally.backpressure_drops,
            reboots: tally.reboots,
            paused: faults.controller_paused,
            clock_stalled: faults.clock_stalled,
            packets: report.total_sent(),
            true_victims: report.lost.len(),
            reported_victims: analysis.loss_report.len(),
            precision,
            recall,
            f1,
            loc_top1,
            loc_top3,
            m_hh: staged.partition.m_hh,
            m_hl: staged.partition.m_hl,
            m_ll: staged.partition.m_ll,
            sample_rate: staged.sample_rate(),
            reaction_ms,
        };
        self.obs.observe_epoch(&record);
        record
    }

    /// The collection step: applies per-report fates, the bounded inbox and
    /// the controller pause, returning which edges' reports reach the
    /// controller plus the tally. Rebooted switches are replaced with
    /// factory-fresh data planes first — their report is *empty*, not
    /// missing, which is the harder failure to survive.
    fn collect(
        &mut self,
        config_in_effect: RuntimeConfig,
        faults: &EpochFaults,
        epoch: u64,
    ) -> (Vec<bool>, CollectionTally) {
        let mut tally = CollectionTally::default();
        let edges = &mut self.stack.edges;
        let capacity = self.serve.inbox_capacity.unwrap_or(edges.len());
        let mut accepted = 0;
        let mut arrived = vec![false; edges.len()];
        for (i, edge) in edges.iter_mut().enumerate() {
            if faults.rebooted[i] {
                // The reboot wiped both sketch groups; the switch still
                // answers collection — with nothing in it.
                *edge = EdgeDataPlane::new(edge.config().clone(), config_in_effect);
                tally.reboots += 1;
            }
            let reached = match faults.fates[i] {
                ReportFate::Delivered => {
                    tally.delivered += 1;
                    true
                }
                ReportFate::Lost => {
                    tally.lost += 1;
                    false
                }
                ReportFate::Delayed(k) => {
                    if k <= self.serve.faults.max_retries {
                        tally.delayed += 1;
                        let backoff = self.serve.faults.backoff_ms(epoch, i, k);
                        if backoff > tally.max_backoff_ms {
                            tally.max_backoff_ms = backoff;
                        }
                        true
                    } else {
                        tally.timed_out += 1;
                        false
                    }
                }
                ReportFate::Duplicated => {
                    // The retry raced the original: two identical copies
                    // arrive; dedup by (switch, epoch) keeps the first and
                    // counts the discard.
                    tally.delivered += 1;
                    tally.duplicates += 1;
                    true
                }
            };
            if reached {
                if accepted < capacity {
                    arrived[i] = !faults.controller_paused;
                    accepted += 1;
                } else {
                    tally.backpressure_drops += 1;
                }
            }
        }
        (arrived, tally)
    }

    /// Captures the runtime's evolving state at the current epoch
    /// boundary. Edge sketch state is deliberately absent: at a boundary
    /// both groups of every edge are empty and carry the deployed
    /// runtime, so [`restore`](Self::restore) rebuilds them exactly.
    pub fn snapshot(&self) -> ServeSnapshot {
        ServeSnapshot {
            epoch: self.next_epoch(),
            controller: self.stack.controller.snapshot(),
            watchdog: self.watchdog.snapshot(),
            last_good: self.last_good,
        }
    }

    /// Restores a snapshot taken from a runtime with the same
    /// [`ServeConfig`]. After this, the stream of [`step`](Self::step)
    /// results — decisions *and* metrics bytes — is identical to the
    /// uninterrupted run's.
    ///
    /// A snapshot is outside input: one that parses but does not fit this
    /// deployment — a deployed or last-good runtime that is invalid under
    /// the stack's [`DataPlaneConfig`](chamelemon::config::DataPlaneConfig),
    /// or localizer tables for a controller without localization — is an
    /// `Err`, checked before anything is mutated, so the runtime is
    /// untouched by a failed call.
    pub fn restore(&mut self, snap: &ServeSnapshot) -> Result<(), String> {
        let cfg = self.stack.edges[0].config();
        snap.controller
            .deployed
            .validate(cfg)
            .map_err(|e| format!("deployed runtime does not fit this configuration: {e}"))?;
        // Unchecked, an invalid hold would only surface epochs later, as a
        // panic the first time the watchdog degrades.
        snap.last_good
            .validate(cfg)
            .map_err(|e| format!("last_good runtime does not fit this configuration: {e}"))?;
        // The controller only says whether localization is on through its
        // own snapshot; this runs once per process.
        if snap.controller.localizer.is_some()
            && self.stack.controller.snapshot().localizer.is_none()
        {
            return Err("snapshot has localizer tables but localization is not enabled".into());
        }
        self.stack.controller.restore(&snap.controller);
        self.watchdog.restore(&snap.watchdog);
        self.last_good = snap.last_good;
        self.stack.simulator.set_epoch(snap.epoch);
        let deployed = *self.stack.controller.deployed_runtime();
        for e in &mut self.stack.edges {
            *e = EdgeDataPlane::new(e.config().clone(), deployed);
        }
        Ok(())
    }
}

/// Victim-detection precision/recall/F1 against ground truth — the values
/// behind [`EpochRecord::precision`], [`recall`](EpochRecord::recall) and
/// [`f1`](EpochRecord::f1) (pinned by the `--metrics` bytes).
///
/// Empty-set conventions, stated once for both scorers. Epochs with neither
/// true nor reported victims are perfect in both (all three 1.0). When only
/// one side is empty, **serve** scores the ratio whose denominator is zero
/// as vacuously met: precision is `1.0` when nothing was reported, recall is
/// `1.0` when there were no victims (never `null`). The **scenario scorer**
/// (`chm_common::metrics::detection_score`) scores the same ratio `0.0`.
/// F1 is `0.0` in both, since the other ratio has a zero numerator.
fn score_detection(
    report: &EpochReport<FiveTuple>,
    analysis: &EpochAnalysis<FiveTuple>,
) -> (f64, f64, f64) {
    let truth = &report.lost;
    let reported = &analysis.loss_report;
    if truth.is_empty() && reported.is_empty() {
        return (1.0, 1.0, 1.0);
    }
    let tp = truth.keys().filter(|f| reported.contains_key(f)).count() as f64;
    let precision = if reported.is_empty() { 1.0 } else { tp / reported.len() as f64 };
    let recall = if truth.is_empty() { 1.0 } else { tp / truth.len() as f64 };
    let f1 = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    (precision, recall, f1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chamelemon::Controller;

    fn runtime_after(epochs: u64) -> ServeRuntime {
        let scenario = Scenario::builder("restore_test").seed(11).flows(200).build();
        let mut rt = ServeRuntime::new(ServeConfig::new(scenario, FaultPlan::none(11)));
        for _ in 0..epochs {
            rt.step();
        }
        rt
    }

    /// `restore` must refuse `bad` and leave `rt` exactly as it was.
    fn assert_rejected(rt: &mut ServeRuntime, bad: &ServeSnapshot, needle: &str) {
        let before = rt.snapshot();
        let err = rt.restore(bad).expect_err("an unfit snapshot must be refused");
        assert!(err.contains(needle), "{err:?} does not name {needle:?}");
        assert_eq!(rt.snapshot(), before, "a refused restore must not touch the runtime");
    }

    #[test]
    fn restore_refuses_a_snapshot_that_does_not_fit_and_stays_untouched() {
        // The donor is at another epoch with other tables, so any partial
        // restore would show in the runtime's next snapshot.
        let good = runtime_after(5).snapshot();
        assert!(good.controller.localizer.is_some());
        let mut rt = runtime_after(2);

        let mut bad = good.clone();
        bad.controller.deployed.partition.m_hh = 9999;
        assert_rejected(&mut rt, &bad, "deployed");

        let mut bad = good.clone();
        bad.controller.deployed.tl = bad.controller.deployed.th + 1;
        assert_rejected(&mut rt, &bad, "deployed");

        // Never validated before: it used to panic epochs later, inside
        // `hold_runtime`, the first time the watchdog degraded.
        let mut bad = good.clone();
        bad.last_good.tl = bad.last_good.th + 1;
        assert_rejected(&mut rt, &bad, "last_good");

        // The same donor fits once nothing is wrong with it.
        rt.restore(&good).expect("a fitting snapshot restores");
        assert_eq!(rt.snapshot(), good);

        // Localizer tables for a controller that has no localizer.
        let cfg = rt.stack.edges[0].config().clone();
        rt.stack.controller = Controller::new(cfg);
        assert_rejected(&mut rt, &good, "localiz");
    }
}
