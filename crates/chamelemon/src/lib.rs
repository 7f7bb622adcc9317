//! **ChameleMon** — the paper's primary contribution: a network-wide
//! measurement system that supports packet loss tasks and packet
//! accumulation tasks *simultaneously* and shifts measurement attention
//! between them as the network state changes (§2–§4).
//!
//! The crate is organized like the system:
//!
//! * [`config`] — static (compile-time) and runtime (reconfigurable)
//!   parameters: encoder partition sizes, thresholds `Th`/`Tl`, LL sample
//!   rate;
//! * [`dataplane`] — the per-edge-switch data plane: TowerSketch flow
//!   classifier + partitioned upstream flow encoder (HH/HL/LL) + partitioned
//!   downstream flow encoder (HL/LL), with two sketch groups rotated by the
//!   1-bit epoch timestamp (§3.2, Appendix B);
//! * [`control`] — the central controller: collection, network-wide
//!   analysis, the healthy/ill network-state machine, and the
//!   attention-shifting reconfiguration (§4.3);
//! * [`tasks`] — the seven measurement tasks (§4.2);
//! * [`resources`] — the Tofino resource accounting behind Table 1 and the
//!   reconfiguration-time model behind Figure 22 (Appendix D).
//!
//! # Quick start
//!
//! ```
//! use chamelemon::{ChameleMon, config::DataPlaneConfig};
//! use chm_workloads::{testbed_trace, LossPlan, VictimSelection, WorkloadKind};
//!
//! // A small deployment over the 4-edge testbed topology.
//! let mut system = ChameleMon::testbed(DataPlaneConfig::small(0x5eed));
//! let trace = testbed_trace(WorkloadKind::Dctcp, 2_000, 8, 1);
//! let plan = LossPlan::build(&trace, VictimSelection::RandomRatio(0.05), 0.01, 2);
//!
//! // Run a few epochs; the controller analyzes and reconfigures each time.
//! for _ in 0..3 {
//!     let outcome = system.run_epoch(&trace, &plan);
//!     println!(
//!         "epoch {}: {} victim flows reported",
//!         outcome.report.epoch,
//!         outcome.analysis.loss_report.len()
//!     );
//! }
//! ```

pub mod config;
pub mod control;
pub mod dataplane;
pub mod localize;
pub mod resources;
pub mod tasks;

pub use config::{DataPlaneConfig, Partition, RuntimeConfig};
pub use control::{
    ClosedEpoch, Controller, ControllerSnapshot, EpochAnalysis, EpochProbe, NetworkState,
};
pub use dataplane::{CollectedGroup, EdgeDataPlane, Hierarchy, SketchGroup};
pub use localize::{
    EpochEvidence, Localization, Localizer, LocalizerSnapshot, VictimRoutes,
    PARTIAL_DECODE_CONFIDENCE,
};

use chm_netsim::{FatTree, ImpairmentSet, ShardedReplay, Sharding, SimConfig, Simulator, Topology};
use chm_netsim::sim::{EpochReport, Routable};
use chm_obs::SpanProfiler;
use chm_workloads::{LossPlan, Trace};

/// A full deployment: one data plane per edge switch, a simulator that
/// drives packets through them, and the central controller.
///
/// This is the highest-level API — examples and the figure-7/8/9 experiments
/// use it directly. Lower-level pieces ([`EdgeDataPlane`], [`Controller`])
/// are public for finer-grained use.
///
/// [`run_epoch`](Self::run_epoch) replays on the sharded engine
/// ([`chm_netsim::ShardedReplay`]), the edge switches split across the
/// cores the building thread has to itself ([`chm_netsim::core_share`]):
/// the whole machine, or a trial pool worker's share of it, down to one
/// shard. The layout is chosen once, in [`new`](Self::new), and is not a
/// setting: the engine's contract is a report and sketch state
/// byte-identical to the serial [`Simulator`]'s at any layout, so no output
/// depends on it.
pub struct ChameleMon<F: chm_common::FlowId> {
    /// Per-edge-switch data planes.
    pub edges: Vec<EdgeDataPlane<F>>,
    /// The central controller.
    pub controller: Controller<F>,
    /// The packet-level simulator standing in for the testbed fabric. The
    /// engine advances its epoch; a caller may equally drive it serially
    /// (`simulator.run_epoch_burst` over `edges`) and close the epoch
    /// through `controller`.
    pub simulator: Simulator,
    /// The replay engine [`run_epoch`](Self::run_epoch) drives.
    engine: ShardedReplay<F>,
}

/// Everything produced by one epoch: the simulator's ground truth and the
/// controller's analysis of the collected sketches.
pub struct EpochOutcome<F: chm_common::FlowId> {
    /// Ground truth (delivered/lost per flow) from the fabric.
    pub report: EpochReport<F>,
    /// The controller's decoded view and estimates.
    pub analysis: EpochAnalysis<F>,
    /// The runtime configuration that *was in effect* during this epoch.
    pub config_in_effect: RuntimeConfig,
    /// The runtime configuration the controller staged for the next epoch.
    pub staged_runtime: RuntimeConfig,
    /// Time the controller spent analyzing + reconfiguring — the "response
    /// time" of Figure 20. The library never reads a clock itself: this is
    /// `None` under [`ChameleMon::run_epoch`] and measured only when the
    /// bench harness injects a clock via
    /// [`ChameleMon::run_epoch_with_clock`]. There is deliberately no `0.0`
    /// placeholder — "not measured" must never masquerade as "instant".
    pub response_time_s: Option<f64>,
}

impl<F: chm_common::FlowId> ChameleMon<F> {
    /// Builds a deployment over the §5.2 testbed fat-tree (4 edge switches).
    pub fn testbed(cfg: DataPlaneConfig) -> Self {
        Self::new(cfg, FatTree::testbed(), SimConfig::default())
    }

    /// Builds a deployment over an arbitrary topology (one edge data plane
    /// per edge switch of the fabric). The replay engine gets one shard and
    /// one worker per core the calling thread has to itself
    /// ([`chm_netsim::core_share`]), at most one per edge switch: one shard
    /// inside a trial pool that fills the machine.
    pub fn new(cfg: DataPlaneConfig, topology: impl Into<Topology>, sim: SimConfig) -> Self {
        let topology = topology.into();
        let sharding = Sharding::of(chm_netsim::core_share().min(topology.n_edges()));
        let runtime = RuntimeConfig::initial(&cfg);
        let edges = (0..topology.n_edges())
            .map(|_| EdgeDataPlane::new(cfg.clone(), runtime))
            .collect();
        ChameleMon {
            edges,
            controller: Controller::new(cfg),
            simulator: Simulator::new(topology, sim),
            engine: ShardedReplay::new(sharding),
        }
    }

    /// Runs one full epoch: replay the trace with losses on the sharded
    /// engine, then close the epoch through [`Controller::close_epoch`] —
    /// every report arrives, and the controller's own
    /// [`Controller::reconfigure`] decides the runtime that functions next
    /// epoch. The outcome is the one the serial `simulator.run_epoch_burst`
    /// plus `close_epoch` produces, bit for bit, at whatever layout
    /// [`new`](Self::new) chose.
    pub fn run_epoch(&mut self, trace: &Trace<F>, plan: &LossPlan<F>) -> EpochOutcome<F>
    where
        F: Routable,
    {
        // Determinism: the library owns no clock. `response_time_s` is
        // `None` here; the bench harness measures real time by injecting a
        // clock through `run_epoch_with_clock`.
        self.run_epoch_inner(trace, plan, None)
    }

    /// [`run_epoch`](Self::run_epoch) with an injected monotonic clock
    /// (seconds as `f64`): `now_s` is sampled immediately before and after
    /// the controller's analyze + reconfigure step and the difference is
    /// reported as [`EpochOutcome::response_time_s`]. Only the bench
    /// timing harness passes a real clock; everything else goes through
    /// [`run_epoch`](Self::run_epoch) and stays bit-reproducible.
    pub fn run_epoch_with_clock(
        &mut self,
        trace: &Trace<F>,
        plan: &LossPlan<F>,
        now_s: &mut dyn FnMut() -> f64,
    ) -> EpochOutcome<F>
    where
        F: Routable,
    {
        // Only the response time is read; the probe's spans are dropped.
        let mut spans = SpanProfiler::new();
        let probe = EpochProbe { spans: &mut spans, clock: now_s, allocs: &|| 0 };
        self.run_epoch_inner(trace, plan, Some(probe))
    }

    fn run_epoch_inner(
        &mut self,
        trace: &Trace<F>,
        plan: &LossPlan<F>,
        probe: Option<EpochProbe<'_>>,
    ) -> EpochOutcome<F>
    where
        F: Routable,
    {
        let config_in_effect = *self.controller.deployed_runtime();
        // `EdgeDataPlane` implements `chm_netsim::EdgeSite`; the engine
        // hands each shard the edges it owns. Burst replay: one hook call per
        // flow, sketch state identical to the per-packet path (see
        // `TowerSketch::insert_burst`).
        let report = self.engine.run_epoch_burst_scenario(
            &mut self.simulator,
            trace,
            plan,
            &ImpairmentSet::none(),
            &mut self.edges,
        );
        let closed = self.controller.close_epoch(
            &mut self.edges,
            report.epoch,
            None,
            &report.queue_depth,
            Controller::reconfigure,
            probe,
        );
        EpochOutcome {
            report,
            analysis: closed.analysis,
            config_in_effect,
            staged_runtime: closed.staged,
            response_time_s: closed.response_time_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chm_common::FiveTuple;
    use chm_netsim::SiteArray;
    use chm_workloads::{testbed_trace, VictimSelection, WorkloadKind};

    #[test]
    fn the_engine_takes_the_building_threads_core_share() {
        let layout = |cores| {
            chm_netsim::with_core_share(cores, || {
                let sys = ChameleMon::<FiveTuple>::testbed(DataPlaneConfig::small(3));
                sys.engine.sharding()
            })
        };
        assert_eq!(layout(1), Sharding::of(1), "a pool worker's one core: one shard");
        assert_eq!(layout(3), Sharding::of(3));
        assert_eq!(layout(16), Sharding::of(4), "at most one shard per edge switch");
    }

    /// `run_epoch` at a fixed, machine-independent layout against the serial
    /// `Simulator` plus `close_epoch` over the pub fields: one shard, and
    /// three shards over the testbed's four edges (one shard owns two).
    #[test]
    fn run_epoch_matches_the_serial_reference_at_1_and_3_shards() {
        let trace = testbed_trace(WorkloadKind::Dctcp, 5_000, 8, 3);
        let plans: Vec<LossPlan<FiveTuple>> = [0.025, 0.10, 0.25, 0.10]
            .iter()
            .map(|&r| LossPlan::build(&trace, VictimSelection::RandomRatio(r), 0.01, 5))
            .collect();
        let empty = Trace { flows: Vec::new() };
        for shards in [1, 3] {
            let mut engine = ChameleMon::testbed(DataPlaneConfig::small(3));
            engine.engine = ShardedReplay::new(Sharding::of(shards));
            let mut serial = ChameleMon::testbed(DataPlaneConfig::small(3));
            for epoch in 0..12 {
                let (trace, plan) = match epoch {
                    5 => (&empty, &LossPlan::none()),
                    _ => (&trace, &plans[epoch / 2 % plans.len()]),
                };
                let got = engine.run_epoch(trace, plan);
                let mut sites = SiteArray(&mut serial.edges);
                let report = serial.simulator.run_epoch_burst(trace, plan, &mut sites);
                let want = serial.controller.close_epoch(
                    &mut serial.edges,
                    report.epoch,
                    None,
                    &report.queue_depth,
                    Controller::reconfigure,
                    None,
                );
                let at = format!("{shards} shards, epoch {epoch}");
                assert!(got.report == report, "{at}: report");
                assert_eq!(got.analysis.loss_report, want.analysis.loss_report, "{at}");
                assert_eq!(got.staged_runtime, want.staged, "{at}: staged runtime");
                for (i, (a, b)) in engine.edges.iter().zip(&serial.edges).enumerate() {
                    assert!(a.group(0) == b.group(0) && a.group(1) == b.group(1), "{at}: edge {i}");
                }
            }
        }
    }
}
