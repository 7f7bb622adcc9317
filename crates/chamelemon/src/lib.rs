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

#![forbid(unsafe_code)]

pub mod config;
pub mod control;
pub mod dataplane;
pub mod localize;
pub mod resources;
pub mod tasks;

pub use config::{DataPlaneConfig, Partition, RuntimeConfig};
pub use control::{Controller, ControllerSnapshot, EpochAnalysis, NetworkState};
pub use dataplane::{CollectedGroup, EdgeDataPlane, Hierarchy, SketchGroup};
pub use localize::{
    EpochEvidence, Localization, Localizer, LocalizerSnapshot, PARTIAL_DECODE_CONFIDENCE,
};

use chm_netsim::{FatTree, SimConfig, SiteArray, Simulator, Topology};
use chm_netsim::sim::{EpochReport, Routable};
use chm_workloads::{LossPlan, Trace};

/// A full deployment: one data plane per edge switch, a simulator that
/// drives packets through them, and the central controller.
///
/// This is the highest-level API — examples and the figure-7/8/9 experiments
/// use it directly. Lower-level pieces ([`EdgeDataPlane`], [`Controller`])
/// are public for finer-grained use.
pub struct ChameleMon<F: chm_common::FlowId> {
    /// Per-edge-switch data planes.
    pub edges: Vec<EdgeDataPlane<F>>,
    /// The central controller.
    pub controller: Controller<F>,
    /// The packet-level simulator standing in for the testbed fabric.
    pub simulator: Simulator,
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
    /// per edge switch of the fabric).
    pub fn new(cfg: DataPlaneConfig, topology: impl Into<Topology>, sim: SimConfig) -> Self {
        let topology = topology.into();
        let runtime = RuntimeConfig::initial(&cfg);
        let edges = (0..topology.n_edges())
            .map(|_| EdgeDataPlane::new(cfg.clone(), runtime))
            .collect();
        ChameleMon {
            edges,
            controller: Controller::new(cfg),
            simulator: Simulator::new(topology, sim),
        }
    }

    /// Runs one full epoch: replay the trace with losses, flip the epoch
    /// timestamp, take ownership of the finished sketch group from every
    /// edge (zero-clone collection), analyze, reconfigure (effective next
    /// epoch), and install the new runtime configuration.
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
        self.run_epoch_inner(trace, plan, Some(now_s))
    }

    fn run_epoch_inner(
        &mut self,
        trace: &Trace<F>,
        plan: &LossPlan<F>,
        mut now_s: Option<&mut dyn FnMut() -> f64>,
    ) -> EpochOutcome<F>
    where
        F: Routable,
    {
        let config_in_effect = *self.controller.deployed_runtime();
        let report = {
            // `EdgeDataPlane` implements `chm_netsim::EdgeSite`; `SiteArray`
            // hands the simulator the edge slice.
            let mut hooks = SiteArray(&mut self.edges);
            // Burst replay: one hook call per flow, sketch state identical
            // to the per-packet path (see `TowerSketch::insert_burst`).
            self.simulator.run_epoch_burst(trace, plan, &mut hooks)
        };
        let ts_bit = (report.epoch & 1) as u8;
        // Epoch ended: the controller takes the monitoring groups whole —
        // `mem::replace` hands it owned snapshots, nothing is copied.
        let collected: Vec<CollectedGroup<F>> =
            self.edges.iter_mut().map(|e| e.take_group(ts_bit)).collect();
        let t0 = now_s.as_mut().map(|f| f());
        let analysis = self.controller.analyze_epoch(&collected);
        let new_runtime = self.controller.reconfigure(&analysis);
        let response_time_s = now_s.as_mut().zip(t0).map(|(f, t0)| f() - t0);
        // The reconfiguration functions in the *next* epoch (§4.3): stage it
        // on every edge; the flip below swaps groups and applies it.
        for e in &mut self.edges {
            e.stage_runtime(new_runtime);
            e.flip(ts_bit);
        }
        EpochOutcome {
            report,
            analysis,
            config_in_effect,
            staged_runtime: new_runtime,
            response_time_s,
        }
    }
}
