//! **Adversarial scenario engine** for the ChameleMon reproduction.
//!
//! The paper's evaluation (§5) exercises clean Bernoulli/spread loss on a
//! healthy fat-tree. Real networks do worse: they lose packets in
//! correlated bursts, duplicate and reorder them, disagree about what time
//! it is, drop the *measurement reports themselves*, and churn flows under
//! the controller's feet. This crate composes those pathologies into named,
//! seeded, deterministic **scenarios** and drives them through the full
//! stack — `Simulator` → `EdgeDataPlane` → `Controller` — end to end,
//! scoring every epoch's loss detection (F1, ARE) and decode health.
//!
//! Three layers compose:
//!
//! * **per-packet impairments** ([`chm_netsim::impair`]): Gilbert–Elliott
//!   bursty loss, duplication, bounded reordering, per-edge clock skew —
//!   realized per flow *above* the hook boundary, so the per-packet and
//!   burst replays stay byte-identical under every scenario (the PR-2
//!   contract, property-tested in `tests/differential.rs`);
//! * **per-epoch dynamics** ([`chm_workloads`]): flow churn
//!   ([`FlowChurn`]), heavy-hitter floods ([`FloodModel`]), victim drift
//!   ([`VictimDrift`]);
//! * **control-channel loss**: each switch's collected sketch group reaches
//!   the controller only with probability `1 − report_loss` per epoch
//!   (the controller tolerates partial and even empty collections).
//!
//! ```
//! use chm_scenarios::{ReplayMode, Scenario};
//!
//! let s = Scenario::builder("demo")
//!     .seed(7)
//!     .flows(400)
//!     .epochs(3)
//!     .gilbert_elliott(0.02, 0.25, 0.0, 0.5)
//!     .duplication(0.02)
//!     .build();
//! let r = chm_scenarios::run(&s, ReplayMode::Burst);
//! assert_eq!(r.epochs.len(), 3);
//! assert!(r.mean_f1 > 0.5, "bursty loss should still be mostly detected");
//! ```
//!
//! The [`standard_matrix`] is the golden scenario set behind
//! `chm-bench scenarios` and `results/SCENARIOS.json`.

mod matrix;
mod runner;
mod stream;

pub use matrix::standard_matrix;
pub use stream::EpochStream;
pub use runner::{
    localization_hits, run, run_with_config, EpochMetrics, EpochTrace, ReplayMode,
    ScenarioResult, ScenarioStack, TrackScore, CFG_SALT,
};

use chm_netsim::impair::{ClockSkew, Duplication, GilbertElliott, ImpairmentSet, Reordering};
use chm_netsim::{
    CongestionModel, Derate, FatTree, KaryFatTree, LeafSpine, QueueModel, RedDrop,
    SwitchRole, Topology, WanGraph,
};
use chm_workloads::{
    testbed_trace, ArrivalProfile, FlowChurn, FloodModel, IncastModel, LossPlan, Trace,
    VictimDrift, VictimSelection, WorkloadKind,
};
use chm_common::hash::mix64;
use chm_common::FiveTuple;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Salt separating the base-trace RNG stream from the scenario seed.
const TRACE_SALT: u64 = 0x7261_6365; // "race"
/// Salt separating the loss-plan RNG stream.
const PLAN_SALT: u64 = 0x706c_616e; // "plan"
/// Salt separating the report-channel RNG stream.
const REPORT_SALT: u64 = 0x7265_7074; // "rept"

/// Default time slots per epoch for the queue-dynamics knobs.
pub const DEFAULT_SLOTS: usize = 8;

/// Which fabric from the topology zoo a scenario runs on.
///
/// [`Testbed`](TopologySpec::Testbed) derives a testbed-family fat-tree
/// from the scenario's host count — the historical behavior every existing
/// golden is pinned to. The other variants pick a generator and size the
/// host count themselves (the builder's
/// [`topology`](ScenarioBuilder::topology) setter syncs `n_hosts` so the
/// trace generator addresses every host the fabric has).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// Testbed-family fat-tree sized from `n_hosts` (2 hosts per edge,
    /// edge count rounded up to even).
    Testbed,
    /// Textbook k-ary fat-tree (`k` even: `k` pods, `(k/2)²` cores,
    /// `k³/4` hosts).
    KaryFatTree {
        /// The arity.
        k: usize,
    },
    /// Two-tier leaf-spine Clos.
    LeafSpine {
        /// Leaf (ToR) switches.
        n_leaf: usize,
        /// Spine switches.
        n_spine: usize,
        /// Hosts per leaf.
        hosts_per_leaf: usize,
    },
    /// The Abilene WAN backbone (11 nodes, 14 links, asymmetric ECMP).
    AbileneWan {
        /// Hosts per PoP.
        hosts_per_node: usize,
    },
}

impl TopologySpec {
    /// Materializes the fabric. For [`Testbed`](Self::Testbed) the shape
    /// follows the scenario's host count exactly as the pre-zoo runner
    /// derived it (2 hosts per edge, at least one pod), rounding the edge
    /// count up to even — the validated [`FatTree::new`] rejects the odd
    /// shapes the old struct-literal silently mis-wired.
    pub fn build(&self, n_hosts: u32) -> Topology {
        match *self {
            TopologySpec::Testbed => {
                let n_edge = (n_hosts as usize).div_ceil(2).max(2);
                FatTree::new(n_edge + n_edge % 2, 2).into()
            }
            TopologySpec::KaryFatTree { k } => KaryFatTree::new(k).into(),
            TopologySpec::LeafSpine { n_leaf, n_spine, hosts_per_leaf } => {
                LeafSpine::new(n_leaf, n_spine, hosts_per_leaf).into()
            }
            TopologySpec::AbileneWan { hosts_per_node } => {
                WanGraph::abilene(hosts_per_node).into()
            }
        }
    }
}

/// A named, seeded, fully deterministic adversarial scenario: a workload, a
/// loss plan, a set of fabric impairments, per-epoch dynamics, and a
/// control-channel loss rate. Build one with [`Scenario::builder`].
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (stable key in `SCENARIOS.json`).
    pub name: String,
    /// Master seed; every random choice in the scenario derives from it.
    pub seed: u64,
    /// Number of epochs to run.
    pub epochs: u64,
    /// Flows in the base trace.
    pub n_flows: usize,
    /// Hosts in the fabric (testbed: 8).
    pub n_hosts: u32,
    /// Which fabric the scenario runs on.
    pub topology: TopologySpec,
    /// Flow-size distribution of the base trace.
    pub workload: WorkloadKind,
    /// Victim selection for the loss plan.
    pub selection: VictimSelection,
    /// Per-victim packet loss rate.
    pub loss_rate: f64,
    /// Fabric impairments (loss bursts, duplicates, reordering, skew).
    pub impairments: ImpairmentSet,
    /// Per-epoch flow churn.
    pub churn: Option<FlowChurn>,
    /// Periodic heavy-hitter floods.
    pub flood: Option<FloodModel>,
    /// Per-epoch victim drift.
    pub drift: Option<VictimDrift>,
    /// Many-to-one traffic concentration (pairs with the congestion model
    /// in [`Scenario::impairments`] to create fan-in hot spots).
    pub incast: Option<IncastModel>,
    /// Probability that one switch's collected report is lost in one epoch.
    pub report_loss: f64,
}

impl Scenario {
    /// Starts building a scenario with sane defaults: 8 hosts, DCTCP
    /// workload, 10% random victims at 5% loss, no impairments, no
    /// dynamics, a perfect control channel.
    pub fn builder(name: &str) -> ScenarioBuilder {
        ScenarioBuilder {
            inner: Scenario {
                name: name.to_string(),
                seed: 0xc4a3,
                epochs: 4,
                n_flows: 1_000,
                n_hosts: 8,
                topology: TopologySpec::Testbed,
                workload: WorkloadKind::Dctcp,
                selection: VictimSelection::RandomRatio(0.1),
                loss_rate: 0.05,
                impairments: ImpairmentSet::none(),
                churn: None,
                flood: None,
                drift: None,
                incast: None,
                report_loss: 0.0,
            },
        }
    }

    /// The congested service preset: the queue model with microbursts and a
    /// slow-draining ToR, so localization has something to find. `chm-serve
    /// --scenario congested`, the soak and `chm-bench profile` all run it
    /// (600 flows, except where the profile sizing says otherwise); the
    /// name is a label only — it feeds no seed.
    pub fn serve_congested(seed: u64, flows: usize) -> Scenario {
        Scenario::builder("serve_congested")
            .seed(seed)
            .flows(flows)
            .congestion()
            .queue_model(8)
            .microburst(0.3, 2)
            .slow_drain_tor(1, 0.55)
            .build()
    }

    /// Re-pins the master seed, re-deriving every dependent sub-seed the
    /// builder pins at build time (impairments, churn, flood, drift,
    /// incast) — so a seed variant really is an independent realization of
    /// the whole pipeline, not just a different base trace.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.impairments.seed = seed ^ 0x1a7a;
        if let Some(c) = &mut self.churn {
            c.seed = seed ^ 0xc447;
        }
        if let Some(f) = &mut self.flood {
            f.seed = seed ^ 0xf100d;
        }
        if let Some(d) = &mut self.drift {
            d.seed = seed ^ 0xd21f7;
        }
        if let Some(i) = &mut self.incast {
            i.seed = seed ^ 0x0001_ca57;
        }
        self
    }

    /// Materializes the fabric this scenario runs on.
    pub fn build_topology(&self) -> Topology {
        self.topology.build(self.n_hosts)
    }

    /// The base (epoch-0) trace.
    pub fn base_trace(&self) -> Trace<FiveTuple> {
        testbed_trace(
            self.workload,
            self.n_flows,
            self.n_hosts,
            self.seed ^ TRACE_SALT,
        )
    }

    /// The flow set live in `epoch`: the base trace evolved by churn, hit
    /// by any flood due this epoch, then concentrated by any incast.
    pub fn trace_for_epoch(&self, base: &Trace<FiveTuple>, epoch: u64) -> Trace<FiveTuple> {
        let evolved = match &self.churn {
            Some(c) => c.evolve(base, epoch, self.n_hosts, self.workload),
            None => base.clone(),
        };
        let flooded = match &self.flood {
            Some(f) => f.apply(&evolved, epoch, self.n_hosts),
            None => evolved,
        };
        match &self.incast {
            Some(i) => i.apply(&flooded),
            None => flooded,
        }
    }

    /// The loss plan for `epoch` over that epoch's trace.
    pub fn plan_for_epoch(&self, trace: &Trace<FiveTuple>, epoch: u64) -> LossPlan<FiveTuple> {
        match &self.drift {
            Some(d) => d.plan(trace, self.selection, self.loss_rate, epoch),
            None => LossPlan::build(trace, self.selection, self.loss_rate, self.seed ^ PLAN_SALT),
        }
    }

    /// Which of `n_edges` switches' reports reach the controller in
    /// `epoch` — seeded per epoch, independent per switch.
    pub fn reports_received(&self, epoch: u64, n_edges: usize) -> Vec<bool> {
        if self.report_loss <= 0.0 {
            return vec![true; n_edges];
        }
        let mut rng =
            StdRng::seed_from_u64(mix64(self.seed ^ REPORT_SALT).wrapping_add(epoch));
        (0..n_edges).map(|_| !rng.gen_bool(self.report_loss)).collect()
    }
}

/// Fluent [`Scenario`] constructor; every setter returns `self`.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    inner: Scenario,
}

impl ScenarioBuilder {
    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.inner.seed = seed;
        self
    }

    /// Sets the epoch count.
    pub fn epochs(mut self, epochs: u64) -> Self {
        self.inner.epochs = epochs;
        self
    }

    /// Sets the base trace's flow count.
    pub fn flows(mut self, n: usize) -> Self {
        self.inner.n_flows = n;
        self
    }

    /// Sets the host count (and thereby the edge-switch fan-out).
    pub fn hosts(mut self, n: u32) -> Self {
        self.inner.n_hosts = n;
        self
    }

    /// Picks the fabric from the topology zoo. For every non-testbed spec
    /// the host count follows the fabric (the trace generator must address
    /// exactly the hosts the fabric has); [`Testbed`](TopologySpec::Testbed)
    /// keeps deriving the fat-tree from [`hosts`](Self::hosts).
    pub fn topology(mut self, spec: TopologySpec) -> Self {
        self.inner.topology = spec;
        if !matches!(spec, TopologySpec::Testbed) {
            self.inner.n_hosts = spec.build(self.inner.n_hosts).n_hosts() as u32;
        }
        self
    }

    /// Sets the flow-size workload.
    pub fn workload(mut self, w: WorkloadKind) -> Self {
        self.inner.workload = w;
        self
    }

    /// Sets the victim selection and per-victim loss rate.
    pub fn loss(mut self, selection: VictimSelection, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "loss rate out of range");
        self.inner.selection = selection;
        self.inner.loss_rate = rate;
        self
    }

    /// Adds Gilbert–Elliott bursty loss.
    pub fn gilbert_elliott(
        mut self,
        p_enter_bad: f64,
        p_exit_bad: f64,
        loss_good: f64,
        loss_bad: f64,
    ) -> Self {
        for p in [p_enter_bad, p_exit_bad, loss_good, loss_bad] {
            assert!((0.0..=1.0).contains(&p), "GE probability out of range");
        }
        self.inner.impairments.gilbert_elliott =
            Some(GilbertElliott { p_enter_bad, p_exit_bad, loss_good, loss_bad });
        self
    }

    /// Adds fabric packet duplication.
    pub fn duplication(mut self, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "duplication prob out of range");
        self.inner.impairments.duplication = Some(Duplication { prob });
        self
    }

    /// Adds bounded packet reordering.
    pub fn reordering(mut self, prob: f64, window: u64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "reorder prob out of range");
        assert!(window >= 1, "reorder window must be >= 1");
        self.inner.impairments.reordering = Some(Reordering { prob, window });
        self
    }

    /// Adds per-edge 1-bit-timestamp clock skew.
    pub fn clock_skew(mut self, max_frac: f64) -> Self {
        assert!((0.0..=1.0).contains(&max_frac), "skew fraction out of range");
        self.inner.impairments.clock_skew = Some(ClockSkew { max_frac });
        self
    }

    /// Enables the per-link congestion model with its calibrated defaults
    /// (loss arises wherever the offered load saturates a link; see
    /// [`CongestionModel`]). Returns `self` with an empty derate list —
    /// follow with [`derate_switch`](Self::derate_switch) /
    /// [`rolling_tor`](Self::rolling_tor) to create structural hot spots,
    /// or pair with [`incast`](Self::incast) for a traffic-shaped one.
    pub fn congestion(mut self) -> Self {
        self.inner
            .impairments
            .congestion
            .get_or_insert_with(CongestionModel::calibrated);
        self
    }

    /// Enables the time-resolved queue model with its calibrated defaults
    /// over `slots` slots per epoch (flat arrivals, tail drop, full queue
    /// coupling; see [`QueueModel::calibrated`]). When the congestion model
    /// is configured too (e.g. via [`derate_switch`](Self::derate_switch))
    /// the fabric still has one link-loss layer: this model, under both
    /// models' derates ([`ImpairmentSet::link_model`]). Follow
    /// with [`microburst`](Self::microburst) /
    /// [`incast_ramp`](Self::incast_ramp) /
    /// [`slow_drain_tor`](Self::slow_drain_tor) to shape the dynamics.
    pub fn queue_model(mut self, slots: usize) -> Self {
        assert!(slots >= 1, "need at least one slot");
        match &mut self.inner.impairments.queue {
            // A shaping knob may already have installed the model with the
            // default slot count — honor the explicit slots either way.
            Some(q) => q.slots = slots,
            None => self.inner.impairments.queue = Some(QueueModel::calibrated(slots)),
        }
        self
    }

    /// Shapes arrivals into a synchronized microburst: `frac` of every
    /// flow's packets concentrate into a seeded `width`-slot window.
    /// Enables the calibrated queue model over [`DEFAULT_SLOTS`] slots if
    /// none is configured yet.
    pub fn microburst(mut self, frac: f64, width: usize) -> Self {
        assert!((0.0..=1.0).contains(&frac), "microburst fraction out of range");
        assert!(width >= 1, "microburst width must be >= 1");
        self.inner
            .impairments
            .queue
            .get_or_insert_with(|| QueueModel::calibrated(DEFAULT_SLOTS))
            .profile = ArrivalProfile::Microburst { frac, width };
        self
    }

    /// Shapes arrivals into a linear within-epoch ramp (the incast
    /// build-up: rate ≈ 2× the mean by the final slot). Enables the
    /// calibrated queue model if needed.
    pub fn incast_ramp(mut self) -> Self {
        self.inner
            .impairments
            .queue
            .get_or_insert_with(|| QueueModel::calibrated(DEFAULT_SLOTS))
            .profile = ArrivalProfile::IncastRamp;
        self
    }

    /// Derates the *service rate* of every out-link of edge switch `index`
    /// by `factor`: the ToR's queues drain slowly, stay deep across the
    /// epoch, and drop in a time-correlated way. Enables the calibrated
    /// queue model if needed.
    pub fn slow_drain_tor(mut self, index: usize, factor: f64) -> Self {
        assert!((0.0..=1.0).contains(&factor), "derate factor out of range");
        self.inner
            .impairments
            .queue
            .get_or_insert_with(|| QueueModel::calibrated(DEFAULT_SLOTS))
            .derates
            .push(Derate::Switch { role: SwitchRole::Edge, index, factor });
        self
    }

    /// Adds RED-style early drop to the queue model (depths in slot-service
    /// units). Enables the calibrated queue model if needed.
    pub fn queue_red(mut self, min_depth: f64, max_depth: f64, max_prob: f64) -> Self {
        assert!(max_depth > min_depth, "RED depths must be ordered");
        assert!((0.0..=1.0).contains(&max_prob), "RED max prob out of range");
        self.inner
            .impairments
            .queue
            .get_or_insert_with(|| QueueModel::calibrated(DEFAULT_SLOTS))
            .red = Some(RedDrop { min_depth, max_depth, max_prob });
        self
    }

    /// Derates every out-link of one switch by `factor` (a brownout),
    /// enabling the calibrated congestion model if it is not already on.
    /// The derate holds under the queue knobs too.
    pub fn derate_switch(mut self, role: SwitchRole, index: usize, factor: f64) -> Self {
        assert!((0.0..=1.0).contains(&factor), "derate factor out of range");
        self.inner
            .impairments
            .congestion
            .get_or_insert_with(CongestionModel::calibrated)
            .derates
            .push(Derate::Switch { role, index, factor });
        self
    }

    /// A degradation rolling across the ToRs: every `period` epochs the
    /// derated edge switch advances to the next one. Enables the calibrated
    /// congestion model if needed; holds under the queue knobs too.
    pub fn rolling_tor(mut self, period: u64, factor: f64) -> Self {
        assert!(period >= 1, "rolling period must be >= 1");
        assert!((0.0..=1.0).contains(&factor), "derate factor out of range");
        self.inner
            .impairments
            .congestion
            .get_or_insert_with(CongestionModel::calibrated)
            .derates
            .push(Derate::RollingEdge { period, factor });
        self
    }

    /// Concentrates a `frac` fraction of the flows on `target_host`
    /// (many-to-one incast) and enables the calibrated congestion model so
    /// the fan-in actually loses packets at the target's ToR.
    pub fn incast(mut self, frac: f64, target_host: u32) -> Self {
        assert!((0.0..=1.0).contains(&frac), "incast fraction out of range");
        self.inner.incast =
            Some(IncastModel { frac, target_host, seed: self.inner.seed ^ 0x0001_ca57 });
        self.inner
            .impairments
            .congestion
            .get_or_insert_with(CongestionModel::calibrated);
        self
    }

    /// Adds per-epoch flow churn.
    pub fn churn(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "churn rate out of range");
        self.inner.churn = Some(FlowChurn { rate, seed: self.inner.seed ^ 0xc447 });
        self
    }

    /// Adds periodic heavy-hitter floods.
    pub fn flood(mut self, period: u64, n_flows: usize, pkts_per_flow: u64) -> Self {
        assert!(period >= 1, "flood period must be >= 1");
        self.inner.flood = Some(FloodModel {
            period,
            n_flows,
            pkts_per_flow,
            seed: self.inner.seed ^ 0xf100d,
        });
        self
    }

    /// Adds per-epoch victim drift.
    pub fn victim_drift(mut self, frac: f64) -> Self {
        assert!((0.0..=1.0).contains(&frac), "drift fraction out of range");
        self.inner.drift = Some(VictimDrift { frac, seed: self.inner.seed ^ 0xd21f7 });
        self
    }

    /// Sets the per-switch per-epoch report-loss probability.
    pub fn report_loss(mut self, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "report loss out of range");
        self.inner.report_loss = prob;
        self
    }

    /// Finalizes the scenario. The dependent sub-seeds are pinned to the
    /// scenario seed here (via [`Scenario::with_seed`]) so a builder chain
    /// can set `.seed()` at any position.
    pub fn build(self) -> Scenario {
        let seed = self.inner.seed;
        self.inner.with_seed(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_clean() {
        let s = Scenario::builder("x").build();
        assert!(s.impairments.is_none());
        assert!(s.churn.is_none() && s.flood.is_none() && s.drift.is_none());
        assert_eq!(s.report_loss, 0.0);
        assert_eq!(s.reports_received(3, 4), vec![true; 4]);
    }

    #[test]
    fn builder_seed_position_does_not_matter() {
        let a = Scenario::builder("x").seed(9).churn(0.1).build();
        let b = Scenario::builder("x").churn(0.1).seed(9).build();
        assert_eq!(a.churn, b.churn);
        assert_eq!(a.impairments, b.impairments);
    }

    #[test]
    fn with_seed_rederives_every_sub_seed() {
        let s = Scenario::builder("x")
            .seed(9)
            .churn(0.1)
            .flood(2, 5, 100)
            .victim_drift(0.2)
            .incast(0.1, 3)
            .build();
        let v = s.clone().with_seed(10);
        assert_ne!(v.impairments.seed, s.impairments.seed);
        assert_ne!(v.churn.unwrap().seed, s.churn.unwrap().seed);
        assert_ne!(v.flood.unwrap().seed, s.flood.unwrap().seed);
        assert_ne!(v.drift.unwrap().seed, s.drift.unwrap().seed);
        assert_ne!(v.incast.unwrap().seed, s.incast.unwrap().seed);
        // Re-pinning the original seed is the identity.
        let back = v.with_seed(9);
        assert_eq!(back.impairments, s.impairments);
        assert_eq!(back.incast, s.incast);
    }

    #[test]
    fn queue_knobs_compose() {
        let s = Scenario::builder("q")
            .seed(4)
            .incast(0.2, 0) // enables the congestion model too
            .rolling_tor(2, 0.6)
            .queue_model(8)
            .microburst(0.4, 2)
            .slow_drain_tor(1, 0.5)
            .queue_red(0.5, 2.0, 0.2)
            .build();
        let q = s.impairments.queue.as_ref().expect("queue model configured");
        assert_eq!(q.slots, 8);
        assert!(matches!(
            q.profile,
            chm_workloads::ArrivalProfile::Microburst { .. }
        ));
        assert_eq!(q.derates.len(), 1);
        assert!(q.red.is_some());
        // The incast knob still configures the congestion model; the replay
        // runs one link-loss model, the queue model under both derate lists.
        assert!(s.impairments.congestion.is_some());
        assert!(!s.impairments.is_none());
        let composed = s.impairments.link_model().expect("one link-loss model");
        assert_eq!((composed.slots, composed.red), (q.slots, q.red));
        assert_eq!(
            composed.derates,
            [
                Derate::Switch { role: SwitchRole::Edge, index: 1, factor: 0.5 },
                Derate::RollingEdge { period: 2, factor: 0.6 },
            ]
        );
        // Knob order must not matter: an explicit slot count is honored
        // even when a shaping knob installed the model first.
        let late = Scenario::builder("q2").microburst(0.4, 2).queue_model(16).build();
        assert_eq!(late.impairments.queue.as_ref().unwrap().slots, 16);
        assert!(matches!(
            late.impairments.queue.as_ref().unwrap().profile,
            chm_workloads::ArrivalProfile::Microburst { .. }
        ));
    }

    /// A congestion derate survives the queue knobs: the fabric has one
    /// link-loss layer, so a browned-out core stays the hottest spot when a
    /// microburst shapes the arrivals (the queue model used to replace the
    /// congestion model wholesale, derates included).
    #[test]
    fn congestion_derates_hold_under_queue_knobs() {
        let hottest = |s: &Scenario| {
            let model = s.impairments.link_model().expect("queue knobs configure a model");
            let r = model.realize(&s.build_topology(), &s.base_trace(), 0, s.impairments.seed);
            r.hot_links().first().map(|&((from, _), _)| from)
        };
        let core0 = chm_netsim::SwitchId { role: SwitchRole::Core, index: 0 };
        let derated =
            Scenario::builder("d").derate_switch(SwitchRole::Core, 0, 0.4).microburst(0.3, 2).build();
        assert_eq!(hottest(&derated), Some(core0));
        let control = Scenario::builder("c").congestion().microburst(0.3, 2).build();
        assert_ne!(hottest(&control), Some(core0));
    }

    #[test]
    fn epoch_trace_is_deterministic() {
        let s = Scenario::builder("x").seed(3).churn(0.2).flood(2, 5, 1_000).build();
        let base = s.base_trace();
        let t1 = s.trace_for_epoch(&base, 3);
        let t2 = s.trace_for_epoch(&base, 3);
        assert_eq!(t1.flows, t2.flows);
    }

    #[test]
    fn report_channel_losses_are_seeded_per_epoch() {
        let s = Scenario::builder("x").seed(5).report_loss(0.5).build();
        let a = s.reports_received(0, 4);
        assert_eq!(a, s.reports_received(0, 4));
        let distinct = (0..32).map(|e| s.reports_received(e, 4)).collect::<Vec<_>>();
        assert!(distinct.iter().any(|v| v != &a), "epochs must differ");
        let lost: usize = distinct.iter().flatten().filter(|&&k| !k).count();
        assert!((32..96).contains(&lost), "~50% of 128 reports should drop, got {lost}");
    }
}
