//! **The adapter** — every call the benchmark makes into the program.
//!
//! Nothing outside this file names a `chm_*`/`chamelemon` item, so when
//! the replay/analysis API is consolidated this is the one file to follow
//! it, and a reviewer can check here that only public surface is used (no
//! `pub(crate)` reach-ins, nothing under `crates/` edited).
//!
//! Workloads: S = `serve_steady`, T = `testbed_shift`, R = `replay_scale`,
//! F = `fermat_codec`. Lower case = traced pass / set-up / check only.
//!
//! | layer | public function | used by |
//! |---|---|---|
//! | chm_serve | `ServeConfig::new`, `FaultPlan::standard`, `ServeRuntime::new`, `ServeRuntime::step` | S |
//! | chm_serve | `EpochRecord::to_jsonl`, `ServeRuntime::obs`, `ServeObs::jsonl_line`, `ServeObs::prom_snapshot` | S |
//! | chm_scenarios | `Scenario::builder` + `seed/flows/congestion/queue_model/microburst/slow_drain_tor/build` | S |
//! | chm_scenarios | `EpochStream::new`, `EpochStream::at` | S (check), s |
//! | chm_scenarios | `ScenarioStack::new` (pub fields `edges`, `controller`, `simulator`) | s |
//! | chamelemon | `ChameleMon::testbed`, `ChameleMon::run_epoch` (pub fields `edges`, `controller`, `simulator`) | T |
//! | chamelemon | `DataPlaneConfig::paper_default` | T |
//! | chamelemon | `DataPlaneConfig::small`, `RuntimeConfig::initial`, `EdgeDataPlane::new` | R |
//! | chamelemon | `EdgeDataPlane::take_group`, `stage_runtime`, `flip` | R, s, t |
//! | chamelemon | `EdgeDataPlane::on_ingress_burst`, `on_egress_burst` | r (probe) |
//! | chamelemon | `Controller::analyze_epoch`, `Controller::reconfigure` | s, t |
//! | chamelemon | `Controller::localize_with_telemetry` | s |
//! | chm_netsim | `Simulator::run_epoch_burst_scenario` + `SiteArray` | s, r (reference check) |
//! | chm_netsim | `Simulator::run_epoch_burst` + `SiteArray` | t |
//! | chm_netsim | `Simulator::new`, `KaryFatTree::new`, `Fabric::n_hosts/n_edges`, `ImpairmentSet::none` | R |
//! | chm_netsim | `ShardedReplay::new`, `ShardedReplay::run_epoch_burst_scenario` | R |
//! | chm_netsim | `ShardedReplay::run_epoch_burst_scenario_timed`, `ShardTiming::{critical_path_s,total_work_s}` | r (probe) |
//! | chm_netsim | `EpochReport::total_sent` and its pub maps | S..R (checks, digests) |
//! | chm_workloads | `testbed_trace`, `LossPlan::build`, `Trace::total_packets` | T, R (set-up) |
//! | chm_tower | `TowerSketch::cardinality_estimate`, `TowerSketch::flow_size_distribution`, `MracConfig::realtime` | s, t (probes) |
//! | chm_fermat | `FermatSketch::decode_with`, `DecodeScratch::new`, `DecodeScratch::last_stats` | s, t (probes), F |
//! | chm_fermat | `FermatConfig::standard`, `FermatSketch::new`, `clear`, `insert_weighted`, `sub_assign_sketch` | F |
//! | chm_common | `detection_score`, `FlowId::key64`, `FiveTuple` | T, F (scoring, digests) |

use std::collections::{HashMap, HashSet};

use chamelemon::{
    ChameleMon, CollectedGroup, DataPlaneConfig, EdgeDataPlane, EpochAnalysis, NetworkState,
    RuntimeConfig,
};
use chm_common::metrics::detection_score;
use chm_common::{FiveTuple, FlowId};
use chm_fermat::{DecodeResult, DecodeScratch, FermatConfig, FermatSketch};
use chm_netsim::{
    EpochReport, ImpairmentSet, KaryFatTree, ShardedReplay, Sharding, SimConfig, Simulator,
    SiteArray, Topology,
};
use chm_scenarios::{EpochStream, Scenario, ScenarioStack};
use chm_serve::{FaultPlan, ServeConfig, ServeRuntime};
use chm_tower::MracConfig;
use chm_workloads::{testbed_trace, LossPlan, Trace, VictimSelection, WorkloadKind};

use crate::harness::{Measured, Meter, OpOutcome, Shape, Workload};
use crate::stats::Fnv;
use crate::trace::Tracer;

type Edge = EdgeDataPlane<FiveTuple>;
type Group = CollectedGroup<FiveTuple>;
type Report = EpochReport<FiveTuple>;
type Decoded = DecodeResult<FiveTuple>;

// ---------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------

/// Every encoder that had memory decoded (the serve watchdog's and the
/// scenario scorer's `decode_ok`).
fn fully_decoded(a: &EpochAnalysis<FiveTuple>) -> bool {
    let p = a.runtime.partition;
    a.hh_decode_ok
        && (p.m_hl == 0 || a.hl_flowset.is_some())
        && (p.m_ll == 0 || a.ll_flowset.is_some())
}

/// Takes the ended group off every edge.
fn collect(edges: &mut [Edge], ts_bit: u8) -> Vec<Group> {
    edges.iter_mut().map(|e| e.take_group(ts_bit)).collect()
}

fn stage_and_flip(edges: &mut [Edge], staged: RuntimeConfig, ts_bit: u8) {
    for e in edges {
        e.stage_runtime(staged);
        e.flip(ts_bit);
    }
}

/// Packet conservation as seen from outside: what the fabric says it
/// carried is what the trace offered, and the edges' port counters agree
/// with the fabric's delivered/lost split. Returns the counter agreement
/// in `[0, 1]` (1 = every packet counted) or `None` when packets went
/// missing.
fn conservation(report: &Report, offered: u64, groups: &[Group]) -> Option<f64> {
    let delivered: u64 = report.delivered.values().sum();
    let lost: u64 = report.lost.values().sum();
    if delivered + lost != offered || report.dropped_at.values().sum::<u64>() != lost {
        return None;
    }
    let ingress: u64 = groups.iter().map(|g| g.ingress_pkts).sum();
    let egress: u64 = groups.iter().map(|g| g.egress_pkts).sum();
    let agree = |counted: u64, truth: u64| {
        if truth == 0 {
            1.0
        } else {
            counted.min(truth) as f64 / counted.max(truth) as f64
        }
    };
    Some(agree(ingress, offered).min(agree(egress, delivered)))
}

/// The counts read off one epoch's report and analysis: packets carried,
/// whether the staged runtime differs from the one in effect, and whether
/// the controller believed the network ill.
fn controller_counts(
    tr: &mut Tracer,
    report: &Report,
    analysis: &EpochAnalysis<FiveTuple>,
    staged: RuntimeConfig,
) {
    let flag = |b: bool| f64::from(u8::from(b));
    tr.count("netsim.packets", report.total_sent() as f64);
    tr.count(
        "controller.reconfig_count",
        flag(staged != analysis.runtime),
    );
    tr.count(
        "controller.ill_epochs",
        flag(analysis.state_during == NetworkState::Ill),
    );
}

/// The three attribution probes: re-run one public call on each collected
/// group, outside the epoch span, to split the time inside `analyze` that
/// no public boundary separates.
fn analyze_probes(groups: &[Group], scratch: &mut DecodeScratch<FiveTuple>, tr: &mut Tracer) {
    let mrac = MracConfig::realtime();
    for g in groups {
        let s = tr.enter("tower.cardinality_probe");
        std::hint::black_box(g.classifier.cardinality_estimate());
        tr.exit(s);

        let s = tr.enter("fermat.hh_decode_probe");
        let r = g.up_hh.decode_with(scratch);
        tr.exit(s);
        tr.count("fermat.probe_decodes", 1.0);
        tr.count("fermat.probe_decodes_ok", f64::from(u8::from(r.success)));
        let strategy = if scratch.last_stats.sparse {
            "fermat.sparse_decodes"
        } else {
            "fermat.loaded_decodes"
        };
        tr.count(strategy, 1.0);

        // The same tail the controller feeds the EM: Th + recorded count.
        let tail: Vec<u64> = r
            .flows
            .values()
            .map(|&q| g.runtime.th + q.max(0) as u64)
            .collect();
        let s = tr.enter("tower.em_probe");
        std::hint::black_box(g.classifier.flow_size_distribution(&tail, &mrac));
        tr.exit(s);
    }
}

/// Canonical digest of an epoch report: hash maps folded as sorted sets.
fn digest_report(h: &mut Fnv, r: &Report) {
    h.word(r.epoch);
    h.set(r.delivered.iter().map(|(f, &c)| (f.key64(), c)).collect());
    h.set(r.lost.iter().map(|(f, &c)| (f.key64(), c)).collect());
    for (s, &c) in &r.dropped_at {
        h.word(((s.role as u64) << 32) | s.index as u64);
        h.word(c);
    }
    for (&hops, &c) in &r.hops_histogram {
        h.word(hops as u64);
        h.word(c);
    }
}

/// splitmix64: the benchmark's own generator for inputs it builds itself.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs `body` under span `name` when tracing; returns its value and the
/// span's duration in ns (0 when untraced).
fn spanned<R>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    body: impl FnOnce() -> R,
) -> (R, u64) {
    match tr.as_deref_mut() {
        None => (body(), 0),
        Some(t) => {
            let s = t.enter(name);
            let r = body();
            t.exit(s);
            (r, t.dur_ns(s))
        }
    }
}

// ---------------------------------------------------------------------
// serve_steady
// ---------------------------------------------------------------------

/// The shipped service on the `chm-serve --scenario congested` preset
/// under the standard fault profile, with the CLI's three per-epoch
/// telemetry renders.
pub struct ServeSteady {
    rt: ServeRuntime,
    /// Harness-side copy of the workload stream (conservation check).
    stream: EpochStream,
    jsonl: String,
    obs_line: String,
    prom: String,
    /// Traced pass only: the same pipeline driven stage by stage.
    mirror: Option<Mirror>,
}

struct Mirror {
    stack: ScenarioStack,
    scratch: DecodeScratch<FiveTuple>,
}

fn congested(seed: u64) -> Scenario {
    Scenario::builder("serve_congested")
        .seed(seed)
        .flows(600)
        .congestion()
        .queue_model(8)
        .microburst(0.3, 2)
        .slow_drain_tor(1, 0.55)
        .build()
}

impl ServeSteady {
    /// `step` plus the three renders the CLI performs per epoch.
    fn serve_epoch(&mut self, tr: &mut Option<&mut Tracer>) -> chm_serve::EpochRecord {
        let (record, step_ns) = spanned(tr, "serve.step", || self.rt.step());
        let (bytes, _) = spanned(tr, "serve.telemetry", || self.render(&record));
        if let Some(t) = tr.as_deref_mut() {
            t.sample("serve.step_ms", step_ns as f64 / 1e6);
            t.count("serve.telemetry_bytes", bytes as f64);
        }
        record
    }

    fn render(&mut self, record: &chm_serve::EpochRecord) -> u64 {
        self.jsonl.clear();
        self.jsonl.push_str(&record.to_jsonl());
        self.obs_line.clear();
        self.obs_line
            .push_str(&self.rt.obs().jsonl_line(record.epoch));
        self.prom.clear();
        self.prom.push_str(&self.rt.obs().prom_snapshot());
        (self.jsonl.len() + self.obs_line.len() + self.prom.len()) as u64
    }

    fn finish(
        &self,
        expected_epoch: u64,
        record: &chm_serve::EpochRecord,
        m: Measured,
        digest: Option<&mut Fnv>,
    ) -> OpOutcome {
        if let Some(h) = digest {
            h.bytes(self.jsonl.as_bytes());
        }
        let (trace, _) = self.stream.at(record.epoch);
        let offered = trace.total_packets();
        OpOutcome {
            measured: m,
            work: trace.num_flows() as u64,
            // Injected blind epochs are outages, not decode failures.
            complete: record.blind || record.decode_ok,
            accuracy: record.f1,
            failed: record.epoch != expected_epoch
                || record.packets != offered
                || !record.f1.is_finite(),
        }
    }
}

impl Workload for ServeSteady {
    const NAME: &'static str = "serve_steady";

    fn shape(quick: bool) -> Shape {
        // Faults make a few epochs in a hundred cheap (blind, paused);
        // the median and 9th of 10 are ordinary epochs. Exact block: 500
        // epochs (30 when quick), enough for `ok_share` and `accuracy` to
        // differ by under 3 % from seed to seed.
        Shape {
            round_ops: 10,
            exact_rounds: if quick { 3 } else { 50 },
            periodic: false,
        }
    }

    fn setup(seed: u64, quick: bool, traced: bool, _tr: &mut Tracer) -> Self {
        let warmup = if quick { 20 } else { 200 };
        let scenario = congested(seed);
        let rt = ServeRuntime::new(ServeConfig::new(
            scenario.clone(),
            FaultPlan::standard(seed),
        ));
        let mirror = traced.then(|| Mirror {
            stack: ScenarioStack::new(&scenario),
            scratch: DecodeScratch::new(),
        });
        let mut w = ServeSteady {
            rt,
            stream: EpochStream::new(scenario),
            jsonl: String::new(),
            obs_line: String::new(),
            prom: String::new(),
            mirror,
        };
        for _ in 0..warmup {
            w.serve_epoch(&mut None);
            if let Some(m) = &mut w.mirror {
                m.epoch(&w.stream, &mut None);
            }
        }
        w
    }

    fn op(&mut self, digest: Option<&mut Fnv>) -> OpOutcome {
        let expected = self.rt.next_epoch();
        let meter = Meter::start();
        let record = self.serve_epoch(&mut None);
        let m = meter.stop();
        self.finish(expected, &record, m, digest)
    }

    fn op_traced(&mut self, tr: &mut Tracer, digest: Option<&mut Fnv>) -> OpOutcome {
        let expected = self.rt.next_epoch();
        tr.set_op(expected);
        let tr = &mut Some(tr);
        let meter = Meter::start();
        let record = self.serve_epoch(tr);
        let m = meter.stop();
        let mut out = self.finish(expected, &record, m, digest);
        let mirror = self
            .mirror
            .as_mut()
            .expect("traced set-up builds the mirror");
        out.failed |= !mirror.epoch(&self.stream, tr);
        out
    }
}

impl Mirror {
    /// One epoch of `ServeRuntime::step`'s pipeline, stage for stage, with
    /// every report delivered; `false` if packets went missing.
    fn epoch(&mut self, stream: &EpochStream, tr: &mut Option<&mut Tracer>) -> bool {
        let Mirror { stack, scratch } = self;
        let epoch = stack.simulator.current_epoch();
        let op = tr.as_deref_mut().map(|t| {
            t.set_op(epoch);
            t.enter("op")
        });
        let ((trace, plan), _) = spanned(tr, "scenarios.stream", || stream.at(epoch));
        let (report, _) = spanned(tr, "netsim.replay", || {
            let mut hooks = SiteArray(&mut stack.edges);
            stack.simulator.run_epoch_burst_scenario(
                &trace,
                &plan,
                &stream.scenario().impairments,
                &mut hooks,
            )
        });
        let ts_bit = (report.epoch & 1) as u8;
        let (groups, _) = spanned(tr, "dataplane.collect", || {
            collect(&mut stack.edges, ts_bit)
        });
        let (analysis, _) = spanned(tr, "controller.analyze", || {
            stack.controller.analyze_epoch(&groups)
        });
        let (staged, _) = spanned(tr, "controller.reconfigure", || {
            stack.controller.reconfigure(&analysis)
        });
        spanned(tr, "localize", || {
            std::hint::black_box(
                stack
                    .controller
                    .localize_with_telemetry(&analysis, &report.queue_depth),
            );
        });
        spanned(tr, "dataplane.flip", || {
            stage_and_flip(&mut stack.edges, staged, ts_bit)
        });
        if let (Some(t), Some(op)) = (tr.as_deref_mut(), op) {
            t.exit(op);
            t.sample("serve.pipeline_ms", t.dur_ns(op) as f64 / 1e6);
            controller_counts(t, &report, &analysis, staged);
            analyze_probes(&groups, scratch, t);
        }
        conservation(&report, trace.total_packets(), &groups).is_some()
    }
}

// ---------------------------------------------------------------------
// testbed_shift
// ---------------------------------------------------------------------

/// The paper's headline behaviour at paper scale: the victim ratio cycles
/// 2.5 % -> 10 % -> 25 % -> 10 % so the controller keeps crossing healthy
/// <-> ill and re-dividing memory.
pub struct TestbedShift {
    sys: ChameleMon<FiveTuple>,
    trace: Trace<FiveTuple>,
    offered: u64,
    /// One plan per phase of the cycle.
    plans: Vec<LossPlan<FiveTuple>>,
    epoch: usize,
    scratch: DecodeScratch<FiveTuple>,
}

/// Phases of one cycle (indices into `plans`) and epochs per phase.
const SHIFT_CYCLE: [usize; 4] = [0, 1, 2, 1];
const SHIFT_RATIOS: [f64; 3] = [0.025, 0.10, 0.25];
const EPOCHS_PER_PHASE: usize = 5;
const CYCLE_EPOCHS: usize = SHIFT_CYCLE.len() * EPOCHS_PER_PHASE;

impl TestbedShift {
    fn plan_index(&self) -> usize {
        SHIFT_CYCLE[(self.epoch / EPOCHS_PER_PHASE) % SHIFT_CYCLE.len()]
    }

    fn finish(
        &mut self,
        report: &Report,
        analysis: &EpochAnalysis<FiveTuple>,
        staged: RuntimeConfig,
        groups_ok: bool,
        m: Measured,
        digest: Option<&mut Fnv>,
    ) -> OpOutcome {
        self.epoch += 1;
        let sent = report.total_sent();
        if let Some(h) = digest {
            let p = staged.partition;
            for v in [
                report.epoch,
                p.m_hh as u64,
                p.m_hl as u64,
                p.m_ll as u64,
                staged.th,
                staged.tl,
                analysis.loss_report.len() as u64,
                sent,
            ] {
                h.word(v);
            }
        }
        let truth: HashSet<FiveTuple> = report.lost.keys().copied().collect();
        let score = detection_score(analysis.loss_report.keys().copied(), &truth);
        OpOutcome {
            measured: m,
            work: self.trace.num_flows() as u64,
            complete: fully_decoded(analysis),
            accuracy: score.f1,
            failed: sent != self.offered || !groups_ok,
        }
    }
}

impl Workload for TestbedShift {
    const NAME: &'static str = "testbed_shift";

    fn shape(_quick: bool) -> Shape {
        // One round is one whole cycle of the victim ratio.
        Shape {
            round_ops: CYCLE_EPOCHS,
            exact_rounds: 2,
            periodic: true,
        }
    }

    fn setup(seed: u64, quick: bool, _traced: bool, tr: &mut Tracer) -> Self {
        let flows = if quick { 5_000 } else { 50_000 };
        let s = tr.enter("workloads.trace_gen");
        let trace = testbed_trace(WorkloadKind::Dctcp, flows, 8, seed ^ 0x77);
        tr.exit(s);
        let s = tr.enter("workloads.plan_build");
        let plans = SHIFT_RATIOS
            .iter()
            .zip(0u64..)
            .map(|(&ratio, i)| {
                LossPlan::build(
                    &trace,
                    VictimSelection::RandomRatio(ratio),
                    0.01,
                    seed ^ 0x99 ^ (i << 8),
                )
            })
            .collect();
        tr.exit(s);
        let mut w = TestbedShift {
            sys: ChameleMon::testbed(DataPlaneConfig::paper_default(seed)),
            offered: trace.total_packets(),
            trace,
            plans,
            epoch: 0,
            scratch: DecodeScratch::new(),
        };
        for _ in 0..CYCLE_EPOCHS {
            w.op(None);
        }
        w
    }

    fn op(&mut self, digest: Option<&mut Fnv>) -> OpOutcome {
        let plan = self.plan_index();
        let meter = Meter::start();
        let out = self.sys.run_epoch(&self.trace, &self.plans[plan]);
        let m = meter.stop();
        self.finish(
            &out.report,
            &out.analysis,
            out.staged_runtime,
            true,
            m,
            digest,
        )
    }

    /// `ChameleMon::run_epoch` stage for stage.
    fn op_traced(&mut self, tr: &mut Tracer, digest: Option<&mut Fnv>) -> OpOutcome {
        let plan = self.plan_index();
        tr.set_op(self.epoch as u64);
        let meter = Meter::start();
        let op = tr.enter("op");
        let s = tr.enter("netsim.replay");
        let report = {
            let mut hooks = SiteArray(&mut self.sys.edges);
            self.sys
                .simulator
                .run_epoch_burst(&self.trace, &self.plans[plan], &mut hooks)
        };
        tr.exit(s);
        let ts_bit = (report.epoch & 1) as u8;
        let s = tr.enter("dataplane.collect");
        let groups = collect(&mut self.sys.edges, ts_bit);
        tr.exit(s);
        let sa = tr.enter("controller.analyze");
        let analysis = self.sys.controller.analyze_epoch(&groups);
        tr.exit(sa);
        let sr = tr.enter("controller.reconfigure");
        let staged = self.sys.controller.reconfigure(&analysis);
        tr.exit(sr);
        let s = tr.enter("dataplane.flip");
        stage_and_flip(&mut self.sys.edges, staged, ts_bit);
        tr.exit(s);
        tr.exit(op);
        let m = meter.stop();
        // Figure 20's response time: analyze + reconfigure.
        tr.sample(
            "controller.response_ms",
            (tr.dur_ns(sa) + tr.dur_ns(sr)) as f64 / 1e6,
        );
        controller_counts(tr, &report, &analysis, staged);
        analyze_probes(&groups, &mut self.scratch, tr);
        let groups_ok = conservation(&report, self.offered, &groups).is_some();
        self.finish(&report, &analysis, staged, groups_ok, m, digest)
    }
}

// ---------------------------------------------------------------------
// replay_scale
// ---------------------------------------------------------------------

/// The 1M-flow replay tier on a k=8 fat-tree through the sharded engine,
/// with collection and flip on every edge; no controller.
pub struct ReplayScale {
    topo: Topology,
    cfg: DataPlaneConfig,
    runtime: RuntimeConfig,
    sim_cfg: SimConfig,
    trace: Trace<FiveTuple>,
    plan: LossPlan<FiveTuple>,
    offered: u64,
    imp: ImpairmentSet,
    sim: Simulator,
    eng: ShardedReplay<FiveTuple>,
    edges: Vec<Edge>,
    /// Epoch 0 (the warm-up epoch), kept until `verify` has compared it
    /// with the serial reference.
    first: Option<(Report, Vec<Group>)>,
    /// Traced pass only: a second stack on one worker for `ShardTiming`.
    timed: Option<(Simulator, ShardedReplay<FiveTuple>, Vec<Edge>)>,
}

const REPLAY_SHARDING: Sharding = Sharding {
    shards: 2,
    workers: 2,
};

impl ReplayScale {
    fn new_edges(&self) -> Vec<Edge> {
        (0..self.topo.n_edges())
            .map(|_| EdgeDataPlane::new(self.cfg.clone(), self.runtime))
            .collect()
    }

    fn finish(
        &self,
        report: &Report,
        groups: &[Group],
        m: Measured,
        digest: Option<&mut Fnv>,
    ) -> OpOutcome {
        if let Some(h) = digest {
            digest_report(h, report);
        }
        let agreement = conservation(report, self.offered, groups);
        OpOutcome {
            measured: m,
            work: self.trace.num_flows() as u64,
            complete: agreement.is_some(),
            accuracy: agreement.unwrap_or(0.0),
            failed: agreement.is_none(),
        }
    }
}

impl Workload for ReplayScale {
    const NAME: &'static str = "replay_scale";

    fn shape(_quick: bool) -> Shape {
        // Every epoch is the same work and takes about a second.
        Shape {
            round_ops: 1,
            exact_rounds: 2,
            periodic: true,
        }
    }

    fn setup(seed: u64, quick: bool, traced: bool, tr: &mut Tracer) -> Self {
        let flows = if quick { 40_000 } else { 250_000 };
        let topo: Topology = KaryFatTree::new(8).into();
        let cfg = DataPlaneConfig::small(seed ^ 0x5ca1e);
        let runtime = RuntimeConfig::initial(&cfg);
        let s = tr.enter("workloads.trace_gen");
        let trace = testbed_trace(
            WorkloadKind::Dctcp,
            flows,
            topo.n_hosts() as u32,
            seed ^ 0xacce1,
        );
        tr.exit(s);
        let s = tr.enter("workloads.plan_build");
        let plan = LossPlan::build(
            &trace,
            VictimSelection::RandomRatio(0.01),
            0.02,
            seed ^ 0x10ad,
        );
        tr.exit(s);
        let sim_cfg = SimConfig {
            epoch_ms: 50.0,
            seed: seed ^ 0xc4a3,
        };
        let mut w = ReplayScale {
            sim: Simulator::new(topo.clone(), sim_cfg.clone()),
            eng: ShardedReplay::new(REPLAY_SHARDING),
            edges: Vec::new(),
            offered: trace.total_packets(),
            imp: ImpairmentSet::none(),
            first: None,
            timed: None,
            topo,
            cfg,
            runtime,
            sim_cfg,
            trace,
            plan,
        };
        w.edges = w.new_edges();
        if traced {
            let one_worker = Sharding {
                workers: 1,
                ..REPLAY_SHARDING
            };
            w.timed = Some((
                Simulator::new(w.topo.clone(), w.sim_cfg.clone()),
                ShardedReplay::new(one_worker),
                w.new_edges(),
            ));
        }
        // Warm-up: the first epoch grows the engine's arenas.
        let (report, groups) = w.epoch();
        w.first = Some((report, groups));
        w
    }

    /// Epoch 0 of the sharded engine must equal the serial `Simulator`
    /// path: the whole `EpochReport` and every edge's `SketchGroup`.
    fn verify(&mut self) -> Result<(), String> {
        let (report, groups) = self.first.take().ok_or("verify needs the warm-up epoch")?;
        let mut ref_edges = self.new_edges();
        let mut sim = Simulator::new(self.topo.clone(), self.sim_cfg.clone());
        let reference = {
            let mut hooks = SiteArray(&mut ref_edges);
            sim.run_epoch_burst_scenario(&self.trace, &self.plan, &self.imp, &mut hooks)
        };
        if report != reference {
            return Err("sharded epoch 0 report differs from the serial Simulator".into());
        }
        let ts_bit = (reference.epoch & 1) as u8;
        for (i, (g, e)) in groups.iter().zip(&mut ref_edges).enumerate() {
            if *g != e.take_group(ts_bit) {
                return Err(format!(
                    "edge {i} sketch group differs from the serial Simulator"
                ));
            }
        }
        Ok(())
    }

    fn op(&mut self, digest: Option<&mut Fnv>) -> OpOutcome {
        let meter = Meter::start();
        let (report, groups) = self.epoch();
        let m = meter.stop();
        self.finish(&report, &groups, m, digest)
    }

    fn op_traced(&mut self, tr: &mut Tracer, digest: Option<&mut Fnv>) -> OpOutcome {
        tr.set_op(self.sim.current_epoch());
        let meter = Meter::start();
        let op = tr.enter("op");
        let s = tr.enter("netsim.replay");
        let report = self.eng.run_epoch_burst_scenario(
            &mut self.sim,
            &self.trace,
            &self.plan,
            &self.imp,
            &mut self.edges,
        );
        tr.exit(s);
        let ts_bit = (report.epoch & 1) as u8;
        let s = tr.enter("dataplane.collect");
        let groups = collect(&mut self.edges, ts_bit);
        tr.exit(s);
        let s = tr.enter("dataplane.flip");
        stage_and_flip(&mut self.edges, self.runtime, ts_bit);
        tr.exit(s);
        tr.exit(op);
        let m = meter.stop();
        tr.count("netsim.packets", report.total_sent() as f64);
        self.timing_probe(tr);
        self.finish(&report, &groups, m, digest)
    }

    /// `on_ingress_burst` + `on_egress_burst` over the whole trace on a
    /// spare edge: the sketch-insert cost without routing or fate planning.
    fn probe_once(&mut self, tr: &mut Tracer) {
        let mut edge = EdgeDataPlane::new(self.cfg.clone(), self.runtime);
        let mut calls = 0u64;
        let s = tr.enter("dataplane.ingress_probe");
        for (f, pkts) in &self.trace.flows {
            let segments = edge.on_ingress_burst(f, 0, *pkts);
            calls += 1;
            for (h, n) in segments {
                if n > 0 {
                    edge.on_egress_burst(f, 0, h, n);
                    calls += 1;
                }
            }
        }
        tr.exit(s);
        tr.count("dataplane.ingress_probe_calls", calls as f64);
    }
}

impl ReplayScale {
    /// Replay, then collect + stage + flip on every edge so sketches reset.
    fn epoch(&mut self) -> (Report, Vec<Group>) {
        let report = self.eng.run_epoch_burst_scenario(
            &mut self.sim,
            &self.trace,
            &self.plan,
            &self.imp,
            &mut self.edges,
        );
        let ts_bit = (report.epoch & 1) as u8;
        let groups = collect(&mut self.edges, ts_bit);
        stage_and_flip(&mut self.edges, self.runtime, ts_bit);
        (report, groups)
    }

    /// One epoch on the one-worker stack through the `_timed` entry point;
    /// its `ShardTiming` is the critical path the two-worker wall time is
    /// compared with.
    fn timing_probe(&mut self, tr: &mut Tracer) {
        let (sim, eng, edges) = self
            .timed
            .as_mut()
            .expect("traced set-up builds the timed stack");
        let t0 = crate::trace::now();
        let clock = move || t0.elapsed().as_secs_f64();
        let s = tr.enter("netsim.timed_replay");
        let (report, timing) = eng.run_epoch_burst_scenario_timed(
            sim,
            &self.trace,
            &self.plan,
            &self.imp,
            edges,
            &clock,
        );
        let max = |xs: &[f64]| xs.iter().copied().fold(0.0_f64, f64::max);
        tr.record("netsim.prologue", timing.prologue_s);
        tr.record("netsim.phase_a_max", max(&timing.phase_a));
        tr.record("netsim.phase_b_max", max(&timing.phase_b));
        tr.record("netsim.merge", timing.merge_s);
        tr.record("netsim.critical_path", timing.critical_path_s());
        tr.sample("netsim.critical_path_ms", timing.critical_path_s() * 1e3);
        tr.record("netsim.total_work", timing.total_work_s());
        tr.exit(s);
        let ts_bit = (report.epoch & 1) as u8;
        drop(collect(edges, ts_bit));
        stage_and_flip(edges, self.runtime, ts_bit);
    }
}

// ---------------------------------------------------------------------
// fermat_codec
// ---------------------------------------------------------------------

/// FermatSketch as a library at the paper-default HH geometry: bulk
/// inserts beside a loaded decode (upstream) and a sparse decode (delta).
pub struct FermatCodec {
    up: FermatSketch<FiveTuple>,
    down: FermatSketch<FiveTuple>,
    scratch: DecodeScratch<FiveTuple>,
    /// (flow, packets sent, packets lost).
    flows: Vec<(FiveTuple, i64, i64)>,
    sent: HashMap<FiveTuple, i64>,
    lost: HashMap<FiveTuple, i64>,
    victims: HashSet<FiveTuple>,
    inserts: u64,
    rep: u64,
}

const CODEC_BUCKETS: usize = 3584;
const CODEC_FLOWS: usize = 8_000;

impl FermatCodec {
    /// 8 000 distinct flows of 1..=200 packets; every 25th is a victim
    /// losing a tenth of its packets (at least one).
    fn generate(seed: u64) -> Vec<(FiveTuple, i64, i64)> {
        let mut state = seed;
        let mut seen = HashSet::with_capacity(CODEC_FLOWS);
        let mut flows = Vec::with_capacity(CODEC_FLOWS);
        while flows.len() < CODEC_FLOWS {
            let (a, b) = (splitmix(&mut state), splitmix(&mut state));
            let f = FiveTuple {
                src_ip: a as u32,
                dst_ip: (a >> 32) as u32,
                src_port: b as u16,
                dst_port: (b >> 16) as u16,
                proto: 17,
            };
            if !seen.insert(f) {
                continue;
            }
            let sent = 1 + (b >> 32) as i64 % 200;
            let lost = if flows.len() % 25 == 0 {
                (sent / 10).max(1)
            } else {
                0
            };
            flows.push((f, sent, lost));
        }
        flows
    }

    /// One repetition (`tr` adds a span per phase): the timed region and
    /// the two decode results, judged afterwards by [`judge`](Self::judge).
    fn repetition(&mut self, mut tr: Option<&mut Tracer>) -> (Measured, Decoded, Decoded) {
        let tr = &mut tr;
        let meter = Meter::start();
        let op = tr.as_deref_mut().map(|t| {
            t.set_op(self.rep);
            t.enter("op")
        });
        self.rep += 1;
        spanned(tr, "fermat.clear", || {
            self.up.clear();
            self.down.clear();
        });
        let (_, insert_ns) = spanned(tr, "fermat.insert", || {
            for (f, sent, lost) in &self.flows {
                self.up.insert_weighted(f, *sent);
                if sent > lost {
                    self.down.insert_weighted(f, sent - lost);
                }
            }
        });
        let (whole, loaded_ns) = spanned(tr, "fermat.loaded_decode", || {
            self.up.decode_with(&mut self.scratch)
        });
        let loaded = !self.scratch.last_stats.sparse;
        spanned(tr, "fermat.sub", || self.up.sub_assign_sketch(&self.down));
        let (delta, _) = spanned(tr, "fermat.delta_decode", || {
            self.up.decode_with(&mut self.scratch)
        });
        let sparse = self.scratch.last_stats.sparse;
        if let (Some(t), Some(op)) = (tr.as_deref_mut(), op) {
            t.exit(op);
        }
        let m = meter.stop();
        if let Some(t) = tr.as_deref_mut() {
            t.sample(
                "fermat.insert_mops",
                self.inserts as f64 / insert_ns as f64 * 1e3,
            );
            t.sample("fermat.loaded_decode_ms", loaded_ns as f64 / 1e6);
            t.count(
                "fermat.decoded_flows",
                (whole.flows.len() + delta.flows.len()) as f64,
            );
            t.count("fermat.loaded_decodes", f64::from(u8::from(loaded)));
            t.count("fermat.sparse_decodes", f64::from(u8::from(sparse)));
        }
        (m, whole, delta)
    }

    /// Both decodes succeeded and both decoded sets equal the inserted
    /// sets; the delta's keys are scored against the victims.
    fn judge(
        &self,
        m: Measured,
        whole: &Decoded,
        delta: &Decoded,
        digest: Option<&mut Fnv>,
    ) -> OpOutcome {
        if let Some(h) = digest {
            for set in [&whole.flows, &delta.flows] {
                h.set(set.iter().map(|(f, &c)| (f.key64(), c as u64)).collect());
            }
        }
        let exact =
            whole.success && delta.success && whole.flows == self.sent && delta.flows == self.lost;
        OpOutcome {
            measured: m,
            work: self.inserts,
            complete: exact,
            accuracy: detection_score(delta.flows.keys().copied(), &self.victims).f1,
            failed: !exact,
        }
    }
}

impl Workload for FermatCodec {
    const NAME: &'static str = "fermat_codec";

    fn shape(quick: bool) -> Shape {
        // Every repetition is the same work. Exact block: 1000 (100).
        Shape {
            round_ops: 20,
            exact_rounds: if quick { 5 } else { 50 },
            periodic: true,
        }
    }

    fn setup(seed: u64, _quick: bool, _traced: bool, _tr: &mut Tracer) -> Self {
        let cfg = FermatConfig::standard(CODEC_BUCKETS, seed);
        // A flow set at load 0.74 decodes with overwhelming but not total
        // probability; the workload must be one on which no operation
        // fails, so a set that does not decode is regenerated from the
        // next sub-seed (deterministic in `seed`).
        for attempt in 0..16u64 {
            let flows = Self::generate(seed ^ (attempt << 56));
            let mut w = FermatCodec {
                up: FermatSketch::new(cfg),
                down: FermatSketch::new(cfg),
                scratch: DecodeScratch::new(),
                sent: flows.iter().map(|&(f, s, _)| (f, s)).collect(),
                lost: flows
                    .iter()
                    .filter(|x| x.2 > 0)
                    .map(|&(f, _, l)| (f, l))
                    .collect(),
                victims: flows.iter().filter(|x| x.2 > 0).map(|x| x.0).collect(),
                inserts: flows.iter().map(|x| 1 + u64::from(x.1 > x.2)).sum(),
                flows,
                rep: 0,
            };
            // Warm-up doubles as the decodability test.
            let warm = (0..20).all(|_| {
                let (m, whole, delta) = w.repetition(None);
                w.judge(m, &whole, &delta, None).complete
            });
            if warm {
                return w;
            }
        }
        panic!("no decodable flow set in 16 attempts: FermatSketch decode is broken");
    }

    fn op(&mut self, digest: Option<&mut Fnv>) -> OpOutcome {
        let (m, whole, delta) = self.repetition(None);
        self.judge(m, &whole, &delta, digest)
    }

    fn op_traced(&mut self, tr: &mut Tracer, digest: Option<&mut Fnv>) -> OpOutcome {
        let (m, whole, delta) = self.repetition(Some(tr));
        self.judge(m, &whole, &delta, digest)
    }
}
