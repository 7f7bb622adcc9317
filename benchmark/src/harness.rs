//! The program-agnostic half of the benchmark: the [`Workload`] contract
//! the adapter implements, the closed measurement loop (one client: the
//! next operation starts when the previous one returns), and the metric
//! definitions.
//!
//! **Rounds.** A pass runs whole rounds of a fixed, small number of
//! operations until `--seconds` have passed. The first few rounds — the
//! *exact block* — are therefore the same operations at any `--seconds` on
//! any machine, and everything that must repeat exactly (the digest, the
//! allocation counts, `ok_share`, `accuracy`) is taken from that block
//! alone. Timings are computed per round and reduced across all rounds
//! (see [`reduce`]); rounds are short so that many of them fit in a pass
//! and some of them fall between a neighbour's bursts.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::alloc::{self, AllocSnapshot};
use crate::stats::{best_round, mean, percentile, quartiles, Better, Fnv};
use crate::trace::{now, SpanTotal, Tracer};

/// What one operation cost, read at the boundaries of its timed region.
#[derive(Debug, Clone, Copy, Default)]
pub struct Measured {
    pub ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Highest live heap (bytes, absolute) seen inside the region.
    pub peak_live: usize,
}

/// Times one region and reads the allocator at the same two points, so
/// the harness's own work between operations (checks, digests) is in
/// neither the time nor the counts.
pub struct Meter {
    before: AllocSnapshot,
    t: std::time::Instant,
}

impl Meter {
    pub fn start() -> Self {
        alloc::reset_peak();
        Meter {
            before: alloc::snapshot(),
            t: now(),
        }
    }

    pub fn stop(self) -> Measured {
        let ns = self.t.elapsed().as_nanos() as u64;
        let after = alloc::snapshot();
        Measured {
            ns,
            allocs: after.allocs - self.before.allocs,
            alloc_bytes: after.bytes - self.before.bytes,
            peak_live: after.peak,
        }
    }
}

/// One operation: an epoch of a pipeline workload, a repetition of
/// `fermat_codec`.
#[derive(Debug, Clone, Copy)]
pub struct OpOutcome {
    pub measured: Measured,
    /// Flow-operations done: flows carried through the epoch, or weighted
    /// inserts of a flow into a sketch.
    pub work: u64,
    /// The operation's output was complete (fully decoded / conserved).
    pub complete: bool,
    /// Agreement of the reported result with ground truth, in `[0, 1]`.
    pub accuracy: f64,
    /// The output was *wrong* — a correctness check failed.
    pub failed: bool,
}

/// A workload's round structure.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Operations per round: long enough to hold the workload's mix of
    /// cheap and dear operations, so a round's median and p90 mean the
    /// same thing in every round.
    pub round_ops: usize,
    /// Leading rounds that form the exact block.
    pub exact_rounds: usize,
    /// The operation at position `k` of a round is the same work in every
    /// round (a repeating cycle, or identical operations). Timings are
    /// then reduced per position instead of per round (see [`Rounds::best`]).
    pub periodic: bool,
}

/// What the adapter implements once per workload.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// The fixed round structure (see the module docs).
    fn shape(quick: bool) -> Shape;
    /// Generates the inputs from `seed`, builds the stack and warms it up.
    /// `traced` also builds whatever only the traced pass drives.
    fn setup(seed: u64, quick: bool, traced: bool, tr: &mut Tracer) -> Self;
    /// One-time reference check after set-up, outside every timed region.
    fn verify(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// One operation through the entry point a user calls.
    fn op(&mut self, digest: Option<&mut Fnv>) -> OpOutcome;
    /// The same operation driven layer by layer, a span around each call.
    fn op_traced(&mut self, tr: &mut Tracer, digest: Option<&mut Fnv>) -> OpOutcome;
    /// Probes that run once per traced pass rather than once per operation.
    fn probe_once(&mut self, _tr: &mut Tracer) {}
}

#[derive(Debug, Clone, Copy)]
pub struct PassArgs {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

#[derive(Debug, Clone)]
pub struct MetricRow {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
    /// Samples behind the value (operations, spans or rounds).
    pub samples: u64,
    /// Across-round (q1, median, q3) for timings; `None` for counts.
    pub quartiles: Option<[f64; 3]>,
    /// The per-round values behind a timing, in run order.
    pub per_round: Vec<f64>,
}

#[derive(Debug, Clone)]
pub struct PassResult {
    pub workload: &'static str,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub digest: String,
    pub rounds: usize,
    pub metrics: Vec<MetricRow>,
}

impl PassResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// The untraced pass sets up this many times before it measures, and then
/// as many more times as fit in [`SETUP_BUDGET_S`] (up to the maximum),
/// spread evenly over the pass — so a cheap set-up is tried often enough
/// for one try to fall between a neighbour's bursts.
const SETUP_REPEATS_MIN: usize = 3;
const SETUP_REPEATS_MAX: usize = 30;
const SETUP_BUDGET_S: f64 = 1.5;

/// One round's summary.
#[derive(Debug, Clone, Copy)]
struct Round {
    p50_ms: f64,
    p90_ms: f64,
    mean_ms: f64,
    work_mops: f64,
}

/// Accumulates rounds of operations.
#[derive(Default)]
struct Rounds {
    rounds: Vec<Round>,
    attempted: u64,
    failed: u64,
    sample_ms: Vec<f64>,
    /// Fastest time seen at each position of a round.
    floor_ms: Vec<f64>,
    /// Flow-operations in one round (the last one run).
    round_work: u64,
}

/// Sums of the exactly-repeating observations over some operations.
#[derive(Debug, Clone, Copy, Default)]
struct Exact {
    ops: u64,
    allocs: u64,
    alloc_bytes: u64,
    peak_live: usize,
    complete: u64,
    accuracy: f64,
}

impl Exact {
    fn add(&mut self, out: &OpOutcome) {
        self.ops += 1;
        self.allocs += out.measured.allocs;
        self.alloc_bytes += out.measured.alloc_bytes;
        self.peak_live = self.peak_live.max(out.measured.peak_live);
        self.complete += u64::from(out.complete);
        self.accuracy += out.accuracy;
    }

    fn per_op(&self, sum: f64) -> f64 {
        sum / self.ops.max(1) as f64
    }
}

impl Rounds {
    fn new(shape: Shape) -> Self {
        Rounds {
            sample_ms: Vec::with_capacity(shape.round_ops),
            ..Rounds::default()
        }
    }

    /// Runs one round of `ops` operations through `op`, adding their exact
    /// observations to `exact`.
    fn run(&mut self, ops: usize, exact: &mut Exact, mut op: impl FnMut() -> OpOutcome) {
        self.sample_ms.clear();
        let (mut ns, mut work) = (0u64, 0u64);
        for _ in 0..ops {
            let out = op();
            self.sample_ms.push(out.measured.ns as f64 / 1e6);
            ns += out.measured.ns;
            work += out.work;
            exact.add(&out);
            self.failed += u64::from(out.failed);
        }
        self.attempted += ops as u64;
        self.round_work = work;
        self.floor_ms.resize(ops, f64::INFINITY);
        for (floor, &ms) in self.floor_ms.iter_mut().zip(&self.sample_ms) {
            *floor = floor.min(ms);
        }
        self.rounds.push(Round {
            p50_ms: percentile(&self.sample_ms, 0.50).unwrap_or(0.0),
            p90_ms: percentile(&self.sample_ms, 0.90).unwrap_or(0.0),
            mean_ms: mean(&self.sample_ms),
            work_mops: work as f64 / ns as f64 * 1e3,
        });
    }

    fn column(&self, pick: impl Fn(&Round) -> f64) -> Vec<f64> {
        self.rounds.iter().map(pick).collect()
    }

    /// The pass's timing with the neighbours' interference taken out as far
    /// as one pass can. Interference only ever adds time, so the fastest
    /// observation of a piece of work is the closest to what the code
    /// costs; what differs is the piece:
    ///
    /// * `periodic` — position `k` is the same work in every round, so
    ///   each position keeps its own fastest time and the median, p90 and
    ///   rate are taken over one round made of those. A quiet moment as
    ///   short as one operation is enough.
    /// * otherwise — operations differ from round to round, so only whole
    ///   rounds compare: the best round's median, p90 and rate.
    fn best(&self, periodic: bool) -> Round {
        if periodic {
            let total_ms: f64 = self.floor_ms.iter().sum();
            Round {
                p50_ms: percentile(&self.floor_ms, 0.50).unwrap_or(0.0),
                p90_ms: percentile(&self.floor_ms, 0.90).unwrap_or(0.0),
                mean_ms: mean(&self.floor_ms),
                work_mops: self.round_work as f64 / total_ms / 1e3,
            }
        } else {
            let pick =
                |f: fn(&Round) -> f64, better| best_round(&self.column(f), better).unwrap_or(0.0);
            Round {
                p50_ms: pick(|r| r.p50_ms, Better::Lower),
                p90_ms: pick(|r| r.p90_ms, Better::Lower),
                mean_ms: pick(|r| r.mean_ms, Better::Lower),
                work_mops: pick(|r| r.work_mops, Better::Higher),
            }
        }
    }
}

/// A timing row: the reduced value beside the per-round values it came
/// from and their quartiles.
fn timing(
    name: &'static str,
    unit: &'static str,
    better: Better,
    value: f64,
    per_round: Vec<f64>,
    samples: u64,
) -> MetricRow {
    MetricRow {
        name,
        unit,
        better,
        value,
        samples,
        quartiles: quartiles(&per_round),
        per_round,
    }
}

fn exact(
    name: &'static str,
    unit: &'static str,
    better: Better,
    value: f64,
    samples: u64,
) -> MetricRow {
    MetricRow {
        name,
        unit,
        better,
        value,
        samples,
        quartiles: None,
        per_round: Vec::new(),
    }
}

fn heap_mb(peak_live: usize, base_live: usize) -> f64 {
    peak_live.saturating_sub(base_live) as f64 / 1e6
}

/// The untraced pass: every end-to-end metric.
pub fn run_untraced<W: Workload>(args: PassArgs) -> PassResult {
    let mut tr = Tracer::with_capacity(256);
    let mut errors = Vec::new();

    // Set up several times; keep the last stack. Each earlier stack is
    // dropped before the next is built so every set-up starts from the
    // same heap.
    let mut setup_s: Vec<f64> = Vec::with_capacity(SETUP_REPEATS_MAX);
    let mut state: Option<W> = None;
    let mut base_live = 0usize;
    let mut setup_peak = 0usize;
    for _ in 0..SETUP_REPEATS_MIN {
        drop(state.take());
        alloc::reset_peak();
        base_live = alloc::snapshot().live;
        let t = now();
        state = Some(W::setup(args.seed, args.quick, false, &mut tr));
        setup_s.push(t.elapsed().as_secs_f64());
        setup_peak = alloc::snapshot().peak;
    }
    let fastest = best_round(&setup_s, Better::Lower).unwrap_or(f64::INFINITY);
    let affordable = (SETUP_BUDGET_S / fastest) as usize;
    let extra_setups = affordable.clamp(SETUP_REPEATS_MIN, SETUP_REPEATS_MAX) - SETUP_REPEATS_MIN;
    let mut w = state.expect("SETUP_REPEATS_MIN >= 1");
    if let Err(e) = w.verify() {
        errors.push(e);
    }

    let shape = W::shape(args.quick);
    let mut rounds = Rounds::new(shape);
    let mut digest = Fnv::default();
    let mut block = Exact::default();
    let budget = Duration::from_secs_f64(args.seconds);
    let started = now();
    for _ in 0..shape.exact_rounds {
        rounds.run(shape.round_ops, &mut block, || w.op(Some(&mut digest)));
    }
    while started.elapsed() < budget {
        rounds.run(shape.round_ops, &mut Exact::default(), || w.op(None));
        let due = started.elapsed().as_secs_f64() / args.seconds * extra_setups as f64;
        if ((setup_s.len() - SETUP_REPEATS_MIN) as f64) < due.min(extra_setups as f64) {
            let t = now();
            let spare = W::setup(args.seed, args.quick, false, &mut tr);
            setup_s.push(t.elapsed().as_secs_f64());
            drop(spare);
        }
    }

    let n_ops = rounds.attempted;
    let best = rounds.best(shape.periodic);
    // The best set-up, by the same rule as every other timing.
    let best_setup = best_round(&setup_s, Better::Lower).unwrap_or(0.0);
    let metrics = vec![
        timing(
            "setup_s",
            "s",
            Better::Lower,
            best_setup,
            setup_s.clone(),
            setup_s.len() as u64,
        ),
        timing(
            "op_ms_p50",
            "ms",
            Better::Lower,
            best.p50_ms,
            rounds.column(|r| r.p50_ms),
            n_ops,
        ),
        timing(
            "work_mops",
            "Mop/s",
            Better::Higher,
            best.work_mops,
            rounds.column(|r| r.work_mops),
            n_ops,
        ),
        exact(
            "allocs_per_op",
            "count",
            Better::Lower,
            block.per_op(block.allocs as f64),
            block.ops,
        ),
        exact(
            "alloc_kb_per_op",
            "kB",
            Better::Lower,
            block.per_op(block.alloc_bytes as f64 / 1e3),
            block.ops,
        ),
        exact(
            "peak_heap_mb",
            "MB",
            Better::Lower,
            heap_mb(setup_peak.max(block.peak_live), base_live),
            block.ops,
        ),
        exact(
            "ok_share",
            "ratio",
            Better::Higher,
            block.per_op(block.complete as f64),
            block.ops,
        ),
        exact(
            "accuracy",
            "ratio",
            Better::Higher,
            block.per_op(block.accuracy),
            block.ops,
        ),
    ];
    PassResult {
        workload: W::NAME,
        traced: false,
        attempted: rounds.attempted,
        failed: rounds.failed,
        errors,
        digest: digest.hex(),
        rounds: rounds.rounds.len(),
        metrics,
    }
}

/// The traced pass: every per-layer metric. It first drives the exact
/// block untraced on a fresh stack, then traced on a second fresh stack,
/// and requires equal digests; after that untraced and traced rounds
/// alternate on the second stack, which is what the tracing overhead is
/// read from. Returns the spans too, for `trace.jsonl`.
pub fn run_traced<W: Workload>(args: PassArgs) -> (PassResult, Tracer) {
    let shape = W::shape(args.quick);
    let ops = shape.round_ops;
    let mut errors = Vec::new();
    let mut plain = Rounds::new(shape);
    let mut traced = Rounds::new(shape);
    let unused = &mut Exact::default();

    let mut setup_tr = Tracer::with_capacity(256);
    let mut reference = W::setup(args.seed, args.quick, false, &mut setup_tr);
    if let Err(e) = reference.verify() {
        errors.push(e);
    }
    let started = now();
    let mut plain_digest = Fnv::default();
    for _ in 0..shape.exact_rounds {
        plain.run(ops, unused, || reference.op(Some(&mut plain_digest)));
    }
    drop(reference);

    let mut tr = Tracer::new();
    let mut w = W::setup(args.seed, args.quick, true, &mut tr);
    // verify() consumes what set-up kept for it; its verdict is the same
    // as on the first stack.
    if let Err(e) = w.verify() {
        errors.push(e);
    }
    w.probe_once(&mut tr);
    let mut traced_digest = Fnv::default();
    for _ in 0..shape.exact_rounds {
        traced.run(ops, unused, || {
            w.op_traced(&mut tr, Some(&mut traced_digest))
        });
    }
    if plain_digest != traced_digest {
        errors.push(format!(
            "digest differs between the untraced ({}) and traced ({}) drive of the exact block",
            plain_digest.hex(),
            traced_digest.hex()
        ));
    }
    let budget = Duration::from_secs_f64(args.seconds);
    while started.elapsed() < budget {
        plain.run(ops, unused, || w.op(None));
        traced.run(ops, unused, || w.op_traced(&mut tr, None));
    }

    let metrics = layer_metrics(
        &tr,
        plain.best(shape.periodic),
        traced.best(shape.periodic),
        traced.attempted,
    );
    let result = PassResult {
        workload: W::NAME,
        traced: true,
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        errors,
        digest: traced_digest.hex(),
        rounds: traced.rounds.len(),
        metrics,
    };
    (result, tr)
}

/// Where a per-layer metric comes from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Span time per traced operation, in units of `1/scale` ns.
    PerOp(&'static str, f64),
    /// Span time per occurrence of the span (probes, set-up spans).
    PerCall(&'static str, f64),
    /// Span time as a share of the traced operation.
    Share(&'static str),
    /// Allocation calls inside the span per traced operation.
    Allocs(&'static str),
    /// A named count, whole pass.
    Count(&'static str),
    /// A named count per traced operation.
    CountPerOp(&'static str),
    /// A percentile of a named sample series.
    Pct(&'static str, f64),
}

use Better::{Higher, Lower};
use Source::{Allocs, Count, CountPerOp, Pct, PerCall, PerOp, Share};

/// The per-layer metrics that are one reading of one span, count or
/// series. `_us`/`_ms`/`_s` are means per operation (stage spans) or per
/// call (probes, set-up, `ShardTiming`); a layer the workload bypasses
/// reads 0. The few that combine several readings follow in
/// [`layer_metrics`].
#[rustfmt::skip]
const LAYER_TABLE: &[(&str, &str, Better, Source)] = &[
    ("scenarios.stream_us", "us", Lower, PerOp("scenarios.stream", 1e3)),
    ("workloads.trace_gen_s", "s", Lower, PerCall("workloads.trace_gen", 1e9)),
    ("workloads.plan_build_s", "s", Lower, PerCall("workloads.plan_build", 1e9)),
    ("netsim.replay_us", "us", Lower, PerOp("netsim.replay", 1e3)),
    ("netsim.replay_share", "ratio", Lower, Share("netsim.replay")),
    ("netsim.replay_allocs_per_op", "count", Lower, Allocs("netsim.replay")),
    ("netsim.packets_per_op", "count", Higher, CountPerOp("netsim.packets")),
    ("netsim.prologue_ms", "ms", Lower, PerCall("netsim.prologue", 1e6)),
    ("netsim.phase_a_max_ms", "ms", Lower, PerCall("netsim.phase_a_max", 1e6)),
    ("netsim.phase_b_max_ms", "ms", Lower, PerCall("netsim.phase_b_max", 1e6)),
    ("netsim.merge_ms", "ms", Lower, PerCall("netsim.merge", 1e6)),
    ("netsim.critical_path_ms", "ms", Lower, PerCall("netsim.critical_path", 1e6)),
    ("netsim.total_work_ms", "ms", Lower, PerCall("netsim.total_work", 1e6)),
    ("dataplane.collect_us", "us", Lower, PerOp("dataplane.collect", 1e3)),
    ("dataplane.collect_allocs_per_op", "count", Lower, Allocs("dataplane.collect")),
    ("dataplane.flip_us", "us", Lower, PerOp("dataplane.flip", 1e3)),
    ("controller.analyze_us", "us", Lower, PerOp("controller.analyze", 1e3)),
    ("controller.analyze_share", "ratio", Lower, Share("controller.analyze")),
    ("controller.analyze_allocs_per_op", "count", Lower, Allocs("controller.analyze")),
    ("controller.reconfigure_us", "us", Lower, PerOp("controller.reconfigure", 1e3)),
    ("controller.reconfigure_allocs_per_op", "count", Lower, Allocs("controller.reconfigure")),
    ("controller.reconfig_count", "count", Lower, Count("controller.reconfig_count")),
    ("controller.ill_epochs", "count", Lower, Count("controller.ill_epochs")),
    ("controller.response_ms_p50", "ms", Lower, Pct("controller.response_ms", 0.50)),
    ("controller.response_ms_p90", "ms", Lower, Pct("controller.response_ms", 0.90)),
    ("tower.cardinality_probe_us", "us", Lower, PerCall("tower.cardinality_probe", 1e3)),
    ("tower.em_probe_us", "us", Lower, PerCall("tower.em_probe", 1e3)),
    ("fermat.hh_decode_probe_us", "us", Lower, PerCall("fermat.hh_decode_probe", 1e3)),
    ("fermat.sparse_decodes", "count", Higher, Count("fermat.sparse_decodes")),
    ("fermat.loaded_decodes", "count", Lower, Count("fermat.loaded_decodes")),
    ("localize.us", "us", Lower, PerOp("localize", 1e3)),
    ("localize.share", "ratio", Lower, Share("localize")),
    ("localize.allocs_per_op", "count", Lower, Allocs("localize")),
    ("serve.step_ms_p99", "ms", Lower, Pct("serve.step_ms", 0.99)),
    ("serve.telemetry_us", "us", Lower, PerCall("serve.telemetry", 1e3)),
    ("serve.telemetry_bytes_per_op", "count", Lower, CountPerOp("serve.telemetry_bytes")),
    ("fermat.clear_us", "us", Lower, PerOp("fermat.clear", 1e3)),
    ("fermat.insert_us", "us", Lower, PerOp("fermat.insert", 1e3)),
    ("fermat.insert_mops", "Mop/s", Higher, Pct("fermat.insert_mops", 0.50)),
    ("fermat.sub_us", "us", Lower, PerOp("fermat.sub", 1e3)),
    ("fermat.delta_decode_us", "us", Lower, PerOp("fermat.delta_decode", 1e3)),
    ("fermat.loaded_decode_us", "us", Lower, PerOp("fermat.loaded_decode", 1e3)),
    ("fermat.loaded_decode_ms_p50", "ms", Lower, Pct("fermat.loaded_decode_ms", 0.50)),
    ("fermat.loaded_decode_ms_p99", "ms", Lower, Pct("fermat.loaded_decode_ms", 0.99)),
    ("fermat.decoded_flows", "count", Higher, CountPerOp("fermat.decoded_flows")),
];

/// Derives every per-layer metric from the recorded spans, counts and
/// sample series, and from the pass's untraced (`plain`) and traced
/// rounds, each already reduced like an end-to-end timing.
fn layer_metrics(tr: &Tracer, plain: Round, traced: Round, traced_ops: u64) -> Vec<MetricRow> {
    let totals: BTreeMap<&'static str, SpanTotal> = tr.totals();
    let get = |span: &str| totals.get(span).copied().unwrap_or_default();
    let ops = get("op").count.max(1);
    let count = |name: &str| tr.counts.get(name).copied().unwrap_or(0.0);
    let series = |name: &str| tr.samples.get(name).map_or(&[][..], Vec::as_slice);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut rows: Vec<MetricRow> = LAYER_TABLE
        .iter()
        .map(|&(name, unit, better, from)| {
            let (value, samples) = match from {
                PerOp(span, scale) => (get(span).ns as f64 / scale / ops as f64, get(span).count),
                PerCall(span, scale) => (
                    ratio(get(span).ns as f64 / scale, get(span).count as f64),
                    get(span).count,
                ),
                Share(span) => (
                    ratio(get(span).ns as f64, get("op").ns as f64),
                    get(span).count,
                ),
                Allocs(span) => (get(span).allocs as f64 / ops as f64, get(span).count),
                Count(name) => (count(name), ops),
                CountPerOp(name) => (count(name) / ops as f64, ops),
                Pct(name, p) => (
                    percentile(series(name), p).unwrap_or(0.0),
                    series(name).len() as u64,
                ),
            };
            exact(name, unit, better, value, samples)
        })
        .collect();
    let mut push = |name, unit, better, value, samples| {
        rows.push(exact(name, unit, better, value, samples));
    };

    // The ROADMAP's headline replay rate: packets over time inside replay.
    let replay = get("netsim.replay");
    push(
        "netsim.replay_mpps",
        "Mpkt/s",
        Higher,
        ratio(count("netsim.packets") * 1e3, replay.ns as f64),
        replay.count,
    );
    // Two-worker wall time of the untraced epoch over the one-worker
    // critical path, the fastest observation of each: spawn/barrier
    // overhead (ROADMAP target <= 1.15).
    let critical = series("netsim.critical_path_ms");
    push(
        "netsim.wall_over_critical",
        "ratio",
        Lower,
        ratio(plain.mean_ms, best_round(critical, Lower).unwrap_or(0.0)),
        critical.len() as u64,
    );
    let probe_calls = count("dataplane.ingress_probe_calls");
    push(
        "dataplane.ingress_probe_mops",
        "Mop/s",
        Higher,
        ratio(probe_calls * 1e3, get("dataplane.ingress_probe").ns as f64),
        probe_calls as u64,
    );
    let probe_decodes = count("fermat.probe_decodes");
    push(
        "fermat.decode_ok_ratio",
        "ratio",
        Higher,
        ratio(count("fermat.probe_decodes_ok"), probe_decodes),
        probe_decodes as u64,
    );
    // How much of `analyze` the three probed public calls explain.
    let analyze = get("controller.analyze");
    let probes_ns = get("tower.cardinality_probe").ns
        + get("tower.em_probe").ns
        + get("fermat.hh_decode_probe").ns;
    push(
        "controller.analyze_probe_coverage",
        "ratio",
        Higher,
        ratio(probes_ns as f64, analyze.ns as f64),
        analyze.count,
    );
    // What `step` adds around the pipeline (fault realisation, watchdog,
    // scoring, record, obs): median step minus median pipeline epoch. The
    // medians, because faults make some steps skip the analysis; floored
    // at 0, where the difference is below what this can resolve.
    let median = |name| percentile(series(name), 0.50).unwrap_or(0.0);
    let wrapper_us = (median("serve.step_ms") - median("serve.pipeline_ms")).max(0.0) * 1e3;
    push(
        "serve.wrapper_us",
        "us",
        Lower,
        wrapper_us,
        series("serve.step_ms").len() as u64,
    );
    // The whole untraced operation's p90, reduced like `op_ms_p50`. A tail
    // moves by more between identical runs on a shared machine than any
    // bound could allow, so it is reported here, unbounded.
    push("op.ms_p90", "ms", Lower, plain.p90_ms, traced_ops);
    // Sum of the layer spans directly under the traced operation over the
    // operation itself: below 0.90 the layer table is not trusted.
    let op = get("op");
    push(
        "trace.coverage_ratio",
        "ratio",
        Higher,
        1.0 - ratio(op.self_ns as f64, op.ns as f64),
        op.count,
    );
    // Traced over untraced time of the same timed region, from the
    // alternating rounds.
    push(
        "trace.overhead_ratio",
        "ratio",
        Lower,
        ratio(traced.mean_ms, plain.mean_ms),
        traced_ops,
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two rounds of three operations with the given times (ms), one
    /// flow-operation each.
    fn rounds_of(ms: [[f64; 3]; 2]) -> (Rounds, Exact) {
        let shape = Shape {
            round_ops: 3,
            exact_rounds: 1,
            periodic: true,
        };
        let mut rounds = Rounds::new(shape);
        let mut exact = Exact::default();
        for round in ms {
            let mut times = round.into_iter();
            rounds.run(3, &mut exact, || OpOutcome {
                measured: Measured {
                    ns: (times.next().expect("three per round") * 1e6) as u64,
                    allocs: 2,
                    alloc_bytes: 1000,
                    peak_live: 0,
                },
                work: 1,
                complete: true,
                accuracy: 0.5,
                failed: false,
            });
        }
        (rounds, exact)
    }

    #[test]
    fn periodic_rounds_keep_the_fastest_time_of_each_position() {
        // Position 0 was quiet in round 1, positions 1 and 2 in round 0.
        let (rounds, _) = rounds_of([[9.0, 2.0, 4.0], [1.0, 8.0, 6.0]]);
        let best = rounds.best(true);
        assert_eq!(rounds.floor_ms, vec![1.0, 2.0, 4.0]);
        assert_eq!((best.p50_ms, best.p90_ms), (2.0, 4.0));
        // 3 flow-operations in 7 ms.
        assert!((best.work_mops - 3.0 / 7.0 / 1e3).abs() < 1e-12);
    }

    #[test]
    fn aperiodic_rounds_compare_only_as_wholes() {
        let (rounds, _) = rounds_of([[9.0, 2.0, 4.0], [1.0, 8.0, 6.0]]);
        let best = rounds.best(false);
        // Round medians 4 and 6, p90s 9 and 8, rates 3/15 and 3/15.
        assert_eq!((best.p50_ms, best.p90_ms), (4.0, 8.0));
        assert!((best.work_mops - 3.0 / 15.0 / 1e3).abs() < 1e-12);
    }

    #[test]
    fn exact_observations_are_per_operation_means() {
        let (rounds, exact) = rounds_of([[1.0; 3], [1.0; 3]]);
        assert_eq!((rounds.attempted, rounds.failed, exact.ops), (6, 0, 6));
        assert_eq!(exact.per_op(exact.allocs as f64), 2.0);
        assert_eq!(exact.per_op(exact.alloc_bytes as f64), 1000.0);
        assert_eq!(exact.per_op(exact.complete as f64), 1.0);
        assert_eq!(exact.per_op(exact.accuracy), 0.5);
    }
}
