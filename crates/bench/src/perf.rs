//! The `chm-bench perf` hot-path benchmark: packets/sec through the
//! data-plane packet engine, hash throughput and decode latency at the
//! controller, then the sharded epoch pipeline's scaling curve across
//! thread counts, each pass cross-checked against the unsharded replay.
//!
//! Results land in `results/BENCH_hotpath.json` (row 0 is the engine row,
//! rows 1.. the scaling curve) plus one thread-count-independent
//! `SHARD_DIGEST_T<t>.json` per swept count. Run `--quick` for the CI
//! smoke datapoint. The engine's outputs are held to a `%`-based reference
//! sketch by `tests/hotpath_equivalence.rs`, not here.

use crate::report::Table;
use chamelemon::config::{DataPlaneConfig, RuntimeConfig};
use chamelemon::dataplane::EdgeDataPlane;
use chm_common::hash::HashFamily;
use chm_common::{FiveTuple, FlowId};
use chm_fermat::{DecodeScratch, FermatConfig, FermatSketch};
use chm_netsim::sim::EpochReport;
use chm_netsim::{
    ImpairmentSet, KaryFatTree, ReplayMode, ShardedReplay, Sharding, SimConfig, Simulator,
    SiteArray, SwitchId, Topology,
};
use chm_workloads::{testbed_trace, LossPlan, Trace, VictimSelection, WorkloadKind};
use std::path::Path;
use std::time::Instant;

// ---------------------------------------------------------------------
// The engine under test: the real data plane, zero-clone epoch pipeline
// ---------------------------------------------------------------------

struct FastEdge {
    dp: EdgeDataPlane<FiveTuple>,
    scratch: DecodeScratch<FiveTuple>,
}

impl FastEdge {
    fn new(cfg: DataPlaneConfig) -> Self {
        let rt = RuntimeConfig::initial(&cfg);
        FastEdge { dp: EdgeDataPlane::new(cfg, rt), scratch: DecodeScratch::new() }
    }

    /// Ingests one flow's packet burst through the batched engine,
    /// distributing `n_lost` drops across the burst with the simulator's
    /// spread formula (same observable state as per-packet replay — see
    /// `tests/burst_replay.rs` in `chamelemon`).
    #[inline]
    fn on_flow(&mut self, f: &FiveTuple, pkts: u64, n_lost: u64) {
        let runs = self.dp.on_ingress_burst(f, 0, pkts);
        let mut pos = 0u64;
        for (h, len) in runs {
            if len == 0 {
                continue;
            }
            let dropped = (pos + len) * n_lost / pkts - pos * n_lost / pkts;
            self.dp.on_egress_burst(f, 0, h, len - dropped);
            pos += len;
        }
    }

    /// Fast epoch end: take the group whole (`mem::replace`), decode through
    /// the reusable scratch, flip.
    fn end_epoch(&mut self) -> usize {
        let group = self.dp.take_group(0);
        let n = group.up_hh.decode_with(&mut self.scratch).flows.len();
        self.dp.flip(0);
        n
    }
}

// ---------------------------------------------------------------------
// Measurements
// ---------------------------------------------------------------------

/// Parameters of one perf run.
#[derive(Debug, Clone, Copy)]
pub struct PerfConfig {
    /// Flows in the replay trace.
    pub flows: usize,
    /// Epochs replayed end to end.
    pub epochs: usize,
    /// Keys hashed in the micro-benchmarks.
    pub hash_keys: usize,
    /// Flows for the loaded-decode latency measurement.
    pub decode_flows: usize,
    /// Repetitions of each timed section (best-of is reported, which is
    /// standard practice for throughput numbers on a shared machine).
    pub reps: usize,
}

impl PerfConfig {
    /// The full run (default). Flow count stays under the HH encoder's
    /// decodable load (≈7.5K flows at the paper-default 3×3584 buckets) so
    /// every epoch fully decodes and the decoded count can be checked
    /// against the trace.
    pub fn full() -> Self {
        PerfConfig { flows: 6_000, epochs: 8, hash_keys: 2_000_000, decode_flows: 8_000, reps: 3 }
    }

    /// The CI smoke run (`--quick`).
    pub fn quick() -> Self {
        PerfConfig { flows: 2_000, epochs: 3, hash_keys: 400_000, decode_flows: 2_000, reps: 2 }
    }
}

// ---------------------------------------------------------------------
// Multicore scaling sweep: the sharded epoch pipeline
// ---------------------------------------------------------------------

/// Parameters of the `--threads` scaling sweep over the sharded epoch
/// pipeline (`chm_netsim::ShardedReplay`).
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Thread counts to sweep. Normalized to sorted + deduped and always
    /// includes 1 — the speedup baseline row.
    pub threads: Vec<usize>,
    /// Concurrent flows per epoch in the standard sweep tier.
    pub flows: usize,
    /// Concurrent flows in the large tier (`0` skips it). The large tier
    /// runs one epoch at 1 thread and at the largest swept count.
    pub big_flows: usize,
    /// Epochs replayed per measurement pass.
    pub epochs: usize,
}

impl SweepConfig {
    /// The full sweep (default): 1M concurrent flows across 1/2/4/8
    /// threads, plus the 10M-flow tier.
    pub fn full() -> Self {
        SweepConfig { threads: vec![1, 2, 4, 8], flows: 1_000_000, big_flows: 10_000_000, epochs: 2 }
    }

    /// The CI smoke sweep (`--quick`): small trace, 1 and 2 threads, no
    /// large tier.
    pub fn quick() -> Self {
        SweepConfig { threads: vec![1, 2], flows: 40_000, big_flows: 0, epochs: 1 }
    }

    /// Sorted, deduped, with the mandatory 1-thread baseline present.
    pub fn normalized(mut self) -> Self {
        self.threads.push(1);
        self.threads.sort_unstable();
        self.threads.dedup();
        self
    }
}

/// One measured point of the scaling curve.
struct SweepRow {
    threads: usize,
    flows: usize,
    packets: f64,
    wall_s: f64,
    crit_s: f64,
}

/// FNV-1a fold of one `u64` into the running digest.
fn fnv64(h: u64, v: u64) -> u64 {
    let mut h = h;
    for b in v.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn switch_code(s: SwitchId) -> u64 {
    ((s.role as u64) << 32) | s.index as u64
}

/// Order-independent digest of an epoch report: every map is folded in a
/// canonical (sorted) order, so two reports digest equal iff they compare
/// equal. This is what `results/SHARD_DIGEST_T<t>.json` records and what
/// CI `cmp`s across thread counts.
fn digest_report(r: &EpochReport<FiveTuple>) -> u64 {
    let mut h = fnv64(0xcbf2_9ce4_8422_2325, r.epoch);
    let mut flows: Vec<(u64, u64)> = r.delivered.iter().map(|(f, &c)| (f.key64(), c)).collect();
    flows.sort_unstable();
    for (k, c) in flows.drain(..) {
        h = fnv64(fnv64(h, k), c);
    }
    let mut victims: Vec<_> = r.lost.with_drops().map(|(f, c, d)| (f.key64(), c, d)).collect();
    victims.sort_unstable_by_key(|&(k, _, _)| k);
    for &(k, c, _) in &victims {
        h = fnv64(fnv64(h, k), c);
    }
    for (&s, &c) in &r.dropped_at {
        h = fnv64(fnv64(h, switch_code(s)), c);
    }
    for &(k, _, drops) in &victims {
        h = fnv64(h, k);
        for &(s, c) in drops {
            h = fnv64(fnv64(h, switch_code(s)), c);
        }
    }
    for (&hops, &c) in &r.hops_histogram {
        h = fnv64(fnv64(h, hops as u64), c);
    }
    h
}

/// The digest file's content. Deliberately free of the thread count: the
/// files written at different `--threads` values must be byte-identical,
/// which is exactly what CI's `cmp` asserts.
fn digest_json(flows: usize, epochs: usize, digests: &[u64]) -> String {
    let list =
        digests.iter().map(|d| format!("\"{d:016x}\"")).collect::<Vec<_>>().join(", ");
    format!(
        "{{\n  \"id\": \"SHARD_DIGEST\",\n  \"topology\": \"kary8\",\n  \
         \"flows\": {flows},\n  \"epochs\": {epochs},\n  \
         \"report_digests\": [{list}]\n}}\n"
    )
}

/// Asserts the sharded pass reproduced the unsharded reference exactly:
/// same reports, same sketch state on every edge (both groups).
fn assert_matches_reference(
    reports: &[EpochReport<FiveTuple>],
    edges: &[EdgeDataPlane<FiveTuple>],
    ref_reports: &[EpochReport<FiveTuple>],
    ref_edges: &[EdgeDataPlane<FiveTuple>],
    threads: usize,
    pass: &str,
) {
    assert_eq!(
        reports, ref_reports,
        "sharded reports diverged from unsharded reference ({threads} threads, {pass} pass)"
    );
    for (e, (a, b)) in edges.iter().zip(ref_edges).enumerate() {
        assert!(
            a.group(0) == b.group(0) && a.group(1) == b.group(1),
            "edge {e} sketch state diverged from unsharded reference \
             ({threads} threads, {pass} pass)"
        );
    }
}

/// Measures one tier of the scaling curve: an unsharded reference pass,
/// then per thread count a wall-clock pass (`shards = workers = t`) and a
/// critical-path pass (`shards = t`, `workers = 1`, per-phase timing).
///
/// The critical-path number — serial prologue + slowest shard of each
/// phase + merge — is the span of the sharded pipeline's dependency graph:
/// the epoch time with one core per shard and free threads. On a machine
/// with fewer cores than shards the wall column shows what this host
/// actually achieves while the critical-path column shows what the
/// sharding itself enables; both are recorded, clearly labeled.
fn sweep_tier(
    flows: usize,
    epochs: usize,
    threads: &[usize],
) -> (Vec<SweepRow>, Vec<u64>) {
    let topo: Topology = KaryFatTree::new(8).into();
    let cfg = DataPlaneConfig::small(0x5ca1e);
    let rt = RuntimeConfig::initial(&cfg);
    let trace = testbed_trace(WorkloadKind::Dctcp, flows, topo.n_hosts() as u32, 0xacce1);
    let plan = LossPlan::build(&trace, VictimSelection::RandomRatio(0.01), 0.02, 0x10ad);
    let packets = (trace.total_packets() * epochs as u64) as f64;

    let new_edges = || -> Vec<EdgeDataPlane<FiveTuple>> {
        (0..topo.n_edges()).map(|_| EdgeDataPlane::new(cfg.clone(), rt)).collect()
    };

    eprintln!("sweep tier: {flows} flows x {epochs} epochs on {} edges...", topo.n_edges());
    let mut ref_edges = new_edges();
    let mut sim = Simulator::new(topo.clone(), SimConfig::default());
    let mut ref_reports = Vec::new();
    for _ in 0..epochs {
        let mut hooks = SiteArray(&mut ref_edges);
        ref_reports.push(sim.run_epoch_burst(&trace, &plan, &mut hooks));
    }
    let digests: Vec<u64> = ref_reports.iter().map(digest_report).collect();

    let clean = ImpairmentSet::none();
    let mut rows = Vec::new();
    for &t in threads {
        let mut edges = new_edges();
        let mut sim = Simulator::new(topo.clone(), SimConfig::default());
        let mut eng = ShardedReplay::new(Sharding { shards: t, workers: t });
        let t0 = Instant::now();
        let mut reports = Vec::new();
        for _ in 0..epochs {
            reports.push(
                eng.run_epoch(&mut sim, &trace, &plan, &clean, ReplayMode::Burst, &mut edges, &|| 0.0)
                    .0,
            );
        }
        let wall_s = t0.elapsed().as_secs_f64();
        assert_matches_reference(&reports, &edges, &ref_reports, &ref_edges, t, "wall");

        let mut edges = new_edges();
        let mut sim = Simulator::new(topo.clone(), SimConfig::default());
        let mut eng = ShardedReplay::new(Sharding { shards: t, workers: 1 });
        let base = Instant::now();
        let clock = move || base.elapsed().as_secs_f64();
        let mut crit_s = 0.0;
        let mut reports = Vec::new();
        for _ in 0..epochs {
            let (r, timing) = eng.run_epoch(
                &mut sim,
                &trace,
                &plan,
                &clean,
                ReplayMode::Burst,
                &mut edges,
                &clock,
            );
            crit_s += timing.critical_path_s();
            reports.push(r);
        }
        assert_matches_reference(&reports, &edges, &ref_reports, &ref_edges, t, "critical-path");
        eprintln!(
            "  t={t}: wall {wall_s:.3}s, critical path {crit_s:.3}s \
             ({:.2} Mpps crit)",
            packets / crit_s / 1e6
        );
        rows.push(SweepRow { threads: t, flows, packets, wall_s, crit_s });
    }
    (rows, digests)
}

fn best_of<R>(reps: usize, mut run: impl FnMut() -> (f64, R)) -> (f64, R) {
    let mut best = run();
    for _ in 1..reps {
        let next = run();
        if next.0 < best.0 {
            best = next;
        }
    }
    best
}

/// The replay workload: each flow's packet count and its spread-dropped
/// losses (2% loss, so the egress/downstream path is exercised
/// realistically).
fn replay_flows(trace: &Trace<FiveTuple>) -> Vec<(FiveTuple, u64, u64)> {
    trace.flows.iter().map(|&(f, pkts)| (f, pkts, pkts / 50)).collect()
}

/// Runs the full measurement suite — the single-edge engine measurements
/// plus the sharded-pipeline scaling sweep — and returns the results table
/// (schema v3: row 0 is the engine row, rows 1.. are the scaling curve).
///
/// Writes one `SHARD_DIGEST_T<t>.json` per swept thread count into
/// `out_dir`; their contents are thread-count-independent by construction,
/// so CI can `cmp` them pairwise to assert cross-process byte-identity.
pub fn run(pc: PerfConfig, sweep: &SweepConfig, out_dir: &Path) -> Table {
    let cfg = DataPlaneConfig::paper_default(0x9e7f);
    let trace = testbed_trace(WorkloadKind::Dctcp, pc.flows, 8, 0x9e7f);
    let flows = replay_flows(&trace);
    let epoch_packets: u64 = flows.iter().map(|&(_, p, _)| p).sum();
    let total_packets = (epoch_packets * pc.epochs as u64) as f64;

    // --- end-to-end replay: packets/sec through the packet engine --------
    // Each flow's burst goes through the batched classifier/encoder path
    // (state-identical to per-packet ingest, property-tested).
    eprintln!("replaying {epoch_packets} packets x {} epochs...", pc.epochs);
    let (fast_s, fast_decoded) = best_of(pc.reps, || {
        let mut edge = FastEdge::new(cfg.clone());
        let t0 = Instant::now();
        let mut decoded = 0usize;
        for _ in 0..pc.epochs {
            for &(f, pkts, n_lost) in &flows {
                edge.on_flow(&f, pkts, n_lost);
            }
            decoded += edge.end_epoch();
        }
        (t0.elapsed().as_secs_f64(), decoded)
    });
    // Under the initial runtime every flow is a HH candidate, so a fully
    // decoded epoch returns the whole trace.
    assert_eq!(
        fast_decoded,
        flows.len() * pc.epochs,
        "the HH encoder did not decode every flow of every epoch"
    );
    let replay_pps_fast = total_packets / fast_s;

    // --- hash micro-benchmark: 3-array index derivation ------------------
    let fam = HashFamily::new(0x1234, 3);
    let m = 4096usize;
    let reducer = chm_common::FastRange::new(m);
    let (fast_hash_s, acc) = best_of(pc.reps, || {
        let t0 = Instant::now();
        let mut acc = 0usize;
        for key in 0..pc.hash_keys as u64 {
            let bh = chm_common::BatchHasher::new(key);
            for h in fam.as_slice() {
                acc = acc.wrapping_add(bh.index(h, reducer));
            }
        }
        (t0.elapsed().as_secs_f64(), acc)
    });
    std::hint::black_box(acc);
    let hash_mops_fast = pc.hash_keys as f64 * 3.0 / fast_hash_s / 1e6;

    // --- decode latency: loaded sketch ------------------------------------
    // The `_fast` decodes allocate the flowset they return, as the
    // controller's do (it keeps every flowset in its `EpochAnalysis`).
    let dec_cfg = FermatConfig::standard(
        (pc.decode_flows as f64 / 0.70 / 3.0).ceil() as usize,
        0xdec0,
    );
    let mut loaded = FermatSketch::<FiveTuple>::new(dec_cfg);
    for &(f, _) in trace.flows.iter().take(pc.decode_flows) {
        loaded.insert(&f);
    }
    let mut scratch = DecodeScratch::new();
    // Warms the scratch buffers.
    let decoded_flows = loaded.decode_with(&mut scratch).flows.len();
    let (decode_s_fast, _) = best_of(pc.reps, || {
        let t0 = Instant::now();
        let r = loaded.decode_with(&mut scratch);
        (t0.elapsed().as_secs_f64(), std::hint::black_box(r.flows.len()))
    });

    // --- decode latency: sparse delta -------------------------------------
    // A big encoder (the healthy-state HH geometry) holding few victims:
    // the controller's per-epoch delta decode.
    let delta_cfg = FermatConfig::standard(cfg.m_uf, 0xde17a);
    let victims = (pc.decode_flows / 40).max(32);
    let mut delta = FermatSketch::<FiveTuple>::new(delta_cfg);
    for &(f, _) in trace.flows.iter().take(victims) {
        delta.insert_weighted(&f, 3);
    }
    let (delta_s_fast, _) = best_of(pc.reps, || {
        let t0 = Instant::now();
        let r = delta.decode_with(&mut scratch);
        (t0.elapsed().as_secs_f64(), std::hint::black_box(r.flows.len()))
    });

    // --- sharded-pipeline scaling sweep ----------------------------------
    let sweep = sweep.clone().normalized();
    let (sweep_rows, digests) = sweep_tier(sweep.flows, sweep.epochs, &sweep.threads);
    for &t in &sweep.threads {
        let path = out_dir.join(format!("SHARD_DIGEST_T{t}.json"));
        if let Err(e) =
            std::fs::create_dir_all(out_dir).and_then(|()| {
                std::fs::write(&path, digest_json(sweep.flows, sweep.epochs, &digests))
            })
        {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
    let big_rows = if sweep.big_flows > 0 {
        // The large tier: baseline plus the widest sharding, one epoch.
        let mut big_threads = vec![1, *sweep.threads.last().expect("normalized is non-empty")];
        big_threads.dedup();
        sweep_tier(sweep.big_flows, 1, &big_threads).0
    } else {
        Vec::new()
    };

    // Schema v3: v2 without the five columns of the retired engine race;
    // every surviving column keeps its name and relative order. Cells a row kind does not
    // measure are NaN, which the JSON writer emits as null — "not
    // measured", never a fake zero.
    let mut t = Table::new(
        "BENCH_hotpath",
        "Hot-path packet engine, plus sharded-pipeline scaling curve",
        &[
            "replay_pps_fast",
            "hash_mops_fast",
            "decode_ms_fast",
            "delta_decode_ms_fast",
            "replay_packets",
            "decoded_flows",
            "threads",
            "schema_version",
            "n_flows",
            "sweep_pps_wall",
            "sweep_pps_crit",
            "speedup_crit",
            "pps_per_thread",
            "scaling_efficiency",
        ],
    );
    let na = f64::NAN;
    t.push(vec![
        replay_pps_fast,
        hash_mops_fast,
        decode_s_fast * 1e3,
        delta_s_fast * 1e3,
        total_packets,
        decoded_flows as f64,
        1.0,
        3.0,
        pc.flows as f64,
        na,
        na,
        na,
        na,
        na,
    ]);
    for tier in [&sweep_rows, &big_rows] {
        if tier.is_empty() {
            continue;
        }
        let crit_1 = tier
            .iter()
            .find(|r| r.threads == 1)
            .map(|r| r.crit_s)
            .expect("every tier sweeps the 1-thread baseline");
        for r in tier {
            let speedup_crit = crit_1 / r.crit_s;
            t.push(vec![
                na,
                na,
                na,
                na,
                r.packets,
                na,
                r.threads as f64,
                3.0,
                r.flows as f64,
                r.packets / r.wall_s,
                r.packets / r.crit_s,
                speedup_crit,
                r.packets / r.crit_s / r.threads as f64,
                speedup_crit / r.threads as f64,
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_run_produces_consistent_rows() {
        let dir = std::env::temp_dir().join("chm_bench_perf_test");
        let sweep = SweepConfig { threads: vec![1, 2], flows: 400, big_flows: 0, epochs: 1 };
        let t = run(
            PerfConfig { flows: 300, epochs: 1, hash_keys: 10_000, decode_flows: 200, reps: 1 },
            &sweep,
            &dir,
        );
        // Schema 3 is exactly these columns: the engine's own, then the sweep's.
        assert_eq!(
            t.columns,
            [
                "replay_pps_fast",
                "hash_mops_fast",
                "decode_ms_fast",
                "delta_decode_ms_fast",
                "replay_packets",
                "decoded_flows",
                "threads",
                "schema_version",
                "n_flows",
                "sweep_pps_wall",
                "sweep_pps_crit",
                "speedup_crit",
                "pps_per_thread",
                "scaling_efficiency",
            ]
        );
        // Row 0: the engine row — every engine column measured.
        assert_eq!(t.rows.len(), 3, "engine row + one sweep row per thread count");
        for row in &t.rows {
            assert_eq!(row.len(), t.columns.len());
        }
        for v in &t.rows[0][..7] {
            assert!(v.is_finite() && *v > 0.0, "bad engine metric {v}");
        }
        assert_eq!(t.rows[0][7], 3.0, "schema_version");
        // Sweep rows: thread counts ascend, sweep metrics measured, the
        // 1-thread row is its own baseline.
        assert_eq!(t.rows[1][6], 1.0);
        assert_eq!(t.rows[2][6], 2.0);
        assert!((t.rows[1][11] - 1.0).abs() < 1e-12, "t=1 speedup_crit is 1.0");
        for row in &t.rows[1..] {
            for v in &row[7..] {
                assert!(v.is_finite() && *v > 0.0, "bad sweep metric {v}");
            }
        }
        // Digest files exist and are byte-identical across thread counts.
        let d1 = std::fs::read(dir.join("SHARD_DIGEST_T1.json")).unwrap();
        let d2 = std::fs::read(dir.join("SHARD_DIGEST_T2.json")).unwrap();
        assert_eq!(d1, d2, "digest files must not depend on the thread count");
    }

    #[test]
    fn digest_is_order_independent_but_content_sensitive() {
        let trace = testbed_trace(WorkloadKind::Dctcp, 200, 8, 3);
        let plan = LossPlan::build(&trace, VictimSelection::RandomRatio(0.1), 0.05, 4);
        let topo: Topology = chm_netsim::FatTree::testbed().into();
        let run_once = || {
            let mut sim = Simulator::new(topo.clone(), SimConfig::default());
            let cfg = DataPlaneConfig::small(7);
            let rt = RuntimeConfig::initial(&cfg);
            let mut edges: Vec<EdgeDataPlane<FiveTuple>> =
                (0..topo.n_edges()).map(|_| EdgeDataPlane::new(cfg.clone(), rt)).collect();
            let mut hooks = SiteArray(&mut edges);
            sim.run_epoch_burst(&trace, &plan, &mut hooks)
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(digest_report(&a), digest_report(&b));
        let mut c = b.clone();
        // One more drop at the first switch that dropped any.
        *c.dropped_at.values_mut().next().expect("the plan has victims") += 1;
        assert_ne!(digest_report(&a), digest_report(&c));
    }
}
