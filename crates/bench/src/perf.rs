//! The `chm-bench perf` scaling curve: packets/sec through the sharded
//! epoch pipeline (`chm_netsim::ShardedReplay`) across thread counts, each
//! pass cross-checked against the unsharded replay before it is recorded.
//!
//! Results land in `results/BENCH_hotpath.json` (schema 4: one row per
//! sweep point, every cell measured) plus one thread-count-independent
//! `SHARD_DIGEST_T<t>.json` per swept count. Run `--quick` for the CI
//! smoke datapoint. The single-edge layers are measured elsewhere: the
//! repo benchmark's `fermat_codec` and `replay_scale` workloads time them,
//! and `tests/hotpath_equivalence.rs` holds the sketch to a `%`-based
//! reference.

use crate::report::Table;
use chamelemon::config::{DataPlaneConfig, RuntimeConfig};
use chamelemon::dataplane::EdgeDataPlane;
use chm_common::{FiveTuple, FlowId};
use chm_netsim::sim::EpochReport;
use chm_netsim::{
    ImpairmentSet, KaryFatTree, ReplayMode, ShardedReplay, Sharding, SimConfig, Simulator,
    SiteArray, SwitchId, Topology,
};
use chm_workloads::{testbed_trace, LossPlan, VictimSelection, WorkloadKind};
use std::path::Path;
use std::time::Instant;

/// `BENCH_hotpath.json`'s columns, in order (schema 4).
const COLUMNS: [&str; 9] = [
    "replay_packets",
    "threads",
    "schema_version",
    "n_flows",
    "sweep_pps_wall",
    "sweep_pps_crit",
    "speedup_crit",
    "pps_per_thread",
    "scaling_efficiency",
];

/// The `schema_version` cell of every row.
const SCHEMA_VERSION: f64 = 4.0;

/// The sweep's fabric: the k=8 fat-tree.
fn sweep_fabric() -> Topology {
    KaryFatTree::new(8).into()
}

/// The largest thread count the sweep can lay out: one shard per edge
/// switch of its fabric (32). A shard past that owns no edge, so a row
/// labelled with a larger count would describe a layout that never ran.
pub fn max_threads() -> usize {
    sweep_fabric().n_edges()
}

/// Parameters of the `--threads` scaling sweep over the sharded epoch
/// pipeline (`chm_netsim::ShardedReplay`).
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Thread counts to sweep, each at most [`max_threads`]. Normalized to
    /// sorted + deduped and always includes 1 — the speedup baseline row.
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

/// Order-independent digest of an epoch report: every table is folded in a
/// canonical (sorted) order, so equal reports digest equal. It covers the
/// epoch, each flow's delivered count, each victim's lost count and drop
/// sites, the drops per switch and the hop histogram: everything but
/// `queue_depth`, which the sweep's clean fabric leaves empty. This is what
/// `results/SHARD_DIGEST_T<t>.json` records and what CI `cmp`s across
/// thread counts.
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
    sharding: Sharding,
    pass: &str,
) {
    assert_eq!(
        reports, ref_reports,
        "sharded reports diverged from unsharded reference ({sharding:?}, {pass} pass)"
    );
    for (e, (a, b)) in edges.iter().zip(ref_edges).enumerate() {
        assert!(
            a.group(0) == b.group(0) && a.group(1) == b.group(1),
            "edge {e} sketch state diverged from unsharded reference \
             ({sharding:?}, {pass} pass)"
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
    let topo = sweep_fabric();
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

    // One pass at `sharding`, held to the reference: (wall s, summed
    // critical path under `clock`).
    let pass = |sharding: Sharding, clock: &(dyn Fn() -> f64 + Sync), label: &str| {
        let mut edges = new_edges();
        let mut sim = Simulator::new(topo.clone(), SimConfig::default());
        let mut eng = ShardedReplay::new(sharding);
        let clean = ImpairmentSet::none();
        let t0 = Instant::now();
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
                clock,
            );
            crit_s += timing.critical_path_s();
            reports.push(r);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        assert_matches_reference(&reports, &edges, &ref_reports, &ref_edges, sharding, label);
        (wall_s, crit_s)
    };
    let mut rows = Vec::new();
    for &t in threads {
        let (wall_s, _) = pass(Sharding { shards: t, workers: t }, &|| 0.0, "wall");
        let base = Instant::now();
        let clock = move || base.elapsed().as_secs_f64();
        let (_, crit_s) = pass(Sharding { shards: t, workers: 1 }, &clock, "critical-path");
        eprintln!(
            "  t={t}: wall {wall_s:.3}s, critical path {crit_s:.3}s \
             ({:.2} Mpps crit)",
            packets / crit_s / 1e6
        );
        rows.push(SweepRow { threads: t, flows, packets, wall_s, crit_s });
    }
    (rows, digests)
}

/// Runs the sharded-pipeline scaling sweep and returns the results table
/// (schema 4): the standard tier's rows, then the large tier's. Panics when
/// a swept count exceeds [`max_threads`].
///
/// Writes one `SHARD_DIGEST_T<t>.json` per swept thread count into
/// `out_dir`; their contents are thread-count-independent by construction,
/// so CI can `cmp` them pairwise to assert cross-process byte-identity.
pub fn run(sweep: &SweepConfig, out_dir: &Path) -> Table {
    let sweep = sweep.clone().normalized();
    let widest = *sweep.threads.last().expect("normalized is non-empty");
    assert!(widest <= max_threads(), "{widest} threads exceed the sweep's {} edges", max_threads());
    let (sweep_rows, digests) = sweep_tier(sweep.flows, sweep.epochs, &sweep.threads);
    let json = digest_json(sweep.flows, sweep.epochs, &digests);
    for &t in &sweep.threads {
        let path = out_dir.join(format!("SHARD_DIGEST_T{t}.json"));
        let written = std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, &json));
        if let Err(e) = written {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
    let big_rows = if sweep.big_flows > 0 {
        // The large tier: baseline plus the widest sharding, one epoch.
        let mut big_threads = vec![1, widest];
        big_threads.dedup();
        sweep_tier(sweep.big_flows, 1, &big_threads).0
    } else {
        Vec::new()
    };

    let mut t = Table::new("BENCH_hotpath", "Sharded-pipeline scaling curve", &COLUMNS);
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
                r.packets,
                r.threads as f64,
                SCHEMA_VERSION,
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
        let sweep = SweepConfig { threads: vec![2], flows: 400, big_flows: 0, epochs: 1 };
        let t = run(&sweep, &dir);
        assert_eq!(t.columns, COLUMNS);
        // One row per thread count, the 1-thread baseline added, ascending.
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0][1], 1.0);
        assert_eq!(t.rows[1][1], 2.0);
        assert!((t.rows[0][6] - 1.0).abs() < 1e-12, "t=1 speedup_crit is 1.0");
        for row in &t.rows {
            assert_eq!(row[2], SCHEMA_VERSION);
            for v in row {
                assert!(v.is_finite() && *v > 0.0, "bad sweep metric {v}");
            }
        }
        // Digest files exist and are byte-identical across thread counts.
        let d1 = std::fs::read(dir.join("SHARD_DIGEST_T1.json")).unwrap();
        let d2 = std::fs::read(dir.join("SHARD_DIGEST_T2.json")).unwrap();
        assert_eq!(d1, d2, "digest files must not depend on the thread count");
    }

    /// The committed `results/BENCH_hotpath.json` has the columns `run`
    /// writes, and every row of it is a schema-4 row with every cell
    /// measured.
    #[test]
    fn committed_bench_hotpath_is_schema_4() {
        let json = include_str!("../../../results/BENCH_hotpath.json");
        let columns = json
            .lines()
            .find_map(|l| l.trim().strip_prefix("\"columns\": ["))
            .expect("a columns line");
        let want: Vec<String> = COLUMNS.iter().map(|c| format!("\"{c}\"")).collect();
        assert_eq!(columns.trim_end_matches([']', ',']), want.join(", "));
        let rows: Vec<Vec<f64>> = json
            .lines()
            .filter_map(|l| l.trim().strip_prefix('['))
            .map(|l| {
                let cells = l.trim_end_matches([']', ',']);
                cells.split(", ").map(|c| c.parse().expect("a number, not null")).collect()
            })
            .collect();
        assert!(!rows.is_empty(), "the file has rows");
        for row in &rows {
            assert_eq!(row.len(), COLUMNS.len());
            assert_eq!(row[2], SCHEMA_VERSION, "schema_version");
        }
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
