//! `chm-bench` — the benchmark driver CLI.
//!
//! ```text
//! chm-bench perf [--quick] [--threads <list|auto>] [--out <dir>]
//! chm-bench scenarios [--quick] [--per-packet] [--out <dir>]
//!                     [--seeds <n>] [--check <golden.json>]
//!                     [--topology-sweep]
//! chm-bench soak [--quick] [--epochs <n>] [--seed <s>]
//!                [--profile none|standard|stress] [--out <dir>]
//! chm-bench profile [--quick] [--workers <n>] [--seed <s>] [--out <dir>]
//! chm-bench fig <id>|all
//! ```
//!
//! `fig` regenerates one paper table/figure by id (a row of
//! `chm_bench::experiments::EXPERIMENTS`) or, with `all`, every one in
//! sequence, printing each table and writing `results/<table id>.json` as it
//! completes. `CHM_TRIALS` / `CHM_SCALE` trade fidelity for time.
//!
//! `perf` sweeps the sharded epoch pipeline across thread counts
//! (`--threads` takes a comma list like `1,2,4,8`, each at most the sweep
//! fabric's 32 edges, or `auto` for a doubling ladder up to the machine)
//! and writes the schema-4 scaling curve to `results/BENCH_hotpath.json`
//! plus one thread-count-independent `SHARD_DIGEST_T<t>.json` per swept
//! count (see `chm_bench::perf`). Every sweep pass is cross-checked against
//! the unsharded replay — reports and sketch state must match exactly
//! before a number is recorded. `--quick` sweeps a 40k-flow trace with no
//! large tier.
//!
//! `soak` runs the serve loop for thousands of epochs and writes
//! `results/SOAK.json` (see `chm_bench::soak`); an explicit `--epochs`
//! wins over `--quick` in either order.
//!
//! `scenarios` runs the golden adversarial matrix (Gilbert–Elliott bursty
//! loss, duplication, reordering, clock skew, report loss, churn, floods,
//! victim drift, perfect storm) through the full pipeline and writes
//! `results/SCENARIOS.json` (see `chm_bench::scenarios`). The JSON is a
//! pure function of the scenario seeds — byte-identical across runs and
//! machines — so accuracy regressions are plain diffs. `--per-packet`
//! swaps the burst replay for the per-packet path (the differential tests
//! guarantee identical output; the flag exists to demonstrate it).
//!
//! `--quick` runs the reduced CI-smoke sizing; `--out` overrides the
//! results directory. `--seeds <n>` re-runs every scenario under `n`
//! derived seeds on the parallel trial executor and appends per-scenario
//! mean/σ confidence bands (byte-identical at any worker count).
//! `--check <golden.json>` is the CI threshold gate: exit 1 when any
//! scenario's mean F1 or localization top-3 hit rate regressed more than
//! the tolerance vs the committed golden.
//!
//! `profile` drives the congested serve preset through the sharded engine
//! with the `chm_obs` span profiler under a real clock and writes the
//! per-stage time/allocation breakdown to `results/PROFILE.json` plus the
//! deterministic count columns to `results/PROFILE_counts.json` (see
//! `chm_bench::profile`). The counts file is a pure function of the
//! sizing — byte-identical across runs, machines, and `--workers` — and
//! CI `cmp`-gates it against the committed golden.
//!
//! `--topology-sweep` swaps the adversarial matrix for the topology zoo:
//! one congestion-coupled scenario per fabric (testbed, k-ary fat-trees,
//! leaf-spines, Abilene WAN), written to `results/TOPOLOGY_SWEEP.json`
//! (see `chm_bench::sweep`). `--quick`, `--out`, `--per-packet`, and
//! `--check` compose; `--seeds` applies to the matrix only.

use chm_bench::experiments::{self, EXPERIMENTS};
use chm_bench::perf;
use chm_bench::profile::{self, ProfileConfig};
use chm_bench::scenarios;
use chm_bench::soak::{self, SoakConfig};
use chm_bench::sweep;
use chm_scenarios::ReplayMode;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Global allocation counter feeding the soak's flatness gate. Lives in
/// the binary root so the library keeps `forbid(unsafe_code)`; the
/// `fetch_add` costs nanoseconds and the measured hot paths are
/// allocation-free anyway (see `tests/alloc_audit.rs`).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// chm-lint: allow(unsafe-block, "counting-allocator shim: implementing GlobalAlloc is inherently unsafe and this type exists only in this binary")
unsafe impl GlobalAlloc for CountingAlloc {
    // chm-lint: allow(unsafe-block, "bumps a counter then delegates to System.alloc with the caller's layout unchanged")
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    // chm-lint: allow(unsafe-block, "pure delegation to System.dealloc; pointer and layout come straight from the caller")
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    // chm-lint: allow(unsafe-block, "bumps a counter then delegates to System.realloc with the caller's arguments unchanged")
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn usage() -> ! {
    eprintln!(
        "usage: chm-bench perf [--quick] [--threads <list|auto>] [--out <dir>]\n       \
         chm-bench scenarios [--quick] [--per-packet] [--out <dir>] \
         [--seeds <n>] [--check <golden.json>] [--topology-sweep]\n       \
         chm-bench soak [--quick] [--epochs <n>] [--seed <s>] \
         [--profile none|standard|stress] [--out <dir>]\n       \
         chm-bench profile [--quick] [--workers <n>] [--seed <s>] [--out <dir>]\n       \
         chm-bench fig <id>|all   (ids: {})",
        EXPERIMENTS.iter().map(|&(id, _)| id).collect::<Vec<_>>().join(" ")
    );
    std::process::exit(2);
}

/// Parses `--threads`: a comma list of worker counts, each at most
/// [`perf::max_threads`], or `auto` for a doubling ladder (1, 2, 4, …) up
/// to the machine's available parallelism. The sweep itself re-adds the
/// mandatory 1-thread baseline.
fn parse_threads(spec: &str) -> Vec<usize> {
    let max = perf::max_threads();
    if spec == "auto" {
        let avail = std::thread::available_parallelism().map_or(1, |n| n.get()).min(max);
        let mut out = Vec::new();
        let mut t = 1;
        while t <= avail {
            out.push(t);
            t *= 2;
        }
        if *out.last().expect("ladder starts at 1") != avail {
            out.push(avail);
        }
        return out;
    }
    spec.split(',')
        .map(|s| match s.trim().parse::<usize>() {
            Ok(n) if (1..=max).contains(&n) => n,
            _ => {
                eprintln!(
                    "error: --threads expects a comma list of counts from 1 to {max} \
                     (the sweep fabric's edges) or 'auto', got {spec:?}"
                );
                std::process::exit(2);
            }
        })
        .collect()
}

/// The value of the flag just read; prints usage when the line ends instead.
fn value<'a>(it: &mut impl Iterator<Item = &'a String>) -> String {
    it.next().cloned().unwrap_or_else(|| usage())
}

/// Reports the `--check` verdict; exits 1 when the golden found regressions.
fn threshold_gate(golden_path: &str, problems: &[String]) {
    if problems.is_empty() {
        eprintln!("threshold gate vs {golden_path}: OK (tolerance {})", scenarios::CHECK_TOLERANCE);
        return;
    }
    eprintln!("threshold gate vs {golden_path} FAILED:");
    for p in problems {
        eprintln!("  {p}");
    }
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    match cmd.as_str() {
        "perf" => {
            let mut sc = perf::SweepConfig::full();
            let mut threads_arg: Option<String> = None;
            let mut out_dir = "results".to_string();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--quick" => sc = perf::SweepConfig::quick(),
                    "--threads" => threads_arg = Some(value(&mut it)),
                    "--out" => out_dir = value(&mut it),
                    _ => usage(),
                }
            }
            if let Some(spec) = threads_arg {
                sc.threads = parse_threads(&spec);
            }
            let table = perf::run(&sc, std::path::Path::new(&out_dir));
            table.print();
            if let Err(e) = table.write_json(&out_dir) {
                eprintln!("error: could not write {out_dir}/BENCH_hotpath.json: {e}");
                std::process::exit(1);
            }
            eprintln!("\njson: {out_dir}/BENCH_hotpath.json");
            for row in &table.rows {
                eprintln!(
                    "scaling: t={} n_flows={} crit {:.2} Mpps ({:.2}x, \
                     efficiency {:.0}%)",
                    row[1], row[3], row[5] / 1e6, row[6], row[8] * 100.0
                );
            }
        }
        "scenarios" => {
            let mut quick = false;
            let mut mode = ReplayMode::Burst;
            let mut out_dir = "results".to_string();
            let mut n_seeds = 1usize;
            let mut check: Option<String> = None;
            let mut topology_sweep = false;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--quick" => quick = true,
                    "--per-packet" => mode = ReplayMode::PerPacket,
                    "--topology-sweep" => topology_sweep = true,
                    "--out" => out_dir = value(&mut it),
                    "--seeds" => match it.next().and_then(|n| n.parse().ok()) {
                        Some(n) if n >= 1 => n_seeds = n,
                        _ => usage(),
                    },
                    "--check" => check = Some(value(&mut it)),
                    _ => usage(),
                }
            }
            // Read the golden up front: a typo'd path must fail in
            // milliseconds, not after a multi-seed full-matrix run.
            let golden = check.map(|golden_path| {
                let read = std::fs::read_to_string(&golden_path)
                    .map_err(|e| format!("could not read golden {golden_path}: {e}"));
                let parsed = read.and_then(|g| match scenarios::parse_golden(&g) {
                    Ok(_) => Ok(g),
                    Err(e) => Err(format!("golden {golden_path}: {e}")),
                });
                match parsed {
                    Ok(g) => (golden_path, g),
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(1);
                    }
                }
            });
            if topology_sweep {
                let run = sweep::run_sweep(quick, mode);
                sweep::print_table(&run);
                if let Err(e) = sweep::write_json(&run, quick, &out_dir) {
                    eprintln!(
                        "error: could not write {out_dir}/TOPOLOGY_SWEEP.json: {e}"
                    );
                    std::process::exit(1);
                }
                let worst = run
                    .rows
                    .iter()
                    .min_by(|a, b| a.1.mean_f1.total_cmp(&b.1.mean_f1))
                    .expect("sweep roster is non-empty");
                eprintln!(
                    "\n{} fabrics; worst mean F1 {:.4} ({}); \
                     json: {out_dir}/TOPOLOGY_SWEEP.json",
                    run.rows.len(),
                    worst.1.mean_f1,
                    worst.0.name,
                );
                if let Some((golden_path, golden)) = golden {
                    threshold_gate(&golden_path, &sweep::check_sweep(&golden, &run));
                }
                return;
            }
            let run = scenarios::run_matrix_seeds(quick, mode, n_seeds);
            scenarios::print_table(&run);
            if let Err(e) = scenarios::write_json(&run, quick, &out_dir) {
                eprintln!("error: could not write {out_dir}/SCENARIOS.json: {e}");
                std::process::exit(1);
            }
            let worst = run
                .results
                .iter()
                .min_by(|a, b| a.mean_f1.total_cmp(&b.mean_f1))
                .expect("matrix is non-empty");
            eprintln!(
                "\n{} scenarios; worst mean F1 {:.4} ({}); \
                 json: {out_dir}/SCENARIOS.json",
                run.results.len(),
                worst.mean_f1,
                worst.name,
            );
            if let Some((golden_path, golden)) = golden {
                threshold_gate(&golden_path, &scenarios::check_regressions(&golden, &run.results));
            }
        }
        "soak" => {
            let mut cfg = SoakConfig::full();
            let mut epochs: Option<u64> = None;
            let mut out_dir = "results".to_string();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--quick" => cfg = SoakConfig { epochs: SoakConfig::quick().epochs, ..cfg },
                    "--epochs" => match it.next().and_then(|n| n.parse().ok()) {
                        Some(n) if n >= 1 => epochs = Some(n),
                        _ => usage(),
                    },
                    "--seed" => cfg.seed = value(&mut it).parse().unwrap_or_else(|_| usage()),
                    "--profile" => cfg.profile = value(&mut it),
                    "--out" => out_dir = value(&mut it),
                    _ => usage(),
                }
            }
            // An explicit `--epochs` wins over `--quick` in either order.
            if let Some(n) = epochs {
                cfg.epochs = n;
            }
            // `None`: `--profile` named no fault profile.
            let Some(report) = soak::run(&cfg, &|| ALLOCATIONS.load(Ordering::SeqCst)) else {
                usage()
            };
            report.print();
            if let Err(e) = report.write_json(&out_dir) {
                eprintln!("error: could not write {out_dir}/SOAK.json: {e}");
                std::process::exit(1);
            }
            eprintln!("json: {out_dir}/SOAK.json");
            if !report.alloc_flat {
                eprintln!(
                    "allocation-flatness gate FAILED: per-window allocations grew \
                     (tolerance {}x + {})",
                    soak::FLATNESS_RATIO,
                    soak::FLATNESS_SLACK
                );
                std::process::exit(1);
            }
        }
        "profile" => {
            let mut quick = false;
            let mut cfg = ProfileConfig::full();
            let mut out_dir = "results".to_string();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--quick" => {
                        quick = true;
                        cfg = ProfileConfig { epochs: ProfileConfig::quick().epochs, ..cfg };
                    }
                    "--workers" => match it.next().and_then(|n| n.parse().ok()) {
                        Some(n) if n >= 1 => cfg.workers = n,
                        _ => usage(),
                    },
                    "--seed" => cfg.seed = value(&mut it).parse().unwrap_or_else(|_| usage()),
                    "--out" => out_dir = value(&mut it),
                    _ => usage(),
                }
            }
            let report = profile::run(
                &cfg,
                &profile::wall_clock(),
                &|| ALLOCATIONS.load(Ordering::SeqCst),
            );
            report.print();
            if let Err(e) = report.write_json(&out_dir, quick) {
                eprintln!("error: could not write {out_dir}/PROFILE.json: {e}");
                std::process::exit(1);
            }
            let suffix = if quick { "_quick" } else { "" };
            eprintln!(
                "json: {out_dir}/PROFILE{suffix}.json + \
                 {out_dir}/PROFILE_counts{suffix}.json"
            );
        }
        "fig" => {
            let [_, which] = args.as_slice() else { usage() };
            let (trials, scale) = (experiments::trials(), experiments::scale());
            let picked: Vec<_> =
                EXPERIMENTS.iter().filter(|&&(id, _)| which == "all" || which == id).collect();
            if picked.is_empty() {
                usage();
            }
            for (id, run) in picked {
                // Each prints and persists before the next starts.
                eprintln!("== {id} (trials={trials}, scale={scale}) ==");
                for t in run(trials, scale) {
                    t.finish();
                }
            }
        }
        _ => usage(),
    }
}
