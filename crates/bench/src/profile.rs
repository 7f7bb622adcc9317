//! **`chm-bench profile`** — a per-stage time/allocation breakdown of one
//! full pipeline epoch, measured with the `chm_obs` span profiler over the
//! sharded engine and the profiled controller entry points.
//!
//! The harness steps the congested serve preset on the scenario engine's own
//! stack ([`ScenarioStack`]) through the same two calls every driver makes:
//! [`ScenarioStack::replay`], sharded, then [`Controller::close_epoch`]
//! with a probe, so the epoch body measured here is the one `step_epoch`
//! scores and `chm-serve` serves. Each stage — replay, collect, analyze,
//! reconfigure (decide + stage + flip), localize — gets a span and an
//! allocation reading. The tree it builds: the engine's fate `prologue`
//! (plan losses and the link-loss realization), the
//! `phase_a` / `phase_b` intervals over their `shard_{i}` children and
//! fragment `merge` (absorbed from [`ScenarioStack::replay_profile`]),
//! `collect`, the controller's
//! `analyze/decode/{edge_i,delta_hl,delta_ll,sparse,loaded}` split and its
//! `analyze/{cardinality,fsd,delta_hl_build,delta_ll_build,victims}`
//! blocks, `reconfigure` and `localize`. Alongside the spans it attributes
//! **global allocation counts** to the five coarse stages via the injected
//! counter from the binary's counting allocator.
//!
//! This is deliberately not a `chm_serve::ServeRuntime` run. Serve records
//! its replay as one leaf so its span tree does not depend on the shard
//! count, while this profile is built from the per-shard spans. Serve's
//! watchdog could also hold a runtime on the epochs whose decode fails (6
//! of the quick profile's 40), and `PROFILE_counts` would then move.
//!
//! Two artifacts per run:
//!
//! * `PROFILE.json` — the full breakdown: span counts, wall seconds,
//!   mean µs, per-stage allocations. Wall numbers vary by machine.
//! * `PROFILE_counts.json` — the **deterministic columns only**: span
//!   counts and packet totals, no times, no allocations, no worker count.
//!   A pure function of `(seed, epochs, flows, shards)` — byte-identical
//!   across runs and worker counts, which the `obs-smoke` CI job `cmp`s
//!   against the committed golden.
//!
//! The clock is injected ([`chm_obs`] discipline): the binary passes
//! [`wall_clock`], tests pass `&|| 0.0` and get byte-identical full
//! reports too.

use std::io;
use std::time::Instant;

use chamelemon::{Controller, EpochProbe};
use chm_netsim::{ReplayMode, Sharding};
use chm_obs::{json_f64, json_string, SpanProfiler};
use chm_scenarios::{Scenario, ScenarioStack};

/// The coarse stages allocations are attributed to, in emission order.
pub const STAGES: [&str; 5] = ["replay", "collect", "analyze", "reconfigure", "localize"];

/// Profile sizing.
#[derive(Debug, Clone)]
pub struct ProfileConfig {
    /// Measured epochs.
    pub epochs: u64,
    /// Flows per epoch (the congested preset's sizing).
    pub flows: usize,
    /// Shard count — **fixed** across worker counts so the per-shard span
    /// paths (`phase_a/shard_{i}`) are layout-independent.
    pub shards: usize,
    /// Worker threads driving the shards (does not affect the counts file).
    pub workers: usize,
    /// Master scenario seed.
    pub seed: u64,
}

impl ProfileConfig {
    /// The full 200-epoch profile.
    pub fn full() -> Self {
        ProfileConfig { epochs: 200, flows: 600, shards: 4, workers: 1, seed: 0x0b5 }
    }

    /// The CI-smoke sizing.
    pub fn quick() -> Self {
        ProfileConfig { epochs: 40, ..Self::full() }
    }
}

/// Everything one profile run measured.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// The sizing that produced this report.
    pub config: ProfileConfig,
    /// The accumulated span tree over all measured epochs.
    pub spans: SpanProfiler,
    /// Global allocations attributed to each coarse stage, [`STAGES`] order.
    pub stage_allocs: [u64; 5],
    /// Packets replayed across all epochs.
    pub packets: u64,
    /// Epochs whose decode fully succeeded.
    pub decode_ok_epochs: u64,
}

/// A real wall clock for the binary (the workspace's one allowed timing
/// source outside `chm-serve`'s main loop). Tests inject `&|| 0.0` instead.
pub fn wall_clock() -> impl Fn() -> f64 + Sync {
    let t0 = Instant::now();
    move || t0.elapsed().as_secs_f64()
}

/// Runs the profile. `clock` drives every span (injected; zero clock makes
/// the whole report deterministic); `alloc_count` reads the process-global
/// allocation counter (`&|| 0` zeroes the allocation columns).
pub fn run(
    cfg: &ProfileConfig,
    clock: &(dyn Fn() -> f64 + Sync),
    alloc_count: &dyn Fn() -> u64,
) -> ProfileReport {
    // The serve CLI's `congested` preset (the soak's too), so profile
    // numbers describe the configuration the service runs.
    let s = Scenario::serve_congested(cfg.seed, cfg.flows);
    let mut stack = ScenarioStack::new(&s);
    stack.set_sharding(Sharding { shards: cfg.shards, workers: cfg.workers });
    let base = s.base_trace();
    let mut spans = SpanProfiler::new();
    let mut span_clock = || clock();
    let mut stage_allocs = [0u64; 5];
    let mut packets = 0u64;
    let mut decode_ok_epochs = 0u64;
    for _ in 0..cfg.epochs {
        let epoch = stack.simulator.current_epoch();
        let trace = s.trace_for_epoch(&base, epoch);
        let plan = s.plan_for_epoch(&trace, epoch);
        spans.enter("epoch", &mut span_clock);

        // Replay through the sharded engine; its per-shard span tree
        // (prologue, phase_a[/shard_i], phase_b[/shard_i], merge) is absorbed
        // under the open `epoch` span. Shard count is fixed, so the paths
        // are identical at any worker count.
        let a0 = alloc_count();
        let report = stack.replay(&trace, &plan, &s.impairments, ReplayMode::Burst, clock);
        spans.absorb(stack.replay_profile(), &[]);
        stage_allocs[0] += alloc_count() - a0;

        // The congested preset has a clean control channel, so every report
        // arrives — profiling measures the all-delivered path.
        let closed = stack.controller.close_epoch(
            &mut stack.edges,
            report.epoch,
            None,
            &report.queue_depth,
            Controller::reconfigure,
            Some(EpochProbe { spans: &mut spans, clock: &mut span_clock, allocs: alloc_count }),
        );
        for (total, a) in stage_allocs[1..].iter_mut().zip(closed.stage_allocs) {
            *total += a;
        }

        spans.exit(&mut span_clock);
        packets += report.total_sent();
        decode_ok_epochs += u64::from(closed.analysis.fully_decoded());
    }
    assert!(spans.balanced(), "profile epochs leave no span open");
    ProfileReport { config: cfg.clone(), spans, stage_allocs, packets, decode_ok_epochs }
}

impl ProfileReport {
    /// Human-readable per-stage table, deepest spans indented by path.
    pub fn print(&self) {
        println!(
            "profile: {} epochs, {} flows, {} shards x {} workers, seed {:#x}",
            self.config.epochs,
            self.config.flows,
            self.config.shards,
            self.config.workers,
            self.config.seed
        );
        println!("  {:<40} {:>10} {:>12} {:>10}", "span", "count", "total_s", "mean_us");
        for (path, count, total) in self.spans.flatten() {
            let mean_us = if count == 0 { 0.0 } else { total / count as f64 * 1e6 };
            println!("  {path:<40} {count:>10} {total:>12.6} {mean_us:>10.2}");
        }
        println!("  allocations by stage:");
        for (name, allocs) in STAGES.iter().zip(self.stage_allocs) {
            println!("    {name:<12} {allocs}");
        }
        println!(
            "  packets {} decode_ok {}/{}",
            self.packets, self.decode_ok_epochs, self.config.epochs
        );
    }

    /// The full report as JSON: spans (count + wall seconds + mean µs),
    /// per-stage allocations, totals. Stable key order (flatten order is
    /// BTreeMap-sorted); wall and allocation columns vary by machine.
    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .flatten()
            .iter()
            .map(|(path, count, total)| {
                let mean_us = if *count == 0 { 0.0 } else { total / *count as f64 * 1e6 };
                format!(
                    "    {}: {{\"count\": {}, \"total_s\": {}, \"mean_us\": {}}}",
                    json_string(path),
                    count,
                    json_f64(*total),
                    json_f64(mean_us)
                )
            })
            .collect();
        let allocs: Vec<String> = STAGES
            .iter()
            .zip(self.stage_allocs)
            .map(|(name, a)| format!("    {}: {}", json_string(name), a))
            .collect();
        format!(
            concat!(
                "{{\n",
                "  \"epochs\": {},\n",
                "  \"flows\": {},\n",
                "  \"shards\": {},\n",
                "  \"workers\": {},\n",
                "  \"seed\": {},\n",
                "  \"packets\": {},\n",
                "  \"decode_ok_epochs\": {},\n",
                "  \"spans\": {{\n{}\n  }},\n",
                "  \"allocations\": {{\n{}\n  }}\n",
                "}}\n"
            ),
            self.config.epochs,
            self.config.flows,
            self.config.shards,
            self.config.workers,
            self.config.seed,
            self.packets,
            self.decode_ok_epochs,
            spans.join(",\n"),
            allocs.join(",\n"),
        )
    }

    /// The deterministic columns only: span **counts** and packet totals —
    /// no times, no allocations, and no worker count (the one config knob
    /// that must not change the output). This is the golden-gated file.
    pub fn counts_json(&self) -> String {
        let counts: Vec<String> = self
            .spans
            .flatten()
            .iter()
            .map(|(path, count, _)| format!("    {}: {}", json_string(path), count))
            .collect();
        format!(
            concat!(
                "{{\n",
                "  \"epochs\": {},\n",
                "  \"flows\": {},\n",
                "  \"shards\": {},\n",
                "  \"seed\": {},\n",
                "  \"packets\": {},\n",
                "  \"decode_ok_epochs\": {},\n",
                "  \"span_counts\": {{\n{}\n  }}\n",
                "}}\n"
            ),
            self.config.epochs,
            self.config.flows,
            self.config.shards,
            self.config.seed,
            self.packets,
            self.decode_ok_epochs,
            counts.join(",\n"),
        )
    }

    /// Writes `PROFILE[_quick].json` + `PROFILE_counts[_quick].json` under
    /// `out_dir`.
    pub fn write_json(&self, out_dir: &str, quick: bool) -> io::Result<()> {
        std::fs::create_dir_all(out_dir)?;
        let suffix = if quick { "_quick" } else { "" };
        std::fs::write(format!("{out_dir}/PROFILE{suffix}.json"), self.to_json())?;
        std::fs::write(format!("{out_dir}/PROFILE_counts{suffix}.json"), self.counts_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workers: usize) -> ProfileConfig {
        ProfileConfig { epochs: 3, flows: 120, shards: 2, workers, seed: 7 }
    }

    #[test]
    fn zero_clock_report_is_byte_identical_across_runs_and_workers() {
        let runs: Vec<ProfileReport> = [1, 1, 2]
            .iter()
            .map(|&w| run(&tiny(w), &|| 0.0, &|| 0))
            .collect();
        // Double run: the whole report (times all 0.0, allocs all 0).
        assert_eq!(runs[0].to_json(), runs[1].to_json());
        // Worker count: everything but the config echo is identical under
        // the zero clock, and the counts file ignores `workers` entirely.
        assert_eq!(
            runs[0].to_json().replace("\"workers\": 1", "\"workers\": 2"),
            runs[2].to_json()
        );
        assert_eq!(runs[0].counts_json(), runs[2].counts_json());
        assert!(!runs[0].counts_json().contains("workers"));
    }

    #[test]
    fn span_tree_covers_every_pipeline_stage() {
        let r = run(&tiny(1), &|| 0.0, &|| 0);
        let epochs = r.config.epochs;
        assert_eq!(r.spans.get(&["epoch"]), Some((epochs, 0.0)));
        for path in [
            ["epoch", "prologue"].as_slice(),
            &["epoch", "phase_a"],
            &["epoch", "phase_a", "shard_0"],
            &["epoch", "phase_a", "shard_1"],
            &["epoch", "phase_b"],
            &["epoch", "phase_b", "shard_1"],
            &["epoch", "merge"],
            &["epoch", "collect"],
            &["epoch", "analyze"],
            &["epoch", "analyze", "cardinality"],
            &["epoch", "analyze", "fsd"],
            &["epoch", "analyze", "delta_hl_build"],
            &["epoch", "analyze", "victims"],
            &["epoch", "reconfigure"],
            &["epoch", "localize"],
        ] {
            let (count, total) = r.spans.get(path).unwrap_or_else(|| {
                panic!("span {path:?} missing from the profile tree")
            });
            assert!(count >= epochs, "span {path:?} count {count} < {epochs}");
            assert_eq!(total, 0.0, "zero clock must keep {path:?} at 0.0");
        }
        // The decode occupancy-class split is present (sparse or loaded fired;
        // only leaves carry counts — `decode` itself is a pure parent).
        let classed_decodes = ["sparse", "loaded"]
            .iter()
            .filter_map(|s| r.spans.get(&["epoch", "analyze", "decode", s]))
            .map(|(c, _)| c)
            .sum::<u64>();
        assert!(classed_decodes > 0, "no decode spans recorded");
        assert!(r.packets > 0);
    }

    #[test]
    fn real_clock_fills_durations_without_changing_counts() {
        let mut t = 0.0;
        let ticking = std::sync::Mutex::new(move || {
            t += 1e-3;
            t
        });
        let timed = run(&tiny(1), &move || (ticking.lock().expect("clock lock"))(), &|| 0);
        let zero = run(&tiny(1), &|| 0.0, &|| 0);
        assert_eq!(timed.counts_json(), zero.counts_json());
        let (_, epoch_total) = timed.spans.get(&["epoch"]).expect("epoch span");
        assert!(epoch_total > 0.0, "ticking clock must produce nonzero durations");
    }
}
