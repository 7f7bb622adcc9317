//! `chm-bench scenarios`: runs the golden adversarial matrix
//! ([`chm_scenarios::standard_matrix`]) through the full measurement
//! pipeline and records per-scenario accuracy — victim-detection F1/ARE,
//! decode health, **victim-localization top-1/top-3 hit rates**, and the
//! LossRadar baseline's scores — in `results/SCENARIOS.json`.
//!
//! The JSON is **deterministic**: every number derives from the scenario
//! seeds (no timestamps, no wall-clock), so the same seed produces a
//! byte-identical file on any machine — scenario regressions show up as
//! plain diffs. Three extensions ride on that:
//!
//! * `--seeds N` re-runs every scenario under `N` derived seeds on the
//!   [`crate::parallel`] trial executor and appends mean/σ confidence
//!   bands per scenario (ordered collection keeps the file byte-identical
//!   at any worker count);
//! * `--check <golden.json>` compares the fresh run against a committed
//!   golden and **fails** when any scenario's mean F1 or localization
//!   top-3 hit rate regressed by more than [`CHECK_TOLERANCE`] — the CI
//!   threshold gate;
//! * seed 0 of a banded run is always the scenario's own seed, so the
//!   headline numbers never move when bands are requested.

use crate::parallel::run_trials;
use chamelemon::config::DataPlaneConfig;
use chm_common::hash::mix64;
use chm_obs::{json_f64, json_string};
use chm_scenarios::{run_with_config, ReplayMode, Scenario, ScenarioResult, TrackScore};
use std::fs;
use std::io;
use std::path::Path;

/// Regression the `--check` gate tolerates on mean F1 and localization
/// top-3 before failing.
pub const CHECK_TOLERANCE: f64 = 0.02;

/// A scenario's aggregate over `seeds` derived runs: per-metric mean and
/// population standard deviation. `results[0]` is always the scenario's
/// own seed.
#[derive(Debug, Clone)]
pub struct SeedBand {
    /// Runs, in seed-index order.
    pub results: Vec<ScenarioResult>,
}

impl SeedBand {
    fn stats(&self, metric: impl Fn(&ScenarioResult) -> f64) -> (f64, f64) {
        let n = self.results.len().max(1) as f64;
        let mean = self.results.iter().map(&metric).sum::<f64>() / n;
        let var = self
            .results
            .iter()
            .map(|r| (metric(r) - mean).powi(2))
            .sum::<f64>()
            / n;
        (mean, var.sqrt())
    }
}

/// The matrix scorecard: the headline (seed-0) result per scenario plus
/// optional multi-seed bands.
#[derive(Debug, Clone)]
pub struct MatrixRun {
    /// Seed-0 results, in matrix order.
    pub results: Vec<ScenarioResult>,
    /// One band per scenario when `--seeds N > 1`, else empty.
    pub bands: Vec<SeedBand>,
    /// Seeds per scenario this run used.
    pub n_seeds: usize,
}

/// The data plane a matrix or sweep run deploys.
pub(crate) fn config_for(quick: bool, seed: u64) -> DataPlaneConfig {
    if quick {
        DataPlaneConfig::small(seed ^ chm_scenarios::CFG_SALT)
    } else {
        DataPlaneConfig::paper_default(seed ^ chm_scenarios::CFG_SALT)
    }
}

/// The `i`-th derived seed variant of a scenario (`i == 0` is the scenario
/// itself). `with_seed` re-derives every dependent sub-seed (impairments,
/// churn, flood, drift, incast), so the variants sample the whole
/// pipeline's seed sensitivity.
fn seed_variant(s: &Scenario, i: usize) -> Scenario {
    if i == 0 {
        return s.clone();
    }
    s.clone().with_seed(mix64(s.seed ^ (0x5eed_ba5e + i as u64)))
}

/// Runs the standard matrix under `mode`, `n_seeds` derived runs per
/// scenario, fanned out on the parallel trial executor. `quick` (CI smoke)
/// pairs the reduced workload sizing with the scaled-down data plane; the
/// full matrix runs the paper's §5.2 data-plane parameters.
///
/// Work items are `(scenario, seed)` pairs mapped by index with ordered
/// collection, so the output is byte-identical at any worker count.
pub fn run_matrix_seeds(quick: bool, mode: ReplayMode, n_seeds: usize) -> MatrixRun {
    let n_seeds = n_seeds.max(1);
    let matrix = chm_scenarios::standard_matrix(quick);
    let flat: Vec<ScenarioResult> = run_trials(matrix.len() * n_seeds, |idx| {
        let s = seed_variant(&matrix[idx / n_seeds], idx % n_seeds);
        // Seed variants re-derive the data-plane hash seeds too: the band
        // measures the whole pipeline's seed sensitivity, not just the
        // workload's.
        run_with_config(&s, mode, config_for(quick, s.seed))
    });
    let mut results = Vec::with_capacity(matrix.len());
    let mut bands = Vec::with_capacity(matrix.len());
    for chunk in flat.chunks(n_seeds) {
        results.push(chunk[0].clone());
        if n_seeds > 1 {
            bands.push(SeedBand { results: chunk.to_vec() });
        }
    }
    MatrixRun { results, bands, n_seeds }
}

/// Runs the standard matrix under `mode`, one run per scenario (the golden
/// configuration).
pub fn run_matrix(quick: bool, mode: ReplayMode) -> Vec<ScenarioResult> {
    run_matrix_seeds(quick, mode, 1).results
}

/// Prints the matrix scorecard as an aligned table.
pub fn print_table(run: &MatrixRun) {
    println!("\n== scenarios — adversarial matrix ==");
    println!(
        "{:>17} {:>7} {:>8} {:>8} {:>7} {:>7} {:>7} {:>8} {:>8} {:>8} {:>8}",
        "scenario", "epochs", "mean_f1", "mean_are", "decode", "loc@1", "loc@3", "lr_f1",
        "fr_f1", "qdepth", "victims"
    );
    for (i, r) in run.results.iter().enumerate() {
        let victims: usize = r.epochs.iter().map(|e| e.true_victims).sum();
        let band = if run.n_seeds > 1 {
            let (_, sd) = run.bands[i].stats(|r| r.mean_f1);
            format!(" ±{sd:.3}")
        } else {
            String::new()
        };
        println!(
            "{:>17} {:>7} {:>8.4} {:>8.4} {:>7.2} {:>7.2} {:>7.2} {:>8.4} {:>8.4} {:>8.1} {:>8}{}",
            r.name,
            r.epochs.len(),
            r.mean_f1,
            r.mean_are,
            r.decode_success,
            r.mean_loc_top1,
            r.mean_loc_top3,
            r.lossradar.f1,
            r.flowradar.f1,
            r.mean_qdepth_max,
            victims,
            band,
        );
    }
}

/// One comparison track's scenario-level JSON object.
fn track_json(t: &TrackScore<f64>) -> String {
    format!(
        "{{\"mean_f1\": {}, \"decode_success\": {}, \"mean_loc_top1\": {}, \
         \"mean_loc_top3\": {}}}",
        json_f64(t.f1),
        json_f64(t.decode_ok),
        json_f64(t.top1),
        json_f64(t.top3),
    )
}

/// One comparison track's per-epoch columns, flattened under `prefix`.
fn epoch_track(prefix: &str, t: TrackScore) -> String {
    format!(
        "\"{prefix}_f1\": {}, \"{prefix}_decode_ok\": {}, \"{prefix}_top1\": {}, \
         \"{prefix}_top3\": {}",
        json_f64(t.f1),
        t.decode_ok,
        json_f64(t.top1),
        json_f64(t.top3),
    )
}

/// The scenario-level block `SCENARIOS.json` and `TOPOLOGY_SWEEP.json`
/// share: 6-space-indented `"key": value` lines, comma-separated, no
/// trailing comma or newline. Only the matrix has scenarios with a lossy
/// report channel, so only it prints `report_delivery`.
pub(crate) fn result_block(r: &ScenarioResult, report_delivery: bool) -> String {
    [
        Some(("epochs", r.epochs.len().to_string())),
        Some(("mean_f1", json_f64(r.mean_f1))),
        Some(("mean_are", json_f64(r.mean_are))),
        Some(("decode_success", json_f64(r.decode_success))),
        report_delivery.then(|| ("report_delivery", json_f64(r.report_delivery))),
        Some(("mean_loc_top1", json_f64(r.mean_loc_top1))),
        Some(("mean_loc_top3", json_f64(r.mean_loc_top3))),
        Some(("lossradar", track_json(&r.lossradar))),
        Some(("flowradar", track_json(&r.flowradar))),
        Some(("mean_qdepth_max", json_f64(r.mean_qdepth_max))),
    ]
    .into_iter()
    .flatten()
    .map(|(key, value)| format!("      \"{key}\": {value}"))
    .collect::<Vec<_>>()
    .join(",\n")
}

/// Renders the matrix as the `SCENARIOS.json` document.
pub fn to_json(run: &MatrixRun, quick: bool) -> String {
    let mut out = String::with_capacity(8192);
    out.push_str("{\n  \"id\": \"scenarios\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"seeds\": {},\n", run.n_seeds));
    out.push_str("  \"scenarios\": [\n");
    let results = &run.results;
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": {},\n", json_string(&r.name)));
        out.push_str(&(result_block(r, true) + ",\n"));
        if run.n_seeds > 1 {
            let b = &run.bands[i];
            let (f1_m, f1_s) = b.stats(|r| r.mean_f1);
            let (l1_m, l1_s) = b.stats(|r| r.mean_loc_top1);
            let (l3_m, l3_s) = b.stats(|r| r.mean_loc_top3);
            out.push_str("      \"seed_band\": {");
            out.push_str(&format!(
                "\"n\": {}, \"f1_mean\": {}, \"f1_std\": {}, \
                 \"loc_top1_mean\": {}, \"loc_top1_std\": {}, \
                 \"loc_top3_mean\": {}, \"loc_top3_std\": {}}},\n",
                run.n_seeds,
                json_f64(f1_m),
                json_f64(f1_s),
                json_f64(l1_m),
                json_f64(l1_s),
                json_f64(l3_m),
                json_f64(l3_s),
            ));
        }
        out.push_str("      \"per_epoch\": [\n");
        for (j, e) in r.epochs.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"epoch\": {}, \"f1\": {}, \"precision\": {}, \
                 \"recall\": {}, \"are\": {}, \"decode_ok\": {}, \
                 \"reports\": {}, \"true_victims\": {}, \
                 \"reported_victims\": {}, \"flows\": {}, \"packets\": {}, \
                 \"loc_top1\": {}, \"loc_top3\": {}, {}, {}, \"qdepth_max\": {}}}{}\n",
                e.epoch,
                json_f64(e.f1),
                json_f64(e.precision),
                json_f64(e.recall),
                json_f64(e.are),
                e.decode_ok,
                e.reports_received,
                e.true_victims,
                e.reported_victims,
                e.flows,
                e.packets_sent,
                json_f64(e.loc_top1),
                json_f64(e.loc_top3),
                epoch_track("lr", e.lossradar),
                epoch_track("fr", e.flowradar),
                json_f64(e.qdepth_max),
                if j + 1 < r.epochs.len() { "," } else { "" },
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes `SCENARIOS.json` under `dir`.
pub fn write_json(run: &MatrixRun, quick: bool, dir: impl AsRef<Path>) -> io::Result<()> {
    fs::create_dir_all(&dir)?;
    fs::write(dir.as_ref().join("SCENARIOS.json"), to_json(run, quick))
}

/// The scenario-level fields the threshold gate reads from a golden file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GoldenScenario {
    /// Scenario name.
    pub name: String,
    /// Committed mean F1.
    pub mean_f1: f64,
    /// Committed localization top-3 hit rate (0 for pre-localization
    /// goldens that lack the field).
    pub mean_loc_top3: f64,
}

/// Minimal extractor for the golden's scenario-level lines. The repo has no
/// JSON parser by design; this reads exactly the format [`to_json`] emits —
/// scenario-level fields are the 6-space-indented `"key": value,` lines
/// between `"name"` markers (per-epoch lines are indented deeper and never
/// start with a quoted key at that indent).
///
/// A golden that could not gate anything is an error, never a default: no
/// scenario at all, a scenario without a finite `mean_f1` (missing, `null`,
/// truncated), or a `mean_loc_top3` that is present but not a finite number.
/// An absent `mean_loc_top3` reads as 0, as older goldens lack it.
pub fn parse_golden(json: &str) -> Result<Vec<GoldenScenario>, String> {
    // Each scenario with whether its `mean_f1` was read.
    let mut out: Vec<(GoldenScenario, bool)> = Vec::new();
    let number = |g: &GoldenScenario, key: &str, value: &str| {
        let v = value.parse::<f64>().ok().filter(|v| v.is_finite());
        v.ok_or_else(|| format!("scenario '{}': {key} {value:?} is not a number", g.name))
    };
    for line in json.lines() {
        let Some(rest) = line.strip_prefix("      \"") else { continue };
        let Some((key, value)) = rest.split_once("\": ") else { continue };
        let value = value.trim_end().trim_end_matches(',');
        match (key, out.last_mut()) {
            ("name", _) => {
                let name = value.trim_matches('"').to_string();
                out.push((GoldenScenario { name, ..GoldenScenario::default() }, false));
            }
            ("mean_f1", Some((g, read))) => {
                g.mean_f1 = number(g, key, value)?;
                *read = true;
            }
            ("mean_loc_top3", Some((g, _))) => g.mean_loc_top3 = number(g, key, value)?,
            _ => {}
        }
    }
    if out.is_empty() {
        return Err("golden file has no scenarios (wrong file?)".to_string());
    }
    match out.iter().find(|(_, read)| !read) {
        Some((g, _)) => Err(format!("scenario '{}' has no mean_f1", g.name)),
        None => Ok(out.into_iter().map(|(g, _)| g).collect()),
    }
}

/// The threshold gate: compares a fresh run against a committed golden and
/// returns one message per regression beyond [`CHECK_TOLERANCE`] (empty =
/// gate passes). New scenarios (absent from the golden) are allowed;
/// scenarios *removed* from the matrix are flagged, and a golden
/// [`parse_golden`] rejects is the one problem reported.
pub fn check_regressions(golden_json: &str, results: &[ScenarioResult]) -> Vec<String> {
    let golden = match parse_golden(golden_json) {
        Ok(golden) => golden,
        Err(e) => return vec![e],
    };
    let mut problems = Vec::new();
    for g in &golden {
        let Some(r) = results.iter().find(|r| r.name == g.name) else {
            problems.push(format!("scenario '{}' disappeared from the matrix", g.name));
            continue;
        };
        if r.mean_f1 < g.mean_f1 - CHECK_TOLERANCE {
            problems.push(format!(
                "{}: mean_f1 regressed {:.4} -> {:.4} (tolerance {})",
                g.name, g.mean_f1, r.mean_f1, CHECK_TOLERANCE
            ));
        }
        if r.mean_loc_top3 < g.mean_loc_top3 - CHECK_TOLERANCE {
            problems.push(format!(
                "{}: mean_loc_top3 regressed {:.4} -> {:.4} (tolerance {})",
                g.name, g.mean_loc_top3, r.mean_loc_top3, CHECK_TOLERANCE
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use chm_scenarios::run;

    fn tiny_run() -> MatrixRun {
        let s = chm_scenarios::Scenario::builder("tiny")
            .seed(1)
            .flows(120)
            .epochs(2)
            .duplication(0.1)
            .build();
        MatrixRun {
            results: vec![run(&s, ReplayMode::Burst)],
            bands: Vec::new(),
            n_seeds: 1,
        }
    }

    #[test]
    fn json_is_deterministic_and_well_formed() {
        // A tiny ad-hoc matrix keeps this a unit test, not a benchmark.
        let j1 = to_json(&tiny_run(), true);
        let j2 = to_json(&tiny_run(), true);
        assert_eq!(j1, j2, "same seed must render byte-identical JSON");
        assert!(j1.contains("\"name\": \"tiny\""));
        assert!(j1.contains("\"per_epoch\""));
        assert!(j1.contains("\"mean_loc_top3\""));
        assert!(j1.contains("\"lossradar\""));
        // Balanced braces/brackets (cheap well-formedness check; the repo
        // has no JSON parser by design).
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                j1.matches(open).count(),
                j1.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn golden_roundtrip_and_gate() {
        let r = tiny_run();
        let json = to_json(&r, true);
        let golden = parse_golden(&json).expect("a fresh run's JSON parses");
        assert_eq!(golden.len(), 1);
        assert_eq!(golden[0].name, "tiny");
        assert!((golden[0].mean_f1 - r.results[0].mean_f1).abs() < 1e-12);
        assert!(
            (golden[0].mean_loc_top3 - r.results[0].mean_loc_top3).abs() < 1e-12
        );
        // Fresh run vs its own golden: gate passes.
        assert!(check_regressions(&json, &r.results).is_empty());
        // A doctored regression fails the gate.
        let mut worse = r.results.clone();
        worse[0].mean_f1 -= 0.1;
        let problems = check_regressions(&json, &worse);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("mean_f1 regressed"));
        // A missing scenario fails the gate.
        let problems = check_regressions(&json, &[]);
        assert!(problems[0].contains("disappeared"));
        // Wobble inside the tolerance passes.
        let mut wobble = r.results.clone();
        wobble[0].mean_f1 -= 0.01;
        wobble[0].mean_loc_top3 -= 0.01;
        assert!(check_regressions(&json, &wobble).is_empty());
    }

    /// A golden that cannot gate a scenario is an error, not a pass.
    #[test]
    fn a_golden_without_a_number_to_gate_is_rejected() {
        let json = to_json(&tiny_run(), true);
        let f1 = json.lines().find(|l| l.starts_with("      \"mean_f1\": ")).unwrap();
        let top3 = json.lines().find(|l| l.starts_with("      \"mean_loc_top3\": ")).unwrap();
        for (what, doctored) in [
            ("null", json.replace(f1, "      \"mean_f1\": null,")),
            ("not a number", json.replace(f1, "      \"mean_f1\": 0.9x,")),
            ("missing", json.replace(&format!("{f1}\n"), "")),
            ("truncated", json.replace(f1, "      \"mean_f1")),
            ("top-3 null", json.replace(top3, "      \"mean_loc_top3\": null,")),
            ("no scenario", String::new()),
        ] {
            let err = parse_golden(&doctored).expect_err(what);
            assert_eq!(check_regressions(&doctored, &tiny_run().results), [err], "{what}");
        }
        // Older goldens have no `mean_loc_top3`: it reads as 0.
        let old = parse_golden(&json.replace(&format!("{top3}\n"), "")).unwrap();
        assert_eq!(old[0].mean_loc_top3, 0.0);
    }

    #[test]
    fn every_committed_golden_parses() {
        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        for name in ["SCENARIOS", "SCENARIOS_quick", "TOPOLOGY_SWEEP", "TOPOLOGY_SWEEP_quick"] {
            let json = fs::read_to_string(format!("{results}/{name}.json")).unwrap();
            let golden = parse_golden(&json).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(golden.len() >= 5, "{name}: {} scenarios", golden.len());
        }
    }

    #[test]
    fn seed_variant_zero_is_the_identity() {
        let m = chm_scenarios::standard_matrix(true);
        let v = seed_variant(&m[0], 0);
        assert_eq!(v.seed, m[0].seed);
        let v1 = seed_variant(&m[0], 1);
        assert_ne!(v1.seed, m[0].seed);
        assert_eq!(v1.name, m[0].name);
    }

    #[test]
    fn seed_band_stats_are_mean_and_population_sigma() {
        let mut a = tiny_run().results.remove(0);
        let mut b = a.clone();
        a.mean_f1 = 0.8;
        b.mean_f1 = 0.6;
        let band = SeedBand { results: vec![a, b] };
        let (m, s) = band.stats(|r| r.mean_f1);
        assert!((m - 0.7).abs() < 1e-12);
        assert!((s - 0.1).abs() < 1e-12);
    }
}
