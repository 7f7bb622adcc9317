//! **Soak harness** for the streaming runtime: drive `chm-serve`'s epoch
//! loop for thousands of epochs under the standard fault profile and
//! prove two things the unit tests cannot:
//!
//! * **allocations stay flat** — the per-epoch allocation count of the
//!   post-warmup windows does not grow (no leak, no unbounded buffer);
//!   the `chm-bench` binary declares the workspace's counting allocator
//!   (`chm_counting_alloc`) and injects its call count here as a closure;
//! * **reaction latency is bounded** — real wall-clock p50/p99/p999 of
//!   the controller's analyze → reconfigure step, measured with the
//!   workspace's one allowed clock, alongside the deterministic virtual
//!   latency model's percentiles.
//!
//! Results go to `results/SOAK.json`. The wall-clock numbers vary by
//! machine; everything else in the report is deterministic.

use std::io;
use std::time::Instant;

use chm_scenarios::Scenario;
use chm_serve::{
    latency_percentiles, json_f64, FaultPlan, ServeConfig, ServeRuntime,
};

/// Soak sizing.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Measured epochs (after warm-up).
    pub epochs: u64,
    /// Warm-up epochs excluded from every gate and percentile.
    pub warmup: u64,
    /// Allocation-measurement windows the measured epochs split into.
    pub windows: usize,
    /// Master seed (scenario and fault plan).
    pub seed: u64,
    /// Fault profile name (`none`/`standard`/`stress`).
    pub profile: String,
}

impl SoakConfig {
    /// The full 10k-epoch soak.
    pub fn full() -> Self {
        SoakConfig {
            epochs: 10_000,
            warmup: 200,
            windows: 10,
            seed: 0x50a7,
            profile: "standard".to_string(),
        }
    }

    /// The CI-smoke sizing.
    pub fn quick() -> Self {
        SoakConfig { epochs: 1_000, ..Self::full() }
    }
}

/// One allocation-measurement window.
#[derive(Debug, Clone)]
pub struct WindowStats {
    /// Epochs in the window.
    pub epochs: u64,
    /// Global allocations observed during the window.
    pub allocations: u64,
}

/// Everything the soak measured.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// The sizing that produced this report.
    pub config: SoakConfig,
    /// Per-window allocation counts, in run order.
    pub windows: Vec<WindowStats>,
    /// Did the allocation-flatness gate pass?
    pub alloc_flat: bool,
    /// Wall-clock per-epoch step latency percentiles (ms): p50/p99/p999.
    pub wall_ms: (f64, f64, f64),
    /// Virtual (deterministic) reaction-latency percentiles (ms).
    pub virt_ms: (f64, f64, f64),
    /// Epochs served in degraded mode.
    pub degraded_epochs: u64,
    /// Blind epochs (controller analyzed nothing).
    pub blind_epochs: u64,
    /// Mean victim-detection F1 over measured epochs.
    pub mean_f1: f64,
}

/// Growth tolerance of the flatness gate: the max window may exceed the
/// min window by this factor (fault realizations make windows unequal)
/// plus a small absolute slack.
pub const FLATNESS_RATIO: f64 = 1.25;
/// Absolute allocation slack per window (process-level noise).
pub const FLATNESS_SLACK: u64 = 5_000;

/// Whether a window series is flat under the gate. Also rejects a
/// monotone upward creep that stays inside the ratio: the last window
/// must not exceed the first by more than the same tolerance.
pub fn windows_are_flat(windows: &[WindowStats]) -> bool {
    let Some(first) = windows.first() else { return true };
    let Some(last) = windows.last() else { return true };
    let min = windows.iter().map(|w| w.allocations).min().unwrap_or(0);
    let max = windows.iter().map(|w| w.allocations).max().unwrap_or(0);
    let bound = |base: u64| (base as f64 * FLATNESS_RATIO) as u64 + FLATNESS_SLACK;
    max <= bound(min) && last.allocations <= bound(first.allocations)
}

/// Runs the soak: the serve CLI's `congested` preset under the fault
/// profile `cfg.profile` names — `None`, before any epoch is served, when
/// [`FaultPlan::named`] does not know the name. `alloc_count` reads the
/// process-global allocation counter (injected by the binary; `|| 0`
/// disables the flatness gate's teeth but keeps the latency measurement).
pub fn run(cfg: &SoakConfig, alloc_count: &dyn Fn() -> u64) -> Option<SoakReport> {
    let faults = FaultPlan::named(&cfg.profile, cfg.seed)?;
    let scenario = Scenario::serve_congested(cfg.seed, 600);
    let mut rt = ServeRuntime::new(ServeConfig::new(scenario, faults));
    for _ in 0..cfg.warmup {
        rt.step();
    }
    let windows = cfg.windows.max(1);
    let per_window = (cfg.epochs / windows as u64).max(1);
    let mut window_stats = Vec::with_capacity(windows);
    let mut wall = Vec::with_capacity((per_window * windows as u64) as usize);
    let mut virt = Vec::new();
    let mut degraded_epochs = 0u64;
    let mut blind_epochs = 0u64;
    let mut f1_sum = 0.0f64;
    for _ in 0..windows {
        let a0 = alloc_count();
        for _ in 0..per_window {
            let t0 = Instant::now();
            let record = rt.step();
            wall.push(t0.elapsed().as_secs_f64() * 1e3);
            if let Some(ms) = record.reaction_ms {
                virt.push(ms);
            }
            degraded_epochs += u64::from(record.state == "degraded");
            blind_epochs += u64::from(record.blind);
            f1_sum += if record.f1.is_finite() { record.f1 } else { 0.0 };
        }
        window_stats.push(WindowStats {
            epochs: per_window,
            allocations: alloc_count() - a0,
        });
    }
    let measured = per_window * windows as u64;
    Some(SoakReport {
        config: cfg.clone(),
        alloc_flat: windows_are_flat(&window_stats),
        windows: window_stats,
        // Nearest-rank caveat: the p999 column is the sample *maximum*
        // whenever fewer than 1000 samples back it — always true of `wall`
        // on `--quick`/`--epochs <1000` runs, and of `virt` whenever clock
        // stalls thin the reaction samples below 1000 (see
        // `chm_serve::percentile`). Read quick-run p999 as "worst seen".
        wall_ms: latency_percentiles(&wall).unwrap_or((0.0, 0.0, 0.0)),
        virt_ms: latency_percentiles(&virt).unwrap_or((0.0, 0.0, 0.0)),
        degraded_epochs,
        blind_epochs,
        mean_f1: f1_sum / measured as f64,
    })
}

impl SoakReport {
    /// Human-readable summary.
    pub fn print(&self) {
        println!(
            "soak: {} epochs (+{} warmup), profile {}, seed {:#x}",
            self.config.epochs, self.config.warmup, self.config.profile, self.config.seed
        );
        println!(
            "  allocations/window: {:?} -> {}",
            self.windows.iter().map(|w| w.allocations).collect::<Vec<_>>(),
            if self.alloc_flat { "FLAT" } else { "GROWING" },
        );
        let (w50, w99, w999) = self.wall_ms;
        println!("  wall step latency ms: p50 {w50:.3} p99 {w99:.3} p999 {w999:.3}");
        let (v50, v99, v999) = self.virt_ms;
        println!("  virtual reaction ms:  p50 {v50:.3} p99 {v99:.3} p999 {v999:.3}");
        println!(
            "  degraded {} blind {} mean F1 {:.4}",
            self.degraded_epochs, self.blind_epochs, self.mean_f1
        );
    }

    /// The report as JSON (stable key order; floats via the serve crate's
    /// null-safe formatter).
    pub fn to_json(&self) -> String {
        let windows: Vec<String> = self
            .windows
            .iter()
            .map(|w| format!("{{\"epochs\":{},\"allocations\":{}}}", w.epochs, w.allocations))
            .collect();
        let (w50, w99, w999) = self.wall_ms;
        let (v50, v99, v999) = self.virt_ms;
        format!(
            concat!(
                "{{\n",
                "  \"epochs\": {},\n",
                "  \"warmup\": {},\n",
                "  \"seed\": {},\n",
                "  \"profile\": \"{}\",\n",
                "  \"windows\": [{}],\n",
                "  \"alloc_flat\": {},\n",
                "  \"wall_ms\": {{\"p50\": {}, \"p99\": {}, \"p999\": {}}},\n",
                "  \"virtual_ms\": {{\"p50\": {}, \"p99\": {}, \"p999\": {}}},\n",
                "  \"degraded_epochs\": {},\n",
                "  \"blind_epochs\": {},\n",
                "  \"mean_f1\": {}\n",
                "}}\n"
            ),
            self.config.epochs,
            self.config.warmup,
            self.config.seed,
            self.config.profile,
            windows.join(","),
            self.alloc_flat,
            json_f64(w50),
            json_f64(w99),
            json_f64(w999),
            json_f64(v50),
            json_f64(v99),
            json_f64(v999),
            self.degraded_epochs,
            self.blind_epochs,
            json_f64(self.mean_f1),
        )
    }

    /// Writes `SOAK.json` under `out_dir`.
    pub fn write_json(&self, out_dir: &str) -> io::Result<()> {
        std::fs::create_dir_all(out_dir)?;
        std::fs::write(format!("{out_dir}/SOAK.json"), self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(allocs: &[u64]) -> Vec<WindowStats> {
        allocs.iter().map(|&a| WindowStats { epochs: 100, allocations: a }).collect()
    }

    #[test]
    fn flatness_gate_accepts_noise_and_rejects_growth() {
        assert!(windows_are_flat(&w(&[])));
        assert!(windows_are_flat(&w(&[1_000_000, 1_050_000, 990_000])));
        // Doubling across the run is a leak.
        assert!(!windows_are_flat(&w(&[1_000_000, 1_500_000, 2_100_000])));
        // Creep: last far above first even if max/min ratio is borderline.
        assert!(!windows_are_flat(&w(&[
            1_000_000, 1_100_000, 1_180_000, 1_240_000, 1_310_000
        ])));
    }

    #[test]
    fn tiny_soak_runs_and_serializes() {
        let cfg = SoakConfig {
            epochs: 8,
            warmup: 2,
            windows: 2,
            seed: 3,
            profile: "standard".to_string(),
        };
        let report = run(&cfg, &|| 0).expect("standard is a known profile");
        assert_eq!(report.windows.len(), 2);
        assert!(report.alloc_flat, "disabled counter must read flat");
        let json = report.to_json();
        assert!(json.contains("\"alloc_flat\": true"));
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn unknown_profile_never_yields_a_report() {
        for name in ["", "Standard", "stres", "standard ", "chaos"] {
            let cfg =
                SoakConfig { epochs: 2, warmup: 0, profile: name.to_string(), ..SoakConfig::quick() };
            assert!(run(&cfg, &|| 0).is_none(), "profile {name:?} produced a report");
        }
    }
}
