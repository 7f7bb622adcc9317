//! Shared runner for the testbed attention experiments (Figures 7–9, 14–19,
//! 20): sweep a workload parameter, let ChameleMon settle (footnote 7: data
//! points are collected "after ChameleMon successfully shifts measurement
//! attention and the configuration ... is stable"), then record the stable
//! operating point.

use chamelemon::config::DataPlaneConfig;
use chamelemon::control::NetworkState;
use chamelemon::ChameleMon;
use chm_workloads::{testbed_trace, LossPlan, VictimSelection, WorkloadKind};

/// One stable operating point of the system.
#[derive(Debug, Clone, Copy)]
pub struct AttentionPoint {
    /// The swept x value (#flows or victim ratio).
    pub x: f64,
    /// Upstream-encoder memory fractions (Figures 7(a)/8(a)).
    pub frac_hh: f64,
    /// HL fraction.
    pub frac_hl: f64,
    /// LL fraction.
    pub frac_ll: f64,
    /// Decoded HH candidates at edge switch 0 (Figures 7(b)/8(b)).
    pub hh_decoded: usize,
    /// Decoded HLs network-wide.
    pub hl_decoded: usize,
    /// Decoded sampled LLs network-wide.
    pub ll_decoded: usize,
    /// Threshold Th in effect (Figures 7(c)/8(c)).
    pub th: u64,
    /// Threshold Tl in effect.
    pub tl: u64,
    /// LL sample rate in effect (Figures 7(d)/8(d)).
    pub sample_rate: f64,
    /// Whether the controller is in the ill state.
    pub ill: bool,
    /// Controller response time in ms (Figure 20).
    pub response_ms: f64,
}

/// Maximum epochs run while waiting for the configuration to stabilize
/// (footnote 7: data points are collected once the configuration is
/// stable; convergence itself takes ≤ 3 epochs per §5.2).
pub const MAX_SETTLE_EPOCHS: usize = 16;
/// Minimum epochs before a point may be recorded.
pub const MIN_SETTLE_EPOCHS: usize = 6;

/// Runs one (workload, #flows, victim ratio) configuration to a stable
/// point on the paper-default data plane: stops once the staged runtime
/// stops changing (two consecutive identical configurations).
pub fn stable_point(
    workload: WorkloadKind,
    n_flows: usize,
    victim_ratio: f64,
    x: f64,
    seed: u64,
) -> AttentionPoint {
    let mut sys = ChameleMon::testbed(DataPlaneConfig::paper_default(seed));
    let trace = testbed_trace(workload, n_flows, 8, seed ^ 0x77);
    let plan = LossPlan::build(
        &trace,
        VictimSelection::RandomRatio(victim_ratio),
        0.01,
        seed ^ 0x99,
    );
    // The bench harness is the one place allowed to read real time: inject
    // it so the library itself stays clock-free.
    #[allow(clippy::disallowed_methods)] // bench timing harness
    let epoch_start = std::time::Instant::now();
    let mut clock = move || epoch_start.elapsed().as_secs_f64();
    let mut last = None;
    for e in 0..MAX_SETTLE_EPOCHS {
        let out = sys.run_epoch_with_clock(&trace, &plan, &mut clock);
        let stable = out.staged_runtime == out.config_in_effect;
        // Footnote 7: record a data point only once attention has shifted
        // *successfully* — configuration stable and the epoch's encoders
        // actually decoded.
        let decoded = out.analysis.hh_decode_ok && out.analysis.hl_flowset.is_some();
        let done = e + 1 >= MIN_SETTLE_EPOCHS && stable && decoded;
        last = Some(out);
        if done {
            break;
        }
    }
    let out = last.unwrap();
    let rt = &out.config_in_effect;
    let total = rt.partition.total() as f64;
    AttentionPoint {
        x,
        frac_hh: rt.partition.m_hh as f64 / total,
        frac_hl: rt.partition.m_hl as f64 / total,
        frac_ll: rt.partition.m_ll as f64 / total,
        hh_decoded: out.analysis.hh_count(0),
        hl_decoded: out.analysis.hl_count(),
        ll_decoded: out.analysis.ll_count(),
        th: rt.th,
        tl: rt.tl,
        sample_rate: rt.sample_rate(),
        ill: out.analysis.state_during == NetworkState::Ill,
        // `None` = not measured (no clock injected); `json_f64` renders the
        // resulting NaN as null rather than inventing a 0.0 response time.
        response_ms: out.response_time_s.map_or(f64::NAN, |s| s * 1000.0),
    }
}

/// The Figure-7-style sweep: #flows 10K..100K at fixed victim ratio 10%.
/// Sweep points are independent deployments and run on the parallel
/// executor (deterministic per-point seeds, ordered results).
pub fn sweep_num_flows(workload: WorkloadKind, seed: u64) -> Vec<AttentionPoint> {
    crate::parallel::run_trials(10, |i| {
        let k = i + 1;
        let flows = k * 10_000;
        stable_point(workload, flows, 0.10, flows as f64, seed + k as u64)
    })
}

/// The Figure-8-style sweep: victim ratio 2.5%..25% at fixed 50K flows.
pub fn sweep_victim_ratio(workload: WorkloadKind, seed: u64) -> Vec<AttentionPoint> {
    crate::parallel::run_trials(10, |i| {
        let k = i + 1;
        let ratio = 0.025 * k as f64;
        stable_point(workload, 50_000, ratio, ratio * 100.0, seed + k as u64)
    })
}

/// Renders a sweep as a report table with the standard columns.
pub fn to_table(
    id: &str,
    title: &str,
    x_label: &str,
    points: &[AttentionPoint],
) -> crate::report::Table {
    let mut t = crate::report::Table::new(
        id,
        title,
        &[
            x_label, "memHH", "memHL", "memLL", "decHH", "decHL", "decLL", "Th", "Tl",
            "sample", "ill", "resp_ms",
        ],
    );
    for p in points {
        t.push(vec![
            p.x,
            p.frac_hh,
            p.frac_hl,
            p.frac_ll,
            p.hh_decoded as f64,
            p.hl_decoded as f64,
            p.ll_decoded as f64,
            p.th as f64,
            p.tl as f64,
            p.sample_rate,
            if p.ill { 1.0 } else { 0.0 },
            p.response_ms,
        ]);
    }
    t
}
