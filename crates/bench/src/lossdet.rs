//! Machinery for the §5.1 packet-loss-detection comparison (Figures 4–6):
//! a common scenario type, fast batched replay into each detector, and the
//! minimum-memory search.
//!
//! **Methodology note**: the paper reports "the
//! minimum memory required to achieve 99.9% decoding success rate". We
//! approximate that operating point as the smallest memory at which
//! `trials` independent trials (fresh hash seeds) all decode — with the
//! default 30 trials this pins the ≥97% success region, which tracks the
//! same threshold curve the paper measures (decode success has a sharp
//! phase transition in memory, Theorem 3.1).

use chm_baselines::{FlowRadar, LossDetector, LossRadar};
use chm_fermat::{FermatConfig, FermatSketch};
use chm_workloads::{LossPlan, Trace, VictimSelection};
use std::collections::HashMap;
use std::time::Instant;

/// A fixed loss scenario: who sends what, who loses what — the trace's
/// rows, in trace order. Detectors are fed in that order: FlowRadar's flow
/// filter lets a flow inserted earlier hide a later one, so feeding them in
/// a hash map's per-process order made its results differ between runs.
#[derive(Debug, Clone)]
pub struct LossScenario {
    /// `(flow, delivered, lost)` for every flow of the trace.
    pub rows: Vec<(u32, u64, u64)>,
}

impl LossScenario {
    /// Builds the §5.1 setup from a trace: `victims` flows selected by
    /// `selection` each losing `loss_rate` of their packets.
    pub fn from_trace(
        trace: &Trace<u32>,
        selection: VictimSelection,
        loss_rate: f64,
        seed: u64,
    ) -> Self {
        let plan = LossPlan::build(trace, selection, loss_rate, seed);
        let mut losses = plan.realize_losses(trace, seed ^ 0x10ad).into_iter().peekable();
        let rows = trace.flows.iter().enumerate().map(|(i, &(f, pkts))| {
            let lost = losses.next_if(|&(row, _)| row == i).map_or(0, |(_, l)| l);
            (f, pkts - lost, lost)
        });
        LossScenario { rows: rows.collect() }
    }

    /// The victims as `(flow, lost)`, in trace order.
    fn losses(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.rows.iter().filter(|r| r.2 > 0).map(|&(f, _, l)| (f, l))
    }

    /// True when `decoded` names exactly the victims, each with its loss.
    fn matches(&self, decoded: &HashMap<u32, u64>) -> bool {
        decoded.len() == self.victims() && self.losses().all(|(f, l)| decoded.get(&f) == Some(&l))
    }

    /// Total lost packets.
    pub fn lost_packets(&self) -> u64 {
        self.losses().map(|(_, l)| l).sum()
    }

    /// Number of victim flows.
    pub fn victims(&self) -> usize {
        self.losses().count()
    }
}

/// One detector family under benchmark: construct at a memory size, replay
/// a scenario, decode. `Sync` so the parallel trial executor can share one
/// bench across workers (implementations are stateless unit structs).
pub trait LossBench: Sync {
    /// Human-readable name for tables.
    fn name(&self) -> &'static str;

    /// Runs one trial: build at `memory_bytes` with `seed`, replay, decode.
    /// Returns `(success, decode_time_seconds, actual_memory_bytes)`.
    fn trial(&self, sc: &LossScenario, memory_bytes: usize, seed: u64) -> (bool, f64, f64);
}

/// FermatSketch deployed up/down of the link (§5.1 configuration: 3 hash
/// functions, 32-bit count + 32-bit ID).
pub struct FermatLossBench;

impl LossBench for FermatLossBench {
    fn name(&self) -> &'static str {
        "Fermat"
    }

    fn trial(&self, sc: &LossScenario, memory_bytes: usize, seed: u64) -> (bool, f64, f64) {
        let cfg = FermatConfig {
            arrays: 3,
            buckets_per_array: (memory_bytes / 8 / 3).max(1),
            fingerprint_bits: 0,
            seed,
        };
        // Only the delta matters for decode: up − down contains exactly the
        // victim flows, so we insert the losses directly (bucket-state
        // identical to full two-sided replay followed by subtraction).
        let mut delta = FermatSketch::<u32>::new(cfg);
        for (f, l) in sc.losses() {
            delta.insert_weighted(&f, l as i64);
        }
        let t0 = Instant::now();
        let r = delta.decode_in_place();
        let dt = t0.elapsed().as_secs_f64();
        let ok = r.success
            && r.flows.len() == sc.victims()
            && sc.losses().all(|(f, l)| r.flows.get(&f) == Some(&(l as i64)));
        (ok, dt, cfg.logical_memory_bytes::<u32>())
    }
}

/// FlowRadar deployed up/down of the link (§5.1 configuration).
pub struct FlowRadarLossBench;

impl LossBench for FlowRadarLossBench {
    fn name(&self) -> &'static str {
        "FlowRadar"
    }

    fn trial(&self, sc: &LossScenario, memory_bytes: usize, seed: u64) -> (bool, f64, f64) {
        let mut fr = FlowRadar::<u32>::new(memory_bytes, seed);
        for &(f, d, l) in &sc.rows {
            fr.observe_upstream_flow(&f, d + l);
            if d > 0 {
                fr.observe_downstream_flow(&f, d);
            }
        }
        let t0 = Instant::now();
        let decoded = fr.decode_losses();
        let dt = t0.elapsed().as_secs_f64();
        let ok = decoded.is_some_and(|m| sc.matches(&m));
        (ok, dt, fr.memory_bytes())
    }
}

/// LossRadar deployed up/down of the link (§5.1 configuration).
pub struct LossRadarLossBench;

impl LossBench for LossRadarLossBench {
    fn name(&self) -> &'static str {
        "LossRadar"
    }

    fn trial(&self, sc: &LossScenario, memory_bytes: usize, seed: u64) -> (bool, f64, f64) {
        let mut lr = LossRadar::<u32>::new(memory_bytes, seed);
        // The delta IBF contains exactly the lost packets; feeding only the
        // lost packets upstream produces the identical delta (delivered
        // packets cancel bucket-wise).
        for (f, l) in sc.losses() {
            // The lost packets are the first `l` sequence numbers of the
            // flow's d+l packets (the simulator's convention).
            for seq in 0..l as u32 {
                lr.observe_upstream(&f, seq);
            }
        }
        let t0 = Instant::now();
        let decoded = lr.decode_losses();
        let dt = t0.elapsed().as_secs_f64();
        let ok = decoded.is_some_and(|m| sc.matches(&m));
        (ok, dt, lr.memory_bytes())
    }
}

/// Result of a minimum-memory search.
#[derive(Debug, Clone, Copy)]
pub struct MinMemoryResult {
    /// Smallest memory (bytes, as reported by the detector) at which all
    /// trials succeeded.
    pub memory_bytes: f64,
    /// Mean decode time (seconds) at that memory.
    pub decode_time_s: f64,
}

/// Exponential + binary search for the smallest memory at which `trials`
/// trials all succeed. The per-memory trial batch fans out over the
/// parallel executor (deterministic seeds, early exit on first failure).
pub fn min_memory_for_success(
    bench: &dyn LossBench,
    sc: &LossScenario,
    trials: u64,
    floor_bytes: usize,
) -> MinMemoryResult {
    let all_ok = |mem: usize| -> Option<f64> {
        let dts = crate::parallel::run_trials_all(trials as usize, |t| {
            let (ok, dt, _) = bench.trial(sc, mem, 0x5eed_0000 + t as u64 * 7919);
            ok.then_some(dt)
        })?;
        Some(dts.iter().sum::<f64>() / trials as f64)
    };
    // Exponential phase.
    let mut hi = floor_bytes.max(64);
    let mut hi_dt;
    loop {
        match all_ok(hi) {
            Some(dt) => {
                hi_dt = dt;
                break;
            }
            None => hi *= 2,
        }
        assert!(hi < 1 << 34, "memory search diverged");
    }
    // Binary phase at 2% resolution.
    let mut lo = hi / 2;
    while hi - lo > hi / 50 + 8 {
        let mid = (lo + hi) / 2;
        match all_ok(mid) {
            Some(dt) => {
                hi = mid;
                hi_dt = dt;
            }
            None => lo = mid,
        }
    }
    // Report the detector's own memory accounting at the found size.
    let (_, _, mem) = bench.trial(sc, hi, 0x5eed_0000);
    MinMemoryResult { memory_bytes: mem, decode_time_s: hi_dt }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chm_workloads::caida_like_trace;

    fn scenario() -> LossScenario {
        // Random victims at low loss: the regime of Figure 6, where
        // Fermat < LossRadar < FlowRadar in memory.
        let trace = caida_like_trace(5_000, 1).top_n(2_000);
        LossScenario::from_trace(&trace, VictimSelection::RandomN(100), 0.02, 2)
    }

    #[test]
    fn scenario_statistics() {
        let sc = scenario();
        assert_eq!(sc.victims(), 100);
        assert!(sc.lost_packets() >= 100);
    }

    #[test]
    fn all_three_benches_succeed_with_ample_memory() {
        let sc = scenario();
        for b in [
            &FermatLossBench as &dyn LossBench,
            &FlowRadarLossBench,
            &LossRadarLossBench,
        ] {
            let (ok, dt, mem) = b.trial(&sc, 4 << 20, 1);
            assert!(ok, "{} failed with 4 MiB", b.name());
            assert!(dt >= 0.0 && mem > 0.0);
        }
    }

    /// FlowRadar's Bloom filter lets an earlier flow hide a later one, so its
    /// results depend on the order a scenario hands the flows over: two
    /// scenarios built from one trace must hand them over in the same order.
    #[test]
    fn flowradar_results_are_a_function_of_the_trace() {
        let trace = caida_like_trace(5_000, 1).top_n(2_000);
        let build = || LossScenario::from_trace(&trace, VictimSelection::RandomN(100), 0.02, 2);
        let (a, b) = (build(), build());
        let sweep = |sc: &LossScenario| -> Vec<bool> {
            (0..32).map(|i| FlowRadarLossBench.trial(sc, 24_000 + i * 1_000, 7).0).collect()
        };
        assert_eq!(sweep(&a), sweep(&b));
        let min = |sc: &LossScenario| min_memory_for_success(&FlowRadarLossBench, sc, 5, 64);
        assert_eq!(min(&a).memory_bytes, min(&b).memory_bytes);
    }

    #[test]
    fn all_three_benches_fail_when_starved() {
        let sc = scenario();
        // 200 bytes cannot possibly hold 100 victims / 2000 flows.
        assert!(!FermatLossBench.trial(&sc, 200, 1).0);
        assert!(!FlowRadarLossBench.trial(&sc, 200, 1).0);
        assert!(!LossRadarLossBench.trial(&sc, 200, 1).0);
    }

    #[test]
    fn min_memory_ordering_matches_paper() {
        // 100 victims, many flows, low loss: Fermat needs the least memory;
        // FlowRadar (per-flow) needs the most.
        let sc = scenario();
        let fermat = min_memory_for_success(&FermatLossBench, &sc, 5, 64);
        let flowradar = min_memory_for_success(&FlowRadarLossBench, &sc, 5, 64);
        let lossradar = min_memory_for_success(&LossRadarLossBench, &sc, 5, 64);
        assert!(
            fermat.memory_bytes < lossradar.memory_bytes,
            "fermat {} vs lossradar {}",
            fermat.memory_bytes,
            lossradar.memory_bytes
        );
        assert!(
            lossradar.memory_bytes < flowradar.memory_bytes,
            "lossradar {} vs flowradar {}",
            lossradar.memory_bytes,
            flowradar.memory_bytes
        );
    }
}
