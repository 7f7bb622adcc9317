//! **Deterministic fault injection** for the streaming runtime.
//!
//! A [`FaultPlan`] is a seeded description of how the control plane
//! misbehaves; [`FaultPlan::realize`] expands it into the concrete
//! [`EpochFaults`] of one epoch as a pure function of `(seed, epoch)` —
//! the same discipline every other stochastic layer in this repo follows
//! (cf. `Scenario::reports_received`). Re-running an epoch, restoring from
//! a snapshot, or replaying the whole stream realizes the *same* faults,
//! which is what makes the crash/restore byte-identity property testable
//! at all.
//!
//! The fault taxonomy covers the control-plane failure modes §4.3's
//! collection loop has to survive:
//!
//! * **report loss** — a switch's sketch report never reaches the
//!   controller (already modeled by scenarios; here it composes with the
//!   rest);
//! * **report delay** — the report arrives only after `k` retries of the
//!   collection RPC; the runtime pays a deterministic jittered-backoff
//!   latency and, past [`FaultPlan::max_retries`], gives the report up
//!   (it becomes a timeout = loss);
//! * **report duplication** — the report arrives twice (retry raced the
//!   original); the runtime must deduplicate, not double-count;
//! * **switch reboot** — the switch restarts mid-epoch, clearing both
//!   sketch groups; it dutifully reports an *empty* group, which is a
//!   different (and nastier) failure than a missing report;
//! * **controller pause** — the controller misses the whole collection
//!   window (GC pause, failover); every report of that epoch perishes
//!   (sketch telemetry is only meaningful within its epoch);
//! * **clock stall** — the controller's latency clock is unreliable this
//!   epoch; reaction time must be reported as *unmeasured*, never `0.0`.

use chm_common::hash::mix64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Domain-separation salt for per-epoch fault realization.
const FAULT_SALT: u64 = 0xfa_017;

/// What happens to one switch's report in one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFate {
    /// Arrives in the collection window, first try.
    Delivered,
    /// Never arrives.
    Lost,
    /// Arrives after `k ≥ 1` retries of the collection RPC (a timeout if
    /// `k` exceeds the plan's retry budget).
    Delayed(u32),
    /// Arrives twice; the second copy must be deduplicated.
    Duplicated,
}

/// The realized faults of one epoch. Produced by [`FaultPlan::realize`];
/// consumed by the runtime's collection step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochFaults {
    /// Per-switch report fate, in edge-index order.
    pub fates: Vec<ReportFate>,
    /// Per-switch: did the switch reboot this epoch (clearing its sketch
    /// state, so its report is empty)?
    pub rebooted: Vec<bool>,
    /// Controller missed the collection window entirely.
    pub controller_paused: bool,
    /// Latency clock unreliable this epoch.
    pub clock_stalled: bool,
}

impl EpochFaults {
    /// A fault-free epoch over `n_edges` switches.
    pub fn clean(n_edges: usize) -> Self {
        EpochFaults {
            fates: vec![ReportFate::Delivered; n_edges],
            rebooted: vec![false; n_edges],
            controller_paused: false,
            clock_stalled: false,
        }
    }
}

/// A seeded, per-epoch-independent fault model for the whole stream.
///
/// All probabilities are per epoch (pause/stall) or per switch per epoch
/// (loss, delay, duplication, reboot). Loss, delay, and duplication are
/// mutually exclusive per report — they are drawn from one roll in that
/// priority order — so the probabilities must sum to ≤ 1.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Master seed; every realization derives from it.
    pub seed: u64,
    /// P(report lost) per switch per epoch.
    pub report_loss: f64,
    /// P(report delayed) per switch per epoch.
    pub report_delay: f64,
    /// P(report duplicated) per switch per epoch.
    pub report_dup: f64,
    /// Retries a delayed report may take before arriving, drawn uniformly
    /// from `1..=delay_retries_max`.
    pub delay_retries_max: u32,
    /// Retry budget: a delay beyond this many retries is a timeout and the
    /// report counts as lost.
    pub max_retries: u32,
    /// P(switch reboots) per switch per epoch.
    pub reboot: f64,
    /// P(controller pauses) per epoch.
    pub pause: f64,
    /// P(latency clock stalls) per epoch.
    pub clock_stall: f64,
}

impl FaultPlan {
    /// No faults at all (the control plane of the scenario engine).
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            report_loss: 0.0,
            report_delay: 0.0,
            report_dup: 0.0,
            delay_retries_max: 0,
            max_retries: 3,
            reboot: 0.0,
            pause: 0.0,
            clock_stall: 0.0,
        }
    }

    /// The default service-mode fault mix: occasional report loss and
    /// delay, rare duplicates, reboots, pauses, and clock stalls — enough
    /// to exercise every recovery path over a few hundred epochs without
    /// drowning the signal.
    pub fn standard(seed: u64) -> Self {
        FaultPlan {
            seed,
            report_loss: 0.03,
            report_delay: 0.08,
            report_dup: 0.02,
            delay_retries_max: 4,
            max_retries: 3,
            reboot: 0.01,
            pause: 0.02,
            clock_stall: 0.02,
        }
    }

    /// A hostile control plane: heavy loss/delay, frequent pauses — the
    /// watchdog's degraded mode does real work here.
    pub fn stress(seed: u64) -> Self {
        FaultPlan {
            seed,
            report_loss: 0.15,
            report_delay: 0.20,
            report_dup: 0.05,
            delay_retries_max: 6,
            max_retries: 3,
            reboot: 0.03,
            pause: 0.10,
            clock_stall: 0.05,
        }
    }

    /// The fault profile called `name` — `none`, `standard` or `stress`, the
    /// one table behind every `--profile` flag — or `None` for any other
    /// name.
    pub fn named(name: &str, seed: u64) -> Option<Self> {
        match name {
            "none" => Some(Self::none(seed)),
            "standard" => Some(Self::standard(seed)),
            "stress" => Some(Self::stress(seed)),
            _ => None,
        }
    }

    /// Realizes this plan for one epoch over `n_edges` switches — pure in
    /// `(self.seed, epoch)`: calling twice returns identical faults, and
    /// realizations of different epochs are independent.
    pub fn realize(&self, epoch: u64, n_edges: usize) -> EpochFaults {
        let mut rng =
            StdRng::seed_from_u64(mix64(self.seed ^ FAULT_SALT).wrapping_add(epoch));
        let mut fates = Vec::with_capacity(n_edges);
        let mut rebooted = Vec::with_capacity(n_edges);
        for _ in 0..n_edges {
            // One roll decides the fate so the categories stay mutually
            // exclusive and the stream position advances identically for
            // every probability setting of the same shape.
            let roll: f64 = rng.gen_range(0.0..1.0);
            let fate = if roll < self.report_loss {
                ReportFate::Lost
            } else if roll < self.report_loss + self.report_delay {
                let k = if self.delay_retries_max <= 1 {
                    1
                } else {
                    rng.gen_range(1..=self.delay_retries_max)
                };
                ReportFate::Delayed(k)
            } else if roll < self.report_loss + self.report_delay + self.report_dup {
                ReportFate::Duplicated
            } else {
                ReportFate::Delivered
            };
            fates.push(fate);
            rebooted.push(rng.gen_bool(self.reboot));
        }
        EpochFaults {
            fates,
            rebooted,
            controller_paused: rng.gen_bool(self.pause),
            clock_stalled: rng.gen_bool(self.clock_stall),
        }
    }

    /// The deterministic virtual latency (milliseconds) a report that
    /// arrived after `retries` retries cost the collection window:
    /// exponential backoff `base · 2^i` per attempt plus a per-attempt
    /// jitter fraction derived by hashing — no RNG stream consumed, so
    /// latency modeling never perturbs fault realization.
    pub fn backoff_ms(&self, epoch: u64, edge: usize, retries: u32) -> f64 {
        const BASE_MS: f64 = 5.0;
        let mut total = 0.0;
        for i in 0..retries {
            let h = mix64(
                self.seed ^ 0xbac0ff ^ (epoch << 20) ^ ((edge as u64) << 8) ^ i as u64,
            );
            // Jitter in [0, 1): top 53 bits as a fraction.
            let jitter = (h >> 11) as f64 / (1u64 << 53) as f64;
            total += BASE_MS * f64::from(1u32 << i.min(10)) * (1.0 + jitter);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn realization_is_pure_in_seed_and_epoch() {
        let p = FaultPlan::standard(42);
        for epoch in [0u64, 1, 7, 1_000_003] {
            assert_eq!(p.realize(epoch, 4), p.realize(epoch, 4));
        }
        // Different epochs must not share a realization stream.
        let all_same = (0..32).all(|e| p.realize(e, 4) == p.realize(0, 4));
        assert!(!all_same, "fault realizations are epoch-invariant");
    }

    #[test]
    fn none_plan_is_always_clean() {
        let p = FaultPlan::none(9);
        for epoch in 0..64 {
            assert_eq!(p.realize(epoch, 6), EpochFaults::clean(6));
        }
    }

    #[test]
    fn fate_priority_respects_probabilities() {
        // All mass on loss: every report lost.
        let p = FaultPlan { report_loss: 1.0, ..FaultPlan::none(3) };
        let f = p.realize(5, 8);
        assert!(f.fates.iter().all(|&x| x == ReportFate::Lost));
        // All mass on delay: every report delayed with 1 ≤ k ≤ max.
        let p = FaultPlan {
            report_delay: 1.0,
            delay_retries_max: 4,
            ..FaultPlan::none(3)
        };
        for fate in p.realize(5, 8).fates {
            match fate {
                ReportFate::Delayed(k) => assert!((1..=4).contains(&k)),
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn backoff_is_deterministic_and_monotone_in_retries() {
        let p = FaultPlan::standard(1);
        assert_eq!(p.backoff_ms(3, 1, 2), p.backoff_ms(3, 1, 2));
        assert_eq!(p.backoff_ms(3, 1, 0), 0.0);
        let mut prev = 0.0;
        for k in 1..6 {
            let b = p.backoff_ms(3, 1, k);
            assert!(b > prev, "backoff must grow with retries");
            prev = b;
        }
    }
}
