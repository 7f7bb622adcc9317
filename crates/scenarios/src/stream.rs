//! **Epoch stream adapter** — random-access, endless workload generation
//! for streaming consumers (`chm-serve`).
//!
//! A [`Scenario`] describes a *finite* run (`epochs` bounds the matrix
//! scorer), but every generator it composes — churn, floods, drift,
//! incast, loss plans — is a pure function of `(seed, epoch)` and is
//! defined for **any** epoch. [`EpochStream`] packages that: it owns the
//! scenario and its base trace and hands out the `(trace, plan)` pair for
//! an arbitrary epoch on demand.
//!
//! Two properties matter to the streaming runtime:
//!
//! * **endless** — `epoch` may exceed `scenario.epochs`; the stream never
//!   runs dry, so a soak can run 10k epochs off a 16-epoch scenario
//!   definition;
//! * **random access** — `stream.at(k)` is pure in `k` (no iterator
//!   state), so a process restored from a snapshot at epoch `k` asks for
//!   exactly the epochs it needs and reproduces an uninterrupted run bit
//!   for bit.

use crate::Scenario;
use chm_common::FiveTuple;
use chm_workloads::{LossPlan, Trace};
use std::borrow::Cow;

/// An endless, randomly addressable stream of per-epoch workloads derived
/// from one [`Scenario`]. See the module docs for the contract.
#[derive(Debug, Clone)]
pub struct EpochStream {
    scenario: Scenario,
    base: Trace<FiveTuple>,
}

impl EpochStream {
    /// Builds the stream: materializes the base (epoch-0) trace once; every
    /// [`at`](Self::at) call evolves it from there.
    pub fn new(scenario: Scenario) -> Self {
        let base = scenario.base_trace();
        EpochStream { scenario, base }
    }

    /// The scenario this stream realizes.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The workload of epoch `epoch`: the evolved flow set — the base
    /// trace itself, borrowed, when nothing evolves it — and its loss plan.
    /// Pure in `epoch` — calling twice returns identical values, and epochs
    /// may be requested in any order.
    pub fn at(&self, epoch: u64) -> (Cow<'_, Trace<FiveTuple>>, LossPlan<FiveTuple>) {
        let trace = self.scenario.trace_for_epoch(&self.base, epoch);
        let plan = self.scenario.plan_for_epoch(&trace, epoch);
        (trace, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_pure_and_endless() {
        let s = Scenario::builder("stream")
            .seed(11)
            .flows(200)
            .epochs(2)
            .churn(0.2)
            .flood(3, 5, 500)
            .victim_drift(0.3)
            .build();
        let st = EpochStream::new(s);
        // Endless: well past the declared epoch budget.
        let far = 100 * st.scenario().epochs;
        let (t1, p1) = st.at(far);
        let (t2, p2) = st.at(far);
        assert_eq!(t1.flows.len(), t2.flows.len());
        assert_eq!(p1.victims.len(), p2.victims.len());
        // Random access: asking out of order changes nothing.
        let (a, _) = st.at(7);
        let _ = st.at(3);
        let (b, _) = st.at(7);
        assert_eq!(a.flows.len(), b.flows.len());
    }
}
