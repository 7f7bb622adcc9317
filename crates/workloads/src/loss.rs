//! Loss plans: which flows are victims and at what loss rate.
//!
//! On the testbed the authors "let switches proactively drop packets whose
//! ECN fields are set to 1 … we can flexibly specify any flow as a victim
//! flow and control its packet loss rate" (§5.2). A [`LossPlan`] is the
//! software analogue: a per-flow drop probability that the simulator (or a
//! direct trace replay) consults for every packet.

use chm_common::hash::mix64;
use chm_common::FlowId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::hash::Hash;

use crate::trace::Trace;

/// How victim flows are chosen from a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VictimSelection {
    /// The `n` largest flows (used by §5.1: "the largest 100 flows are
    /// victim flows").
    LargestN(usize),
    /// A uniformly random fraction of all flows (used by the testbed
    /// experiments: "fix the ratio of victim flows to 10%").
    RandomRatio(f64),
    /// A uniformly random count of flows.
    RandomN(usize),
}

/// Every row index of `trace`, ascending. Plans name trace rows with `u32`,
/// like the sharded replay's egress records.
fn trace_rows<F>(trace: &Trace<F>) -> std::ops::Range<u32> {
    0..u32::try_from(trace.flows.len()).expect("a loss plan indexes trace rows with u32")
}

/// A per-flow loss plan.
///
/// A plan selected from a trace ([`build`](Self::build),
/// [`VictimDrift::plan`]) also remembers **where** in that trace its victims
/// sit — one `u32` row per victim beside the map, not a second copy of the
/// flow IDs — so realizing it against the same trace costs work in the
/// victims, not the flows. The rows are a hint that
/// [`realize_losses`](Self::realize_losses) checks on every use and never
/// trusts: a plan applied to another trace, a hand-made one
/// ([`from_victims`](Self::from_victims)), or one whose `victims` were edited
/// finds its victims with one walk of the trace and realizes identically.
#[derive(Debug, Clone)]
pub struct LossPlan<F> {
    /// Victim flow → packet loss probability in `(0, 1]`.
    pub victims: HashMap<F, f64>,
    /// Rows of the trace the plan was selected from that hold its victims:
    /// distinct, ascending; empty for a hand-made plan.
    rows: Vec<u32>,
}

impl<F: Copy + Eq + Hash + Ord> LossPlan<F> {
    /// No losses at all (healthy network).
    pub fn none() -> Self {
        Self::from_victims([])
    }

    /// A hand-made plan: the given `(victim, loss probability)` pairs, tied
    /// to no trace.
    pub fn from_victims(victims: impl IntoIterator<Item = (F, f64)>) -> Self {
        LossPlan { victims: victims.into_iter().collect(), rows: Vec::new() }
    }

    /// The plan whose victims are the flows at `trace`'s (distinct) `rows`,
    /// each losing at `loss_rate`.
    fn at_rows(trace: &Trace<F>, mut rows: Vec<u32>, loss_rate: f64) -> Self {
        let victims = rows.iter().map(|&r| (trace.flows[r as usize].0, loss_rate)).collect();
        rows.sort_unstable();
        rows.shrink_to_fit();
        LossPlan { victims, rows }
    }

    /// Builds a plan by selecting victims from `trace` and assigning each
    /// the same `loss_rate`.
    pub fn build(
        trace: &Trace<F>,
        selection: VictimSelection,
        loss_rate: f64,
        seed: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&loss_rate), "loss rate out of range");
        let mut rng = StdRng::seed_from_u64(seed);
        // Selection orders the trace's rows, not copies of its flow IDs: a
        // shuffle's swaps depend on the length alone, so the rows come out
        // where the flows would have, and each victim keeps its row.
        let mut rows: Vec<u32> = trace_rows(trace).collect();
        let n = match selection {
            VictimSelection::LargestN(n) => {
                // `Trace::top_n`'s order: size descending, flow ID ascending.
                let key = |r: u32| trace.flows[r as usize];
                rows.sort_unstable_by(|&a, &b| {
                    key(b).1.cmp(&key(a).1).then_with(|| key(a).0.cmp(&key(b).0))
                });
                n
            }
            VictimSelection::RandomRatio(r) => {
                assert!((0.0..=1.0).contains(&r), "ratio out of range");
                rows.shuffle(&mut rng);
                (trace.num_flows() as f64 * r).round() as usize
            }
            VictimSelection::RandomN(n) => {
                rows.shuffle(&mut rng);
                n
            }
        };
        rows.truncate(n);
        Self::at_rows(trace, rows, loss_rate)
    }

    /// Number of victim flows in the plan.
    pub fn num_victims(&self) -> usize {
        self.victims.len()
    }

    /// Drop decision for a single packet of flow `f`.
    pub fn should_drop<R: Rng + ?Sized>(&self, f: &F, rng: &mut R) -> bool {
        match self.victims.get(f) {
            Some(&p) => rng.gen_bool(p),
            None => false,
        }
    }

    /// Deterministically realizes each victim flow's lost-packet count,
    /// guaranteeing **at least one** lost packet per victim (so every
    /// planned victim is a real victim, as on the testbed where loss rates
    /// and flow sizes are chosen to make victims actual) and never more
    /// than the flow carries. A planned victim that sent nothing this epoch
    /// has no packet to lose and gets no entry — it is not a victim.
    ///
    /// Returns the victims' lost counts as `(trace index, lost)` rows in
    /// strictly ascending index (`trace.flows[index]` names the flow) — as
    /// long as the victim set, not the trace, and readable by position by a
    /// caller that walks the trace in order, with no per-flow lookup. Draws
    /// come from one RNG stream walked in trace order, so the counts depend
    /// on `(self, trace, seed)` alone.
    ///
    /// The victims are visited by row. When the rows the plan remembers are
    /// where `trace` holds its victims — an O(victims) check — nothing else
    /// of the trace is read; otherwise one walk of the trace finds them
    /// first. Either way the same rows are visited in the same order, so the
    /// list and every draw are the same.
    pub fn realize_losses(&self, trace: &Trace<F>, seed: u64) -> Vec<(usize, u64)> {
        if self.victims.is_empty() {
            return Vec::new();
        }
        let located;
        let rows = if self.rows_hold(trace) {
            &self.rows
        } else {
            located = self.locate(trace);
            &located
        };
        let mut lost = Vec::with_capacity(rows.len());
        self.draw_losses(trace, rows, seed, &mut lost);
        lost
    }

    /// True when the remembered rows are exactly where `trace` holds this
    /// plan's victims: as many rows as victims, each naming a planned victim.
    /// The rows are distinct and a trace's flow IDs unique, so the flows at
    /// those rows then *are* the victim set and no other row can hold one.
    fn rows_hold(&self, trace: &Trace<F>) -> bool {
        self.rows.len() == self.victims.len()
            && self.rows.iter().all(|&r| {
                trace.flows.get(r as usize).is_some_and(|(f, _)| self.victims.contains_key(f))
            })
    }

    /// The rows of `trace` that hold a planned victim, ascending: one lookup
    /// per flow of the trace, the price of a plan that does not know it.
    fn locate(&self, trace: &Trace<F>) -> Vec<u32> {
        let mut rows = Vec::with_capacity(self.victims.len());
        rows.extend(
            trace_rows(trace).filter(|&r| self.victims.contains_key(&trace.flows[r as usize].0)),
        );
        rows
    }

    /// The draw loop of [`realize_losses`](Self::realize_losses) over the
    /// victims' `rows` (ascending): one map lookup per victim for its loss
    /// rate, one draw per packet it sent.
    // chm-lint: hot
    fn draw_losses(
        &self,
        trace: &Trace<F>,
        rows: &[u32],
        seed: u64,
        lost: &mut Vec<(usize, u64)>,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for &row in rows {
            let (f, pkts) = trace.flows[row as usize];
            if pkts == 0 {
                continue;
            }
            let p = self.victims[&f];
            let mut dropped = 0u64;
            for _ in 0..pkts {
                if rng.gen_bool(p) {
                    dropped += 1;
                }
            }
            // Victims must lose at least one packet, and at most all.
            lost.push((row as usize, dropped.max(1).min(pkts)));
        }
    }

    /// Splits every flow's packets into (delivered, lost): the
    /// [`realize_losses`](Self::realize_losses) list keyed by flow, and the
    /// delivered count of every flow in the trace.
    ///
    /// Returns `(delivered_counts, lost_counts)` for the whole trace.
    pub fn apply_to_trace(
        &self,
        trace: &Trace<F>,
        seed: u64,
    ) -> (HashMap<F, u64>, HashMap<F, u64>) {
        let losses = self.realize_losses(trace, seed);
        let mut delivered = trace.size_map();
        let mut lost = HashMap::with_capacity(losses.len());
        for &(i, l) in &losses {
            let (f, pkts) = trace.flows[i];
            delivered.insert(f, pkts - l);
            lost.insert(f, l);
        }
        (delivered, lost)
    }
}

/// Per-epoch victim drift: the set of victim flows slides over time — each
/// epoch, roughly a `frac` fraction of the victims recover while an equal
/// number of healthy flows start losing packets. Modeled as a sliding
/// window over the flows ordered by a seeded **per-flow hash priority**
/// (wrapping around), so consecutive epochs share `1 − frac` of their
/// victims and the whole trajectory is reproducible from the seed.
///
/// The priority order is a pure function of each flow's identity, not of
/// its position in the trace — so when drift composes with flow churn or
/// floods, surviving flows keep their relative order and the promised
/// overlap degrades only by the churned fraction (a positional shuffle
/// would reshuffle the survivors wholesale and collapse the overlap).
///
/// Drift replaces the *membership* policy of a [`VictimSelection`] but keeps
/// its count: `LargestN(n)`/`RandomN(n)` drift over `n`-sized windows,
/// `RandomRatio(r)` over `round(r·flows)`-sized ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VictimDrift {
    /// Fraction of the victim set replaced per epoch, in `[0, 1]`.
    pub frac: f64,
    /// Seed of the drift trajectory.
    pub seed: u64,
}

impl VictimDrift {
    /// Builds epoch `epoch`'s loss plan: a window of victims at the drift
    /// offset, each losing at `loss_rate`.
    pub fn plan<F: FlowId>(
        &self,
        trace: &Trace<F>,
        selection: VictimSelection,
        loss_rate: f64,
        epoch: u64,
    ) -> LossPlan<F> {
        assert!((0.0..=1.0).contains(&self.frac), "drift fraction out of range");
        let n_flows = trace.num_flows();
        let n_victims = match selection {
            VictimSelection::LargestN(n) | VictimSelection::RandomN(n) => n,
            VictimSelection::RandomRatio(r) => {
                assert!((0.0..=1.0).contains(&r), "ratio out of range");
                (n_flows as f64 * r).round() as usize
            }
        }
        .min(n_flows);
        if n_victims == 0 || n_flows == 0 {
            return LossPlan::none();
        }
        // Priority first, flow ID on a (64-bit) tie: an order of the flows,
        // whatever rows they sit at.
        let flow = |r: u32| trace.flows[r as usize].0;
        let mut order: Vec<(u64, u32)> = trace_rows(trace)
            .map(|r| (mix64(self.seed ^ mix64(flow(r).key64())), r))
            .collect();
        order.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| flow(a.1).cmp(&flow(b.1))));
        let offset =
            (n_victims as f64 * self.frac * epoch as f64).round() as usize % n_flows;
        let rows = (0..n_victims).map(|i| order[(offset + i) % n_flows].1).collect();
        LossPlan::at_rows(trace, rows, loss_rate)
    }
}

/// Incast concentration: a seeded fraction of the trace's flows is
/// redirected at a single target host, the classic many-to-one fan-in that
/// saturates the target's ToR downlink. Unlike a [`LossPlan`], an incast
/// does not *mark* victims — it reshapes the offered load so a per-link
/// congestion model (`chm_netsim::congestion`) makes victims out of
/// whatever crosses the saturated link, with the drop attributed to the
/// target's ToR.
///
/// Selection is keyed by flow identity (like [`VictimDrift`]'s priority
/// order), so the redirected set is stable across epochs and survives
/// composition with churn and floods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncastModel {
    /// Fraction of flows redirected at the target, in `[0, 1]`.
    pub frac: f64,
    /// The host every redirected flow converges on.
    pub target_host: u32,
    /// Seed of the selection.
    pub seed: u64,
}

impl IncastModel {
    /// The trace with this epoch's incast applied: each selected flow's
    /// destination is rewritten to the target host (flows already at the
    /// target, originating there, or colliding with an existing 5-tuple are
    /// left alone).
    pub fn apply(&self, base: &crate::trace::Trace<chm_common::FiveTuple>)
        -> crate::trace::Trace<chm_common::FiveTuple> {
        assert!((0.0..=1.0).contains(&self.frac), "incast fraction out of range");
        use chm_common::FlowId as _;
        let threshold = (self.frac * (1u64 << 53) as f64) as u64;
        // Guards both collision classes: a redirected tuple landing on an
        // existing base flow, and two flows that differed only in dst_ip
        // collapsing onto the same redirected tuple (each redirect is
        // recorded before the next is attempted).
        let mut seen: std::collections::HashSet<chm_common::FiveTuple> =
            base.flows.iter().map(|&(f, _)| f).collect();
        let target_ip = crate::trace::host_ip(self.target_host);
        let mut flows = Vec::with_capacity(base.num_flows());
        for &(f, s) in &base.flows {
            let pick = (mix64(self.seed ^ mix64(f.key64())) >> 11) < threshold;
            if pick && f.dst_ip != target_ip && f.src_ip != target_ip {
                let redirected = chm_common::FiveTuple { dst_ip: target_ip, ..f };
                if seen.insert(redirected) {
                    flows.push((redirected, s));
                    continue;
                }
            }
            flows.push((f, s));
        }
        crate::trace::Trace { flows }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::caida_like_trace;

    #[test]
    fn largest_n_selects_biggest() {
        let t = caida_like_trace(1000, 1);
        let plan = LossPlan::build(&t, VictimSelection::LargestN(10), 0.5, 2);
        assert_eq!(plan.num_victims(), 10);
        let top: std::collections::HashSet<u32> =
            t.top_n(10).flows.iter().map(|&(f, _)| f).collect();
        for f in plan.victims.keys() {
            assert!(top.contains(f));
        }
    }

    #[test]
    fn random_ratio_count() {
        let t = caida_like_trace(1000, 1);
        let plan = LossPlan::build(&t, VictimSelection::RandomRatio(0.1), 0.01, 3);
        assert_eq!(plan.num_victims(), 100);
    }

    #[test]
    fn random_n_is_deterministic_per_seed() {
        let t = caida_like_trace(500, 1);
        let a = LossPlan::build(&t, VictimSelection::RandomN(50), 0.01, 7);
        let b = LossPlan::build(&t, VictimSelection::RandomN(50), 0.01, 7);
        assert_eq!(
            a.victims.keys().collect::<std::collections::BTreeSet<_>>(),
            b.victims.keys().collect::<std::collections::BTreeSet<_>>()
        );
    }

    #[test]
    fn apply_guarantees_victim_losses() {
        let t = caida_like_trace(1000, 4);
        let plan = LossPlan::build(&t, VictimSelection::RandomRatio(0.1), 0.01, 5);
        let (delivered, lost) = plan.apply_to_trace(&t, 6);
        assert_eq!(lost.len(), plan.num_victims());
        let sizes = t.size_map();
        for (f, &l) in &lost {
            assert!(l >= 1);
            assert!(l <= sizes[f]);
            assert_eq!(delivered[f] + l, sizes[f]);
        }
    }

    #[test]
    fn a_victim_that_sent_nothing_loses_nothing() {
        // Flow 2 is a planned victim but idle this epoch: no `lost` entry
        // (not even a zero), and the draws of the other victims are the
        // ones they get when flow 2 is absent from the trace altogether.
        let plan = LossPlan::from_victims([(1u32, 0.5), (2, 0.5), (3, 0.5)]);
        let with_idle = Trace { flows: vec![(1u32, 40), (2, 0), (3, 40), (4, 10)] };
        let without = Trace { flows: vec![(1u32, 40), (3, 40), (4, 10)] };
        let (delivered, lost) = plan.apply_to_trace(&with_idle, 9);
        assert!(!lost.contains_key(&2), "an idle flow is never a victim");
        assert_eq!(delivered[&2], 0);
        assert_eq!(lost.len(), 2);
        let (_, lost_without) = plan.apply_to_trace(&without, 9);
        assert_eq!(lost, lost_without);
        // By trace index: flow 3 sits one row later beside the idle flow.
        assert_eq!(plan.realize_losses(&with_idle, 9), [(0, lost[&1]), (2, lost[&3])]);
        assert_eq!(plan.realize_losses(&without, 9), [(0, lost[&1]), (1, lost[&3])]);
    }

    #[test]
    fn non_victims_deliver_everything() {
        let t = caida_like_trace(200, 4);
        let plan = LossPlan::build(&t, VictimSelection::LargestN(5), 0.5, 5);
        let (delivered, lost) = plan.apply_to_trace(&t, 6);
        let sizes = t.size_map();
        for &(f, s) in &t.flows {
            if !plan.victims.contains_key(&f) {
                assert_eq!(delivered[&f], s);
                assert!(!lost.contains_key(&f));
            }
        }
        assert_eq!(delivered.len(), sizes.len());
    }

    #[test]
    fn none_plan_drops_nothing() {
        let plan: LossPlan<u32> = LossPlan::none();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(!plan.should_drop(&1, &mut rng));
        assert_eq!(plan.num_victims(), 0);
    }

    #[test]
    fn victim_drift_keeps_count_and_slides_membership() {
        let t = caida_like_trace(500, 9);
        let drift = VictimDrift { frac: 0.2, seed: 10 };
        let sel = VictimSelection::RandomRatio(0.1);
        let p0 = drift.plan(&t, sel, 0.05, 0);
        let p1 = drift.plan(&t, sel, 0.05, 1);
        let p5 = drift.plan(&t, sel, 0.05, 5);
        assert_eq!(p0.num_victims(), 50);
        assert_eq!(p1.num_victims(), 50);
        let s0: std::collections::HashSet<u32> = p0.victims.keys().copied().collect();
        let s1: std::collections::HashSet<u32> = p1.victims.keys().copied().collect();
        let s5: std::collections::HashSet<u32> = p5.victims.keys().copied().collect();
        let overlap01 = s0.intersection(&s1).count();
        assert!(
            (35..50).contains(&overlap01),
            "adjacent epochs must share ~80% of victims, got {overlap01}"
        );
        assert!(s0.intersection(&s5).count() < overlap01, "drift must accumulate");
        // Determinism: the same epoch always selects the same victims.
        let again: std::collections::HashSet<u32> =
            drift.plan(&t, sel, 0.05, 1).victims.keys().copied().collect();
        assert_eq!(s1, again);
    }

    #[test]
    fn victim_drift_overlap_survives_membership_churn() {
        // The drift order is keyed by flow identity, so removing/replacing
        // a small fraction of the flows (what churn does between epochs)
        // must not reshuffle the surviving victims.
        let t = caida_like_trace(500, 13);
        let drift = VictimDrift { frac: 0.2, seed: 14 };
        let sel = VictimSelection::RandomRatio(0.1);
        // Same epoch, 5% of flows replaced.
        let mut churned = t.clone();
        let replacement = caida_like_trace(50, 99);
        for i in 0..25 {
            churned.flows[i * 7] = replacement.flows[i];
        }
        let a: std::collections::HashSet<u32> =
            drift.plan(&t, sel, 0.05, 3).victims.keys().copied().collect();
        let b: std::collections::HashSet<u32> =
            drift.plan(&churned, sel, 0.05, 3).victims.keys().copied().collect();
        let overlap = a.intersection(&b).count();
        assert!(
            overlap >= 40,
            "5% membership churn must keep ~95% of the victim window, got {overlap}/50"
        );
    }

    #[test]
    fn victim_drift_degenerate_cases() {
        let t = caida_like_trace(20, 11);
        let drift = VictimDrift { frac: 0.5, seed: 12 };
        assert_eq!(drift.plan(&t, VictimSelection::RandomN(0), 0.1, 3).num_victims(), 0);
        // More victims than flows: clamp to the whole trace.
        let all = drift.plan(&t, VictimSelection::RandomN(100), 0.1, 2);
        assert_eq!(all.num_victims(), 20);
    }

    #[test]
    fn incast_redirects_a_stable_keyed_fraction() {
        let t = crate::testbed_trace(crate::WorkloadKind::Dctcp, 1_000, 8, 17);
        let inc = IncastModel { frac: 0.25, target_host: 3, seed: 18 };
        let a = inc.apply(&t);
        let b = inc.apply(&t);
        assert_eq!(a.flows, b.flows, "selection must be deterministic");
        assert_eq!(a.num_flows(), t.num_flows(), "incast redirects, never adds");
        let target_ip = crate::trace::host_ip(3);
        let before = t.flows.iter().filter(|(f, _)| f.dst_ip == target_ip).count();
        let after = a.flows.iter().filter(|(f, _)| f.dst_ip == target_ip).count();
        let gained = after - before;
        // ~25% of the non-target flows converge (selection is hash-keyed,
        // so allow binomial slack).
        assert!((180..320).contains(&gained), "redirected {gained}");
        // Sizes ride along unchanged.
        let total_before: u64 = t.flows.iter().map(|&(_, s)| s).sum();
        let total_after: u64 = a.flows.iter().map(|&(_, s)| s).sum();
        assert_eq!(total_before, total_after);
        // No duplicate 5-tuples after redirection (two flows differing
        // only in dst_ip must not collapse onto one redirected tuple).
        let unique: std::collections::HashSet<_> =
            a.flows.iter().map(|&(f, _)| f).collect();
        assert_eq!(unique.len(), a.num_flows(), "redirection created duplicates");
    }

    #[test]
    fn higher_loss_rate_loses_more() {
        let t = caida_like_trace(2000, 8).top_n(100);
        let low = LossPlan::build(&t, VictimSelection::LargestN(100), 0.05, 1);
        let high = LossPlan::build(&t, VictimSelection::LargestN(100), 0.5, 1);
        let (_, lost_low) = low.apply_to_trace(&t, 2);
        let (_, lost_high) = high.apply_to_trace(&t, 2);
        let sum_low: u64 = lost_low.values().sum();
        let sum_high: u64 = lost_high.values().sum();
        assert!(sum_high > sum_low * 3, "low {sum_low}, high {sum_high}");
    }
}
