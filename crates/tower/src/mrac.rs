//! MRAC — flow-size distribution estimation from a counter array via
//! Expectation-Maximization (Kumar et al., SIGMETRICS 2004; used by the
//! control plane in §4.2 "Flow size distribution estimation").
//!
//! Model: `n` flows are hashed uniformly into `m` counters; a counter's
//! value is the sum of the sizes of the flows that collide into it. Given
//! the observed histogram of counter values, EM alternates:
//!
//! * **E-step** — for each counter value `v`, enumerate the multisets of
//!   flow sizes that sum to `v` and weight them by their Poissonized
//!   probability `Π_s λ_s^{c_s} / c_s!` (with `λ_s = n_s/m`; the common
//!   `e^{−λ}` factor cancels in the conditional), yielding the expected
//!   number of flows of each size hidden in that counter.
//! * **M-step** — sum those expectations over all counters to get the new
//!   size distribution.
//!
//! **Substitution note:** full MRAC enumerates *all* partitions
//! of `v`, which is exponential; like practical reimplementations we cap the
//! number of colliding flows per counter ([`MracConfig::max_parts`], default
//! 3, and 2 beyond [`MracConfig::three_part_limit`]). At the load factors
//! the paper runs (≪ 1 flow/counter on the wide arrays) counters with ≥ 4
//! colliding flows are vanishingly rare, so the cap preserves the estimator's
//! behaviour while keeping the controller's epoch-time budget.
//!
//! **Cost.** The EM runs over the *support*: the ascending list of counter
//! values that were actually observed, never over `0..=saturation`. `λ`
//! cannot leave the support — the initial guess is the histogram itself, and
//! an iteration only adds mass to a size whose `λ` is already positive (a
//! partition with a zero-weight part has weight zero) or, in the fallback,
//! to the observed value `v` — so a partition of `v` matters only when every
//! part is a support value.
//!
//! *Fixed cost, once per level:* the histogram — one branch-free counting
//! pass into a table as long as the largest observed value, from which the
//! support is read off in ascending order — and the **split table**: for each
//! support value `v`, its two-part splits `v = s1 + s2` into support values
//! (`s1 ≥ s2`), listed in ascending `s2` as index pairs. The splits depend on
//! the support alone, so one pass — each `s2 ≤ v/2` with `v − s2` looked up
//! in the count table, reused as a value-to-index map — serves every
//! iteration.
//!
//! *Per iteration:* the number of splits (plus the three-part terms of the
//! values up to [`MracConfig::three_part_limit`]), not the square of the
//! support. A two-part split gives each of its two indices at most one term
//! per value — an index `i` is `s2` of the split `(v − s_i, s_i)` when
//! `s_i ≤ v/2` and `s1` of the split `(s_i, v − s_i)` otherwise, one split in
//! both cases — so once `total_w` is summed, `next[i] += w·scale` is applied
//! straight from the splits, with no per-value accumulator to sweep. Only a
//! value with three-part terms, where an index does collect several terms,
//! accumulates them in `contrib`, and every index those terms touch lies
//! below the value itself, so its sweep is shorter than the limit. Memory is
//! a handful of vectors as long as the support, the split table and the
//! count table, all living in a reusable [`MracScratch`].
//!
//! The result is **bit-identical** to the dense formulation (one slot per
//! value up to saturation, kept as the oracle in `tests/mrac_differential.rs`):
//! that loop skips every zero-weight term, and the terms that remain are
//! exactly the all-support partitions, which the split table and the cursors
//! list in the same ascending `s3`, `s2` order — the same float additions in
//! the same order, and each index's one term scaled as its one-term sum was.

use crate::Counter;
use std::ops::Range;

/// Slots (a power of two) that empty counters are counted into in turn,
/// ahead of the slot of value 1: most counters of a sparse array are empty,
/// and one shared slot would make each increment wait on the previous one.
const EMPTY_SLOTS: usize = 4;

/// Tuning knobs for [`mrac_em`].
#[derive(Debug, Clone, Copy)]
pub struct MracConfig {
    /// Number of EM iterations.
    pub iterations: usize,
    /// Maximum flows assumed to collide in one counter (≥ 1).
    pub max_parts: usize,
    /// Counter values above this use at most 2 parts (keeps E-step
    /// quadratic only for small values).
    pub three_part_limit: usize,
}

impl Default for MracConfig {
    fn default() -> Self {
        MracConfig { iterations: 12, max_parts: 3, three_part_limit: 96 }
    }
}

impl MracConfig {
    /// A cheaper configuration for real-time monitoring (the paper suggests
    /// reducing iterations for more real-time estimates, §4.3 footnote).
    pub fn realtime() -> Self {
        MracConfig { iterations: 4, max_parts: 2, three_part_limit: 0 }
    }
}

/// Working memory of the MRAC EM, reusable across calls: every vector is as
/// long as the number of *distinct* observed counter values, apart from the
/// split table (one entry per two-part split of a support value), one
/// count table as long as the largest value seen so far — never as long as
/// the saturation value unless a counter holds it — and the staged
/// `(size, flows)` terms of the estimates not yet added into a distribution.
/// A caller that estimates every epoch (the controller) keeps one, which
/// stops allocating once it has grown to its sketches; apart from the staged
/// terms, nothing of one call is visible to the next.
#[derive(Debug, Clone, Default)]
pub struct MracScratch {
    /// Occurrences per counter value during the histogram pass (value `v ≥ 1`
    /// at slot `v + EMPTY_SLOTS − 1`), then the support index plus one per
    /// value (at slot `v`) while the split table is built. All zero between
    /// calls: each pass clears the slots it wrote.
    table: Vec<u32>,
    /// The support: observed counter values ≥ 1, ascending.
    values: Vec<usize>,
    /// `observed[i]` = number of counters holding `values[i]`.
    observed: Vec<f64>,
    /// `est[i]` = estimated number of flows of size `values[i]`.
    est: Vec<f64>,
    lambda: Vec<f64>,
    next: Vec<f64>,
    /// Per-index sums of the terms of a value with three-part terms, whose
    /// indices lie below that value's. All zero between values.
    contrib: Vec<f64>,
    /// The two-part splits `(i1, i2)`, `values[i1] + values[i2] = values[j]`
    /// with `i1 ≥ i2`, of every support index `j` in turn, each value's in
    /// ascending `i2`. Support indices fit `u32`, the compactest type that
    /// holds every index a support of `u32` counter values can have.
    splits: Vec<(u32, u32)>,
    /// `split_ends[j]` = end of value `j`'s splits in `splits`; they start
    /// where value `j − 1`'s end.
    split_ends: Vec<usize>,
    /// `(size, flows)` terms staged by
    /// [`TowerSketch::stage_level_estimates`](crate::TowerSketch::stage_level_estimates)
    /// and [`TowerSketch::stage_tail`](crate::TowerSketch::stage_tail), in the
    /// order [`add_staged_into`](Self::add_staged_into) adds them.
    staged: Vec<(usize, f64)>,
}

impl MracScratch {
    /// Loads the histogram of a counter array, values clamped to `sat`: one
    /// branch-free counting pass into a table as long as the largest clamped
    /// value (plus the empty counters' slots), then the support read off that
    /// table in ascending order — the array may hold tens of thousands of
    /// counters, the support only a few hundred values.
    // chm-lint: hot
    pub(crate) fn load_counters<C: Counter>(&mut self, counters: &[C], sat: usize) {
        let max = counters.iter().map(|c| c.get()).max().map_or(0, |c| (c as usize).min(sat));
        let slots = max + EMPTY_SLOTS;
        if self.table.len() < slots {
            self.table.resize(slots, 0);
        }
        let table = &mut self.table[..slots];
        for (i, &c) in counters.iter().enumerate() {
            // `min(c, max)` is `min(c, sat)`: no counter exceeds the largest.
            let v = (c.get() as usize).min(max);
            let slot = if v == 0 { i & (EMPTY_SLOTS - 1) } else { v + EMPTY_SLOTS - 1 };
            table[slot] += 1;
        }
        table[..EMPTY_SLOTS].fill(0); // empty counters are no flow
        self.values.clear();
        self.observed.clear();
        for (v, n) in (1..).zip(&mut table[EMPTY_SLOTS..]) {
            if *n != 0 {
                self.values.push(v);
                self.observed.push(f64::from(*n));
                *n = 0;
            }
        }
    }

    /// Loads a dense histogram (`hist[v]` = number of counters holding `v`).
    fn load_histogram(&mut self, hist: &[f64]) {
        self.values.clear();
        self.observed.clear();
        for (v, &c) in hist.iter().enumerate().skip(1) {
            if c != 0.0 {
                self.values.push(v);
                self.observed.push(c);
            }
        }
    }

    /// The estimate of the last [`run`](Self::run): `(size, flows)` pairs in
    /// ascending size; sizes not listed are estimated at zero flows.
    fn estimate(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.values.iter().copied().zip(self.est.iter().copied())
    }

    /// Stages the terms of the last [`run`](Self::run)'s estimate whose size
    /// lies in `sizes`, in ascending size.
    pub(crate) fn stage_estimate(&mut self, sizes: Range<usize>) {
        let terms = self.values.iter().copied().zip(self.est.iter().copied());
        self.staged.extend(terms.filter(|(s, _)| sizes.contains(s)));
    }

    /// Stages one `(size, flows)` term.
    pub(crate) fn stage(&mut self, size: usize, flows: f64) {
        self.staged.push((size, flows));
    }

    /// Adds the staged terms into `dist` in the order they were staged, and
    /// unstages them. `dist` is first grown with zeros, in one step, to end
    /// at the largest staged size, and is left as long as it is when nothing
    /// is staged.
    pub fn add_staged_into(&mut self, dist: &mut Vec<f64>) {
        let len = self.staged.iter().map(|&(s, _)| s + 1).max().unwrap_or(0);
        if dist.len() < len {
            dist.resize(len, 0.0);
        }
        for &(s, n) in &self.staged {
            dist[s] += n;
        }
        self.staged.clear();
    }

    /// Runs the EM on the loaded histogram of an array of `m` counters.
    // chm-lint: hot
    pub(crate) fn run(&mut self, m: usize, cfg: &MracConfig) {
        let k = self.values.len();
        // Initial guess: no collisions (each non-zero counter is one flow).
        self.est.clear();
        self.est.extend_from_slice(&self.observed);
        self.lambda.resize(k, 0.0);
        self.next.resize(k, 0.0);
        // Swept after each value, so it is all zero whenever a value starts.
        self.contrib.clear();
        self.contrib.resize(k, 0.0);
        self.build_splits(cfg.max_parts >= 2);
        let (values, observed) = (&self.values[..], &self.observed[..]);
        let (splits, split_ends) = (&self.splits[..], &self.split_ends[..]);
        let (est, lambda) = (&mut self.est[..], &mut self.lambda[..]);
        let (next, contrib) = (&mut self.next[..], &mut self.contrib[..]);
        for _ in 0..cfg.iterations {
            for (l, &n) in lambda.iter_mut().zip(est.iter()) {
                *l = n / m as f64;
            }
            next.fill(0.0);
            let mut first = 0;
            for (j, &v) in values.iter().enumerate() {
                // Weight each partition of v into at most `max_parts` parts
                // (2 above the limit) by Π λ_s^{c_s}/c_s!, and take the
                // conditional expectation. Parts smaller than v sit at
                // indices below j.
                let pairs = &splits[first..split_ends[j]];
                first = split_ends[j];
                let three_parts = cfg.max_parts >= 3 && v <= cfg.three_part_limit;
                let mut total_w = 0.0;
                // 1 part
                if lambda[j] > 0.0 {
                    total_w += lambda[j];
                }
                // 2 parts, in ascending s2; the 3-part terms follow them.
                if three_parts {
                    for &pair in pairs {
                        let w = pair_weight(lambda, pair);
                        if w > 0.0 {
                            total_w += w;
                            contrib[pair.0 as usize] += w;
                            contrib[pair.1 as usize] += w;
                        }
                    }
                    three_part_terms(values, lambda, j, &mut total_w, contrib);
                } else {
                    for &pair in pairs {
                        let w = pair_weight(lambda, pair);
                        if w > 0.0 {
                            total_w += w;
                        }
                    }
                }
                if total_w > 0.0 {
                    let scale = observed[j] / total_w;
                    if lambda[j] > 0.0 {
                        next[j] += lambda[j] * scale;
                    }
                    if three_parts {
                        for (n, c) in next[..j].iter_mut().zip(&mut contrib[..j]) {
                            if *c > 0.0 {
                                *n += *c * scale;
                            }
                            *c = 0.0;
                        }
                    } else {
                        for &(i1, i2) in pairs {
                            let w = pair_weight(lambda, (i1, i2));
                            let (i1, i2) = (i1 as usize, i2 as usize);
                            if w > 0.0 {
                                // An index's one term, scaled as the sum it was.
                                if i1 == i2 {
                                    next[i1] += (w + w) * scale;
                                } else {
                                    next[i1] += w * scale;
                                    next[i2] += w * scale;
                                }
                            }
                        }
                    }
                } else {
                    // No partition has support (can happen after mass
                    // collapses); fall back to the single-flow interpretation.
                    next[j] += observed[j];
                    // A NaN three-part weight (`raw <= 0.0` lets it through)
                    // lands here with `contrib` written.
                    if three_parts {
                        contrib[..j].fill(0.0);
                    }
                }
            }
            est.copy_from_slice(next);
        }
    }

    /// Builds the split table of the loaded support — empty lists for every
    /// value when `two_parts` is off (a one-part EM). Each support value
    /// `s2 ≤ v/2` is a candidate; `table` maps `v − s2` to its support index
    /// for the duration, and a candidate is written unconditionally and kept
    /// by advancing the end past it only when `v − s2` is a support value.
    // chm-lint: hot
    fn build_splits(&mut self, two_parts: bool) {
        let k = self.values.len();
        assert!(k < u32::MAX as usize, "support indices must fit u32");
        self.splits.clear();
        self.split_ends.clear();
        if !two_parts {
            self.split_ends.resize(k, 0);
            return;
        }
        let values = &self.values[..];
        let top = values.last().copied().unwrap_or(0);
        if self.table.len() <= top {
            self.table.resize(top + 1, 0);
        }
        // `index[s]` = support index of `s` plus one; 0 off the support.
        let index = &mut self.table[..=top];
        for (i, &v) in values.iter().enumerate() {
            index[v] = i as u32 + 1;
        }
        // Number of support values ≤ v/2: `values[j] = v` is above it.
        let mut half = 0;
        for &v in values {
            while values[half] <= v / 2 {
                half += 1;
            }
            let mut end = self.splits.len();
            self.splits.resize(end + half, (0, 0));
            // s1 >= s2 >= 1, s1 + s2 = v
            for (i2, &s2) in values[..half].iter().enumerate() {
                let i1 = index[v - s2];
                self.splits[end] = (i1.wrapping_sub(1), i2 as u32);
                end += usize::from(i1 != 0);
            }
            self.splits.truncate(end);
            self.split_ends.push(end);
        }
        for &v in values {
            index[v] = 0;
        }
    }
}

/// The weight `λ_{s1}·λ_{s2}`, halved when the parts are equal, of a split.
#[inline]
fn pair_weight(lambda: &[f64], (i1, i2): (u32, u32)) -> f64 {
    let (i1, i2) = (i1 as usize, i2 as usize);
    if i1 == i2 {
        lambda[i1] * lambda[i2] / 2.0
    } else {
        lambda[i1] * lambda[i2]
    }
}

/// Adds the three-part terms of `values[j]` (s1 ≥ s2 ≥ s3 ≥ 1), in ascending
/// `s3`, then `s2`, to `total_w` and to each part's `contrib`.
// chm-lint: hot
fn three_part_terms(
    values: &[usize],
    lambda: &[f64],
    j: usize,
    total_w: &mut f64,
    contrib: &mut [f64],
) {
    let v = values[j];
    // Where the s1 cursor starts for each s3: at s2 = s3, which falls as s3
    // grows, so it is itself a cursor.
    let mut start = j;
    for (i3, &s3) in values[..j].iter().enumerate() {
        if s3 > v / 3 {
            break;
        }
        descend_to(values, &mut start, v - 2 * s3);
        let mut hi = start;
        for (i2, &s2) in values[..j].iter().enumerate().skip(i3) {
            if s2 > (v - s3) / 2 {
                break;
            }
            let Some(i1) = descend_to(values, &mut hi, v - s2 - s3) else {
                continue;
            };
            let raw = lambda[i1] * lambda[i2] * lambda[i3];
            if raw <= 0.0 {
                continue;
            }
            // Multiset permutation correction 1/Π c_s!.
            let w = if i1 == i2 && i2 == i3 {
                raw / 6.0
            } else if i1 == i2 || i2 == i3 {
                raw / 2.0
            } else {
                raw
            };
            *total_w += w;
            contrib[i1] += w;
            contrib[i2] += w;
            contrib[i3] += w;
        }
    }
}

/// Lowers the cursor `hi` (an exclusive upper index into the ascending
/// `values`) past every value above `target`, and returns the index holding
/// `target` if it is a support value. Successive targets must not increase.
#[inline]
fn descend_to(values: &[usize], hi: &mut usize, target: usize) -> Option<usize> {
    while *hi > 0 && values[*hi - 1] > target {
        *hi -= 1;
    }
    (*hi > 0 && values[*hi - 1] == target).then(|| *hi - 1)
}

/// Runs MRAC EM.
///
/// * `counter_hist[v]` — number of counters holding value `v` (index 0 =
///   empty counters).
/// * `m` — total number of counters in the array.
///
/// Returns `est[s]` = estimated number of flows of size `s` (index 0 unused),
/// as long as `counter_hist`.
pub fn mrac_em(counter_hist: &[f64], m: usize, cfg: &MracConfig) -> Vec<f64> {
    if counter_hist.len() <= 1 || m == 0 {
        return vec![0.0];
    }
    let mut scratch = MracScratch::default();
    scratch.load_histogram(counter_hist);
    scratch.run(m, cfg);
    let mut est = vec![0.0; counter_hist.len()];
    for (s, n) in scratch.estimate() {
        est[s] = n;
    }
    est
}
#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Simulates hashing flows into `m` counters and returns the histogram.
    fn simulate(m: usize, sizes: &[(usize, usize)], seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut counters = vec![0usize; m];
        let mut truth = vec![0.0; 512];
        for &(size, count) in sizes {
            truth[size] += count as f64;
            for _ in 0..count {
                let j = rng.gen_range(0..m);
                counters[j] += size;
            }
        }
        let vmax = counters.iter().copied().max().unwrap_or(0);
        let mut hist = vec![0.0; vmax + 1];
        for &c in &counters {
            hist[c] += 1.0;
        }
        (hist, truth)
    }

    #[test]
    fn no_collisions_is_exact() {
        // Load << 1: histogram is the distribution.
        let (hist, truth) = simulate(100_000, &[(1, 500), (3, 100)], 1);
        let est = mrac_em(&hist, 100_000, &MracConfig::default());
        assert!((est[1] - truth[1]).abs() < 15.0, "est1={}", est[1]);
        assert!((est[3] - truth[3]).abs() < 10.0, "est3={}", est[3]);
    }

    #[test]
    fn collisions_are_deconvolved() {
        // Load 0.5: plain histogram over-reports size-2 counters; EM should
        // shift mass back to size 1.
        let (hist, truth) = simulate(2000, &[(1, 1000)], 2);
        let naive_size2 = hist.get(2).copied().unwrap_or(0.0);
        assert!(naive_size2 > 50.0, "collision setup broken: {naive_size2}");
        let est = mrac_em(&hist, 2000, &MracConfig::default());
        let err_naive = (hist[1] - truth[1]).abs();
        let err_em = (est[1] - truth[1]).abs();
        assert!(
            err_em < err_naive * 0.5,
            "EM err {err_em:.1} not better than naive {err_naive:.1}"
        );
    }

    #[test]
    fn total_flow_mass_is_preserved_roughly() {
        let (hist, truth) = simulate(4000, &[(1, 1500), (2, 300), (10, 50)], 3);
        let est = mrac_em(&hist, 4000, &MracConfig::default());
        let est_total: f64 = est.iter().sum();
        let truth_total: f64 = truth.iter().sum();
        let re = (est_total - truth_total).abs() / truth_total;
        assert!(re < 0.15, "est {est_total:.0} vs {truth_total:.0}");
    }

    #[test]
    fn empty_histogram() {
        assert_eq!(mrac_em(&[0.0], 10, &MracConfig::default()), vec![0.0]);
        assert_eq!(mrac_em(&[], 10, &MracConfig::default()), vec![0.0]);
        assert_eq!(mrac_em(&[5.0, 1.0], 0, &MracConfig::default()), vec![0.0]);
    }

    #[test]
    fn realtime_config_is_cheaper_but_sane() {
        let (hist, truth) = simulate(2000, &[(1, 800)], 4);
        let est = mrac_em(&hist, 2000, &MracConfig::realtime());
        let re = (est[1] - truth[1]).abs() / truth[1];
        assert!(re < 0.25, "realtime estimate off by {re:.2}");
    }
}
