//! Accuracy metrics from the paper's evaluation (Appendix C).
//!
//! * **ARE** — Average Relative Error over a flow set.
//! * **F1 score** — harmonic mean of precision and recall for detection tasks
//!   (heavy hitters, heavy changes, victim flows).
//! * **RE** — Relative Error of a scalar estimate (cardinality, entropy).
//! * **WMRE** — Weighted Mean Relative Error between two flow-size
//!   distributions.

use std::collections::HashMap;
use std::hash::Hash;

/// Average Relative Error: `(1/|Ω|) Σ |v_i − v̂_i| / v_i`.
///
/// `truth` — `(flow, size)` pairs with distinct flows, a `&HashMap` or any
/// table of rows — defines the flow set Ω; flows absent from `estimate` are
/// treated as estimated 0 (relative error 1). Returns 0.0 for an empty Ω.
///
/// The per-flow terms are accumulated in sorted-key order: `HashMap`
/// iteration order is randomized per map instance, and float addition is
/// order-sensitive in the last ulp — sorting makes the metric a pure
/// function of its inputs, whatever order they come in, which the
/// differential/golden-scenario tests rely on (byte-identical JSON per seed).
pub fn average_relative_error<'a, K: Eq + Hash + Ord + 'a>(
    truth: impl IntoIterator<Item = (&'a K, &'a u64)>,
    estimate: &HashMap<K, u64>,
) -> f64 {
    let mut keyed: Vec<(&K, u64)> = truth.into_iter().map(|(k, &v)| (k, v)).collect();
    if keyed.is_empty() {
        return 0.0;
    }
    keyed.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let mut sum = 0.0;
    for &(k, v) in &keyed {
        let e = estimate.get(k).copied().unwrap_or(0);
        if v == 0 {
            continue;
        }
        sum += (v as f64 - e as f64).abs() / v as f64;
    }
    sum / keyed.len() as f64
}

/// Precision, recall and F1 for a detection task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionScore {
    /// Correct reports / all reports.
    pub precision: f64,
    /// Correct reports / all correct instances.
    pub recall: f64,
    /// `2·PR·RR / (PR + RR)`.
    pub f1: f64,
}

/// Scores a reported set against the ground-truth set.
///
/// Empty-set conventions: if both sets are empty the task was solved
/// perfectly (all scores 1); if only the report is empty recall is 0; if only
/// the truth is empty precision is 0.
pub fn detection_score<K: Eq + Hash>(
    reported: impl IntoIterator<Item = K>,
    truth: &std::collections::HashSet<K>,
) -> DetectionScore {
    // Dedup: reporters that track a flow in several places (e.g. a flow
    // occupying multiple HashPipe stages) must not count it twice.
    let reported: std::collections::HashSet<K> = reported.into_iter().collect();
    if reported.is_empty() && truth.is_empty() {
        return DetectionScore { precision: 1.0, recall: 1.0, f1: 1.0 };
    }
    let correct = reported.iter().filter(|k| truth.contains(k)).count() as f64;
    let precision = if reported.is_empty() { 0.0 } else { correct / reported.len() as f64 };
    let recall = if truth.is_empty() { 0.0 } else { correct / truth.len() as f64 };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    DetectionScore { precision, recall, f1 }
}

/// Relative Error of a scalar: `|true − est| / true`.
pub fn relative_error(truth: f64, estimate: f64) -> f64 {
    if truth == 0.0 {
        if estimate == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (truth - estimate).abs() / truth.abs()
    }
}

/// Weighted Mean Relative Error between flow-size distributions
/// (`n[i]` = number of flows of size `i`):
/// `Σ|n_i − n̂_i| / Σ((n_i + n̂_i)/2)`.
pub fn wmre(truth: &[f64], estimate: &[f64]) -> f64 {
    let z = truth.len().max(estimate.len());
    let mut num = 0.0;
    let mut den = 0.0;
    for i in 0..z {
        let t = truth.get(i).copied().unwrap_or(0.0);
        let e = estimate.get(i).copied().unwrap_or(0.0);
        num += (t - e).abs();
        den += (t + e) / 2.0;
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Empirical entropy of flow sizes: `−Σ (n_i · i / N) · log2(i / N)` with
/// `N = Σ i·n_i` (§4.2, entropy estimation).
pub fn size_entropy(dist: &[f64]) -> f64 {
    let n: f64 = dist.iter().enumerate().map(|(i, &c)| i as f64 * c).sum();
    if n <= 0.0 {
        return 0.0;
    }
    let mut h = 0.0;
    for (i, &c) in dist.iter().enumerate().skip(1) {
        if c <= 0.0 {
            continue;
        }
        let p = i as f64 / n;
        h -= c * p * p.log2();
    }
    h
}

/// Builds a flow-size histogram (`out[s]` = #flows of size `s`) from exact
/// per-flow sizes; used to compute ground-truth distributions.
pub fn size_histogram<K>(sizes: &HashMap<K, u64>, max_size: usize) -> Vec<f64> {
    let mut hist = vec![0.0; max_size + 1];
    // chm-lint: allow(map-iter-order, "each flow adds exactly 1.0 to one bin; unit f64 increments are exact and commutative far below 2^53")
    for &v in sizes.values() {
        let s = (v as usize).min(max_size);
        hist[s] += 1.0;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn are_zero_for_perfect_estimate() {
        let truth: HashMap<u32, u64> = [(1, 10), (2, 20)].into();
        assert_eq!(average_relative_error(&truth, &truth.clone()), 0.0);
    }

    #[test]
    fn are_counts_missing_flows_as_full_error() {
        let truth: HashMap<u32, u64> = [(1, 10), (2, 20)].into();
        let est: HashMap<u32, u64> = [(1, 10)].into();
        assert!((average_relative_error(&truth, &est) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn are_empty_truth_is_zero() {
        let truth: HashMap<u32, u64> = HashMap::new();
        let est: HashMap<u32, u64> = [(1, 5)].into();
        assert_eq!(average_relative_error(&truth, &est), 0.0);
    }

    #[test]
    fn detection_perfect() {
        let truth: HashSet<u32> = [1, 2, 3].into();
        let s = detection_score(vec![1, 2, 3], &truth);
        assert_eq!(s.f1, 1.0);
    }

    #[test]
    fn detection_half_precision() {
        let truth: HashSet<u32> = [1].into();
        let s = detection_score(vec![1, 2], &truth);
        assert!((s.precision - 0.5).abs() < 1e-12);
        assert_eq!(s.recall, 1.0);
        assert!((s.f1 - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn detection_empty_conventions() {
        let empty: HashSet<u32> = HashSet::new();
        assert_eq!(detection_score(Vec::<u32>::new(), &empty).f1, 1.0);
        assert_eq!(detection_score(vec![1], &empty).precision, 0.0);
        let truth: HashSet<u32> = [1].into();
        assert_eq!(detection_score(Vec::<u32>::new(), &truth).recall, 0.0);
    }

    #[test]
    fn relative_error_basics() {
        assert_eq!(relative_error(100.0, 100.0), 0.0);
        assert!((relative_error(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert_eq!(relative_error(0.0, 0.0), 0.0);
        assert!(relative_error(0.0, 1.0).is_infinite());
    }

    #[test]
    fn wmre_identical_distributions() {
        let d = vec![0.0, 5.0, 3.0, 1.0];
        assert_eq!(wmre(&d, &d), 0.0);
    }

    #[test]
    fn wmre_disjoint_distributions_is_two() {
        let a = vec![0.0, 10.0];
        let b = vec![0.0, 0.0, 10.0];
        assert!((wmre(&a, &b) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_uniform_sizes() {
        // 4 flows of size 1, N = 4, each term: -1 * (1/4) log2(1/4) => total 4 * 0.5 = 2
        let d = vec![0.0, 4.0];
        assert!((size_entropy(&d) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_empty_is_zero() {
        assert_eq!(size_entropy(&[]), 0.0);
        assert_eq!(size_entropy(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn histogram_clamps_to_max() {
        let sizes: HashMap<u32, u64> = [(1, 2), (2, 9)].into();
        let h = size_histogram(&sizes, 4);
        assert_eq!(h[2], 1.0);
        assert_eq!(h[4], 1.0);
    }
}
