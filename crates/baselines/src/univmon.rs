//! UnivMon (Liu et al., SIGCOMM 2016): universal sketching. `L` levels of
//! Count sketch + top-k heaps over progressively half-sampled substreams;
//! any G-sum `Σ g(|f|)` is estimated by the recursive unbiased estimator,
//! which yields heavy hitters, cardinality, and entropy from one structure.
//!
//! Configuration per Appendix C: 14 levels, each level records up to 1000
//! heavy hitters.

use crate::count_sketch::CountSketch;
use crate::AccumulationSketch;
use chm_common::hash::PairwiseHash;
use chm_common::FlowId;
use std::collections::BTreeMap;

/// Number of levels (Appendix C).
const LEVELS: usize = 14;
/// Per-level heap capacity (Appendix C).
const HEAP_K: usize = 1000;
/// Heap entry bytes: 32-bit key + 32-bit estimate.
const HEAP_ENTRY_BYTES: usize = 8;

#[derive(Debug, Clone)]
struct Level<F> {
    sketch: CountSketch,
    /// Tracked flows → last sketch estimate, in flow order: the G-sum adds
    /// floats in this order, so it must not vary between two instances.
    heap: BTreeMap<F, i64>,
}

/// The UnivMon data structure.
#[derive(Debug, Clone)]
pub struct UnivMon<F: FlowId> {
    levels: Vec<Level<F>>,
    sample_hash: PairwiseHash,
    /// Total packets seen (for entropy normalization).
    total_packets: u64,
}

impl<F: FlowId> UnivMon<F> {
    /// Creates a UnivMon splitting `memory_bytes` across 14 levels.
    pub fn new(memory_bytes: usize, seed: u64) -> Self {
        let per_level = (memory_bytes / LEVELS).max(64);
        let sketch_bytes = per_level.saturating_sub(HEAP_K * HEAP_ENTRY_BYTES).max(48);
        UnivMon {
            levels: (0..LEVELS)
                .map(|i| Level {
                    sketch: CountSketch::new(sketch_bytes, seed.wrapping_add(i as u64 * 77)),
                    heap: BTreeMap::new(),
                })
                .collect(),
            sample_hash: PairwiseHash::from_seed(seed ^ 0x0417_17e5),
            total_packets: 0,
        }
    }

    /// The deepest level flow `key` is sampled into: level `i` contains the
    /// flow iff the low `i` bits of its sampling hash are all ones.
    fn depth(&self, key: u64) -> usize {
        let h = self.sample_hash.raw(key);
        ((h.trailing_ones() as usize) + 1).min(LEVELS)
    }

    fn track(level: &mut Level<F>, f: &F, est: i64) {
        if est <= 0 {
            return;
        }
        if level.heap.contains_key(f) || level.heap.len() < HEAP_K {
            level.heap.insert(*f, est);
            return;
        }
        // The smallest `(count, flow)`: ties go to the smaller flow.
        if let Some((&min_f, &min_v)) = level.heap.iter().min_by_key(|&(&f, &v)| (v, f)) {
            if est > min_v {
                level.heap.remove(&min_f);
                level.heap.insert(*f, est);
            }
        }
    }

    /// Estimates `Σ_flows g(size)` with the recursive estimator:
    /// `Y_L = Σ_{f∈Q_L} g(w_f)`;
    /// `Y_i = 2·Y_{i+1} + Σ_{f∈Q_i} (1 − 2·s_{i+1}(f))·g(w_f)`.
    /// Each level's heap is summed in flow order.
    pub fn g_sum(&self, g: impl Fn(f64) -> f64) -> f64 {
        let mut y = 0.0;
        for i in (0..LEVELS).rev() {
            let contribution: f64 = self.levels[i]
                .heap
                .iter()
                .map(|(f, &w)| {
                    let gw = g(w.max(0) as f64);
                    if i + 1 == LEVELS {
                        // top level: plain sum (initialized below)
                        gw
                    } else {
                        let sampled_next = self.depth(f.key64()) > i + 1;
                        let ind = if sampled_next { 1.0 } else { 0.0 };
                        (1.0 - 2.0 * ind) * gw
                    }
                })
                .sum();
            y = if i + 1 == LEVELS { contribution } else { 2.0 * y + contribution };
        }
        y.max(0.0)
    }

    /// Cardinality estimate: G-sum with `g ≡ 1`.
    pub fn cardinality(&self) -> f64 {
        self.g_sum(|_| 1.0)
    }

    /// Entropy estimate: `H = log2(N) − (1/N)·Σ w·log2(w)`.
    pub fn entropy(&self) -> f64 {
        let n = self.total_packets as f64;
        if n <= 0.0 {
            return 0.0;
        }
        let g = self.g_sum(|w| if w > 0.0 { w * w.log2() } else { 0.0 });
        (n.log2() - g / n).max(0.0)
    }

    /// Total packets inserted so far.
    pub fn total_packets(&self) -> u64 {
        self.total_packets
    }
}

impl<F: FlowId> AccumulationSketch<F> for UnivMon<F> {
    fn insert(&mut self, f: &F) {
        self.total_packets += 1;
        let key = f.key64();
        let depth = self.depth(key);
        for i in 0..depth {
            self.levels[i].sketch.add(key);
            let est = self.levels[i].sketch.query(key);
            Self::track(&mut self.levels[i], f, est);
        }
    }

    fn estimate(&self, f: &F) -> u64 {
        // Level 0 sees every packet.
        self.levels[0].sketch.query(f.key64()).max(0) as u64
    }

    fn memory_bytes(&self) -> f64 {
        self.levels
            .iter()
            .map(|l| l.sketch.memory_bytes() + (HEAP_K * HEAP_ENTRY_BYTES) as f64)
            .sum()
    }

    fn heavy_candidates(&self, threshold: u64) -> Vec<(F, u64)> {
        self.levels[0]
            .heap
            .iter()
            .filter(|(_, &v)| v.max(0) as u64 >= threshold)
            .map(|(&f, &v)| (f, v.max(0) as u64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeSet, HashMap};

    fn build(n_flows: u32, seed: u64) -> (UnivMon<u32>, HashMap<u32, u64>) {
        let mut um = UnivMon::<u32>::new(256 * 1024, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut truth = HashMap::new();
        let mut stream = Vec::new();
        for f in 0..n_flows {
            let n = if f < 10 { 2000 } else { rng.gen_range(1..10) };
            truth.insert(f, n as u64);
            for _ in 0..n {
                stream.push(f);
            }
        }
        stream.shuffle(&mut rng);
        for f in &stream {
            um.insert(f);
        }
        (um, truth)
    }

    #[test]
    fn sampling_halves_per_level() {
        let um = UnivMon::<u32>::new(64 * 1024, 1);
        let mut counts = [0usize; 5];
        for k in 0..100_000u64 {
            let d = um.depth(k);
            for lvl in counts.iter_mut().take(d.min(5)) {
                *lvl += 1;
            }
        }
        for i in 1..5 {
            let ratio = counts[i] as f64 / counts[i - 1] as f64;
            assert!((ratio - 0.5).abs() < 0.05, "level {i} ratio {ratio}");
        }
    }

    #[test]
    fn heavy_hitters_detected() {
        let (um, _) = build(3000, 2);
        let hh = um.heavy_candidates(1000);
        let found: std::collections::HashSet<u32> = hh.iter().map(|&(f, _)| f).collect();
        assert!(found.iter().filter(|&&f| f < 10).count() >= 9, "{found:?}");
    }

    #[test]
    fn cardinality_estimate_in_band() {
        let (um, truth) = build(3000, 3);
        let est = um.cardinality();
        let re = (est - truth.len() as f64).abs() / truth.len() as f64;
        assert!(re < 0.35, "cardinality {est} vs {} (re {re:.2})", truth.len());
    }

    #[test]
    fn entropy_estimate_in_band() {
        let (um, truth) = build(3000, 4);
        let n: u64 = truth.values().sum();
        let true_h: f64 = {
            let nf = n as f64;
            truth
                .values()
                .map(|&w| {
                    let p = w as f64 / nf;
                    -p * p.log2()
                })
                .sum()
        };
        let est = um.entropy();
        let re = (est - true_h).abs() / true_h;
        assert!(re < 0.25, "entropy {est:.3} vs {true_h:.3}");
    }

    #[test]
    fn estimates_are_a_function_of_the_stream() {
        // Full heaps evict among tied counts, and the G-sum adds floats in
        // heap order: neither may depend on anything but the stream.
        for seed in [6, 7, 8] {
            let (a, _) = build(3000, seed);
            let (b, _) = build(3000, seed);
            assert_eq!(a.cardinality().to_bits(), b.cardinality().to_bits(), "seed {seed}");
            assert_eq!(a.entropy().to_bits(), b.entropy().to_bits(), "seed {seed}");
            let heap = |u: &UnivMon<u32>| -> BTreeSet<(u32, u64)> {
                u.heavy_candidates(1).into_iter().collect()
            };
            assert_eq!(heap(&a), heap(&b), "seed {seed}");
        }
    }

    #[test]
    fn total_packets_counted() {
        let (um, truth) = build(500, 5);
        assert_eq!(um.total_packets(), truth.values().sum::<u64>());
    }
}
