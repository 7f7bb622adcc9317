//! CocoSketch (Zhang et al., SIGCOMM 2021), hardware version with one hash
//! function (Appendix C). Each bucket keeps a `(key, count)` pair; every
//! packet increments its bucket's count and then replaces the key with
//! probability `1/count` — the *stochastic variance minimization* that makes
//! the per-key estimate unbiased.

use crate::AccumulationSketch;
use chm_common::hash::{HashFamily, PairwiseHash};
use chm_common::FlowId;

/// Bucket bytes: 32-bit key + 32-bit count.
const BUCKET_BYTES: usize = 8;

#[derive(Debug, Clone, Copy)]
struct Bucket<F> {
    key: Option<F>,
    count: u64,
}

impl<F> Default for Bucket<F> {
    fn default() -> Self {
        Bucket { key: None, count: 0 }
    }
}

/// The CocoSketch data structure (single-hash hardware version).
#[derive(Debug, Clone)]
pub struct CocoSketch<F: FlowId> {
    buckets: Vec<Bucket<F>>,
    hash: HashFamily,
    /// Deterministic replacement randomness (hardware uses a LFSR; we use a
    /// counter-seeded pairwise hash so runs reproduce exactly).
    replace_hash: PairwiseHash,
    ticks: u64,
}

impl<F: FlowId> CocoSketch<F> {
    /// Creates a CocoSketch with roughly `memory_bytes`.
    pub fn new(memory_bytes: usize, seed: u64) -> Self {
        let n = (memory_bytes / BUCKET_BYTES).max(1);
        CocoSketch {
            buckets: vec![Bucket::default(); n],
            hash: HashFamily::new(seed, 1),
            replace_hash: PairwiseHash::from_seed(seed ^ 0xc0c0_0000),
            ticks: 0,
        }
    }

    /// All tracked `(flow, count)` pairs.
    pub fn entries(&self) -> impl Iterator<Item = (F, u64)> + '_ {
        self.buckets.iter().filter_map(|b| b.key.map(|k| (k, b.count)))
    }
}

impl<F: FlowId> AccumulationSketch<F> for CocoSketch<F> {
    fn insert(&mut self, f: &F) {
        self.ticks += 1;
        let j = self.hash.index(0, f.key64(), self.buckets.len());
        let b = &mut self.buckets[j];
        b.count += 1;
        match b.key {
            Some(k) if k == *f => {}
            None => b.key = Some(*f),
            Some(_) => {
                // Replace with probability 1/count.
                let r = self.replace_hash.raw(self.ticks) % b.count;
                if r == 0 {
                    b.key = Some(*f);
                }
            }
        }
    }

    fn estimate(&self, f: &F) -> u64 {
        let j = self.hash.index(0, f.key64(), self.buckets.len());
        let b = &self.buckets[j];
        if b.key == Some(*f) {
            b.count
        } else {
            0
        }
    }

    fn memory_bytes(&self) -> f64 {
        (self.buckets.len() * BUCKET_BYTES) as f64
    }

    fn heavy_candidates(&self, threshold: u64) -> Vec<(F, u64)> {
        crate::largest_first(self.entries().filter(|&(_, c)| c >= threshold).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    #[test]
    fn lone_flow_exact() {
        let mut c = CocoSketch::<u32>::new(8 * 1024, 1);
        for _ in 0..33 {
            c.insert(&5);
        }
        assert_eq!(c.estimate(&5), 33);
    }

    #[test]
    fn heavy_flows_own_their_buckets() {
        let mut c = CocoSketch::<u32>::new(64 * 1024, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let mut stream = Vec::new();
        for f in 0..10u32 {
            for _ in 0..2000 {
                stream.push(f);
            }
        }
        for f in 100..4000u32 {
            for _ in 0..rng.gen_range(1..3) {
                stream.push(f);
            }
        }
        stream.shuffle(&mut rng);
        for f in &stream {
            c.insert(f);
        }
        let hh = c.heavy_candidates(1000);
        let found: std::collections::HashSet<u32> = hh.iter().map(|&(f, _)| f).collect();
        assert!(
            found.iter().filter(|&&f| f < 10).count() >= 8,
            "heavy flows lost their buckets: {found:?}"
        );
    }

    #[test]
    fn bucket_count_is_total_packets_in_bucket() {
        // The count field accumulates all packets in the bucket regardless
        // of key churn — the estimator's bias comes from key ownership.
        let mut c = CocoSketch::<u32>::new(8, 3); // single bucket
        for _ in 0..10 {
            c.insert(&1);
        }
        for _ in 0..5 {
            c.insert(&2);
        }
        let total: u64 = c.entries().map(|(_, n)| n).sum();
        assert_eq!(total, 15);
    }

    #[test]
    fn memory_accounting() {
        let c = CocoSketch::<u32>::new(4096, 0);
        assert_eq!(AccumulationSketch::<u32>::memory_bytes(&c), 4096.0);
    }
}
