//! ElasticSketch, hardware version (Yang et al., SIGCOMM 2018): a multi-
//! stage *heavy part* that keeps elephant flows in exact `(key, vote+,
//! vote−)` buckets with vote-based eviction, backed by a one-layer 8-bit CM
//! *light part* for mice and evicted residue.
//!
//! Configuration per Appendix C: heavy part of 4 stages × 3072 buckets
//! (scaled to the memory budget, keeping the 4-stage shape), light part a
//! one-layer CM with 8-bit counters; eviction threshold λ = 8.

use crate::AccumulationSketch;
use chm_common::hash::HashFamily;
use chm_common::FlowId;

/// Vote-ratio eviction threshold λ from the ElasticSketch paper.
const LAMBDA: u32 = 8;
/// Heavy-part stages (Appendix C: 4 stages).
const STAGES: usize = 4;
/// Heavy bucket bytes: 32-bit key + 32-bit vote+ + 32-bit vote− + flag.
const BUCKET_BYTES: usize = 13;

#[derive(Debug, Clone, Copy)]
struct Bucket<F> {
    key: Option<F>,
    pos_vote: u32,
    neg_vote: u32,
    /// True when the owner flow may have residue in the light part.
    flag: bool,
}

impl<F> Default for Bucket<F> {
    fn default() -> Self {
        Bucket { key: None, pos_vote: 0, neg_vote: 0, flag: false }
    }
}

/// The ElasticSketch data structure.
#[derive(Debug, Clone)]
pub struct ElasticSketch<F: FlowId> {
    buckets_per_stage: usize,
    heavy: Vec<Bucket<F>>, // STAGES × buckets_per_stage
    heavy_hashes: HashFamily,
    light: Vec<u8>,
    light_hash: HashFamily,
}

impl<F: FlowId> ElasticSketch<F> {
    /// Creates an ElasticSketch splitting `memory_bytes` between the heavy
    /// part (≈ 25%, the ratio implied by §C's 4×3072×13B heavy vs 8-bit CM
    /// light at 600 KB) and the light part.
    pub fn new(memory_bytes: usize, seed: u64) -> Self {
        let heavy_bytes = memory_bytes / 4;
        let buckets_per_stage = (heavy_bytes / (STAGES * BUCKET_BYTES)).max(1);
        let light_counters = (memory_bytes - heavy_bytes).max(1);
        ElasticSketch {
            buckets_per_stage,
            heavy: vec![Bucket::default(); STAGES * buckets_per_stage],
            heavy_hashes: HashFamily::new(seed, STAGES),
            light: vec![0; light_counters],
            light_hash: HashFamily::new(seed ^ 0x1191_7000, 1),
        }
    }

    fn light_insert(&mut self, key: u64, times: u32) {
        let j = self.light_hash.index(0, key, self.light.len());
        self.light[j] = self.light[j].saturating_add(times.min(255) as u8);
    }

    fn light_query(&self, key: u64) -> u64 {
        self.light[self.light_hash.index(0, key, self.light.len())] as u64
    }

    /// Raw light-part counters (8-bit CM layer) — used for MRAC-based
    /// distribution/entropy estimation and linear counting.
    pub fn light_counters(&self) -> &[u8] {
        &self.light
    }

    /// All heavy-part entries `(flow, heavy-count, flag)`.
    pub fn heavy_entries(&self) -> impl Iterator<Item = (F, u64, bool)> + '_ {
        self.heavy
            .iter()
            .filter_map(|b| b.key.map(|k| (k, b.pos_vote as u64, b.flag)))
    }
}

impl<F: FlowId> AccumulationSketch<F> for ElasticSketch<F> {
    fn insert(&mut self, f: &F) {
        let key = f.key64();
        // Try each heavy stage in order (the hardware pipeline).
        for i in 0..STAGES {
            let j = self.heavy_hashes.index(i, key, self.buckets_per_stage);
            let idx = i * self.buckets_per_stage + j;
            let b = &mut self.heavy[idx];
            match b.key {
                None => {
                    *b = Bucket { key: Some(*f), pos_vote: 1, neg_vote: 0, flag: false };
                    return;
                }
                Some(k) if k == *f => {
                    b.pos_vote += 1;
                    return;
                }
                Some(k) => {
                    b.neg_vote += 1;
                    if b.neg_vote >= LAMBDA * b.pos_vote {
                        // Evict the incumbent into the light part and claim
                        // the bucket for the newcomer.
                        let evicted_votes = b.pos_vote;
                        *b = Bucket { key: Some(*f), pos_vote: 1, neg_vote: 0, flag: true };
                        let ek = k.key64();
                        self.light_insert(ek, evicted_votes);
                        return;
                    }
                    // fall through to the next stage
                }
            }
        }
        // Rejected by every heavy stage: count in the light part.
        self.light_insert(key, 1);
    }

    fn estimate(&self, f: &F) -> u64 {
        let key = f.key64();
        for i in 0..STAGES {
            let j = self.heavy_hashes.index(i, key, self.buckets_per_stage);
            let b = &self.heavy[i * self.buckets_per_stage + j];
            if b.key == Some(*f) {
                let mut v = b.pos_vote as u64;
                if b.flag {
                    v += self.light_query(key);
                }
                return v;
            }
        }
        self.light_query(key)
    }

    fn memory_bytes(&self) -> f64 {
        (STAGES * self.buckets_per_stage * BUCKET_BYTES + self.light.len()) as f64
    }

    fn heavy_candidates(&self, threshold: u64) -> Vec<(F, u64)> {
        crate::largest_first(
            self.heavy_entries()
                .map(|(f, _, _)| {
                    let est = self.estimate(&f);
                    (f, est)
                })
                .filter(|&(_, est)| est >= threshold)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn single_flow_exact_in_heavy() {
        let mut e = ElasticSketch::<u32>::new(64 * 1024, 1);
        for _ in 0..100 {
            e.insert(&5);
        }
        assert_eq!(e.estimate(&5), 100);
    }

    #[test]
    fn heavy_hitters_survive_mice_pressure() {
        let mut e = ElasticSketch::<u32>::new(64 * 1024, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let mut stream = Vec::new();
        for f in 0..10u32 {
            for _ in 0..1000 {
                stream.push(f);
            }
        }
        for f in 100..5000u32 {
            for _ in 0..rng.gen_range(1..4) {
                stream.push(f);
            }
        }
        use rand::seq::SliceRandom;
        stream.shuffle(&mut rng);
        for f in &stream {
            e.insert(f);
        }
        for f in 0..10u32 {
            let est = e.estimate(&f);
            let re = (est as f64 - 1000.0).abs() / 1000.0;
            assert!(re < 0.2, "heavy flow {f} estimate {est}");
        }
        let hh = e.heavy_candidates(500);
        let found: std::collections::HashSet<u32> = hh.iter().map(|&(f, _)| f).collect();
        assert!(found.len() >= 9, "found {} of 10 HHs", found.len());
    }

    #[test]
    fn mice_fall_to_light_part() {
        let mut e = ElasticSketch::<u32>::new(8 * 1024, 3);
        // Fill heavy buckets with heavy flows first.
        for f in 0..2000u32 {
            for _ in 0..3 {
                e.insert(&f);
            }
        }
        // Every flow should still produce a non-zero (over-)estimate.
        for f in 0..2000u32 {
            assert!(e.estimate(&f) >= 1, "flow {f} lost");
        }
    }

    #[test]
    fn memory_accounting_close_to_budget() {
        let e = ElasticSketch::<u32>::new(100_000, 4);
        let m = AccumulationSketch::<u32>::memory_bytes(&e);
        assert!((m - 100_000.0).abs() / 100_000.0 < 0.05, "memory {m}");
    }
}
