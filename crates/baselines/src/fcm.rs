//! FCM-sketch (Song et al., CoNEXT 2020), top-k version as configured in
//! Appendix C: an ElasticSketch-style heavy part in front of a 16-ary FCM
//! light part of depth 2 (two independent trees). Each tree stacks counter
//! levels of increasing width (8 → 16 → 32 bits); when a level saturates,
//! the overflow continues in the 16×-smaller next level.

use crate::AccumulationSketch;
use chm_common::hash::HashFamily;
use chm_common::FlowId;

/// Tree fan-in between levels (16-ary, per the FCM paper and §C).
const K_ARY: usize = 16;
/// Number of independent trees ("depth is set to 2").
const DEPTH: usize = 2;
/// Heavy-part stages (same shape as ElasticSketch's heavy part).
const HEAVY_STAGES: usize = 4;
/// Heavy bucket bytes: key + vote+ + vote− + flag.
const HEAVY_BUCKET_BYTES: usize = 13;
/// Counter level widths in bits, bottom-up.
const LEVEL_BITS: [u32; 3] = [8, 16, 32];

#[derive(Debug, Clone, Copy)]
struct HeavyBucket<F> {
    key: Option<F>,
    pos_vote: u32,
    neg_vote: u32,
}

impl<F> Default for HeavyBucket<F> {
    fn default() -> Self {
        HeavyBucket { key: None, pos_vote: 0, neg_vote: 0 }
    }
}

/// One 16-ary counter tree.
#[derive(Debug, Clone)]
struct Tree {
    /// levels[l][j]: value of counter j at level l.
    levels: Vec<Vec<u64>>,
}

impl Tree {
    fn new(base_width: usize) -> Self {
        let mut levels = Vec::new();
        let mut w = base_width.max(K_ARY);
        for _ in LEVEL_BITS {
            levels.push(vec![0u64; w.max(1)]);
            w /= K_ARY;
        }
        Tree { levels }
    }

    fn saturation(l: usize) -> u64 {
        (1u64 << LEVEL_BITS[l]) - 1
    }

    fn insert(&mut self, j0: usize) {
        let mut j = j0;
        for l in 0..self.levels.len() {
            let sat = Self::saturation(l);
            let c = &mut self.levels[l][j];
            if *c < sat {
                *c += 1;
                return;
            }
            // Saturated: carry into the parent counter.
            j /= K_ARY;
            if l + 1 >= self.levels.len() {
                return; // top level saturated; stuck at max
            }
        }
    }

    fn query(&self, j0: usize) -> u64 {
        let mut total = 0u64;
        let mut j = j0;
        for l in 0..self.levels.len() {
            let sat = Self::saturation(l);
            let c = self.levels[l][j];
            if c < sat {
                return total + c;
            }
            total += sat;
            j /= K_ARY;
        }
        total
    }

    fn memory_bytes(&self) -> f64 {
        self.levels
            .iter()
            .zip(LEVEL_BITS)
            .map(|(lv, bits)| lv.len() as f64 * bits as f64 / 8.0)
            .sum()
    }
}

/// The FCM-sketch (heavy part + 2 counter trees).
#[derive(Debug, Clone)]
pub struct FcmSketch<F: FlowId> {
    heavy_width: usize,
    heavy: Vec<HeavyBucket<F>>,
    heavy_hashes: HashFamily,
    trees: Vec<Tree>,
    tree_hashes: HashFamily,
}

/// Eviction threshold, as in ElasticSketch.
const LAMBDA: u32 = 8;

impl<F: FlowId> FcmSketch<F> {
    /// Creates an FCM-sketch using roughly `memory_bytes` (¼ heavy, ¾ light,
    /// the same split as our ElasticSketch for comparability).
    pub fn new(memory_bytes: usize, seed: u64) -> Self {
        let heavy_bytes = memory_bytes / 4;
        let heavy_width = (heavy_bytes / (HEAVY_STAGES * HEAVY_BUCKET_BYTES)).max(1);
        let light_bytes = memory_bytes - heavy_bytes;
        // Per tree: base level dominates (8-bit counters + 16-bit/16 +
        // 32-bit/256 ≈ 1.141 bytes per base slot).
        let per_slot = 1.0 + 2.0 / K_ARY as f64 + 4.0 / (K_ARY * K_ARY) as f64;
        let base_width =
            ((light_bytes as f64 / DEPTH as f64 / per_slot) as usize).max(K_ARY);
        FcmSketch {
            heavy_width,
            heavy: vec![HeavyBucket::default(); HEAVY_STAGES * heavy_width],
            heavy_hashes: HashFamily::new(seed, HEAVY_STAGES),
            trees: (0..DEPTH).map(|_| Tree::new(base_width)).collect(),
            tree_hashes: HashFamily::new(seed ^ 0xfc00_0000, DEPTH),
        }
    }

    fn light_insert(&mut self, key: u64, times: u64) {
        for t in 0..DEPTH {
            let j = self.tree_hashes.index(t, key, self.trees[t].levels[0].len());
            for _ in 0..times {
                self.trees[t].insert(j);
            }
        }
    }

    fn light_query(&self, key: u64) -> u64 {
        (0..DEPTH)
            .map(|t| {
                let j = self.tree_hashes.index(t, key, self.trees[t].levels[0].len());
                self.trees[t].query(j)
            })
            .min()
            .unwrap_or(0)
    }

    /// Raw base-level counters of tree `t` — used for MRAC-based
    /// distribution/entropy estimation and linear counting.
    pub fn base_level(&self, t: usize) -> &[u64] {
        &self.trees[t].levels[0]
    }

    /// Tracked heavy flows.
    pub fn heavy_entries(&self) -> impl Iterator<Item = (F, u64)> + '_ {
        self.heavy
            .iter()
            .filter_map(|b| b.key.map(|k| (k, b.pos_vote as u64)))
    }
}

impl<F: FlowId> AccumulationSketch<F> for FcmSketch<F> {
    fn insert(&mut self, f: &F) {
        let key = f.key64();
        for i in 0..HEAVY_STAGES {
            let j = self.heavy_hashes.index(i, key, self.heavy_width);
            let idx = i * self.heavy_width + j;
            let b = &mut self.heavy[idx];
            match b.key {
                None => {
                    *b = HeavyBucket { key: Some(*f), pos_vote: 1, neg_vote: 0 };
                    return;
                }
                Some(k) if k == *f => {
                    b.pos_vote += 1;
                    return;
                }
                Some(k) => {
                    b.neg_vote += 1;
                    if b.neg_vote >= LAMBDA * b.pos_vote {
                        let evicted = (k.key64(), b.pos_vote as u64);
                        *b = HeavyBucket { key: Some(*f), pos_vote: 1, neg_vote: 0 };
                        self.light_insert(evicted.0, evicted.1);
                        return;
                    }
                }
            }
        }
        self.light_insert(key, 1);
    }

    fn estimate(&self, f: &F) -> u64 {
        let key = f.key64();
        for i in 0..HEAVY_STAGES {
            let j = self.heavy_hashes.index(i, key, self.heavy_width);
            let b = &self.heavy[i * self.heavy_width + j];
            if b.key == Some(*f) {
                return b.pos_vote as u64 + self.light_query(key);
            }
        }
        self.light_query(key)
    }

    fn memory_bytes(&self) -> f64 {
        (HEAVY_STAGES * self.heavy_width * HEAVY_BUCKET_BYTES) as f64
            + self.trees.iter().map(Tree::memory_bytes).sum::<f64>()
    }

    fn heavy_candidates(&self, threshold: u64) -> Vec<(F, u64)> {
        crate::largest_first(
            self.heavy_entries()
                .map(|(f, _)| (f, self.estimate(&f)))
                .filter(|&(_, est)| est >= threshold)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    #[test]
    fn tree_overflow_carries_to_parent() {
        let mut t = Tree::new(64);
        for _ in 0..500 {
            t.insert(17);
        }
        assert_eq!(t.query(17), 500);
        // The overflow beyond the 8-bit saturation lives in the parent.
        assert_eq!(t.levels[0][17], 255);
        assert_eq!(t.levels[1][1], 245); // 17/16 == 1
        // A sibling whose own base counter is not saturated reads only its
        // own value — the shared parent is invisible to it.
        assert_eq!(t.query(16), 0);
    }

    #[test]
    fn lone_flow_exact() {
        let mut s = FcmSketch::<u32>::new(32 * 1024, 1);
        for _ in 0..40 {
            s.insert(&9);
        }
        assert_eq!(s.estimate(&9), 40);
    }

    #[test]
    fn estimates_track_truth_with_noise() {
        let mut s = FcmSketch::<u32>::new(128 * 1024, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let mut stream = Vec::new();
        let mut truth = std::collections::HashMap::new();
        for f in 0..2000u32 {
            let n = rng.gen_range(1..30);
            truth.insert(f, n as u64);
            for _ in 0..n {
                stream.push(f);
            }
        }
        stream.shuffle(&mut rng);
        for f in &stream {
            s.insert(f);
        }
        let mut are = 0.0;
        for (&f, &v) in &truth {
            are += (s.estimate(&f) as f64 - v as f64).abs() / v as f64;
        }
        are /= truth.len() as f64;
        assert!(are < 0.5, "ARE {are}");
    }

    #[test]
    fn heavy_hitter_recall() {
        let mut s = FcmSketch::<u32>::new(64 * 1024, 3);
        let mut rng = StdRng::seed_from_u64(3);
        let mut stream = Vec::new();
        for f in 0..12u32 {
            for _ in 0..1500 {
                stream.push(f);
            }
        }
        for f in 100..5000u32 {
            stream.push(f);
        }
        stream.shuffle(&mut rng);
        for f in &stream {
            s.insert(f);
        }
        let hh = s.heavy_candidates(750);
        let found: std::collections::HashSet<u32> = hh.iter().map(|&(f, _)| f).collect();
        assert!(found.iter().filter(|&&f| f < 12).count() >= 10);
    }

    #[test]
    fn memory_accounting_close() {
        let s = FcmSketch::<u32>::new(200_000, 4);
        let m = AccumulationSketch::<u32>::memory_bytes(&s);
        assert!((m - 200_000.0).abs() / 200_000.0 < 0.1, "memory {m}");
    }
}
