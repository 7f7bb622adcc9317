//! Count sketch (Charikar et al., 2002) and **CountHeap** — Count sketch
//! paired with a top-k heap for heavy-hitter reporting, as configured in
//! Appendix C (3 hash functions, 32-bit counters, heap capacity 4096).

use crate::AccumulationSketch;
use chm_common::hash::HashFamily;
use chm_common::FlowId;
use std::collections::HashMap;

/// Number of counter arrays.
const ARRAYS: usize = 3;
/// Bytes per counter (32-bit signed).
const COUNTER_BYTES: usize = 4;

/// The Count sketch: signed updates, median query (unbiased estimator).
#[derive(Debug, Clone)]
pub struct CountSketch {
    width: usize,
    counters: Vec<i64>,
    index_hashes: HashFamily,
    sign_hashes: HashFamily,
}

impl CountSketch {
    /// Creates a Count sketch with roughly `memory_bytes` of counters.
    pub fn new(memory_bytes: usize, seed: u64) -> Self {
        let width = (memory_bytes / (ARRAYS * COUNTER_BYTES)).max(1);
        CountSketch {
            width,
            counters: vec![0; ARRAYS * width],
            index_hashes: HashFamily::new(seed, ARRAYS),
            sign_hashes: HashFamily::new(seed ^ 0x5161_0000, ARRAYS),
        }
    }

    /// Adds one packet of the flow with mixed key `key`.
    pub fn add(&mut self, key: u64) {
        for i in 0..ARRAYS {
            let j = self.index_hashes.index(i, key, self.width);
            let sign = if self.sign_hashes.get(i).raw(key) & 1 == 1 { 1 } else { -1 };
            self.counters[i * self.width + j] += sign;
        }
    }

    /// Median-of-signed-counters estimate (can be negative; clamp at 0 for
    /// size queries).
    pub fn query(&self, key: u64) -> i64 {
        let mut vals = [0i64; ARRAYS];
        for (i, v) in vals.iter_mut().enumerate() {
            let j = self.index_hashes.index(i, key, self.width);
            let sign = if self.sign_hashes.get(i).raw(key) & 1 == 1 { 1 } else { -1 };
            *v = sign * self.counters[i * self.width + j];
        }
        vals.sort_unstable();
        vals[ARRAYS / 2]
    }

    /// Memory in bytes.
    pub fn memory_bytes(&self) -> f64 {
        (ARRAYS * self.width * COUNTER_BYTES) as f64
    }
}

impl<F: FlowId> AccumulationSketch<F> for CountSketch {
    fn insert(&mut self, f: &F) {
        self.add(f.key64());
    }

    fn estimate(&self, f: &F) -> u64 {
        self.query(f.key64()).max(0) as u64
    }

    fn memory_bytes(&self) -> f64 {
        CountSketch::memory_bytes(self)
    }
}

/// CountHeap: Count sketch + a bounded min-heap of the current top flows.
#[derive(Debug, Clone)]
pub struct CountHeap<F: FlowId> {
    sketch: CountSketch,
    /// Heap capacity (Appendix C: 4096).
    capacity: usize,
    /// Tracked flows → last sketch estimate.
    heap: HashMap<F, i64>,
}

/// Per-entry heap bytes: 32-bit key + 32-bit counter.
const HEAP_ENTRY_BYTES: usize = 8;

impl<F: FlowId> CountHeap<F> {
    /// Creates a CountHeap; `memory_bytes` covers sketch + heap (heap uses
    /// `capacity · 8` bytes of the budget).
    pub fn new(memory_bytes: usize, capacity: usize, seed: u64) -> Self {
        let heap_bytes = capacity * HEAP_ENTRY_BYTES;
        let sketch_bytes = memory_bytes.saturating_sub(heap_bytes).max(ARRAYS * COUNTER_BYTES);
        CountHeap {
            sketch: CountSketch::new(sketch_bytes, seed),
            capacity,
            heap: HashMap::with_capacity(capacity),
        }
    }

    fn maybe_track(&mut self, f: &F, est: i64) {
        if est <= 0 {
            return;
        }
        if self.heap.contains_key(f) {
            self.heap.insert(*f, est);
            return;
        }
        if self.heap.len() < self.capacity {
            self.heap.insert(*f, est);
            return;
        }
        // Replace the smallest tracked `(count, flow)` if we now exceed it;
        // ties go to the smaller flow, never to the map's iteration order.
        if let Some((&min_f, &min_v)) = self.heap.iter().min_by_key(|&(&f, &v)| (v, f)) {
            if est > min_v {
                self.heap.remove(&min_f);
                self.heap.insert(*f, est);
            }
        }
    }
}

impl<F: FlowId> AccumulationSketch<F> for CountHeap<F> {
    fn insert(&mut self, f: &F) {
        self.sketch.add(f.key64());
        let est = self.sketch.query(f.key64());
        self.maybe_track(f, est);
    }

    fn estimate(&self, f: &F) -> u64 {
        self.heap
            .get(f)
            .copied()
            .unwrap_or_else(|| self.sketch.query(f.key64()))
            .max(0) as u64
    }

    fn memory_bytes(&self) -> f64 {
        self.sketch.memory_bytes() + (self.capacity * HEAP_ENTRY_BYTES) as f64
    }

    fn heavy_candidates(&self, threshold: u64) -> Vec<(F, u64)> {
        self.heap
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
    use rand::{Rng, SeedableRng};

    #[test]
    fn count_sketch_is_roughly_unbiased() {
        let mut cs = CountSketch::new(8192, 1);
        let mut rng = StdRng::seed_from_u64(1);
        let mut truth = std::collections::HashMap::new();
        for _ in 0..30_000 {
            let f: u64 = rng.gen_range(0..3000);
            cs.add(f);
            *truth.entry(f).or_insert(0i64) += 1;
        }
        // Signed errors should roughly cancel across flows.
        let mut total_err = 0i64;
        for (&f, &v) in &truth {
            total_err += cs.query(f) - v;
        }
        let mean_err = total_err as f64 / truth.len() as f64;
        assert!(mean_err.abs() < 2.0, "mean signed error {mean_err}");
    }

    #[test]
    fn exact_without_collisions() {
        let mut cs = CountSketch::new(1 << 18, 2);
        for _ in 0..25 {
            cs.add(9);
        }
        assert_eq!(cs.query(9), 25);
    }

    #[test]
    fn heap_tracks_heavy_flows() {
        let mut ch = CountHeap::<u32>::new(64 * 1024, 64, 3);
        let mut rng = StdRng::seed_from_u64(4);
        // 20 heavy flows of 500 packets among 2000 mice of 1-5 packets.
        for f in 0..20u32 {
            for _ in 0..500 {
                ch.insert(&f);
            }
        }
        for f in 1000..3000u32 {
            for _ in 0..rng.gen_range(1..=5) {
                ch.insert(&f);
            }
        }
        let hh = ch.heavy_candidates(250);
        let found: std::collections::HashSet<u32> = hh.iter().map(|&(f, _)| f).collect();
        for f in 0..20u32 {
            assert!(found.contains(&f), "missing heavy flow {f}");
        }
        for &(f, _) in &hh {
            assert!(f < 20, "false positive {f}");
        }
    }

    #[test]
    fn heavy_candidates_are_a_function_of_the_stream() {
        // Mice of equal size tie in a full heap; which one is evicted must
        // not depend on the map's instance-random seed.
        let mut rng = StdRng::seed_from_u64(6);
        let stream: Vec<u32> = (0..20_000).map(|_| rng.gen_range(0..4_000u32)).collect();
        let feed = || {
            let mut ch = CountHeap::<u32>::new(16 * 1024, 64, 7);
            for f in &stream {
                ch.insert(f);
            }
            let heap: std::collections::BTreeSet<(u32, u64)> =
                ch.heavy_candidates(1).into_iter().collect();
            heap
        };
        assert_eq!(feed(), feed());
    }

    #[test]
    fn heap_respects_capacity() {
        let mut ch = CountHeap::<u32>::new(32 * 1024, 8, 5);
        for f in 0..100u32 {
            for _ in 0..(f + 1) {
                ch.insert(&f);
            }
        }
        assert!(ch.heap.len() <= 8);
        // The largest flows should have won the heap slots.
        let tracked: Vec<u32> = ch.heap.keys().copied().collect();
        let min_tracked = tracked.iter().min().copied().unwrap();
        assert!(min_tracked >= 80, "small flow {min_tracked} occupies heap");
    }
}
