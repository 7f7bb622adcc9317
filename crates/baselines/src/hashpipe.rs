//! HashPipe (Sivaraman et al., SOSR 2017): a pipeline of `(key, count)`
//! stages that keeps heavy hitters entirely in the data plane by always
//! inserting at the first stage and "kicking" the displaced minimum down
//! the pipeline.
//!
//! Configuration per Appendix C: 6 stages.

use crate::AccumulationSketch;
use chm_common::hash::HashFamily;
use chm_common::FlowId;

/// Number of pipeline stages (Appendix C).
const STAGES: usize = 6;
/// Slot bytes: 32-bit key + 32-bit count.
const SLOT_BYTES: usize = 8;

#[derive(Debug, Clone, Copy)]
struct Slot<F> {
    key: Option<F>,
    count: u64,
}

impl<F> Default for Slot<F> {
    fn default() -> Self {
        Slot { key: None, count: 0 }
    }
}

/// The HashPipe data structure.
#[derive(Debug, Clone)]
pub struct HashPipe<F: FlowId> {
    slots_per_stage: usize,
    slots: Vec<Slot<F>>, // STAGES × slots_per_stage
    hashes: HashFamily,
}

impl<F: FlowId> HashPipe<F> {
    /// Creates a HashPipe using roughly `memory_bytes`.
    pub fn new(memory_bytes: usize, seed: u64) -> Self {
        let slots_per_stage = (memory_bytes / (STAGES * SLOT_BYTES)).max(1);
        HashPipe {
            slots_per_stage,
            slots: vec![Slot::default(); STAGES * slots_per_stage],
            hashes: HashFamily::new(seed, STAGES),
        }
    }

    /// All tracked `(flow, count)` pairs, merging duplicate keys across
    /// stages (a flow can occupy several stages after evictions).
    pub fn entries(&self) -> std::collections::HashMap<F, u64> {
        let mut out = std::collections::HashMap::new();
        for s in &self.slots {
            if let Some(k) = s.key {
                *out.entry(k).or_insert(0) += s.count;
            }
        }
        out
    }
}

impl<F: FlowId> AccumulationSketch<F> for HashPipe<F> {
    fn insert(&mut self, f: &F) {
        // Stage 1: always insert; displace the incumbent.
        let j0 = self.hashes.index(0, f.key64(), self.slots_per_stage);
        let slot = &mut self.slots[j0];
        let mut carried: Slot<F> = match slot.key {
            Some(k) if k == *f => {
                slot.count += 1;
                return;
            }
            None => {
                *slot = Slot { key: Some(*f), count: 1 };
                return;
            }
            Some(_) => {
                let old = *slot;
                *slot = Slot { key: Some(*f), count: 1 };
                old
            }
        };
        // Stages 2..: merge, fill, or swap-with-smaller; drop at the end.
        for i in 1..STAGES {
            let Some(ck) = carried.key else { return };
            let j = self.hashes.index(i, ck.key64(), self.slots_per_stage);
            let slot = &mut self.slots[i * self.slots_per_stage + j];
            match slot.key {
                Some(k) if k == ck => {
                    slot.count += carried.count;
                    return;
                }
                None => {
                    *slot = carried;
                    return;
                }
                Some(_) if carried.count > slot.count => {
                    std::mem::swap(slot, &mut carried);
                }
                Some(_) => {}
            }
        }
        // Pipeline exhausted: the carried (smallest) flow's count is lost —
        // HashPipe's deliberate trade-off.
    }

    fn estimate(&self, f: &F) -> u64 {
        let mut total = 0;
        for i in 0..STAGES {
            let j = self.hashes.index(i, f.key64(), self.slots_per_stage);
            let s = &self.slots[i * self.slots_per_stage + j];
            if s.key == Some(*f) {
                total += s.count;
            }
        }
        total
    }

    fn memory_bytes(&self) -> f64 {
        (STAGES * self.slots_per_stage * SLOT_BYTES) as f64
    }

    fn heavy_candidates(&self, threshold: u64) -> Vec<(F, u64)> {
        crate::largest_first(
            self.entries()
                .into_iter()
                .filter(|&(_, c)| c >= threshold)
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
    fn lone_flow_is_exact() {
        let mut hp = HashPipe::<u32>::new(16 * 1024, 1);
        for _ in 0..50 {
            hp.insert(&7);
        }
        assert_eq!(hp.estimate(&7), 50);
    }

    #[test]
    fn finds_heavy_hitters_under_noise() {
        let mut hp = HashPipe::<u32>::new(32 * 1024, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut stream = Vec::new();
        for f in 0..15u32 {
            for _ in 0..800 {
                stream.push(f);
            }
        }
        for f in 1000..6000u32 {
            stream.push(f);
        }
        stream.shuffle(&mut rng);
        for f in &stream {
            hp.insert(f);
        }
        let hh = hp.heavy_candidates(400);
        let found: std::collections::HashSet<u32> = hh.iter().map(|&(f, _)| f).collect();
        assert!(found.iter().filter(|&&f| f < 15).count() >= 13, "recall too low: {found:?}");
    }

    #[test]
    fn never_overestimates_single_keys() {
        // HashPipe may undercount (dropped carries) but matching slots only
        // contain real packets of that flow.
        let mut hp = HashPipe::<u32>::new(4 * 1024, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let mut truth = std::collections::HashMap::new();
        for _ in 0..20_000 {
            let f: u32 = rng.gen_range(0..3000);
            hp.insert(&f);
            *truth.entry(f).or_insert(0u64) += 1;
        }
        for (f, v) in truth {
            assert!(hp.estimate(&f) <= v, "overestimate for {f}");
        }
    }

    #[test]
    fn memory_accounting() {
        let hp = HashPipe::<u32>::new(48_000, 0);
        let m = AccumulationSketch::<u32>::memory_bytes(&hp);
        assert!((m - 48_000.0).abs() <= SLOT_BYTES as f64 * STAGES as f64);
    }
}
