//! Property-based tests of TowerSketch and the estimation algorithms.

use chm_common::hash::{BatchHasher, FastRange, HashFamily};
use chm_tower::{mrac_em, MracConfig, TowerConfig, TowerLevel, TowerSketch};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

/// The sketch with every counter stored as a `u32` whatever its level's
/// width, with the same hashing and the same arithmetic: the oracle that
/// `TowerSketch`'s counters, held at each level's own width, must match.
struct U32Tower {
    levels: Vec<TowerLevel>,
    hashes: HashFamily,
    reducers: Vec<FastRange>,
    counters: Vec<Vec<u32>>,
}

impl U32Tower {
    fn new(cfg: &TowerConfig) -> Self {
        U32Tower {
            levels: cfg.levels.clone(),
            hashes: HashFamily::new(cfg.seed, cfg.levels.len()),
            reducers: cfg.levels.iter().map(|l| FastRange::new(l.width)).collect(),
            counters: cfg.levels.iter().map(|l| vec![0u32; l.width]).collect(),
        }
    }

    fn insert_and_query(&mut self, key: u64) -> u64 {
        let bh = BatchHasher::new(key);
        let mut min = u64::MAX;
        for (i, level) in self.levels.iter().enumerate() {
            let j = bh.index(self.hashes.get(i), self.reducers[i]);
            let sat = level.saturation() as u32;
            let c = &mut self.counters[i][j];
            if *c < sat {
                *c += 1;
            }
            let v = if *c >= sat { u64::MAX } else { *c as u64 };
            min = min.min(v);
        }
        min
    }

    fn insert_burst(&mut self, key: u64, n: u64, tl: u64, th: u64) -> (u64, u64, u64) {
        if n == 0 {
            return (0, 0, 0);
        }
        let bh = BatchHasher::new(key);
        let mut k_tl = 0u64;
        let mut k_th = 0u64;
        for (i, level) in self.levels.iter().enumerate() {
            let j = bh.index(self.hashes.get(i), self.reducers[i]);
            let sat = level.saturation();
            let c = &mut self.counters[i][j];
            let before = *c as u64;
            k_tl = k_tl.max(sat.min(tl).saturating_sub(before));
            k_th = k_th.max(sat.min(th).saturating_sub(before));
            *c = (before + n).min(sat) as u32;
        }
        let below_tl = n.min(k_tl.saturating_sub(1));
        let below_th = n.min(k_th.saturating_sub(1));
        (below_tl, below_th - below_tl, n - below_th)
    }

    fn query(&self, key: u64) -> u64 {
        let bh = BatchHasher::new(key);
        let mut min = u64::MAX;
        for (i, level) in self.levels.iter().enumerate() {
            let j = bh.index(self.hashes.get(i), self.reducers[i]);
            let c = self.counters[i][j] as u64;
            let v = if c >= level.saturation() { u64::MAX } else { c };
            min = min.min(v);
        }
        min
    }

    fn cardinality_estimate(&self) -> f64 {
        let (i, level) =
            self.levels.iter().enumerate().max_by_key(|(_, l)| l.width).expect("one level");
        let zero = self.counters[i].iter().filter(|&&c| c == 0).count();
        if zero == 0 {
            let w = level.width as f64;
            return w * (2.0 * w).ln();
        }
        -(level.width as f64) * (zero as f64 / level.width as f64).ln()
    }

    fn level_histogram(&self, i: usize) -> Vec<f64> {
        let sat = self.levels[i].saturation() as usize;
        let mut hist = vec![0.0; sat + 1];
        for &c in &self.counters[i] {
            hist[(c as usize).min(sat)] += 1.0;
        }
        hist
    }
}

/// Level widths of the packed-storage cases: the paper's `(8, 16)`, levels
/// that fill no whole byte, three levels with one stored wider than its
/// width, and a 32-bit top level.
const PACKED_WIDTHS: [&[u32]; 4] = [&[8, 16], &[4, 12], &[8, 16, 24], &[16, 32]];

/// Few counters per level, halving upward, so flows collide.
fn packed_config(geometry: usize, seed: u64) -> TowerConfig {
    let widths = PACKED_WIDTHS[geometry];
    let levels = (0..widths.len())
        .map(|i| TowerLevel { width: 64 >> i, bits: widths[i] })
        .collect();
    TowerConfig { levels, seed }
}

fn small_tower(seed: u64) -> TowerSketch {
    TowerSketch::new(TowerConfig {
        levels: vec![
            TowerLevel { width: 256, bits: 8 },
            TowerLevel { width: 128, bits: 16 },
        ],
        seed,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The classifier estimate is monotone in insertions and never
    /// underestimates (below saturation).
    #[test]
    fn monotone_overestimate(stream in vec(0u64..100, 1..800), seed in any::<u64>()) {
        let mut t = small_tower(seed);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut last: HashMap<u64, u64> = HashMap::new();
        for &k in &stream {
            let q = t.insert_and_query(k);
            *truth.entry(k).or_insert(0) += 1;
            if let Some(&prev) = last.get(&k) {
                prop_assert!(q >= prev, "estimate shrank");
            }
            last.insert(k, q);
        }
        for (&k, &v) in &truth {
            prop_assert!(t.query(k) >= v);
        }
    }

    /// Clearing restores the all-zero state exactly.
    #[test]
    fn clear_is_complete(stream in vec(any::<u64>(), 0..300), seed in any::<u64>()) {
        let mut t = small_tower(seed);
        for &k in &stream {
            t.insert_and_query(k);
        }
        t.clear();
        prop_assert!(t.level_counters(0).iter().all(|&c| c == 0));
        prop_assert!(t.level_counters(1).iter().all(|&c| c == 0));
        prop_assert_eq!(t.cardinality_estimate(), 0.0);
    }

    /// The level histogram always sums to the level width.
    #[test]
    fn histogram_mass(stream in vec(any::<u64>(), 0..500), seed in any::<u64>()) {
        let mut t = small_tower(seed);
        for &k in &stream {
            t.insert_and_query(k);
        }
        for lvl in 0..2 {
            let h = t.level_histogram(lvl);
            let total: f64 = h.iter().sum();
            prop_assert_eq!(total as usize, t.level_counters(lvl).len());
        }
    }

    /// MRAC output is non-negative and roughly conserves flow mass at
    /// moderate loads.
    #[test]
    fn mrac_nonnegative(flows in 1usize..400, seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let m = 1024usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut counters = vec![0usize; m];
        for _ in 0..flows {
            counters[rng.gen_range(0..m)] += 1;
        }
        let vmax = counters.iter().copied().max().unwrap();
        let mut hist = vec![0.0; vmax + 1];
        for &c in &counters {
            hist[c] += 1.0;
        }
        let est = mrac_em(&hist, m, &MracConfig::default());
        prop_assert!(est.iter().all(|&x| x >= 0.0));
        let total: f64 = est.iter().sum();
        let re = (total - flows as f64).abs() / flows as f64;
        prop_assert!(re < 0.25, "mass {total} vs {flows}");
    }

    /// Counters held at their level's width answer exactly as `u32`
    /// counters do: every insert's query or burst split, and afterwards
    /// every query, the cardinality estimate, the counters and the
    /// histograms of the levels of at most 16 bits (a wider level's dense
    /// histogram would be gigabytes). An op is `(kind, key, r)`: kinds 0–4
    /// insert 1–4 packets one at a time, 5–7 a burst of 1–300, 8 a burst
    /// past 16-bit saturation and 9 one past 32-bit saturation, each burst
    /// against thresholds drawn from `r`.
    #[test]
    fn packed_counters_match_u32_counters(
        geometry in 0usize..4,
        seed in any::<u64>(),
        ops in vec((0u8..10, 0u64..48, any::<u64>()), 0..300),
    ) {
        let cfg = packed_config(geometry, seed);
        let mut t = TowerSketch::new(cfg.clone());
        let mut oracle = U32Tower::new(&cfg);
        for &(kind, key, r) in &ops {
            if kind <= 4 {
                for _ in 0..r % 4 + 1 {
                    prop_assert_eq!(t.insert_and_query(key), oracle.insert_and_query(key));
                }
                continue;
            }
            let n = match kind {
                5..=7 => r % 300 + 1,
                8 => 60_000 + r % 10_000,
                _ => (1u64 << 32) - 8 + r % 16,
            };
            let tl = (r >> 32) % 20 + 1;
            let th = tl + (r >> 40) % 400;
            prop_assert_eq!(t.insert_burst(key, n, tl, th), oracle.insert_burst(key, n, tl, th));
        }
        for key in 0..64 {
            prop_assert_eq!(t.query(key), oracle.query(key));
        }
        prop_assert_eq!(
            t.cardinality_estimate().to_bits(),
            oracle.cardinality_estimate().to_bits()
        );
        for (i, level) in cfg.levels.iter().enumerate() {
            prop_assert_eq!(&t.level_counters(i), &oracle.counters[i]);
            if level.bits <= 16 {
                prop_assert_eq!(t.level_histogram(i), oracle.level_histogram(i));
            }
        }
        if cfg.levels.iter().all(|l| [8, 16, 32].contains(&l.bits)) {
            prop_assert_eq!(t.counter_bytes(), cfg.memory_bytes());
        }
    }

    /// Cardinality estimation error stays bounded at sub-50% load.
    #[test]
    fn cardinality_bounded_error(flows in 1u64..120, seed in any::<u64>()) {
        let mut t = small_tower(seed);
        for k in 0..flows {
            t.insert_and_query(k);
        }
        let est = t.cardinality_estimate();
        // Linear counting at this load: generous 35% + small absolute slack.
        prop_assert!((est - flows as f64).abs() <= flows as f64 * 0.35 + 5.0,
            "est {est} vs {flows}");
    }
}

/// Byte-aligned widths are held at exactly the bytes the configuration
/// accounts for; the paper's testbed sketch holds 64 KiB.
#[test]
fn byte_aligned_levels_hold_memory_bytes() {
    let paper = TowerConfig::paper_default(1);
    assert_eq!(TowerSketch::new(paper.clone()).counter_bytes(), 65_536);
    assert_eq!(paper.memory_bytes(), 65_536);
    for geometry in [0, 3] {
        let cfg = packed_config(geometry, 2);
        assert_eq!(TowerSketch::new(cfg.clone()).counter_bytes(), cfg.memory_bytes());
    }
    // 4 and 12 bits are held in 1 and 2 bytes, 24 bits in 4.
    assert_eq!(TowerSketch::new(packed_config(1, 3)).counter_bytes(), 64 + 32 * 2);
    assert_eq!(TowerSketch::new(packed_config(2, 4)).counter_bytes(), 64 + 32 * 2 + 16 * 4);
}
