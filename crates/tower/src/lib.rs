//! **TowerSketch** — ChameleMon's flow classifier (§3.2.1) — plus the
//! estimation algorithms the control plane runs on top of it (§4.2):
//! linear counting for cardinality, the MRAC EM algorithm for flow-size
//! distribution, and entropy derived from the distribution.
//!
//! TowerSketch is a CM-style sketch whose `l` arrays trade counter width for
//! counter count under a fixed bit budget (`w_i · δ_i` constant, with
//! `δ_{i-1} < δ_i`): many narrow counters catch mouse flows cheaply while a
//! few wide counters track elephants. A counter at its maximum value is
//! *overflowed* and treated as `+∞`; queries return the minimum over the
//! mapped counters.
//!
//! A sketch holds what it counts: each level's counters are stored in the
//! narrowest of `u8`, `u16` and `u32` that holds its saturation value, so the
//! paper's 8-bit/16-bit testbed sketch holds the 64 KiB that
//! [`TowerConfig::memory_bytes`] reports.

pub mod mrac;

pub use mrac::{mrac_em, MracConfig, MracScratch};

use chm_common::hash::{BatchHasher, FastRange, HashFamily, PairwiseHash};

/// Configuration of one counter level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TowerLevel {
    /// Number of counters `w_i`.
    pub width: usize,
    /// Counter width `δ_i` in bits (1..=32).
    pub bits: u32,
}

impl TowerLevel {
    /// Saturation value `2^δ − 1`, representing `+∞` (§3.2.1).
    pub fn saturation(&self) -> u64 {
        (1u64 << self.bits) - 1
    }
}

/// Configuration of a [`TowerSketch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TowerConfig {
    /// Levels ordered by increasing counter width (`δ_{i-1} < δ_i`).
    pub levels: Vec<TowerLevel>,
    /// Master hash seed.
    pub seed: u64,
}

impl TowerConfig {
    /// The testbed configuration (§5.2): one 8-bit array of 32768 counters
    /// and one 16-bit array of 16384 counters.
    pub fn paper_default(seed: u64) -> Self {
        TowerConfig {
            levels: vec![
                TowerLevel { width: 32_768, bits: 8 },
                TowerLevel { width: 16_384, bits: 16 },
            ],
            seed,
        }
    }

    /// A two-level configuration scaled to a memory budget in bytes, keeping
    /// the paper's 8-bit/16-bit shape with the byte budget split evenly
    /// between levels (so `w_1 = 2·w_2`, matching `w·δ` constant).
    pub fn sized(total_bytes: usize, seed: u64) -> Self {
        let half = total_bytes / 2;
        TowerConfig {
            levels: vec![
                TowerLevel { width: half.max(2), bits: 8 },
                TowerLevel { width: (half / 2).max(1), bits: 16 },
            ],
            seed,
        }
    }

    /// Total memory in bytes (`Σ w_i · δ_i / 8`) — what a [`TowerSketch`]
    /// of this configuration holds in counters
    /// ([`TowerSketch::counter_bytes`]) when every width is 8, 16 or 32 bits;
    /// a level of any other width is stored in the next of those.
    pub fn memory_bytes(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.width * l.bits as usize / 8)
            .sum()
    }
}

/// A counter cell: `u8`, `u16` or `u32`, whichever is the narrowest that
/// holds its level's saturation value.
pub(crate) trait Counter: Copy {
    /// The counter's value.
    fn get(self) -> u64;
    /// A counter holding `v`, which is at most the level's saturation value
    /// and so fits the cell.
    fn of(v: u64) -> Self;
}

macro_rules! impl_counter {
    ($($t:ty),*) => {$(
        impl Counter for $t {
            #[inline]
            fn get(self) -> u64 {
                u64::from(self)
            }
            #[inline]
            fn of(v: u64) -> Self {
                debug_assert!(v <= u64::from(<$t>::MAX));
                v as $t
            }
        }
    )*};
}
impl_counter!(u8, u16, u32);

/// One level's counters at the level's width: `u8` when `bits ≤ 8`, `u16`
/// when `bits ≤ 16`, `u32` otherwise.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Counters {
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
}

impl Counters {
    fn zeroed(level: &TowerLevel) -> Self {
        match level.bits {
            0..=8 => Counters::U8(vec![0; level.width]),
            9..=16 => Counters::U16(vec![0; level.width]),
            _ => Counters::U32(vec![0; level.width]),
        }
    }
}

/// Evaluates `$body` with `$c` bound to a level's counter vector, whatever
/// its cell type: one body, compiled once per width.
macro_rules! with_counters {
    ($counters:expr, $c:ident => $body:expr) => {
        match $counters {
            Counters::U8($c) => $body,
            Counters::U16($c) => $body,
            Counters::U32($c) => $body,
        }
    };
}

/// Adds `n` packets to a counter, saturating at `sat`, and returns the value
/// it held before — `n` saturating unit increments in one step.
#[inline]
fn add_saturating<C: Counter>(c: &mut C, n: u64, sat: u64) -> u64 {
    let before = c.get();
    *c = C::of((before + n).min(sat));
    before
}

/// Most levels a [`TowerSketch`] holds. Its level records are inline, as a
/// [`HashFamily`] holds its functions, so building or cloning a sketch
/// allocates its counter arrays and nothing else; [`TowerSketch::new`]
/// panics past it.
pub const MAX_LEVELS: usize = 4;

/// What a sketch keeps for one level: the level's geometry, its hash
/// function, its precomputed branch-free range reduction, and its counters
/// at the level's width.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LevelState {
    level: TowerLevel,
    hash: PairwiseHash,
    reducer: FastRange,
    counters: Counters,
}

impl LevelState {
    /// The record of a level slot past the sketch's last level: no counter,
    /// never read.
    fn unused() -> Self {
        LevelState {
            level: TowerLevel { width: 0, bits: 0 },
            hash: HashFamily::nth(0, 0),
            reducer: FastRange::new(0),
            counters: Counters::U8(Vec::new()),
        }
    }
}

/// The TowerSketch data structure. `PartialEq` compares full counter state.
///
/// The sketch holds its level geometry once, in its inline level records:
/// building or cloning one allocates one counter array per level and
/// nothing else.
#[derive(Clone, PartialEq, Eq)]
pub struct TowerSketch {
    seed: u64,
    /// Levels in use: `levels[..len]`, in the configuration's order. The
    /// records past them are [`LevelState::unused`].
    len: usize,
    levels: [LevelState; MAX_LEVELS],
}

impl std::fmt::Debug for TowerSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TowerSketch")
            .field("seed", &self.seed)
            .field("levels", &self.live())
            .finish()
    }
}

impl TowerSketch {
    /// Creates an empty sketch. Level `i` hashes with function `i` of the
    /// [`HashFamily`] derived from `cfg.seed`. Panics on an empty
    /// configuration, on one of more than [`MAX_LEVELS`] levels, and on
    /// levels whose counter widths do not strictly increase within 1..=32
    /// bits.
    pub fn new(cfg: &TowerConfig) -> Self {
        assert!(!cfg.levels.is_empty(), "TowerSketch needs at least one level");
        assert!(
            cfg.levels.len() <= MAX_LEVELS,
            "a TowerSketch holds at most {MAX_LEVELS} levels, not {}",
            cfg.levels.len()
        );
        for w in cfg.levels.windows(2) {
            assert!(
                w[0].bits < w[1].bits,
                "levels must have strictly increasing counter widths"
            );
        }
        assert!(
            cfg.levels.iter().all(|l| l.bits >= 1 && l.bits <= 32 && l.width > 0),
            "level widths must be in 1..=32 bits with non-zero counters"
        );
        let levels = std::array::from_fn(|i| match cfg.levels.get(i) {
            Some(&level) => LevelState {
                level,
                hash: HashFamily::nth(cfg.seed, i),
                reducer: FastRange::new(level.width),
                counters: Counters::zeroed(&level),
            },
            None => LevelState::unused(),
        });
        TowerSketch { seed: cfg.seed, len: cfg.levels.len(), levels }
    }

    /// A zero-memory sketch: no level and no counter, so it allocates
    /// nothing, and every query reads as saturated (`u64::MAX`) — every
    /// packet inserted into it classifies as an HH candidate. Its estimates
    /// ([`query_clamped`](Self::query_clamped),
    /// [`cardinality_estimate`](Self::cardinality_estimate), the level
    /// reads, the flow-size distribution) panic: there is no level to read.
    pub fn saturated() -> Self {
        TowerSketch { seed: 0, len: 0, levels: std::array::from_fn(|_| LevelState::unused()) }
    }

    /// The levels in use.
    fn live(&self) -> &[LevelState] {
        &self.levels[..self.len]
    }

    /// The sketch configuration, rebuilt from the level records (its level
    /// list is allocated; [`has_config`](Self::has_config) compares without
    /// allocating).
    pub fn config(&self) -> TowerConfig {
        TowerConfig { levels: self.live().iter().map(|s| s.level).collect(), seed: self.seed }
    }

    /// Whether this sketch was built from `cfg`: the same seed and the same
    /// levels in the same order.
    pub fn has_config(&self, cfg: &TowerConfig) -> bool {
        self.seed == cfg.seed && self.live().iter().map(|s| s.level).eq(cfg.levels.iter().copied())
    }

    /// The top level's saturation value: every size at or above it is the
    /// HH tail's to estimate.
    fn top_saturation(&self) -> u64 {
        self.live()
            .last()
            .expect("a zero-memory tower has no size to clamp to")
            .level
            .saturation()
    }

    /// Inserts one packet of the flow identified by `key` (a pre-mixed
    /// 64-bit key, see [`chm_common::FlowId::key64`]) and returns the
    /// *post-insertion* online query result — the data plane classifies the
    /// packet's flow with this value (§3.2.1 "Packet processing").
    ///
    /// Hot path: the key is mixed once ([`BatchHasher`]) and each level's
    /// counter index comes from its precomputed branch-free [`FastRange`]
    /// reduction. No allocation, no division.
    #[inline]
    // chm-lint: hot
    pub fn insert_and_query(&mut self, key: u64) -> u64 {
        let bh = BatchHasher::new(key);
        let mut min = u64::MAX;
        for state in &mut self.levels[..self.len] {
            let j = bh.index(&state.hash, state.reducer);
            let sat = state.level.saturation();
            // Saturating add: never wraps past 2^δ − 1.
            let cells = &mut state.counters;
            let before = with_counters!(cells, c => add_saturating(&mut c[j], 1, sat));
            let after = (before + 1).min(sat);
            let v = if after >= sat { u64::MAX } else { after };
            min = min.min(v);
        }
        min
    }

    /// Inserts a **burst** of `n` consecutive packets of the flow `key` and
    /// classifies every packet against the thresholds `(tl, th)` in closed
    /// form — the batched equivalent of calling
    /// [`insert_and_query`](Self::insert_and_query) `n` times and bucketing
    /// each post-insertion size as LL (`< tl`), HL (`< th`) or HH (`≥ th`).
    ///
    /// Returns `(n_ll, n_hl, n_hh)`, which partition the burst **in packet
    /// order**: the per-packet size sequence is non-decreasing (every mapped
    /// counter increments per packet and saturates upward), so the class
    /// sequence is always `LL* HL* HH*`.
    ///
    /// Why closed form works: packet `j` (1-based) of the burst sees size
    /// `min_i v_i(j)` with `v_i(j) = c_i + j` while `c_i + j <
    /// saturation_i`, else `+∞`. Hence `size_j < T` iff
    /// `j < max_i (min(sat_i, T) − c_i)`, giving the count below any
    /// threshold with one pass over the levels — no per-packet work at all.
    /// Resulting counter state is `min(c_i + n, sat_i)`, identical to `n`
    /// saturating unit increments.
    #[inline]
    // chm-lint: hot
    pub fn insert_burst(&mut self, key: u64, n: u64, tl: u64, th: u64) -> (u64, u64, u64) {
        debug_assert!(tl <= th);
        if n == 0 {
            return (0, 0, 0);
        }
        let bh = BatchHasher::new(key);
        // Packets with size strictly below T: j < max_i (min(sat_i, T) − c_i).
        let mut k_tl = 0u64;
        let mut k_th = 0u64;
        for state in &mut self.levels[..self.len] {
            let j = bh.index(&state.hash, state.reducer);
            let sat = state.level.saturation();
            let cells = &mut state.counters;
            let before = with_counters!(cells, c => add_saturating(&mut c[j], n, sat));
            k_tl = k_tl.max(sat.min(tl).saturating_sub(before));
            k_th = k_th.max(sat.min(th).saturating_sub(before));
        }
        let below_tl = n.min(k_tl.saturating_sub(1));
        let below_th = n.min(k_th.saturating_sub(1));
        (below_tl, below_th - below_tl, n - below_th)
    }

    /// Online query: minimum over mapped counters, `u64::MAX` if all mapped
    /// counters are overflowed.
    #[inline]
    pub fn query(&self, key: u64) -> u64 {
        let bh = BatchHasher::new(key);
        let mut min = u64::MAX;
        for state in self.live() {
            let j = bh.index(&state.hash, state.reducer);
            let c = with_counters!(&state.counters, c => c[j].get());
            let v = if c >= state.level.saturation() { u64::MAX } else { c };
            min = min.min(v);
        }
        min
    }

    /// Like [`query`](Self::query) but saturates to the largest level's
    /// saturation value instead of `u64::MAX` (useful for size estimates).
    pub fn query_clamped(&self, key: u64) -> u64 {
        self.query(key).min(self.top_saturation())
    }

    /// Resets all counters (epoch rotation re-uses the physical arrays, §B).
    pub fn clear(&mut self) {
        for state in &mut self.levels[..self.len] {
            with_counters!(&mut state.counters, c => c.fill(0));
        }
    }

    /// A copy of level `i`'s counters, each widened to `u32` whatever the
    /// width it is stored at.
    pub fn level_counters(&self, i: usize) -> Vec<u32> {
        with_counters!(&self.live()[i].counters, c => c.iter().map(|&v| v.get() as u32).collect())
    }

    /// Bytes the counters occupy: [`TowerConfig::memory_bytes`] when every
    /// level's width is 8, 16 or 32 bits.
    pub fn counter_bytes(&self) -> usize {
        self.live()
            .iter()
            .map(|state| with_counters!(&state.counters, c => std::mem::size_of_val(c.as_slice())))
            .sum()
    }

    /// Linear-counting cardinality estimate using the level with the most
    /// counters (§4.2): `n̂ = −w·ln(V₀)`.
    pub fn cardinality_estimate(&self) -> f64 {
        let state = self
            .live()
            .iter()
            .max_by_key(|s| s.level.width)
            .expect("at least one level");
        let level = state.level;
        let zero = with_counters!(
            &state.counters,
            c => c.iter().filter(|v| v.get() == 0).count()
        );
        if zero == 0 {
            // Saturated: half-count continuity correction (V₀ = 0.5/w).
            let w = level.width as f64;
            return w * (2.0 * w).ln();
        }
        -(level.width as f64) * (zero as f64 / level.width as f64).ln()
    }

    /// Histogram of counter values for level `i` (`hist[v]` = #counters with
    /// value `v`), input to MRAC.
    pub fn level_histogram(&self, i: usize) -> Vec<f64> {
        let state = &self.live()[i];
        let sat = state.level.saturation() as usize;
        let mut hist = vec![0.0; sat + 1];
        with_counters!(&state.counters, c => {
            for &v in c {
                hist[(v.get() as usize).min(sat)] += 1.0;
            }
        });
        hist
    }

    /// Estimates the flow-size distribution (`out[s]` = #flows of size `s`)
    /// by running MRAC EM on each level over its responsible size range
    /// (§4.2): level `i` covers `[2^{δ_{i−1}} − 1, 2^{δ_i} − 1)` and the
    /// remaining range `[2^{δ_l} − 1, ∞)` comes from the HH-flowset tail
    /// sizes supplied by the caller.
    ///
    /// The distribution ends at its estimate: its last slot is the largest
    /// size an in-range EM estimate or a kept tail size lands on (empty when
    /// there is none). Every size past it is estimated at zero flows.
    pub fn flow_size_distribution(&self, hh_tail_sizes: &[u64], em: &MracConfig) -> Vec<f64> {
        let mut dist = Vec::new();
        self.flow_size_distribution_into(hh_tail_sizes, em, &mut MracScratch::default(), &mut dist);
        dist
    }

    /// [`flow_size_distribution`](Self::flow_size_distribution) *added* into
    /// `dist` (grown with zeros when shorter than this estimate's end), with
    /// the EM's working memory in `scratch`: this sketch's
    /// [`stage_level_estimates`](Self::stage_level_estimates), then its
    /// [`stage_tail`](Self::stage_tail), then
    /// [`MracScratch::add_staged_into`]. Adding `k` sketches this way equals
    /// the element-wise sum of their `flow_size_distribution`s bit for bit;
    /// staging all `k` before one `add_staged_into` does too — level
    /// estimates and tails sketch by sketch, or every sketch's level
    /// estimates before any tail (see [`stage_tail`](Self::stage_tail)) —
    /// and sizes `dist` once.
    pub fn flow_size_distribution_into(
        &self,
        hh_tail_sizes: &[u64],
        em: &MracConfig,
        scratch: &mut MracScratch,
        dist: &mut Vec<f64>,
    ) {
        self.stage_level_estimates(em, scratch);
        self.stage_tail(hh_tail_sizes.iter().copied(), scratch);
        scratch.add_staged_into(dist);
    }

    /// The level-EM half of the estimate: runs the EM of every level and
    /// stages its in-range estimates in `scratch` as `(size, flows)` terms,
    /// after whatever is staged already, level by level in ascending size.
    /// Level `i` stages sizes in `[2^{δ_{i−1}} − 1, 2^{δ_i} − 1)`, so every
    /// term lies below the top level's saturation value.
    /// [`MracScratch::add_staged_into`] adds them.
    pub fn stage_level_estimates(&self, em: &MracConfig, scratch: &mut MracScratch) {
        let mut prev_bound = 1usize; // sizes below 1 don't exist
        for state in self.live() {
            let upper = state.level.saturation() as usize; // exclusive bound
            with_counters!(&state.counters, c => scratch.load_counters(c, upper));
            scratch.run(state.level.width, em);
            scratch.stage_estimate(prev_bound..upper);
            prev_bound = upper;
        }
        // `stage_tail` stages from the top saturation up: the two halves
        // meet there and do not overlap.
        debug_assert_eq!(prev_bound as u64, self.top_saturation(), "estimates end below the tail");
    }

    /// The tail half of the estimate: stages one `(s, 1.0)` term per size
    /// `s` of `sizes` (the HH flowset's sizes) at or above the top level's
    /// saturation value, in the order given, and skips the rest.
    ///
    /// The two halves never add into the same slot: the level estimates
    /// stage only sizes below the top saturation and the tail only sizes at
    /// or above it. So each slot of a distribution sees its terms in the
    /// same order whether several sketches are staged estimate-then-tail one
    /// after another, or every sketch's level estimates first and every
    /// tail after them, in the same sketch order — and the distribution is
    /// the same bit for bit. The controller stages the estimates while the
    /// HH flowsets that carry the tails are still being decoded.
    pub fn stage_tail(&self, sizes: impl IntoIterator<Item = u64>, scratch: &mut MracScratch) {
        let top = self.top_saturation();
        for s in sizes.into_iter().filter(|&s| s >= top) {
            scratch.stage(s as usize, 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small() -> TowerConfig {
        TowerConfig {
            levels: vec![
                TowerLevel { width: 2048, bits: 8 },
                TowerLevel { width: 1024, bits: 16 },
            ],
            seed: 1,
        }
    }

    #[test]
    fn query_never_underestimates() {
        let mut t = TowerSketch::new(&small());
        let mut rng = StdRng::seed_from_u64(2);
        let mut truth = std::collections::HashMap::new();
        for _ in 0..5000 {
            let k: u64 = rng.gen_range(0..500);
            t.insert_and_query(k);
            *truth.entry(k).or_insert(0u64) += 1;
        }
        for (k, v) in truth {
            assert!(t.query(k) >= v, "flow {k}: query {} < true {v}", t.query(k));
        }
    }

    #[test]
    fn single_flow_exact() {
        let mut t = TowerSketch::new(&small());
        for _ in 0..37 {
            t.insert_and_query(99);
        }
        assert_eq!(t.query(99), 37);
        assert_eq!(t.query_clamped(99), 37);
    }

    #[test]
    fn insert_and_query_matches_query() {
        let mut t = TowerSketch::new(&small());
        for i in 0..10 {
            let r = t.insert_and_query(7);
            assert_eq!(r, t.query(7));
            assert_eq!(r, i + 1);
        }
    }

    #[test]
    fn saturation_is_infinity() {
        let mut t = TowerSketch::new(&TowerConfig {
            levels: vec![TowerLevel { width: 4, bits: 2 }],
            seed: 3,
        });
        // 2-bit counter saturates at 3 (treated as +∞).
        for _ in 0..10 {
            t.insert_and_query(1);
        }
        assert_eq!(t.query(1), u64::MAX);
        assert_eq!(t.query_clamped(1), 3);
    }

    #[test]
    fn eight_bit_level_saturates_but_sixteen_bit_continues() {
        let mut t = TowerSketch::new(&small());
        for _ in 0..400 {
            t.insert_and_query(5);
        }
        // 8-bit level is pinned at 255 (=∞); 16-bit level carries 400.
        assert_eq!(t.query(5), 400);
    }

    #[test]
    fn burst_insert_matches_per_packet_classification() {
        let mut rng = StdRng::seed_from_u64(77);
        for (tl, th) in [(1u64, 1u64), (1, 10), (3, 9), (5, 5), (200, 300)] {
            let mut a = TowerSketch::new(&small());
            let mut b = TowerSketch::new(&small());
            // Interleave bursts of many flows, including repeats.
            for _ in 0..300 {
                let key: u64 = rng.gen_range(0..60);
                let n: u64 = rng.gen_range(1..40);
                // Reference: per-packet inserts classified one at a time.
                let (mut ll, mut hl, mut hh) = (0u64, 0, 0);
                for _ in 0..n {
                    let size = a.insert_and_query(key);
                    if size >= th {
                        hh += 1;
                    } else if size >= tl {
                        hl += 1;
                    } else {
                        ll += 1;
                    }
                }
                let burst = b.insert_burst(key, n, tl, th);
                assert_eq!(burst, (ll, hl, hh), "key={key} n={n} tl={tl} th={th}");
            }
            // Counter state must be identical afterwards.
            for i in 0..a.len {
                assert_eq!(a.level_counters(i), b.level_counters(i), "level {i}");
            }
        }
    }

    #[test]
    fn burst_insert_saturation_and_degenerate_cases() {
        let mut t = TowerSketch::new(&TowerConfig {
            levels: vec![TowerLevel { width: 4, bits: 2 }],
            seed: 3,
        });
        // Saturating burst: counter pins at 3 (∞), every packet ≥ any T.
        let (ll, hl, hh) = t.insert_burst(1, 100, 2, 3);
        // Reference semantics: sizes 1, 2, then MAX... → ll=1 (size 1 < 2),
        // hl=1 (size 2 < 3), rest HH.
        assert_eq!((ll, hl, hh), (1, 1, 98));
        assert_eq!(t.query(1), u64::MAX);
        assert_eq!(t.insert_burst(1, 0, 1, 1), (0, 0, 0));
    }

    #[test]
    fn a_saturated_tower_reads_every_flow_as_saturated() {
        let mut t = TowerSketch::saturated();
        assert_eq!(t.counter_bytes(), 0);
        assert!(t.config().levels.is_empty());
        assert!(!t.has_config(&small()));
        for key in [0u64, 1, 0xfeed] {
            assert_eq!(t.query(key), u64::MAX);
            assert_eq!(t.insert_and_query(key), u64::MAX);
            // Every packet of a burst is an HH candidate, whatever the
            // thresholds.
            assert_eq!(t.insert_burst(key, 7, 1, 1), (0, 0, 7));
            assert_eq!(t.insert_burst(key, 7, 50, 200), (0, 0, 7));
        }
        t.clear();
        assert_eq!(t, TowerSketch::saturated());
        assert_ne!(t, TowerSketch::new(&small()));
    }

    #[test]
    #[should_panic(expected = "at most 4 levels")]
    fn a_tower_past_its_inline_levels_panics() {
        let levels = (1..=MAX_LEVELS as u32 + 1).map(|i| TowerLevel { width: 8, bits: 4 * i });
        TowerSketch::new(&TowerConfig { levels: levels.collect(), seed: 0 });
    }

    /// A sketch reads back the configuration it was built from, at every
    /// level count it holds, and knows it from any other.
    #[test]
    fn a_tower_holds_its_configuration() {
        for n in 1..=MAX_LEVELS as u32 {
            let levels = (1..=n).map(|i| TowerLevel { width: 64 >> i, bits: 7 * i });
            let cfg = TowerConfig { levels: levels.collect(), seed: u64::from(n) };
            let t = TowerSketch::new(&cfg);
            assert_eq!(t.config(), cfg);
            assert!(t.has_config(&cfg));
            assert_eq!(t.clone(), t);
            assert_eq!(format!("{t:?}").matches("LevelState").count(), n as usize);
            let mut other = cfg.clone();
            other.seed += 1;
            assert!(!t.has_config(&other));
            other = cfg.clone();
            other.levels.pop();
            assert!(!t.has_config(&other));
            other = cfg.clone();
            other.levels[0].width += 1;
            assert!(!t.has_config(&other));
        }
    }

    #[test]
    fn clear_resets() {
        let mut t = TowerSketch::new(&small());
        t.insert_and_query(1);
        t.clear();
        assert_eq!(t.query(1), 0);
    }

    #[test]
    fn cardinality_estimate_close() {
        let mut t = TowerSketch::new(&small());
        let mut rng = StdRng::seed_from_u64(4);
        let n = 800u64;
        for k in 0..n {
            let reps = rng.gen_range(1..4);
            for _ in 0..reps {
                t.insert_and_query(k);
            }
        }
        let est = t.cardinality_estimate();
        let re = (est - n as f64).abs() / n as f64;
        assert!(re < 0.1, "estimate {est} vs {n} (re {re:.3})");
    }

    #[test]
    fn paper_default_memory() {
        let cfg = TowerConfig::paper_default(0);
        // 32768 * 1 byte + 16384 * 2 bytes = 64 KiB
        assert_eq!(cfg.memory_bytes(), 65_536);
    }

    #[test]
    fn sized_respects_budget_roughly() {
        let cfg = TowerConfig::sized(40_000, 0);
        let m = cfg.memory_bytes();
        assert!((30_000..=40_000).contains(&m), "memory {m}");
    }

    #[test]
    #[should_panic(expected = "increasing")]
    fn non_increasing_widths_panic() {
        TowerSketch::new(&TowerConfig {
            levels: vec![
                TowerLevel { width: 16, bits: 16 },
                TowerLevel { width: 16, bits: 8 },
            ],
            seed: 0,
        });
    }

    #[test]
    fn level_histogram_sums_to_width() {
        let mut t = TowerSketch::new(&small());
        for k in 0..100 {
            t.insert_and_query(k);
        }
        let h = t.level_histogram(0);
        let total: f64 = h.iter().sum();
        assert_eq!(total, 2048.0);
    }

    #[test]
    fn distribution_estimate_shape() {
        // 300 flows of size 1, 60 of size 5: estimator should put clearly
        // more mass at 1 than at 5, with roughly correct totals.
        let mut t = TowerSketch::new(&small());
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..300 {
            let k: u64 = rng.gen();
            t.insert_and_query(k);
        }
        for _ in 0..60 {
            let k: u64 = rng.gen();
            for _ in 0..5 {
                t.insert_and_query(k);
            }
        }
        let dist = t.flow_size_distribution(&[], &MracConfig::default());
        assert!(dist[1] > 150.0, "size-1 mass {}", dist[1]);
        assert!(dist[1] > dist[5], "size-1 {} vs size-5 {}", dist[1], dist[5]);
        let total: f64 = dist.iter().sum();
        assert!((total - 360.0).abs() / 360.0 < 0.35, "total {total}");
    }
}
