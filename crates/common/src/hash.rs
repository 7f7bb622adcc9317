//! Seeded, pairwise-independent hashing.
//!
//! Every sketch in the paper associates each counter/bucket array with a
//! pairwise-independent hash function (§3.1, §3.2.1). On Tofino these are CRC
//! units with distinct polynomials; in software we use the textbook
//! construction `h(x) = ((a·x + b) mod p) >>fastrange>> m` over the Mersenne
//! prime `p = 2^61 − 1`, with `(a, b)` drawn deterministically from a seed so
//! that upstream and downstream encoders (on *different* switches) can share
//! the exact same functions — a correctness requirement for FermatSketch
//! addition/subtraction (§3.1).
//!
//! # The per-packet fast path
//!
//! Two things make the software hash hardware-speed:
//!
//! * [`FastRange`] — Lemire's multiply-shift range reduction specialized to
//!   the 61-bit hash domain: `index = (v · m) >> 61` replaces the `v % m`
//!   integer division (20–40 cycles on most cores) with one widening
//!   multiply and a shift, and is completely branch-free. Sketches
//!   precompute one `FastRange` per bucket array.
//! * [`BatchHasher`] — mixes a flow key through SplitMix64 **once** and
//!   derives every per-array/per-lane value from the premixed word, instead
//!   of re-running the mixer inside each of the `d` per-array hash calls.
//!
//! Property tests (`chm_bench`'s `hotpath_equivalence`) pin both against
//! their closed forms and against a `%`-based reference sketch.

use crate::prime::{mul_mod, reduce64, MERSENNE_P};

/// Precomputed branch-free range reduction onto `[0, m)`.
///
/// For a hash value `v` uniform in `[0, p)` with `p = 2^61 − 1`, the Lemire
/// fast-range index is `(v · m) >> 61`. Because `v ≤ p − 1 < 2^61`, the
/// result is always `< m` without any conditional, and the mapping bias
/// relative to a perfect `[0, m)` partition is `O(m / 2^61)` — negligible
/// for every sketch geometry in this workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastRange {
    m: u64,
}

impl FastRange {
    /// Precomputes the reduction onto `[0, m)`.
    #[inline]
    pub const fn new(m: usize) -> Self {
        FastRange { m: m as u64 }
    }

    /// The range size `m` this reduction maps onto.
    #[inline]
    pub const fn len(self) -> usize {
        self.m as usize
    }

    /// True when the range is empty (`m == 0`); `reduce` then returns 0.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.m == 0
    }

    /// Maps a full-range hash value `v < 2^61` into `[0, m)` with one
    /// widening multiply and one shift — no division, no branch.
    #[inline]
    // chm-lint: hot
    pub const fn reduce(self, v: u64) -> usize {
        debug_assert!(v < MERSENNE_P);
        ((v as u128 * self.m as u128) >> 61) as usize
    }
}

/// SplitMix64 finalizer: a fast, high-quality 64-bit mixer.
///
/// Used (a) to derive per-array `(a, b)` coefficients from a master seed and
/// (b) to compress multi-word flow IDs to a single 64-bit word before the
/// pairwise stage.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Combines two 64-bit words into one (for multi-fragment flow IDs).
#[inline]
pub fn combine64(a: u64, b: u64) -> u64 {
    mix64(a ^ mix64(b).rotate_left(31))
}

/// One pairwise-independent hash function `h(x) = ((a·x + b) mod p) mod m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairwiseHash {
    a: u64,
    b: u64,
}

impl PairwiseHash {
    /// Derives a hash function deterministically from a seed.
    pub fn from_seed(seed: u64) -> Self {
        // `a` must be non-zero mod p for pairwise independence.
        let mut a = reduce64(mix64(seed ^ 0xa5a5_a5a5_a5a5_a5a5));
        if a == 0 {
            a = 1;
        }
        let b = reduce64(mix64(seed ^ 0x5a5a_5a5a_5a5a_5a5a));
        PairwiseHash { a, b }
    }

    /// Hashes a 64-bit key into `[0, m)` via the branch-free
    /// [`FastRange`] reduction.
    #[inline]
    // chm-lint: hot
    pub fn index(&self, key: u64, m: usize) -> usize {
        debug_assert!(m > 0);
        FastRange::new(m).reduce(self.raw(key))
    }

    /// The full-range hash value in `[0, p)` before range reduction.
    #[inline]
    // chm-lint: hot
    pub fn raw(&self, key: u64) -> u64 {
        self.raw_premixed(reduce64(mix64(key)))
    }

    /// Like [`raw`](Self::raw) but for a key already mixed and reduced into
    /// `[0, p)` — the per-array step [`BatchHasher`] amortizes over.
    #[inline]
    // chm-lint: hot
    pub fn raw_premixed(&self, x: u64) -> u64 {
        let ax = mul_mod(self.a, x);
        let s = ax + self.b; // < 2^62
        if s >= MERSENNE_P {
            s - MERSENNE_P
        } else {
            s
        }
    }

    /// A uniform value in `[0, 2^16)`, matching the 16-bit comparison used by
    /// the Tofino sampling stage (§D.1).
    #[inline]
    pub fn sample16(&self, key: u64) -> u16 {
        (self.raw(key) >> 16) as u16
    }
}

/// One flow key, mixed once, ready to be hashed by many functions.
///
/// The per-packet hot path of every sketch evaluates `d` (or `l`) hash
/// functions of the *same* key. The naive loop re-runs the SplitMix64
/// finalizer inside every call; `BatchHasher` hoists that work out:
///
/// ```
/// use chm_common::hash::{BatchHasher, FastRange, HashFamily};
///
/// let fam = HashFamily::new(7, 3);
/// let reducer = FastRange::new(1024);
/// let bh = BatchHasher::new(0xfeed_f00d);
/// for h in fam.as_slice() {
///     let j = bh.index(h, reducer);
///     assert!(j < 1024);
///     // identical to the unbatched path:
///     assert_eq!(j, h.index(0xfeed_f00d, 1024));
/// }
/// ```
///
/// Every derived value is bit-identical to the unbatched
/// [`PairwiseHash::raw`]/[`PairwiseHash::index`] results, so batched and
/// unbatched encoders stay addable/subtractable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchHasher {
    /// `reduce64(mix64(key))` — the premixed key in `[0, p)`.
    x: u64,
}

impl BatchHasher {
    /// Mixes `key` once.
    #[inline]
    pub fn new(key: u64) -> Self {
        BatchHasher { x: reduce64(mix64(key)) }
    }

    /// The full-range value of hash function `h` for this key.
    #[inline]
    // chm-lint: hot
    pub fn raw(&self, h: &PairwiseHash) -> u64 {
        h.raw_premixed(self.x)
    }

    /// The bucket index of hash function `h` under reduction `r`.
    #[inline]
    // chm-lint: hot
    pub fn index(&self, h: &PairwiseHash, r: FastRange) -> usize {
        r.reduce(self.raw(h))
    }
}

/// The most functions a [`HashFamily`] holds: FlowRadar's 10 Bloom hashes,
/// the largest family any sketch in the workspace derives.
pub const MAX_FAMILY: usize = 10;

/// A family of `d ≤` [`MAX_FAMILY`] independent hash functions sharing a
/// master seed.
///
/// Sketches that need one function per array (`d` bucket arrays in
/// FermatSketch, `l` counter arrays in TowerSketch) construct a family so the
/// per-array seeds are reproducible and decorrelated.
///
/// The functions are held inline, so building or cloning a family
/// allocates nothing: a sketch rebuilt at a new size pays for its counters
/// only. `Debug` and `PartialEq` look at the first [`len`](Self::len)
/// functions only.
#[derive(Clone)]
pub struct HashFamily {
    fns: [PairwiseHash; MAX_FAMILY],
    len: usize,
    master_seed: u64,
}

impl HashFamily {
    /// Builds `d` hash functions from `master_seed`. Panics when `d`
    /// exceeds [`MAX_FAMILY`].
    pub fn new(master_seed: u64, d: usize) -> Self {
        assert!(d <= MAX_FAMILY, "a HashFamily holds at most {MAX_FAMILY} functions, not {d}");
        let mut fns = [PairwiseHash { a: 1, b: 0 }; MAX_FAMILY];
        for (i, h) in fns.iter_mut().enumerate().take(d) {
            *h = Self::nth(master_seed, i);
        }
        HashFamily { fns, len: d, master_seed }
    }

    /// The `i`-th function of every family derived from `master_seed`,
    /// whatever its size — for a sketch that keeps each function beside
    /// the array it hashes into.
    pub fn nth(master_seed: u64, i: usize) -> PairwiseHash {
        PairwiseHash::from_seed(mix64(master_seed).wrapping_add(i as u64 * 0x9e37_79b9))
    }

    /// Number of functions in the family.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the family is empty (never the case for valid sketches).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th hash function.
    #[inline]
    pub fn get(&self, i: usize) -> &PairwiseHash {
        &self.as_slice()[i]
    }

    /// All functions as a slice — the hot loops iterate this together with a
    /// [`BatchHasher`] so the key is mixed once for the whole family.
    #[inline]
    pub fn as_slice(&self) -> &[PairwiseHash] {
        &self.fns[..self.len]
    }

    /// The master seed the family was derived from (for config echo).
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Hashes `key` with function `i` into `[0, m)`.
    #[inline]
    // chm-lint: hot
    pub fn index(&self, i: usize, key: u64, m: usize) -> usize {
        self.get(i).index(key, m)
    }
}

impl std::fmt::Debug for HashFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HashFamily")
            .field("fns", &self.as_slice())
            .field("master_seed", &self.master_seed)
            .finish()
    }
}

impl PartialEq for HashFamily {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice() && self.master_seed == other.master_seed
    }
}

impl Eq for HashFamily {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_nontrivial() {
        assert_eq!(mix64(0), mix64(0));
        assert_ne!(mix64(0), 0);
        assert_ne!(mix64(1), mix64(2));
    }

    #[test]
    fn from_seed_is_deterministic() {
        let h1 = PairwiseHash::from_seed(42);
        let h2 = PairwiseHash::from_seed(42);
        assert_eq!(h1, h2);
        assert_ne!(PairwiseHash::from_seed(42), PairwiseHash::from_seed(43));
    }

    #[test]
    fn index_stays_in_range() {
        let h = PairwiseHash::from_seed(7);
        for m in [1usize, 2, 3, 1000, 4096] {
            for key in 0..200u64 {
                assert!(h.index(key, m) < m);
            }
        }
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let h = PairwiseHash::from_seed(99);
        let m = 64;
        let n = 64_000u64;
        let mut counts = vec![0u32; m];
        for key in 0..n {
            counts[h.index(key, m)] += 1;
        }
        let expect = (n as usize / m) as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.25, "bin {i} count {c} deviates {dev:.2} from {expect}");
        }
    }

    #[test]
    fn family_functions_are_distinct() {
        let fam = HashFamily::new(123, 3);
        assert_eq!(fam.len(), 3);
        let m = 1 << 20;
        // Different functions should disagree on most keys.
        let disagreements = (0..1000u64)
            .filter(|&k| fam.index(0, k, m) != fam.index(1, k, m))
            .count();
        assert!(disagreements > 990, "only {disagreements} disagreements");
    }

    /// The family as it was derived into a `Vec` before it held its
    /// functions inline: the oracle for every size the inline array takes.
    mod vec_family {
        use super::super::{mix64, PairwiseHash};

        #[derive(Debug)]
        pub struct HashFamily {
            pub fns: Vec<PairwiseHash>,
            pub master_seed: u64,
        }

        impl HashFamily {
            pub fn new(master_seed: u64, d: usize) -> Self {
                let fns = (0..d)
                    .map(|i| {
                        PairwiseHash::from_seed(
                            mix64(master_seed).wrapping_add(i as u64 * 0x9e37_79b9),
                        )
                    })
                    .collect();
                HashFamily { fns, master_seed }
            }
        }
    }

    #[test]
    fn inline_family_matches_the_vec_derivation() {
        for seed in [0u64, 7, 0xb100_f11e, u64::MAX] {
            for d in 0..=MAX_FAMILY {
                let fam = HashFamily::new(seed, d);
                let old = vec_family::HashFamily::new(seed, d);
                assert_eq!(fam.as_slice(), old.fns.as_slice(), "seed {seed} d {d}");
                assert_eq!((fam.len(), fam.is_empty()), (d, d == 0));
                assert_eq!(fam.master_seed(), old.master_seed);
                assert_eq!(format!("{fam:?}"), format!("{old:?}"));
                assert_eq!(format!("{fam:#?}"), format!("{old:#?}"));
                assert_eq!(fam, fam.clone());
                for (i, h) in old.fns.iter().enumerate() {
                    assert_eq!(fam.get(i), h);
                    assert_eq!(HashFamily::nth(seed, i), *h);
                    for key in [0u64, 1, 0xfeed_f00d] {
                        for m in [1usize, 3, 4096] {
                            assert_eq!(fam.index(i, key, m), h.index(key, m));
                        }
                    }
                }
            }
        }
        // Functions past `len` take no part in equality.
        assert_ne!(HashFamily::new(3, 2), HashFamily::new(3, 3));
        assert_ne!(HashFamily::new(3, 2), HashFamily::new(4, 2));
    }

    #[test]
    #[should_panic(expected = "at most 10 functions")]
    fn a_family_past_its_inline_size_panics() {
        HashFamily::new(1, MAX_FAMILY + 1);
    }

    #[test]
    #[should_panic]
    fn a_function_past_len_is_out_of_range() {
        HashFamily::new(1, 2).get(2);
    }

    #[test]
    fn fast_range_stays_in_bounds() {
        for m in [1usize, 2, 3, 5, 1000, 4096, 1 << 20] {
            let r = FastRange::new(m);
            assert_eq!(r.len(), m);
            assert_eq!(r.reduce(0), 0);
            assert!(r.reduce(MERSENNE_P - 1) < m, "m={m}");
            for v in (0..MERSENNE_P).step_by((MERSENNE_P / 257) as usize) {
                assert!(r.reduce(v) < m, "v={v} m={m}");
            }
        }
        assert!(FastRange::new(0).is_empty());
    }

    #[test]
    fn fast_range_is_monotone_partition() {
        // fastrange is order-preserving: v1 <= v2 => reduce(v1) <= reduce(v2),
        // so it partitions [0, p) into m contiguous intervals.
        let r = FastRange::new(37);
        let mut prev = 0;
        for v in (0..MERSENNE_P).step_by((MERSENNE_P / 1009) as usize) {
            let j = r.reduce(v);
            assert!(j >= prev);
            prev = j;
        }
    }

    #[test]
    fn fast_range_distribution_is_roughly_uniform() {
        let h = PairwiseHash::from_seed(77);
        let m = 64;
        let n = 64_000u64;
        let mut counts = vec![0u32; m];
        for key in 0..n {
            counts[h.index(key, m)] += 1;
        }
        let expect = (n as usize / m) as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.25, "bin {i} count {c} deviates {dev:.2} from {expect}");
        }
    }

    #[test]
    fn batch_hasher_matches_unbatched_path() {
        let fam = HashFamily::new(0xbeef, 5);
        for key in (0..5_000u64).map(mix64) {
            let bh = BatchHasher::new(key);
            for (i, h) in fam.as_slice().iter().enumerate() {
                assert_eq!(bh.raw(h), h.raw(key));
                for m in [3usize, 100, 4096] {
                    assert_eq!(bh.index(h, FastRange::new(m)), fam.index(i, key, m));
                }
            }
        }
    }

    #[test]
    fn sample16_covers_range() {
        let h = PairwiseHash::from_seed(5);
        let mut lo = false;
        let mut hi = false;
        for k in 0..10_000u64 {
            let s = h.sample16(k);
            if s < 8192 {
                lo = true;
            }
            if s > 57_344 {
                hi = true;
            }
        }
        assert!(lo && hi, "sample16 not covering the 16-bit range");
    }
}
