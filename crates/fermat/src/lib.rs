//! **FermatSketch** — the key technique of ChameleMon (§3.1, Appendix A).
//!
//! FermatSketch is an invertible sketch made of `d` equal-sized bucket
//! arrays. Each bucket holds a *count* field and an *IDsum* field; inserting
//! a packet of flow `f` increments the count and modularly adds `f` into the
//! IDsum of one mapped bucket per array. Because the IDsum arithmetic is over
//! a prime field, a bucket holding only packets of a single flow (*pure*
//! bucket) satisfies `IDsum ≡ count · f (mod p)`, and Fermat's little theorem
//! recovers the flow: `f = IDsum · count^(p−2) mod p`.
//!
//! The sketch is:
//! * **dividable** — ChameleMon carves one physical sketch into HH/HL/LL
//!   encoders by splitting the bucket range (`crates/chamelemon`);
//! * **additive/subtractive** — sketches with identical parameters can be
//!   added (to accumulate over switches) and subtracted (upstream −
//!   downstream = victim flows), see [`FermatSketch::add_assign_sketch`] /
//!   [`FermatSketch::sub_assign_sketch`];
//! * **decodable** — [`FermatSketch::decode`] peels pure buckets queue-wise
//!   (Algorithm 2), eliminating false-positive extractions automatically by
//!   letting wrongly-extracted "negative flows" cancel (§A.2).
//!
//! Memory is `Θ(M)` in the number of encoded flows; with `d = 3`, decoding
//! succeeds w.h.p. once buckets ≥ 1.23·M (Theorem 3.1).

use chm_common::flowid::{FlowId, MAX_FRAGMENTS};
use chm_common::hash::{BatchHasher, FastRange, HashFamily, PairwiseHash};
use chm_common::prime::{add_mod, inv_mod, mul_mod, signed_to_mod, sub_mod};
use std::collections::{HashMap, VecDeque};
use std::marker::PhantomData;

/// Recommended number of bucket arrays: `d = 3` maximizes memory efficiency
/// (1.23 buckets/flow on average, footnote 3 / Theorem 3.1).
pub const RECOMMENDED_ARRAYS: usize = 3;

/// `c_d` — minimum average buckets per flow for a `d`-array sketch to decode
/// w.h.p. (Theorem 3.1): `c_3 = 1.23`, `c_4 = 1.30`, `c_5 = 1.43`.
pub fn c_d(d: usize) -> f64 {
    match d {
        3 => 1.23,
        4 => 1.30,
        5 => 1.43,
        // The 2-core threshold has no sharp constant for d < 3; extrapolate
        // conservatively for other d.
        _ => 1.23 * (1.0 + 0.1 * (d as f64 - 3.0)).max(1.0),
    }
}

/// Static configuration of a [`FermatSketch`].
///
/// Two sketches can be added/subtracted iff their configurations are equal
/// (same hash functions, array count, bucket count, fingerprint width —
/// §3.1 "Addition/Subtraction operations").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FermatConfig {
    /// Number of bucket arrays `d`.
    pub arrays: usize,
    /// Buckets per array `m`.
    pub buckets_per_array: usize,
    /// Optional fingerprint width `w` in bits (0 disables, §A.4). Reduces the
    /// pure-bucket false-positive rate from `1/m` to `1/(2^w · m)`.
    pub fingerprint_bits: u32,
    /// Master seed for the per-array hash functions.
    pub seed: u64,
}

impl FermatConfig {
    /// Convenience constructor with `d = 3` and no fingerprint.
    pub fn standard(buckets_per_array: usize, seed: u64) -> Self {
        FermatConfig {
            arrays: RECOMMENDED_ARRAYS,
            buckets_per_array,
            fingerprint_bits: 0,
            seed,
        }
    }

    /// Total buckets `m·d`.
    pub fn total_buckets(&self) -> usize {
        self.arrays * self.buckets_per_array
    }

    /// Bytes of one bucket under the paper's CPU-evaluation accounting
    /// (32-bit count field + one 32-bit ID lane per fragment + fingerprint
    /// bits, §5.1). Used by the figure-4/5/6 harness so memory numbers are
    /// comparable to the paper's.
    pub fn logical_bucket_bytes<F: FlowId>(&self) -> f64 {
        4.0 + 4.0 * F::FRAGMENTS as f64 + self.fingerprint_bits as f64 / 8.0
    }

    /// Total logical memory in bytes for flow-ID type `F`.
    pub fn logical_memory_bytes<F: FlowId>(&self) -> f64 {
        self.total_buckets() as f64 * self.logical_bucket_bytes::<F>()
    }

    /// Buckets-per-array needed to hold `flows` at the given `load_factor`
    /// (e.g. the controller's 70% target, §4.3).
    pub fn buckets_for(flows: usize, arrays: usize, load_factor: f64) -> usize {
        let total = (flows as f64 / load_factor).ceil() as usize;
        total.div_ceil(arrays).max(1)
    }
}

/// Outcome of a decode pass.
#[derive(Debug, Clone)]
pub struct DecodeResult<F> {
    /// Extracted flows and their (signed) sizes — the *Flowset* of
    /// Algorithm 2. Zero-size cancellation residues are removed.
    pub flows: HashMap<F, i64>,
    /// True iff every bucket drained to zero (§3.1: "if there are still
    /// non-zero buckets … the decoding is considered as failed").
    pub success: bool,
    /// Number of buckets still non-zero after peeling stopped.
    pub remaining_nonzero: usize,
}

/// The FermatSketch data structure (Figure 2).
///
/// `PartialEq` compares the full bucket state — two sketches are equal iff
/// every counter, IDsum lane and fingerprint lane matches (used by the
/// burst-vs-per-packet equivalence tests).
#[derive(Debug, Clone, PartialEq)]
pub struct FermatSketch<F: FlowId> {
    cfg: FermatConfig,
    hashes: HashFamily,
    fp_hash: PairwiseHash,
    /// Precomputed branch-free range reduction onto `[0, buckets_per_array)`.
    reducer: FastRange,
    /// One record per bucket, `arrays × buckets` flattened row-major, each
    /// [`STRIDE`](Self::STRIDE) words: the signed packet count (an `i64`
    /// stored as its bits) followed by the `F::FRAGMENTS` IDsum lanes mod
    /// p, so an insert or extraction touches one contiguous record per
    /// array.
    buckets: Vec<u64>,
    /// Fingerprint-sum lane mod p, one per bucket (empty when fingerprints
    /// are disabled, the default).
    fpsums: Vec<u64>,
    _id: PhantomData<F>,
}

/// The count word of a bucket record.
#[inline]
fn count_of(rec: &[u64]) -> i64 {
    rec[0] as i64
}

/// Stores a record's count word. Callers compute the new count with plain
/// `i64` `+`/`-`, so a debug build still traps an overflow.
#[inline]
fn set_count(rec: &mut [u64], count: i64) {
    rec[0] = count as u64;
}

impl<F: FlowId> FermatSketch<F> {
    /// Words per bucket record: the count, then one IDsum lane per fragment.
    const STRIDE: usize = 1 + F::FRAGMENTS;

    /// Creates an empty sketch. `cfg.buckets_per_array` may be zero (a
    /// zero-memory encoder partition); such a sketch accepts no insertions.
    pub fn new(cfg: FermatConfig) -> Self {
        assert!(cfg.arrays >= 1, "FermatSketch needs at least one array");
        assert!(
            F::FRAGMENTS <= MAX_FRAGMENTS,
            "flow id uses more fragments than supported"
        );
        assert!(cfg.fingerprint_bits <= 32, "fingerprint wider than 32 bits");
        let n = cfg.total_buckets();
        FermatSketch {
            cfg,
            hashes: HashFamily::new(cfg.seed, cfg.arrays),
            fp_hash: PairwiseHash::from_seed(cfg.seed ^ 0xf19e_0fae_57a1_1ed5),
            reducer: FastRange::new(cfg.buckets_per_array),
            buckets: vec![0; n * Self::STRIDE],
            fpsums: if cfg.fingerprint_bits > 0 { vec![0; n] } else { Vec::new() },
            _id: PhantomData,
        }
    }

    /// The sketch configuration.
    pub fn config(&self) -> &FermatConfig {
        &self.cfg
    }

    /// True when this sketch can be added to / subtracted from `other`.
    pub fn compatible(&self, other: &Self) -> bool {
        self.cfg == other.cfg
    }

    /// Whether the sketch holds no packets at all.
    pub fn is_zero(&self) -> bool {
        self.buckets.iter().all(|&w| w == 0) && self.fpsums.iter().all(|&s| s == 0)
    }

    /// Resets every bucket to zero, keeping the configuration (epoch
    /// rotation re-uses the physical sketch, §B).
    pub fn clear(&mut self) {
        self.buckets.fill(0);
        self.fpsums.fill(0);
    }

    #[inline]
    fn fingerprint_premixed(&self, bh: BatchHasher) -> u64 {
        debug_assert!(self.cfg.fingerprint_bits > 0);
        bh.raw(&self.fp_hash) & ((1u64 << self.cfg.fingerprint_bits) - 1)
    }

    /// Encodes one packet of flow `f` (Algorithm 1).
    #[inline]
    pub fn insert(&mut self, f: &F) {
        self.insert_weighted(f, 1);
    }

    /// Like [`insert`](Self::insert) but with the flow's
    /// [`key64`](FlowId::key64) already mixed by the caller — the data plane
    /// builds one [`BatchHasher`] per ingress or egress call and hands it to
    /// every encoder that call writes instead of re-mixing the key in each.
    #[inline]
    pub fn insert_keyed(&mut self, f: &F, bh: BatchHasher) {
        self.insert_weighted_keyed(f, bh, 1);
    }

    /// Encodes `weight` packets of flow `f` in one pass. Negative weights
    /// delete (used when the controller re-inserts decoded HH flows into the
    /// upstream HL encoder before subtraction, §4.2, and for tests).
    ///
    /// Hot path: the flow key is mixed **once** ([`BatchHasher`]); every
    /// per-array index comes from the precomputed branch-free [`FastRange`]
    /// reduction. No allocation, no division.
    #[inline]
    pub fn insert_weighted(&mut self, f: &F, weight: i64) {
        self.insert_weighted_keyed(f, BatchHasher::new(f.key64()), weight);
    }

    /// [`insert_weighted`](Self::insert_weighted) with the caller's
    /// [`BatchHasher`] of `f`'s [`key64`](FlowId::key64).
    #[inline]
    // chm-lint: hot
    pub fn insert_weighted_keyed(&mut self, f: &F, bh: BatchHasher, weight: i64) {
        debug_assert_eq!(bh, BatchHasher::new(f.key64()));
        assert!(
            self.cfg.buckets_per_array > 0,
            "insert into a zero-memory FermatSketch partition"
        );
        if weight == 0 {
            return;
        }
        let wmod = signed_to_mod(weight);
        // Per-lane weighted fragments are array-independent: compute once.
        // The per-packet path has `weight == 1`, where the weighting is the
        // identity — skip the modular multiplies entirely (fragments are
        // already `< p` by the FlowId contract).
        let mut adds = [0u64; MAX_FRAGMENTS];
        for (k, a) in adds.iter_mut().enumerate().take(F::FRAGMENTS) {
            *a = if wmod == 1 { f.fragment(k) } else { mul_mod(wmod, f.fragment(k)) };
        }
        let fp_add = if self.cfg.fingerprint_bits > 0 {
            let fpv = self.fingerprint_premixed(bh);
            if wmod == 1 {
                fpv
            } else {
                mul_mod(wmod, fpv)
            }
        } else {
            0
        };
        let m = self.cfg.buckets_per_array;
        for (i, h) in self.hashes.as_slice().iter().enumerate() {
            let b = i * m + bh.index(h, self.reducer);
            let rec = &mut self.buckets[b * Self::STRIDE..(b + 1) * Self::STRIDE];
            set_count(rec, count_of(rec) + weight);
            for (lane, &add) in rec[1..].iter_mut().zip(&adds) {
                *lane = add_mod(*lane, add);
            }
            if self.cfg.fingerprint_bits > 0 {
                self.fpsums[b] = add_mod(self.fpsums[b], fp_add);
            }
        }
    }

    /// Adds `other` bucket-wise (`self += other`). Panics on incompatible
    /// configurations, mirroring the paper's same-parameter requirement.
    pub fn add_assign_sketch(&mut self, other: &Self) {
        assert!(self.compatible(other), "adding incompatible FermatSketches");
        let records = self.buckets.chunks_exact_mut(Self::STRIDE);
        for (a, b) in records.zip(other.buckets.chunks_exact(Self::STRIDE)) {
            set_count(a, count_of(a) + count_of(b));
            for (x, &y) in a[1..].iter_mut().zip(&b[1..]) {
                *x = add_mod(*x, y);
            }
        }
        for (a, b) in self.fpsums.iter_mut().zip(&other.fpsums) {
            *a = add_mod(*a, *b);
        }
    }

    /// Subtracts `other` bucket-wise (`self -= other`). The result encodes
    /// the multiset difference; decoding it yields exactly the victim flows
    /// when `self` is the cumulative upstream and `other` the cumulative
    /// downstream encoder (§3.1 "Packet loss detection").
    pub fn sub_assign_sketch(&mut self, other: &Self) {
        assert!(self.compatible(other), "subtracting incompatible FermatSketches");
        let records = self.buckets.chunks_exact_mut(Self::STRIDE);
        for (a, b) in records.zip(other.buckets.chunks_exact(Self::STRIDE)) {
            set_count(a, count_of(a) - count_of(b));
            for (x, &y) in a[1..].iter_mut().zip(&b[1..]) {
                *x = sub_mod(*x, y);
            }
        }
        for (a, b) in self.fpsums.iter_mut().zip(&other.fpsums) {
            *a = sub_mod(*a, *b);
        }
    }

    /// Number of non-zero buckets in array `i` (for linear counting).
    pub fn nonzero_in_array(&self, i: usize) -> usize {
        let row = self.cfg.buckets_per_array * Self::STRIDE;
        self.buckets[i * row..(i + 1) * row]
            .chunks_exact(Self::STRIDE)
            .filter(|rec| rec.iter().any(|&w| w != 0))
            .count()
    }

    /// Linear-counting estimate of the number of distinct flows encoded,
    /// from the zero-bucket fraction of array `i`: `n̂ = −m·ln(V₀)` (§4.3,
    /// the fallback when decoding fails).
    pub fn linear_count(&self, i: usize) -> f64 {
        let m = self.cfg.buckets_per_array;
        linear_count_of(m, m - self.nonzero_in_array(i))
    }

    /// Decodes the sketch non-destructively (Algorithm 2) with a fresh
    /// workspace. Epoch loops should hold a [`DecodeScratch`] and call
    /// [`decode_with`](Self::decode_with), which reuses the bucket copy and
    /// the peeling queue.
    pub fn decode(&self) -> DecodeResult<F> {
        self.decode_with(&mut DecodeScratch::new())
    }

    /// Decodes the sketch non-destructively: copies the bucket records (and
    /// the fingerprint column, when there is one) into `scratch` — no
    /// allocation once the scratch has seen a sketch this large — and runs
    /// the peel [`decode_in_place`] runs, over the copy. One path at every
    /// occupancy; the only allocation of a warmed call is the returned
    /// flowset, reserved once.
    ///
    /// [`decode_in_place`]: Self::decode_in_place
    pub fn decode_with(&self, scratch: &mut DecodeScratch<F>) -> DecodeResult<F> {
        let DecodeScratch { queue, buckets, fpsums, last_stats, .. } = scratch;
        buckets.clear();
        buckets.extend_from_slice(&self.buckets);
        fpsums.clear();
        fpsums.extend_from_slice(&self.fpsums);
        let (result, hot_buckets) = self.peel(buckets, fpsums, queue);
        let total_buckets = self.cfg.total_buckets();
        *last_stats = DecodeStats {
            sparse: hot_buckets * 8 <= total_buckets,
            hot_buckets,
            total_buckets,
            decoded_flows: result.flows.len(),
        };
        result
    }

    /// Decoding operation (Algorithm 2) consuming the bucket contents —
    /// the path for a caller that owns the sketch and is done with it.
    ///
    /// A work budget bounds the peeling: on overloaded sketches,
    /// false-positive extractions can otherwise cycle forever (a wrongly
    /// extracted flow re-creates the bucket state that triggers its own
    /// cancellation, §A.2). Exhausting the budget leaves non-zero buckets,
    /// which correctly reports decode failure.
    pub fn decode_in_place(mut self) -> DecodeResult<F> {
        let mut buckets = std::mem::take(&mut self.buckets);
        let mut fpsums = std::mem::take(&mut self.fpsums);
        self.peel(&mut buckets, &mut fpsums, &mut VecDeque::new()).0
    }

    /// The queue-driven pure-bucket peel (Algorithm 2) over bucket state
    /// laid out like `self`'s, which it drains in place. Returns the result
    /// and the number of buckets that were hot (non-zero count) at the
    /// start.
    fn peel(
        &self,
        buckets: &mut [u64],
        fpsums: &mut [u64],
        queue: &mut VecDeque<(u32, u32)>,
    ) -> (DecodeResult<F>, usize) {
        let cfg = &self.cfg;
        let m = cfg.buckets_per_array;
        // Step 1: push all non-zero buckets.
        queue.clear();
        let mut hot_in_first_array = 0;
        for i in 0..cfg.arrays {
            for j in 0..m {
                // The record's first word is its count.
                if buckets[(i * m + j) * Self::STRIDE] != 0 {
                    queue.push_back((i as u32, j as u32));
                }
            }
            if i == 0 {
                hot_in_first_array = queue.len();
            }
        }
        let hot = queue.len();
        // Reserve the flowset once, from the estimate the queue implies for
        // the first array plus 6 % for its error. Never more than one entry
        // per bucket: a sketch holding more flows than that cannot decode.
        let estimate = linear_count_of(m, m - hot_in_first_array);
        let mut flows: HashMap<F, i64> = HashMap::with_capacity(
            ((estimate * 1.06).ceil() as usize).min(cfg.total_buckets()),
        );
        let mut budget: u64 = 32 * (cfg.total_buckets() as u64 + 64);
        while let Some((i, j)) = queue.pop_front() {
            if budget == 0 {
                break;
            }
            budget -= 1;
            if let Some((f, count)) = self.extract(buckets, fpsums, i as usize, j as usize, queue) {
                // Step 5: record in the Flowset.
                *flows.entry(f).or_insert(0) += count;
            }
        }
        // False-positive extraction pairs cancel to zero (§A.2); drop them.
        flows.retain(|_, c| *c != 0);
        let remaining_nonzero = buckets
            .chunks_exact(Self::STRIDE)
            .filter(|rec| rec.iter().any(|&w| w != 0))
            .count();
        (
            DecodeResult {
                flows,
                success: remaining_nonzero == 0,
                remaining_nonzero,
            },
            hot,
        )
    }

    /// Steps 2–6 of Algorithm 2 for bucket `j` of array `i`: if the bucket
    /// verifies as pure, subtracts its record from every bucket its flow
    /// maps to, requeues the ones left non-zero, and returns the flow and
    /// its count.
    ///
    /// A verified bucket's lanes are exactly `count · f mod p` (each
    /// fragment was recovered as `lane · count⁻¹`), and its fingerprint
    /// lane is the weighted fingerprint just checked, so the extraction
    /// subtracts the record itself — no multiply, no re-fragmenting — and
    /// leaves the pure bucket all zero.
    // chm-lint: hot
    fn extract(
        &self,
        buckets: &mut [u64],
        fpsums: &mut [u64],
        i: usize,
        j: usize,
        queue: &mut VecDeque<(u32, u32)>,
    ) -> Option<(F, i64)> {
        let m = self.cfg.buckets_per_array;
        let b = i * m + j;
        let mut copy = [0u64; 1 + MAX_FRAGMENTS];
        copy[..Self::STRIDE].copy_from_slice(&buckets[b * Self::STRIDE..(b + 1) * Self::STRIDE]);
        let pure = &copy[..Self::STRIDE];
        if pure.iter().all(|&w| w == 0) {
            return None; // already drained by an earlier extraction
        }
        // Steps 3-4: pure-bucket verification (§3.1): recover the candidate
        // flow via Fermat's little theorem, re-hash it, check fingerprints.
        let count = count_of(pure);
        let cmod = signed_to_mod(count);
        if cmod == 0 {
            return None;
        }
        let inv = inv_mod(cmod)?;
        let mut frags = [0u64; MAX_FRAGMENTS];
        for (frag, &s) in frags.iter_mut().zip(&pure[1..]) {
            *frag = mul_mod(s, inv);
        }
        let f = F::try_from_fragments(&frags[..F::FRAGMENTS])?;
        let bh = BatchHasher::new(f.key64());
        let hashes = self.hashes.as_slice();
        if bh.index(&hashes[i], self.reducer) != j {
            return None;
        }
        let fingerprints = self.cfg.fingerprint_bits > 0;
        if fingerprints && fpsums[b] != mul_mod(cmod, self.fingerprint_premixed(bh)) {
            return None;
        }
        let fp_sub = if fingerprints { fpsums[b] } else { 0 };
        // Single-flow extraction from every mapped bucket, requeueing the
        // ones still hot (steps 4-6).
        for (i2, h) in hashes.iter().enumerate() {
            let j2 = if i2 == i { j } else { bh.index(h, self.reducer) };
            let b2 = i2 * m + j2;
            let rec = &mut buckets[b2 * Self::STRIDE..(b2 + 1) * Self::STRIDE];
            set_count(rec, count_of(rec) - count);
            let mut drained = count_of(rec) == 0;
            for (lane, &sub) in rec[1..].iter_mut().zip(&pure[1..]) {
                *lane = sub_mod(*lane, sub);
                drained &= *lane == 0;
            }
            if fingerprints {
                fpsums[b2] = sub_mod(fpsums[b2], fp_sub);
            }
            if !drained {
                queue.push_back((i2 as u32, j2 as u32));
            }
        }
        Some((f, count))
    }
}

/// Linear-counting estimate `n̂ = −m·ln(zero/m)` of the flows hashed into an
/// array of `m` buckets of which `zero` stayed empty (§4.3).
fn linear_count_of(m: usize, zero: usize) -> f64 {
    if m == 0 {
        return 0.0;
    }
    if zero == 0 {
        // Saturated array: linear counting diverges. Apply the standard
        // half-count continuity correction (V₀ = 0.5/m), yielding
        // m·ln(2m) — a deliberately *large* estimate so the controller
        // treats a saturated encoder as badly overloaded.
        return m as f64 * (2.0 * m as f64).ln();
    }
    -(m as f64) * ((zero as f64) / (m as f64)).ln()
}

/// Reusable decode workspace: the copy of the bucket records (and
/// fingerprint column) that [`FermatSketch::decode_with`] peels, and the
/// peeling queue.
///
/// Holding one of these across epochs leaves the returned flowset as the
/// only allocation of a decode — the controller decodes every epoch's
/// encoders without cloning a single sketch.
#[derive(Debug, Clone)]
pub struct DecodeScratch<F: FlowId> {
    queue: VecDeque<(u32, u32)>,
    buckets: Vec<u64>,
    fpsums: Vec<u64>,
    /// Telemetry from the most recent [`FermatSketch::decode_with`] call
    /// through this scratch (occupancy class + peel size). Read-only for
    /// callers; observability layers fold it into span counters.
    pub last_stats: DecodeStats,
    _id: PhantomData<F>,
}

/// What the most recent `decode_with` saw: how occupied the sketch was and
/// how big the peel was. Purely integer/flag data, deterministic for a
/// given sketch state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Occupancy class: true when at most 1/8 of the buckets were hot (a
    /// delta encoder holding few victims), false for a loaded sketch. It
    /// labels the decode; every decode takes the same path.
    pub sparse: bool,
    /// Non-zero buckets at decode start.
    pub hot_buckets: usize,
    /// Total buckets in the sketch configuration.
    pub total_buckets: usize,
    /// Flows extracted by the peel.
    pub decoded_flows: usize,
}

impl<F: FlowId> Default for DecodeScratch<F> {
    fn default() -> Self {
        DecodeScratch {
            queue: VecDeque::new(),
            buckets: Vec::new(),
            fpsums: Vec::new(),
            last_stats: DecodeStats::default(),
            _id: PhantomData,
        }
    }
}

impl<F: FlowId> DecodeScratch<F> {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chm_common::flowid::FiveTuple;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cfg(m: usize) -> FermatConfig {
        FermatConfig::standard(m, 0xc0ffee)
    }

    #[test]
    fn empty_sketch_decodes_to_empty() {
        let s = FermatSketch::<u32>::new(cfg(16));
        let r = s.decode();
        assert!(r.success);
        assert!(r.flows.is_empty());
    }

    #[test]
    fn single_flow_roundtrip() {
        let mut s = FermatSketch::<u32>::new(cfg(16));
        for _ in 0..7 {
            s.insert(&0xdead_beef);
        }
        let r = s.decode();
        assert!(r.success);
        assert_eq!(r.flows.get(&0xdead_beef), Some(&7));
        assert_eq!(r.flows.len(), 1);
    }

    #[test]
    fn five_tuple_roundtrip() {
        let mut s = FermatSketch::<FiveTuple>::new(cfg(64));
        let f1 = FiveTuple { src_ip: 1, dst_ip: 2, src_port: 3, dst_port: 4, proto: 17 };
        let f2 = FiveTuple { src_ip: 9, dst_ip: 8, src_port: 7, dst_port: 6, proto: 6 };
        s.insert_weighted(&f1, 100);
        s.insert_weighted(&f2, 3);
        let r = s.decode();
        assert!(r.success);
        assert_eq!(r.flows.get(&f1), Some(&100));
        assert_eq!(r.flows.get(&f2), Some(&3));
    }

    #[test]
    fn many_flows_decode_at_target_load() {
        // 700 flows into 3×400 = 1200 buckets: 58% load, well under the
        // 81.3% ceiling — should decode.
        let mut s = FermatSketch::<u32>::new(cfg(400));
        let mut rng = StdRng::seed_from_u64(7);
        let mut truth = HashMap::new();
        for _ in 0..700 {
            let f: u32 = rng.gen();
            let w = rng.gen_range(1..50);
            *truth.entry(f).or_insert(0) += w;
            s.insert_weighted(&f, w);
        }
        let r = s.decode();
        assert!(r.success, "remaining={}", r.remaining_nonzero);
        assert_eq!(r.flows, truth);
    }

    #[test]
    fn overloaded_sketch_reports_failure() {
        // 4000 flows into 3×400 buckets: load 333% — cannot decode fully.
        let mut s = FermatSketch::<u32>::new(cfg(400));
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..4000 {
            s.insert(&rng.gen());
        }
        let r = s.decode();
        assert!(!r.success);
        assert!(r.remaining_nonzero > 0);
    }

    #[test]
    fn subtraction_yields_victim_flows() {
        // Upstream sees all packets, downstream misses some: the delta
        // decodes exactly the victim flows with their lost-packet counts.
        let c = cfg(256);
        let mut up = FermatSketch::<u32>::new(c);
        let mut down = FermatSketch::<u32>::new(c);
        let mut rng = StdRng::seed_from_u64(9);
        let mut lost: HashMap<u32, i64> = HashMap::new();
        for fid in 0..1000u32 {
            let pkts: i64 = rng.gen_range(1..20);
            let dropped = if fid % 10 == 0 { rng.gen_range(1..=pkts.min(5)) } else { 0 };
            up.insert_weighted(&fid, pkts);
            down.insert_weighted(&fid, pkts - dropped);
            if dropped > 0 {
                lost.insert(fid, dropped);
            }
        }
        up.sub_assign_sketch(&down);
        let r = up.decode();
        assert!(r.success);
        assert_eq!(r.flows, lost);
    }

    #[test]
    fn addition_merges_switch_views() {
        let c = cfg(128);
        let mut a = FermatSketch::<u32>::new(c);
        let mut b = FermatSketch::<u32>::new(c);
        a.insert_weighted(&1, 5);
        b.insert_weighted(&1, 7);
        b.insert_weighted(&2, 2);
        a.add_assign_sketch(&b);
        let r = a.decode();
        assert!(r.success);
        assert_eq!(r.flows.get(&1), Some(&12));
        assert_eq!(r.flows.get(&2), Some(&2));
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn add_incompatible_panics() {
        let mut a = FermatSketch::<u32>::new(cfg(128));
        let b = FermatSketch::<u32>::new(cfg(64));
        a.add_assign_sketch(&b);
    }

    #[test]
    fn negative_weight_cancels_insert() {
        let mut s = FermatSketch::<u32>::new(cfg(32));
        s.insert_weighted(&42, 9);
        s.insert_weighted(&42, -9);
        assert!(s.is_zero());
    }

    #[test]
    fn clear_resets_all_state() {
        let mut s = FermatSketch::<u32>::new(cfg(32));
        s.insert_weighted(&42, 9);
        assert!(!s.is_zero());
        s.clear();
        assert!(s.is_zero());
    }

    #[test]
    fn fingerprint_config_roundtrip() {
        let mut c = cfg(64);
        c.fingerprint_bits = 8;
        let mut s = FermatSketch::<u32>::new(c);
        for fid in 0..30u32 {
            s.insert_weighted(&fid, (fid as i64 % 5) + 1);
        }
        let r = s.decode();
        assert!(r.success);
        assert_eq!(r.flows.len(), 30);
    }

    #[test]
    fn linear_count_tracks_flow_count() {
        let mut s = FermatSketch::<u32>::new(cfg(1000));
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..300 {
            s.insert(&rng.gen());
        }
        for i in 0..3 {
            let est = s.linear_count(i);
            assert!((est - 300.0).abs() < 60.0, "array {i} estimate {est}");
        }
    }

    #[test]
    fn zero_memory_partition_is_inert() {
        let s = FermatSketch::<u32>::new(cfg(0));
        assert!(s.is_zero());
        let r = s.decode();
        assert!(r.success);
        assert_eq!(s.linear_count(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "zero-memory")]
    fn zero_memory_insert_panics() {
        let mut s = FermatSketch::<u32>::new(cfg(0));
        s.insert(&1);
    }

    #[test]
    fn logical_memory_matches_paper_accounting() {
        // 32-bit count + 32-bit ID = 8 bytes per bucket for u32 flow IDs.
        let c = cfg(100);
        assert_eq!(c.logical_bucket_bytes::<u32>(), 8.0);
        assert_eq!(c.logical_memory_bytes::<u32>(), 300.0 * 8.0);
        let mut cf = c;
        cf.fingerprint_bits = 8;
        assert_eq!(cf.logical_bucket_bytes::<u32>(), 9.0);
    }

    #[test]
    fn buckets_for_load_factor() {
        // 700 flows at 70% load over 3 arrays = 1000 buckets total.
        assert_eq!(FermatConfig::buckets_for(700, 3, 0.7), 334);
        assert_eq!(FermatConfig::buckets_for(0, 3, 0.7), 1);
    }

    #[test]
    fn decode_is_nondestructive() {
        let mut s = FermatSketch::<u32>::new(cfg(32));
        s.insert_weighted(&5, 4);
        let r1 = s.decode();
        let r2 = s.decode();
        assert_eq!(r1.flows, r2.flows);
        assert!(!s.is_zero());
    }

    #[test]
    fn decode_with_matches_decode_in_place_across_occupancies() {
        // Sparse, loaded and overloaded (failing) sketches must all agree
        // with the consuming decode.
        for &(m, flows) in &[(4096usize, 40u32), (400, 700), (100, 900)] {
            let mut s = FermatSketch::<u32>::new(cfg(m));
            let mut rng = StdRng::seed_from_u64(m as u64 ^ flows as u64);
            for _ in 0..flows {
                s.insert_weighted(&rng.gen(), rng.gen_range(1..9));
            }
            let mut scratch = DecodeScratch::new();
            let via_scratch = s.decode_with(&mut scratch);
            let via_fresh = s.decode();
            let consuming = s.clone().decode_in_place();
            assert_eq!(via_scratch.flows, consuming.flows, "m={m}");
            assert_eq!(via_scratch.success, consuming.success, "m={m}");
            assert_eq!(via_scratch.remaining_nonzero, consuming.remaining_nonzero);
            assert_eq!(via_fresh.flows, consuming.flows);
            // Decoding must not have mutated the sketch.
            assert_eq!(s.decode().flows, consuming.flows);
        }
    }

    #[test]
    fn decode_scratch_is_reusable_across_epochs() {
        let mut scratch = DecodeScratch::new();
        for epoch in 0..5u64 {
            let mut s = FermatSketch::<u32>::new(cfg(256));
            let mut rng = StdRng::seed_from_u64(epoch);
            let mut truth = HashMap::new();
            for _ in 0..300 {
                let f: u32 = rng.gen();
                *truth.entry(f).or_insert(0) += 1;
                s.insert(&f);
            }
            let r = s.decode_with(&mut scratch);
            assert!(r.success, "epoch {epoch}");
            assert_eq!(r.flows, truth);
        }
    }

    #[test]
    fn extraction_subtracts_the_pure_record_from_every_mapped_bucket() {
        const S: usize = FermatSketch::<FiveTuple>::STRIDE;
        for fingerprint_bits in [0, 8] {
            let m = 16;
            let mut s = FermatSketch::<FiveTuple>::new(FermatConfig {
                fingerprint_bits,
                ..cfg(m)
            });
            let mut rng = StdRng::seed_from_u64(11);
            let flows: Vec<(FiveTuple, i64)> = (0..24)
                .map(|_| {
                    let (a, b): (u64, u64) = (rng.gen(), rng.gen());
                    let t = FiveTuple::unpack((a as u128) << 64 | b as u128);
                    let w = rng.gen_range(1i64..40) * if rng.gen::<bool>() { 1 } else { -1 };
                    (t, w)
                })
                .collect();
            for (f, w) in &flows {
                s.insert_weighted(f, *w);
            }
            let slots = |f: &FiveTuple| -> Vec<usize> {
                let bh = BatchHasher::new(f.key64());
                s.hashes.as_slice().iter().map(|h| bh.index(h, s.reducer)).collect()
            };
            // A flow and an array in which no other flow shares its bucket.
            let (f, w, i) = flows
                .iter()
                .find_map(|&(f, w)| {
                    let own = slots(&f);
                    (0..RECOMMENDED_ARRAYS)
                        .find(|&i| flows.iter().all(|(g, _)| *g == f || slots(g)[i] != own[i]))
                        .map(|i| (f, w, i))
                })
                .expect("some bucket is pure");
            let js = slots(&f);
            let (mut buckets, mut fpsums) = (s.buckets.clone(), s.fpsums.clone());
            let mut queue = VecDeque::new();
            let got = s.extract(&mut buckets, &mut fpsums, i, js[i], &mut queue);
            assert_eq!(got, Some((f, w)), "fingerprint_bits={fingerprint_bits}");
            let wmod = signed_to_mod(w);
            let fp = if fingerprint_bits > 0 {
                mul_mod(wmod, s.fingerprint_premixed(BatchHasher::new(f.key64())))
            } else {
                0
            };
            let mapped: Vec<usize> = js.iter().enumerate().map(|(i2, &j2)| i2 * m + j2).collect();
            for (i2, &b) in mapped.iter().enumerate() {
                let before = &s.buckets[b * S..(b + 1) * S];
                let after = &buckets[b * S..(b + 1) * S];
                if i2 == i {
                    assert!(after.iter().all(|&x| x == 0), "pure record left {after:?}");
                    assert!(fpsums.get(b).is_none_or(|&x| x == 0));
                }
                assert_eq!(count_of(before) - count_of(after), w);
                for k in 0..FiveTuple::FRAGMENTS {
                    let taken = sub_mod(before[1 + k], after[1 + k]);
                    assert_eq!(taken, mul_mod(wmod, f.fragment(k)));
                }
                if fingerprint_bits > 0 {
                    assert_eq!(sub_mod(s.fpsums[b], fpsums[b]), fp);
                }
            }
            // Nothing else moved; the other mapped buckets still hold flows
            // and were requeued.
            for b in (0..s.cfg.total_buckets()).filter(|b| !mapped.contains(b)) {
                assert_eq!(s.buckets[b * S..(b + 1) * S], buckets[b * S..(b + 1) * S]);
            }
            assert_eq!(s.fpsums.len(), fpsums.len());
            assert!(!queue.is_empty(), "the test needs a shared bucket");
            for &(i2, j2) in &queue {
                assert_ne!(i2 as usize, i);
                assert_eq!(js[i2 as usize], j2 as usize);
            }
        }
    }

    #[test]
    fn high_load_failure_rate_matches_threshold() {
        // Just above the 1/1.23 = 81.3% load threshold decoding should
        // mostly fail; comfortably below it should mostly succeed.
        let trials = 30;
        let mut below = 0;
        let mut above = 0;
        for t in 0..trials {
            let mut rng = StdRng::seed_from_u64(100 + t);
            let flows = 1000usize;
            // 1.30 buckets/flow: below the load threshold.
            let mut s = FermatSketch::<u32>::new(FermatConfig::standard(
                (flows as f64 * 1.30 / 3.0).ceil() as usize,
                t,
            ));
            for _ in 0..flows {
                s.insert(&rng.gen());
            }
            if s.decode().success {
                below += 1;
            }
            // 1.10 buckets/flow: over the threshold.
            let mut s = FermatSketch::<u32>::new(FermatConfig::standard(
                (flows as f64 * 1.10 / 3.0).ceil() as usize,
                t,
            ));
            for _ in 0..flows {
                s.insert(&rng.gen());
            }
            if s.decode().success {
                above += 1;
            }
        }
        assert!(below >= trials - 2, "below-threshold successes: {below}/{trials}");
        assert!(above <= 2, "above-threshold successes: {above}/{trials}");
    }
}
