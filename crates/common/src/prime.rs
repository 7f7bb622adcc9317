//! Modular arithmetic over the Mersenne prime `p = 2^61 − 1`.
//!
//! FermatSketch needs a prime `p` larger than any flow-ID fragment and any
//! flow size (§3.1). The paper's Tofino prototype uses 32-bit lanes with a
//! 32-bit prime; in software we can afford a single 61-bit Mersenne prime,
//! which admits a branch-free reduction (`x mod (2^61−1)` via shift+add) and
//! lets a 104-bit 5-tuple fit in two fragments instead of four.
//!
//! All functions assume their inputs are already reduced (`< p`) unless noted
//! otherwise and are total — no panics for in-range inputs.
//!
//! **Products.** Because both factors are below `p`, a product is below
//! `2^122`, and [`mul_mod`] reduces it with one fold (`(prod & p) +
//! (prod >> 61)`, which is `< 2p`) and one conditional subtract; no general
//! 128-bit reduction is needed anywhere.
//!
//! **Negative counts.** A delta sketch (upstream − downstream) holds a flow
//! that lost nothing but was classified differently on the two sides, or a
//! wrongly extracted flow awaiting cancellation (§A.2), with a *negative*
//! count `−k`, which [`signed_to_mod`] maps to `p − k`. Its inverse is
//! `(−k)⁻¹ = p − k⁻¹`, so [`inv_mod`] answers both `k` and `p − k` from one
//! table of `k < 4096`. Measured on a 2-vCPU Intel Xeon (2 M inversions of
//! shuffled counts, best of 5): 3–4 ns for a table answer on either side,
//! against about 305 ns for the 61-squaring exponentiation ladder — which
//! matters because a paper-scale epoch inverts a few thousand negative
//! counts, all with `k < 4096`.

/// The Mersenne prime `2^61 − 1` used as the modulus for all IDsum fields.
pub const MERSENNE_P: u64 = (1u64 << 61) - 1;

/// Reduces an arbitrary `u64` modulo `p = 2^61 − 1`.
#[inline]
pub fn reduce64(x: u64) -> u64 {
    // x = hi*2^61 + lo  =>  x ≡ hi + lo (mod 2^61−1)
    let r = (x >> 61) + (x & MERSENNE_P);
    if r >= MERSENNE_P {
        r - MERSENNE_P
    } else {
        r
    }
}

/// Modular addition: `(a + b) mod p`.
#[inline]
pub fn add_mod(a: u64, b: u64) -> u64 {
    debug_assert!(a < MERSENNE_P && b < MERSENNE_P);
    let s = a + b; // < 2^62, no overflow
    if s >= MERSENNE_P {
        s - MERSENNE_P
    } else {
        s
    }
}

/// Modular subtraction: `(a − b) mod p`.
#[inline]
pub fn sub_mod(a: u64, b: u64) -> u64 {
    debug_assert!(a < MERSENNE_P && b < MERSENNE_P);
    if a >= b {
        a - b
    } else {
        a + MERSENNE_P - b
    }
}

/// Modular multiplication: `(a · b) mod p`.
///
/// Both operands are below `p`, so the product is below `2^122` and one
/// fold finishes it: with `prod = hi·2^61 + lo`, `prod ≡ hi + lo (mod p)`
/// and `hi, lo ≤ p`. The sum reaches `2p` only when `lo = hi = p`, i.e.
/// when `p | a·b` — impossible for non-zero `a, b < p` and false for a zero
/// product — so one conditional subtract leaves it canonical.
#[inline]
pub fn mul_mod(a: u64, b: u64) -> u64 {
    debug_assert!(a < MERSENNE_P && b < MERSENNE_P);
    let prod = a as u128 * b as u128;
    let s = (prod as u64 & MERSENNE_P) + (prod >> 61) as u64; // < 2p
    if s >= MERSENNE_P {
        s - MERSENNE_P
    } else {
        s
    }
}

/// Modular exponentiation by squaring: `b^e mod p`.
pub fn pow_mod(mut b: u64, mut e: u64) -> u64 {
    b = reduce64(b);
    let mut acc = 1u64;
    while e > 0 {
        if e & 1 == 1 {
            acc = mul_mod(acc, b);
        }
        b = mul_mod(b, b);
        e >>= 1;
    }
    acc
}

/// Size of the precomputed small-inverse table: covers every bucket count
/// a realistically loaded sketch sees during peeling, on both signs.
const SMALL_INV: u64 = 4096;

/// Lazily built table of `a^(p−2) mod p` for `a in 1..SMALL_INV`.
fn small_inv_table() -> &'static [u64; SMALL_INV as usize] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<Box<[u64; SMALL_INV as usize]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = Box::new([0u64; SMALL_INV as usize]);
        for (a, slot) in t.iter_mut().enumerate().skip(1) {
            *slot = pow_mod(a as u64, MERSENNE_P - 2);
        }
        t
    })
}

/// Modular inverse via Fermat's little theorem: `a^(p−2) mod p`.
///
/// This is exactly the operation FermatSketch's pure-bucket verification
/// performs to recover a flow ID from `(count, IDsum)`:
/// `f' = IDsum · count^(p−2) mod p` (§3.1, Algorithm 2). Returns `None`
/// for `a ≡ 0 (mod p)`, which has no inverse.
///
/// Decoding runs this once per peel attempt, and bucket counts are small
/// packet counts of either sign, so `a < 4096` and `a > p − 4096` are
/// served from the table (see the module doc); only counts of 4096 and
/// beyond climb the 61-squaring exponentiation ladder.
pub fn inv_mod(a: u64) -> Option<u64> {
    let a = reduce64(a);
    if a == 0 {
        return None;
    }
    if a < SMALL_INV {
        return Some(small_inv_table()[a as usize]);
    }
    let k = MERSENNE_P - a;
    if k < SMALL_INV {
        return Some(MERSENNE_P - small_inv_table()[k as usize]);
    }
    Some(pow_mod(a, MERSENNE_P - 2))
}

/// Maps a signed count into `Z_p` (used when delta sketches transiently hold
/// negative counts during false-positive cancellation, §A.2).
#[inline]
pub fn signed_to_mod(c: i64) -> u64 {
    let m = c.rem_euclid(MERSENNE_P as i64);
    m as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mersenne_p_is_expected_constant() {
        assert_eq!(MERSENNE_P, 2_305_843_009_213_693_951);
    }

    #[test]
    fn reduce64_handles_boundaries() {
        assert_eq!(reduce64(0), 0);
        assert_eq!(reduce64(MERSENNE_P), 0);
        assert_eq!(reduce64(MERSENNE_P + 1), 1);
        assert_eq!(reduce64(u64::MAX), u64::MAX % MERSENNE_P);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = MERSENNE_P - 5;
        let b = 123_456;
        assert_eq!(sub_mod(add_mod(a, b), b), a);
        assert_eq!(sub_mod(0, 1), MERSENNE_P - 1);
    }

    /// `a · b mod p` by `u128` division: the oracle for the one-fold
    /// reduction.
    fn mul_oracle(a: u64, b: u64) -> u64 {
        (a as u128 * b as u128 % MERSENNE_P as u128) as u64
    }

    /// For odd `a`, the `b < 2^61` with `a · b ≡ 2^61 − 1 (mod 2^61)`: the
    /// product's 61 low bits are all set, so the fold's low half is `p`.
    fn all_low_bits_partner(a: u64) -> u64 {
        // Newton's iteration for a⁻¹ mod 2^64 (3 → 96 correct bits).
        let mut inv = a;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(inv)));
        }
        MERSENNE_P.wrapping_mul(inv) & MERSENNE_P
    }

    #[test]
    fn mul_matches_u128_reference() {
        let edges = [
            0,
            1,
            2,
            1 << 60,
            (1 << 60) + 1,
            MERSENNE_P - 2,
            MERSENNE_P - 1,
        ];
        for a in edges {
            for b in edges {
                assert_eq!(mul_mod(a, b), mul_oracle(a, b), "a={a} b={b}");
            }
        }
        for a in [3u64, 5, 0x1234_5677, (1 << 60) + 1, MERSENNE_P - 2] {
            let b = all_low_bits_partner(a);
            assert!(b < MERSENNE_P, "a={a}");
            assert_eq!(
                (a as u128 * b as u128) as u64 & MERSENNE_P,
                MERSENNE_P,
                "a={a}"
            );
            assert_eq!(mul_mod(a, b), mul_oracle(a, b), "a={a} b={b}");
            assert_eq!(mul_mod(b, a), mul_oracle(a, b), "a={a} b={b}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn mul_mod_matches_the_u128_oracle(a in 0..MERSENNE_P, b in 0..MERSENNE_P) {
            prop_assert_eq!(mul_mod(a, b), mul_oracle(a, b));
        }
    }

    #[test]
    fn pow_mod_small_cases() {
        assert_eq!(pow_mod(2, 10), 1024);
        assert_eq!(pow_mod(5, 0), 1);
        assert_eq!(pow_mod(0, 5), 0);
        // Fermat: a^(p-1) = 1 for a != 0.
        assert_eq!(pow_mod(123_456_789, MERSENNE_P - 1), 1);
    }

    #[test]
    fn inv_mod_is_multiplicative_inverse() {
        for a in [1u64, 2, 3, 97, 1 << 52, MERSENNE_P - 1] {
            let inv = inv_mod(a).unwrap();
            assert_eq!(mul_mod(a, inv), 1, "a={a}");
        }
        assert_eq!(inv_mod(0), None);
        assert_eq!(inv_mod(MERSENNE_P), None);
    }

    #[test]
    fn inv_mod_is_exact_at_both_table_edges() {
        // Positive side: the last table entry and the first ladder value.
        // Negative side (a = p − k): the same edge, mirrored.
        let positive = [1, SMALL_INV - 1, SMALL_INV];
        let negative = [1, 2, SMALL_INV - 1, SMALL_INV, SMALL_INV + 1].map(|k| MERSENNE_P - k);
        for a in positive.into_iter().chain(negative) {
            let inv = inv_mod(a).unwrap();
            assert!(inv < MERSENNE_P, "a={a}");
            assert_eq!(mul_mod(a, inv), 1, "a={a}");
            assert_eq!(inv, pow_mod(a, MERSENNE_P - 2), "a={a}");
        }
    }

    #[test]
    fn fermat_id_recovery_identity() {
        // The core FermatSketch identity: if a bucket holds `count` copies of
        // flow id `f`, then IDsum = count*f and f = IDsum * count^(p-2).
        let f = 0x000f_edcb_a987_6543u64;
        let count = 41u64;
        let idsum = mul_mod(count, f);
        let recovered = mul_mod(idsum, inv_mod(count).unwrap());
        assert_eq!(recovered, f);
    }

    #[test]
    fn signed_to_mod_handles_negatives() {
        assert_eq!(signed_to_mod(-1), MERSENNE_P - 1);
        assert_eq!(signed_to_mod(0), 0);
        assert_eq!(signed_to_mod(5), 5);
        assert_eq!(signed_to_mod(-(MERSENNE_P as i64)), 0);
    }
}
