//! Flow identifiers and their fragmentation into IDsum lanes.
//!
//! FermatSketch encodes a flow ID into an `IDsum mod p` field, so the ID must
//! be smaller than the prime. A 104-bit 5-tuple does not fit under our 61-bit
//! prime, so — exactly like the paper's Tofino prototype, which splits the
//! 5-tuple across four 32-bit register lanes (§D.1, Figure 13) — we split IDs
//! into **fragments**, each encoded in its own IDsum lane. Decoding recovers
//! every fragment independently from the same pure bucket and reassembles the
//! ID, rejecting any fragment that exceeds its lane width (such buckets
//! cannot be pure).

use crate::hash::combine64;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};

/// Width of one ID fragment in bits. Fragments must stay below the 61-bit
/// Mersenne prime; 52 bits gives headroom and splits 104 bits evenly in two.
pub const FRAGMENT_BITS: u32 = 52;

/// Maximum value of a single fragment (inclusive).
pub const FRAGMENT_MAX: u64 = (1u64 << FRAGMENT_BITS) - 1;

/// A flow identifier that can be fragmented into IDsum lanes.
///
/// Implementors guarantee that every fragment is `<= FRAGMENT_MAX` so the
/// modular encoding is injective, and that `try_from_fragments` is the exact
/// inverse of `fragment` (and returns `None` for out-of-range lanes, which is
/// how impure buckets are rejected during decode).
pub trait FlowId: Copy + Eq + Ord + Hash + Debug + Send + Sync + 'static {
    /// Number of IDsum lanes this ID occupies.
    const FRAGMENTS: usize;

    /// The `i`-th fragment, `i < Self::FRAGMENTS`; always `<= FRAGMENT_MAX`.
    fn fragment(&self, i: usize) -> u64;

    /// Reassembles an ID from decoded fragments. `None` if any fragment is
    /// out of range (the candidate bucket is not pure).
    fn try_from_fragments(frags: &[u64]) -> Option<Self>;

    /// A single 64-bit key mixing all fragments, fed to the hash family.
    fn key64(&self) -> u64;
}

impl FlowId for u32 {
    const FRAGMENTS: usize = 1;

    #[inline]
    fn fragment(&self, i: usize) -> u64 {
        debug_assert_eq!(i, 0);
        *self as u64
    }

    fn try_from_fragments(frags: &[u64]) -> Option<Self> {
        match frags {
            [f] if *f <= u32::MAX as u64 => Some(*f as u32),
            _ => None,
        }
    }

    #[inline]
    fn key64(&self) -> u64 {
        *self as u64
    }
}

impl FlowId for u64 {
    const FRAGMENTS: usize = 2;

    #[inline]
    fn fragment(&self, i: usize) -> u64 {
        match i {
            0 => *self & 0xffff_ffff,
            1 => *self >> 32,
            _ => unreachable!("u64 has 2 fragments"),
        }
    }

    fn try_from_fragments(frags: &[u64]) -> Option<Self> {
        match frags {
            [lo, hi] if *lo <= 0xffff_ffff && *hi <= 0xffff_ffff => Some((hi << 32) | lo),
            _ => None,
        }
    }

    #[inline]
    fn key64(&self) -> u64 {
        *self
    }
}

/// The classic 104-bit transport 5-tuple used as the flow ID on the testbed
/// (§5.2: "We use the 104-bit 5-tuple as the flow ID").
///
/// `Eq` and `Ord` are derived field by field; `Hash` feeds the hasher the
/// one [`pack`](Self::pack)ed word, which equal tuples share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FiveTuple {
    /// IPv4 source address.
    pub src_ip: u32,
    /// IPv4 destination address.
    pub dst_ip: u32,
    /// Transport source port.
    pub src_port: u16,
    /// Transport destination port.
    pub dst_port: u16,
    /// IP protocol number (e.g. 17 for the UDP flows on the testbed).
    pub proto: u8,
}

impl FiveTuple {
    /// Packs the 104 significant bits into the low bits of a `u128`.
    #[inline]
    pub fn pack(&self) -> u128 {
        (self.src_ip as u128) << 72
            | (self.dst_ip as u128) << 40
            | (self.src_port as u128) << 24
            | (self.dst_port as u128) << 8
            | self.proto as u128
    }

    /// Inverse of [`pack`](Self::pack); ignores bits above 104.
    #[inline]
    pub fn unpack(v: u128) -> Self {
        FiveTuple {
            src_ip: (v >> 72) as u32,
            dst_ip: (v >> 40) as u32,
            src_port: (v >> 24) as u16,
            dst_port: (v >> 8) as u16,
            proto: v as u8,
        }
    }
}

impl Hash for FiveTuple {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u128(self.pack());
    }
}

impl FlowId for FiveTuple {
    const FRAGMENTS: usize = 2;

    #[inline]
    fn fragment(&self, i: usize) -> u64 {
        let v = self.pack();
        match i {
            0 => (v & FRAGMENT_MAX as u128) as u64,
            1 => ((v >> FRAGMENT_BITS) & FRAGMENT_MAX as u128) as u64,
            _ => unreachable!("FiveTuple has 2 fragments"),
        }
    }

    fn try_from_fragments(frags: &[u64]) -> Option<Self> {
        match frags {
            [lo, hi] if *lo <= FRAGMENT_MAX && *hi <= FRAGMENT_MAX => {
                Some(FiveTuple::unpack(((*hi as u128) << FRAGMENT_BITS) | *lo as u128))
            }
            _ => None,
        }
    }

    #[inline]
    fn key64(&self) -> u64 {
        combine64(self.fragment(0), self.fragment(1))
    }
}

/// Maximum number of fragments any supported [`FlowId`] uses; sketches size
/// their per-bucket lane storage with this.
pub const MAX_FRAGMENTS: usize = 2;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;

    fn sample_tuple() -> FiveTuple {
        FiveTuple {
            src_ip: 0x0a00_0102,
            dst_ip: 0xc0a8_01fe,
            src_port: 443,
            dst_port: 51_234,
            proto: 17,
        }
    }

    #[test]
    fn u32_roundtrip() {
        for v in [0u32, 1, 0xdead_beef, u32::MAX] {
            let frags: Vec<u64> = (0..<u32 as FlowId>::FRAGMENTS).map(|i| v.fragment(i)).collect();
            assert_eq!(u32::try_from_fragments(&frags), Some(v));
        }
        assert_eq!(u32::try_from_fragments(&[u32::MAX as u64 + 1]), None);
        assert_eq!(u32::try_from_fragments(&[]), None);
        assert_eq!(u32::try_from_fragments(&[1, 2]), None);
    }

    #[test]
    fn u64_roundtrip() {
        for v in [0u64, 1, u64::MAX, 0x0123_4567_89ab_cdef] {
            let frags: Vec<u64> = (0..<u64 as FlowId>::FRAGMENTS).map(|i| v.fragment(i)).collect();
            assert_eq!(u64::try_from_fragments(&frags), Some(v));
        }
        assert_eq!(u64::try_from_fragments(&[1u64 << 32, 0]), None);
    }

    #[test]
    fn five_tuple_pack_unpack_roundtrip() {
        let t = sample_tuple();
        assert_eq!(FiveTuple::unpack(t.pack()), t);
    }

    fn hash_of(t: &FiveTuple) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    proptest! {
        #[test]
        fn five_tuple_packs_losslessly_and_hashes_as_one_word(
            src_ip in any::<u32>(),
            dst_ip in any::<u32>(),
            src_port in any::<u16>(),
            dst_port in any::<u16>(),
            proto in any::<u8>(),
        ) {
            let t = FiveTuple { src_ip, dst_ip, src_port, dst_port, proto };
            prop_assert_eq!(FiveTuple::unpack(t.pack()), t);
            let twin = FiveTuple::unpack(t.pack());
            prop_assert_eq!(hash_of(&t), hash_of(&twin));
            let mut word = DefaultHasher::new();
            word.write_u128(t.pack());
            prop_assert_eq!(hash_of(&t), word.finish());
        }
    }

    #[test]
    fn five_tuple_fragment_roundtrip() {
        let t = sample_tuple();
        let frags: Vec<u64> = (0..FiveTuple::FRAGMENTS).map(|i| t.fragment(i)).collect();
        assert!(frags.iter().all(|&f| f <= FRAGMENT_MAX));
        assert_eq!(FiveTuple::try_from_fragments(&frags), Some(t));
    }

    #[test]
    fn five_tuple_rejects_out_of_range_fragment() {
        assert_eq!(FiveTuple::try_from_fragments(&[FRAGMENT_MAX + 1, 0]), None);
        assert_eq!(FiveTuple::try_from_fragments(&[0, FRAGMENT_MAX + 1]), None);
    }

    #[test]
    fn distinct_tuples_have_distinct_keys() {
        let a = sample_tuple();
        let mut b = a;
        b.proto = 6;
        assert_ne!(a.key64(), b.key64());
        let mut c = a;
        c.src_port = 444;
        assert_ne!(a.key64(), c.key64());
    }

    #[test]
    fn pack_is_injective_on_all_fields() {
        let base = sample_tuple();
        let variants = [
            FiveTuple { src_ip: base.src_ip ^ 1, ..base },
            FiveTuple { dst_ip: base.dst_ip ^ 1, ..base },
            FiveTuple { src_port: base.src_port ^ 1, ..base },
            FiveTuple { dst_port: base.dst_port ^ 1, ..base },
            FiveTuple { proto: base.proto ^ 1, ..base },
        ];
        for v in variants {
            assert_ne!(v.pack(), base.pack());
        }
    }
}
