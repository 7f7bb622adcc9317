//! Pins the peel (Algorithm 2) bit for bit: `(success, remaining_nonzero,
//! flowset size, order-independent flowset digest)` for seeded sketches in
//! every decode regime. The constants in [`PINS`] were recorded by the
//! two-strategy decoder (overlay at ≤ 1/8 occupancy, dense copy above) that
//! preceded the single copy-and-peel path, so any change to queue order,
//! work budget, purity checks or cancellation — including on decodes that
//! fail and return a partial flowset — fails here.
//!
//! To re-record after an intended change, run with `--nocapture`: a
//! mismatch prints the whole table as measured.

use chm_common::flowid::{FiveTuple, FlowId};
use chm_fermat::{DecodeResult, DecodeScratch, FermatConfig, FermatSketch};

const BUCKETS_PER_ARRAY: usize = 1024;
const TOTAL_BUCKETS: usize = 3 * BUCKETS_PER_ARRAY;
const SEED: u64 = 23;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

trait PinFlow: FlowId {
    const NAME: &'static str;
    fn from_words(a: u64, b: u64) -> Self;
}

impl PinFlow for u32 {
    const NAME: &'static str = "u32";
    fn from_words(a: u64, _b: u64) -> Self {
        a as u32
    }
}

impl PinFlow for FiveTuple {
    const NAME: &'static str = "FiveTuple";
    fn from_words(a: u64, b: u64) -> Self {
        FiveTuple {
            src_ip: a as u32,
            dst_ip: (a >> 32) as u32,
            src_port: b as u16,
            dst_port: (b >> 16) as u16,
            proto: 6 + (b >> 32) as u8 % 2 * 11,
        }
    }
}

/// The sketch of one regime. Bucket counts straddle the small-inverse
/// table's edge (4096) on both signs: `loaded` sums weights up to 2 000,
/// `delta` holds flows of −6 001 to −4.
fn build<F: PinFlow>(regime: &str, fingerprint_bits: u32, seed: u64) -> FermatSketch<F> {
    let cfg = FermatConfig {
        fingerprint_bits,
        ..FermatConfig::standard(BUCKETS_PER_ARRAY, seed)
    };
    let mut state = seed ^ 0x5eed_f00d;
    let next = |state: &mut u64| {
        let (a, b) = (splitmix(state), splitmix(state));
        (F::from_words(a, b), 1 + (b >> 40) as i64 % 2_000)
    };
    let mut up = FermatSketch::<F>::new(cfg);
    if regime == "delta" {
        // 100 differing flows (≤ 300 of 3 072 buckets hot) under 1 500
        // flows both sides saw whole; every fifth differing flow has up to
        // four times the packets downstream and decodes negative.
        let mut down = FermatSketch::<F>::new(cfg);
        for i in 0..1_600 {
            let (f, w) = next(&mut state);
            let d = match i {
                i if i >= 100 => w,
                i if i % 5 == 0 => w + 1 + 3 * w,
                _ => w - (w / 10).max(1),
            };
            up.insert_weighted(&f, w);
            down.insert_weighted(&f, d);
        }
        up.sub_assign_sketch(&down);
        return up;
    }
    let flows_per_bucket = match regime {
        "loaded" => 0.74,
        "over1.1" => 1.1,
        "over3.3" => 3.3,
        other => panic!("unknown regime {other}"),
    };
    // Overloaded sketches hold flows of both signs, a packet or two each:
    // a mixed bucket with a net count of ±1 then often recovers an in-range
    // ID, and the false extractions cycle (§A.2). At `SEED`, `over1.1`
    // without fingerprints runs out of work budget for both flow types
    // (seen with a print at the budget check while recording the pins).
    let overloaded = regime != "loaded";
    for i in 0..(flows_per_bucket * TOTAL_BUCKETS as f64) as usize {
        let (f, w) = next(&mut state);
        let w = if overloaded { (1 + w % 2) * if i % 3 == 0 { -1 } else { 1 } } else { w };
        up.insert_weighted(&f, w);
    }
    up
}

/// Sum over entries of a mix of (fragments, size): independent of the
/// map's iteration order, sensitive to every key and every count.
fn digest<F: FlowId>(r: &DecodeResult<F>) -> u64 {
    r.flows
        .iter()
        .map(|(f, &c)| {
            let mut state = c as u64;
            for k in 0..F::FRAGMENTS {
                state = splitmix(&mut state) ^ f.fragment(k);
            }
            splitmix(&mut state)
        })
        .fold(0u64, u64::wrapping_add)
}

type Pin = (&'static str, &'static str, u32, bool, usize, usize, u64);

fn measure<F: PinFlow>(
    regime: &'static str,
    fingerprint_bits: u32,
    scratch: &mut DecodeScratch<F>,
) -> Pin {
    let seed = SEED + u64::from(fingerprint_bits);
    let sketch = build::<F>(regime, fingerprint_bits, seed);
    let before = sketch.clone();
    let r = sketch.decode_with(scratch);
    let stats = scratch.last_stats;
    let tag = format!("{regime}/{}/fp{fingerprint_bits}", F::NAME);

    assert_eq!(sketch, before, "{tag}: decode_with changed the sketch");
    assert_eq!(stats.total_buckets, TOTAL_BUCKETS, "{tag}");
    assert_eq!(stats.decoded_flows, r.flows.len(), "{tag}");
    assert_eq!(
        stats.sparse,
        stats.hot_buckets * 8 <= stats.total_buckets,
        "{tag}: `sparse` is the ≤ 1/8 occupancy class"
    );
    assert_eq!(stats.sparse, regime == "delta", "{tag}: regime misses its occupancy class");
    if regime == "delta" {
        assert!(r.flows.values().any(|&c| c < 0), "{tag}: no negative flow");
    }
    if regime == "over3.3" {
        assert!(!r.success, "{tag}: 3.3 flows per bucket cannot decode");
    }

    for (name, other) in [
        ("decode", sketch.decode()),
        ("decode_in_place", sketch.clone().decode_in_place()),
    ] {
        assert_eq!(other.flows, r.flows, "{tag}: {name} flowset");
        assert_eq!(other.success, r.success, "{tag}: {name} success");
        assert_eq!(other.remaining_nonzero, r.remaining_nonzero, "{tag}: {name} remaining");
    }
    (regime, F::NAME, fingerprint_bits, r.success, r.remaining_nonzero, r.flows.len(), digest(&r))
}

/// (regime, flow type, fingerprint bits) → (success, remaining_nonzero,
/// flowset size, flowset digest).
const PINS: [Pin; 16] = [
    ("delta", "u32", 0, true, 0, 100, 0x959bae0d3b0ab0ef),
    ("delta", "FiveTuple", 0, true, 0, 100, 0x2ee8fb33fa9ae620),
    ("delta", "u32", 8, true, 0, 100, 0x683d246e9015366f),
    ("delta", "FiveTuple", 8, true, 0, 100, 0x169d379b9e28fcc0),
    ("loaded", "u32", 0, true, 0, 2273, 0x52e030a49070c63b),
    ("loaded", "FiveTuple", 0, true, 0, 2273, 0x7af1d25db9a925bc),
    ("loaded", "u32", 8, true, 0, 2273, 0x42299a5cf983a466),
    ("loaded", "FiveTuple", 8, true, 0, 2273, 0x17c7ac13a4bf6a0c),
    ("over1.1", "u32", 0, false, 2450, 489, 0xde51eb40d6ce65e1),
    ("over1.1", "FiveTuple", 0, false, 2441, 487, 0x7007c0602395738e),
    ("over1.1", "u32", 8, false, 2461, 491, 0x2b3e0e8229ef5671),
    ("over1.1", "FiveTuple", 8, false, 2476, 468, 0xc3c0654795dab69c),
    ("over3.3", "u32", 0, false, 3071, 1, 0x953b3a66b9d7845c),
    ("over3.3", "FiveTuple", 0, false, 3071, 1, 0x09c32324e2298e13),
    ("over3.3", "u32", 8, false, 3070, 2, 0xc973f7dd4b174183),
    ("over3.3", "FiveTuple", 8, false, 3071, 1, 0xb3f01c36913fde94),
];

#[test]
fn every_regime_decodes_to_its_pinned_result() {
    // One scratch per flow type across all regimes, as an epoch loop holds it.
    let mut s32 = DecodeScratch::<u32>::new();
    let mut s5 = DecodeScratch::<FiveTuple>::new();
    let mut measured = Vec::new();
    for regime in ["delta", "loaded", "over1.1", "over3.3"] {
        for fingerprint_bits in [0, 8] {
            measured.push(measure::<u32>(regime, fingerprint_bits, &mut s32));
            measured.push(measure::<FiveTuple>(regime, fingerprint_bits, &mut s5));
        }
    }
    if measured != PINS {
        for (regime, ty, fp, success, remaining, len, digest) in &measured {
            println!(
                "    ({regime:?}, {ty:?}, {fp}, {success}, {remaining}, {len}, {digest:#018x}),"
            );
        }
        panic!("decode results moved from the pinned table (measured table printed above)");
    }
}
