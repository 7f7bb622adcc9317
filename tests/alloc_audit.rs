//! Allocation audit of the per-packet hot path: `TowerSketch` and
//! `FermatSketch` inserts must never allocate — the packet engine's speed
//! rests on it — and a warmed `FermatSketch::decode_with` allocates its
//! result, once, and nothing else. The epoch flip zeroes its groups in
//! place: a steady flip allocates nothing, a reconfiguring one only the
//! encoders whose size changed. A warm flow-size distribution requests
//! the slots its estimate reaches, not one per value a 16-bit counter can
//! hold. Verified with a counting global
//! allocator (the test-binary equivalent of a debug-assertion-gated
//! allocation counter: it only exists here, costs nothing in the shipped
//! crates, and fails the suite loudly if an allocation sneaks into the hot
//! path).

use chamelemon_repro::chamelemon::{DataPlaneConfig, EdgeDataPlane, Partition, RuntimeConfig};
use chamelemon_repro::chm_fermat::{DecodeResult, DecodeScratch, FermatConfig, FermatSketch};
use chamelemon_repro::chm_tower::{MracConfig, MracScratch, TowerConfig, TowerLevel, TowerSketch};
use chamelemon_repro::chm_common::{FiveTuple, FlowId};
use chm_counting_alloc::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn allocations_during(f: impl FnOnce()) -> u64 {
    ALLOC.calls_during(f).0
}

/// Minimum over two passes: one-time process-level allocations (lazy
/// statics, TLS, harness bookkeeping racing on the global counter) can
/// land in any single window; a hot path that truly allocates shows up in
/// every pass.
fn steady_allocations_during(mut f: impl FnMut()) -> u64 {
    let a = allocations_during(&mut f);
    let b = allocations_during(&mut f);
    a.min(b)
}

fn tuple(i: u32) -> FiveTuple {
    FiveTuple {
        src_ip: 0x0a00_0000 | i,
        dst_ip: 0x0b00_0000 | i.rotate_left(7),
        src_port: (i % 50_000) as u16,
        dst_port: 443,
        proto: 17,
    }
}

/// One `#[test]` on purpose: the allocation counter is process-global, and
/// concurrently running tests would land their allocations in each other's
/// measured windows.
#[test]
fn hot_paths_do_not_allocate() {
    tower_insert_does_not_allocate();
    fermat_insert_does_not_allocate();
    warmed_decode_allocates_only_its_flowset();
    flip_allocates_only_for_resized_encoders();
    warm_distribution_ends_at_its_estimate();
}

fn tower_insert_does_not_allocate() {
    let mut t = TowerSketch::new(TowerConfig::paper_default(1));
    // Warm-up (first touches, lazy statics).
    for i in 0..64u64 {
        t.insert_and_query(i);
    }
    let n = steady_allocations_during(|| {
        for i in 0..20_000u64 {
            std::hint::black_box(t.insert_and_query(i));
        }
    });
    assert_eq!(n, 0, "TowerSketch::insert_and_query allocated {n} times");
    let n = steady_allocations_during(|| {
        for i in 0..5_000u64 {
            std::hint::black_box(t.insert_burst(i, 25, 3, 10));
        }
    });
    assert_eq!(n, 0, "TowerSketch::insert_burst allocated {n} times");
}

/// A warm `flow_size_distribution_into` of a small sketch into an empty
/// `Vec` requests what its estimate reaches — a few hundred sizes here —
/// not a dense slab of one `f64` per 16-bit counter value (512 KiB).
fn warm_distribution_ends_at_its_estimate() {
    let mut t = TowerSketch::new(TowerConfig {
        levels: vec![TowerLevel { width: 2048, bits: 8 }, TowerLevel { width: 1024, bits: 16 }],
        seed: 1,
    });
    for i in 0..600u64 {
        // Mice mostly, some mid-sized flows, a few past the 8-bit level.
        let size = match i % 20 {
            0 => 300 + i,
            1..=4 => 10 + i % 90,
            _ => 1 + i % 4,
        };
        t.insert_burst(tuple(i as u32).key64(), size, 1, 1);
    }
    let em = MracConfig::realtime();
    let mut scratch = MracScratch::default();
    let mut dist = Vec::new();
    t.flow_size_distribution_into(&[], &em, &mut scratch, &mut dist);
    let mut bytes = u64::MAX;
    for _ in 0..2 {
        let mut dist = Vec::new();
        let before = ALLOC.bytes();
        t.flow_size_distribution_into(&[], &em, &mut scratch, &mut dist);
        bytes = bytes.min(ALLOC.bytes() - before);
        std::hint::black_box(&dist);
    }
    assert!(bytes < 64 << 10, "a warm distribution requested {bytes} B");
}

fn fermat_insert_does_not_allocate() {
    let mut s = FermatSketch::<FiveTuple>::new(FermatConfig::standard(4096, 2));
    for i in 0..64u32 {
        s.insert(&tuple(i));
    }
    let n = steady_allocations_during(|| {
        for i in 0..20_000u32 {
            s.insert(&tuple(i));
        }
    });
    assert_eq!(n, 0, "FermatSketch::insert allocated {n} times");
    let n = steady_allocations_during(|| {
        for i in 0..5_000u32 {
            s.insert_weighted(&tuple(i), 3);
        }
    });
    assert_eq!(n, 0, "FermatSketch::insert_weighted allocated {n} times");
}

/// Decodes `s` through a scratch warmed by an earlier decode of it, keeping
/// the result as `Controller::analyze_epoch` does, and asserts that the
/// decode allocated once — the flowset — and requested no more bytes than
/// that table holds. Returns the bytes requested and the result.
fn warmed_decode<F: FlowId>(
    what: &str,
    s: &FermatSketch<F>,
    scratch: &mut DecodeScratch<F>,
) -> (u64, DecodeResult<F>) {
    drop(s.decode_with(scratch));
    let mut result = None;
    let mut bytes = 0;
    let n = steady_allocations_during(|| {
        let before = ALLOC.bytes();
        result = Some(std::hint::black_box(s.decode_with(scratch)));
        bytes = ALLOC.bytes() - before;
    });
    let r = result.expect("the closure ran");
    assert_eq!(n, 1, "warmed {what} decode_with allocated {n} times, not once for its flowset");
    let holds = table_bytes::<F>(r.flows.capacity());
    assert!(bytes <= holds, "{what} decode requested {bytes} B for a {holds} B flowset");
    (bytes, r)
}

/// Upper bound on the bytes of a `HashMap<F, i64>` table that holds
/// `capacity` entries: its power-of-two bucket count (capacity is 7/8 of
/// it) times one entry and one control byte, plus a group of padding.
fn table_bytes<F>(capacity: usize) -> u64 {
    let buckets = (capacity * 8).div_ceil(7).next_power_of_two();
    (buckets * (std::mem::size_of::<(F, i64)>() + 1) + 64) as u64
}

fn warmed_decode_allocates_only_its_flowset() {
    // The repo benchmark's `fermat_codec` geometry: 8 000 flows in 3 × 3584
    // buckets (load 0.74), then the delta of the 320 that lost packets.
    let cfg = FermatConfig::standard(3584, 5);
    let mut up = FermatSketch::<FiveTuple>::new(cfg);
    let mut down = FermatSketch::<FiveTuple>::new(cfg);
    for i in 0..8_000u32 {
        let sent = 1 + i64::from(i % 200);
        up.insert_weighted(&tuple(i), sent);
        let lost = if i % 25 == 0 { (sent / 10).max(1) } else { 0 };
        if sent > lost {
            down.insert_weighted(&tuple(i), sent - lost);
        }
    }
    let mut scratch = DecodeScratch::new();
    let (_, r) = warmed_decode("loaded", &up, &mut scratch);
    assert!(r.success && r.flows.len() == 8_000);
    up.sub_assign_sketch(&down);
    let (_, r) = warmed_decode("delta", &up, &mut scratch);
    assert!(r.success && r.flows.len() == 320);

    // A one-lane flow ID at a different geometry and load (0.49).
    let mut small = FermatSketch::<u32>::new(FermatConfig::standard(2048, 3));
    for i in 0..3_000u32 {
        small.insert(&i);
    }
    let (_, r) = warmed_decode("u32", &small, &mut DecodeScratch::new());
    assert!(r.success);

    // Every bucket of array 0 hot: linear counting's saturated estimate is
    // m·ln(2m) flows; the reservation stops at one entry per bucket.
    let cfg = FermatConfig::standard(256, 6);
    let mut over = FermatSketch::<u32>::new(cfg);
    for i in 0..4_000u32 {
        over.insert(&i);
    }
    assert_eq!(over.nonzero_in_array(0), 256);
    let (bytes, r) = warmed_decode("overloaded", &over, &mut DecodeScratch::new());
    assert!(!r.success);
    let cap = table_bytes::<u32>(cfg.total_buckets());
    assert!(bytes <= cap, "overloaded decode requested {bytes} B, one entry per bucket is {cap} B");
}

/// Steps two identical paper-scale edge data planes through traffic and a
/// staged runtime per epoch, and checks each flip's allocations against
/// what the encoders it resized cost to build: nothing when the partition
/// holds — the thresholds may still move — and, when it moves, one fresh
/// sketch per resized encoder in each of the two groups (the idle group
/// takes the new runtime too). The two planes are the two passes of
/// [`steady_allocations_during`]: they hold the same state, so an
/// allocation the flip makes lands in both windows, and the smaller count
/// drops only process-level noise that raced into one of them.
fn flip_allocates_only_for_resized_encoders() {
    let cfg = DataPlaneConfig::paper_default(21);
    let initial = RuntimeConfig::initial(&cfg);
    let mut grown = initial;
    grown.partition = Partition { m_hh: 3072, m_hl: 1024, m_ll: 0 };
    let mut ill = grown;
    ill.partition = cfg.ill_partition;
    ill.tl = 2;
    ill.th = 4;
    ill.set_sample_rate(0.5);
    let mut ill_th = ill;
    ill_th.th = 9;
    let built = |m: usize| {
        allocations_during(|| drop(FermatSketch::<FiveTuple>::new(cfg.fermat_for(m, 0))))
    };
    let resize_cost = |from: Partition, to: Partition| {
        let encoders = [(from.m_hh, to.m_hh), (from.m_hl, to.m_hl), (from.m_ll, to.m_ll)];
        // HL and LL exist upstream and downstream, HH upstream only.
        let per_group: u64 = encoders
            .iter()
            .zip([1, 2, 2])
            .filter(|((a, b), _)| a != b)
            .map(|(&(_, m), copies)| copies * built(m))
            .sum();
        2 * per_group
    };
    let mut planes = [
        EdgeDataPlane::<FiveTuple>::new(cfg.clone(), initial),
        EdgeDataPlane::<FiveTuple>::new(cfg.clone(), initial),
    ];
    let mut deployed = initial;
    let staged = [initial, initial, grown, grown, ill, ill_th, ill_th, initial];
    for (epoch, rt) in (0u32..).zip(staged) {
        let ts = (epoch & 1) as u8;
        let mut counts = [0u64; 2];
        for (d, n) in planes.iter_mut().zip(&mut counts) {
            for i in 0..2_000u32 {
                for (h, pkts) in d.on_ingress_burst(&tuple(i ^ epoch), ts, 1 + u64::from(i % 9)) {
                    d.on_egress_burst(&tuple(i ^ epoch), ts, h, pkts);
                }
            }
            *n = allocations_during(|| {
                d.stage_runtime(rt);
                d.flip(ts);
            });
        }
        let n = counts[0].min(counts[1]);
        let want = resize_cost(deployed.partition, rt.partition);
        assert_eq!(n, want, "epoch {epoch}: flip to {rt:?} allocated {n}, resizing costs {want}");
        deployed = rt;
    }
}
