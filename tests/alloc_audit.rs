//! Allocation audit of the per-packet hot path: `TowerSketch` and
//! `FermatSketch` inserts must never allocate — the packet engine's speed
//! rests on it — and a warmed `FermatSketch::decode_with` allocates its
//! result, once, and nothing else. Building or cloning a sketch allocates
//! its counter arrays and nothing else (a `HashFamily` holds its functions
//! inline, a `TowerSketch` its level records). The epoch flip zeroes its
//! groups in place: a steady flip allocates nothing, a reconfiguring one
//! only the encoders whose size changed, and `take_group` leaves a
//! tombstone that costs nothing. Over the repo benchmark's
//! attention-shifting cycle a reconfiguring `close_epoch` pays one call per
//! resized encoder over a steady one, and the ill-state victim estimate
//! does not grow with the victims; a steady close stages its HH tails with
//! no list, and the scoped worker its EM runs on at width 2 costs its spawn
//! and nothing a probe adds. A warm flow-size distribution requests the
//! slots its estimate reaches, not one per value a 16-bit counter can hold.
//! Verified with a counting global allocator (the test-binary equivalent
//! of a debug-assertion-gated allocation counter: it only exists here,
//! costs nothing in the shipped crates, and fails the suite loudly if an
//! allocation sneaks into the hot path).

use chamelemon_repro::chamelemon::{
    ChameleMon, Controller, DataPlaneConfig, EdgeDataPlane, EpochAnalysis, EpochProbe,
    NetworkState, Partition, RuntimeConfig,
};
use chamelemon_repro::chm_fermat::{DecodeResult, DecodeScratch, FermatConfig, FermatSketch};
use chamelemon_repro::chm_tower::{MracConfig, MracScratch, TowerConfig, TowerLevel, TowerSketch};
use chamelemon_repro::chm_common::hash::MAX_FAMILY;
use chamelemon_repro::chm_common::{FiveTuple, FlowId, HashFamily};
use chamelemon_repro::chm_netsim::{with_core_share, SiteArray};
use chamelemon_repro::chm_obs::SpanProfiler;
use chamelemon_repro::chm_workloads::{
    testbed_trace, LossPlan, Trace, VictimSelection, WorkloadKind,
};
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
    a_steady_run_epoch_stays_within_its_budget();
    a_probed_close_epoch_allocates_as_an_unprobed_one();
    a_steady_close_epoch_stages_its_tails_without_a_list();
    building_a_sketch_allocates_only_its_counters();
    take_group_allocates_nothing_and_its_flip_only_the_rebuilt_sketches();
    shifting_attention_allocates_only_the_resized_encoders();
}

/// A testbed deployment at paper scale over 10 k flows, 5 % of them
/// victims, and its trace and plan: the same epoch again and again, so the
/// runtime settles.
fn steady_testbed() -> (ChameleMon<FiveTuple>, Trace<FiveTuple>, LossPlan<FiveTuple>) {
    let trace = testbed_trace(WorkloadKind::Dctcp, 10_000, 8, 0x5eed);
    let plan = LossPlan::build(&trace, VictimSelection::RandomRatio(0.05), 0.01, 0x10ad);
    (ChameleMon::testbed(DataPlaneConfig::paper_default(7)), trace, plan)
}

/// Allocator calls a steady [`ChameleMon::run_epoch`] may make on two
/// cores. Measured 32: the two-shard, two-worker engine's 15 (its report,
/// the plan's lost-count list, two scoped threads at 4 calls each) and
/// `close_epoch`'s 17 at width 2 — the 13 of a width-1 close on this
/// trace (the analysis it returns, the delta encoder it builds and drops)
/// plus the 4 of the scoped worker its EM chain runs on. Under the test
/// harness's output capture each of the three spawns costs two calls
/// more: 38. Before the engine kept its phase buffers and span tree, the
/// same epoch made 50; before the EM ran beside the decodes, 29 (33 under
/// capture), its tail list taking 1 call on this trace.
const RUN_EPOCH_CALLS: u64 = 40;

fn a_steady_run_epoch_stays_within_its_budget() {
    with_core_share(2, || {
        let (mut sys, trace, plan) = steady_testbed();
        for _ in 0..6 {
            drop(sys.run_epoch(&trace, &plan));
        }
        let n = steady_allocations_during(|| drop(sys.run_epoch(&trace, &plan)));
        assert!(n <= RUN_EPOCH_CALLS, "a steady run_epoch made {n} allocator calls");
    });
}

/// The probe costs nothing it measures: once the span tree has its nodes,
/// a probed `close_epoch` makes exactly the allocator calls an unprobed one
/// does (each decode's span label is formatted into a buffer the controller
/// keeps), inline at width 1 and with the EM on a scoped worker at width 2.
/// Two identical deployments step in lockstep, one probed.
fn a_probed_close_epoch_allocates_as_an_unprobed_one() {
    for width in [1, 2] {
        probed_against_unprobed(width);
    }
}

fn probed_against_unprobed(width: usize) {
    let (mut probed, trace, plan) = steady_testbed();
    let (mut unprobed, _, _) = steady_testbed();
    let mut spans = SpanProfiler::new();
    let mut zero = || 0.0;
    for epoch in 0..6 {
        let mut calls = [0u64; 2];
        for (i, (sys, n)) in [&mut probed, &mut unprobed].into_iter().zip(&mut calls).enumerate() {
            let mut sites = SiteArray(&mut sys.edges);
            let report = sys.simulator.run_epoch_burst(&trace, &plan, &mut sites);
            let probe = EpochProbe { spans: &mut spans, clock: &mut zero, allocs: &|| 0 };
            let probe = (i == 0).then_some(probe);
            *n = allocations_during(|| {
                drop(sys.controller.close_epoch(
                    &mut sys.edges,
                    report.epoch,
                    None,
                    &report.queue_depth,
                    Controller::reconfigure,
                    width,
                    probe,
                ))
            });
        }
        if epoch > 0 {
            let [with, without] = calls;
            assert_eq!(
                with, without,
                "width {width}, epoch {epoch}: probed {with} calls, unprobed {without}"
            );
        }
    }
    assert_eq!(spans.get(&["analyze", "decode", "delta_hl"]).map(|(c, _)| c), Some(6));
    assert_eq!(spans.get(&["analyze", "fsd"]).map(|(c, _)| c), Some(6), "width {width}");
}

/// Allocator calls of a steady width-1 `close_epoch` over a testbed epoch
/// at paper scale (10 k flows, 5 % victims, trace seed 1): the analysis it
/// returns (four HH flowsets, the delta-HL flowset, the loss report, the
/// per-switch estimates, the distribution, the two edge counter lists),
/// the delta encoder it builds and drops, and the collected-group list.
/// Measured 13. It was 15 while the HH tails went through a list: on this
/// trace the last edge decodes the most HH flows, so that list was built
/// for edge 0 and regrew for edge 3, 2 calls an epoch.
const CLOSE_EPOCH_CALLS: u64 = 13;

fn a_steady_close_epoch_stages_its_tails_without_a_list() {
    let trace = testbed_trace(WorkloadKind::Dctcp, 10_000, 8, 1);
    let plan = LossPlan::build(&trace, VictimSelection::RandomRatio(0.05), 0.01, 0x10ad);
    let mut sys = ChameleMon::testbed(DataPlaneConfig::paper_default(7));
    let mut calls = Vec::new();
    let mut last = None;
    for _ in 0..8 {
        let mut sites = SiteArray(&mut sys.edges);
        let report = sys.simulator.run_epoch_burst(&trace, &plan, &mut sites);
        let (n, closed) = ALLOC.calls_during(|| {
            let edges = &mut sys.edges;
            let decide = Controller::reconfigure;
            let depths = &report.queue_depth;
            sys.controller.close_epoch(edges, report.epoch, None, depths, decide, 1, None)
        });
        calls.push(n);
        last = Some(closed.analysis);
    }
    let steady = calls[2..].iter().copied().min().expect("steady epochs");
    assert!(
        steady <= CLOSE_EPOCH_CALLS,
        "a steady width-1 close_epoch made {steady} allocator calls ({calls:?})"
    );
    // The list the tails went through before, rebuilt from the last epoch's
    // flowsets in edge order: 2 calls on this trace.
    let a = last.expect("eight epochs");
    let list = allocations_during(|| {
        let mut tail: Vec<u64> = Vec::new();
        for hh in &a.hh_flowsets {
            tail.clear();
            tail.extend(hh.values().map(|&q| a.runtime.th + q.max(0) as u64));
            std::hint::black_box(&tail);
        }
    });
    assert_eq!(list, 2, "the fixture's tail list would cost {list} calls, not 2");
}

fn tower_insert_does_not_allocate() {
    let mut t = TowerSketch::new(&TowerConfig::paper_default(1));
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
    let mut t = TowerSketch::new(&TowerConfig {
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

/// The allocation ledger of building a sketch: a hash family is held
/// inline and costs nothing, a Fermat encoder is one bucket array (and a
/// fingerprint column when it has fingerprints), built or cloned, and a
/// tower is one counter array per level, built or cloned: its level
/// records are inline (`MAX_LEVELS`), and it keeps no copy of its
/// configuration.
fn building_a_sketch_allocates_only_its_counters() {
    for d in 0..=MAX_FAMILY {
        let (n, _) = ALLOC.calls_during(|| HashFamily::new(0xfa11, d));
        assert_eq!(n, 0, "HashFamily::new(_, {d}) made {n} allocator calls");
    }
    for (buckets, fingerprint_bits, want) in [(1024, 0, 1), (1024, 8, 2), (0, 0, 0), (0, 8, 0)] {
        let cfg = FermatConfig { fingerprint_bits, ..FermatConfig::standard(buckets, 4) };
        let (n, built) = ALLOC.calls_during(|| FermatSketch::<FiveTuple>::new(cfg));
        assert_eq!(n, want, "FermatSketch::new({cfg:?}) made {n} allocator calls");
        let n = allocations_during(|| drop(std::hint::black_box(built.clone())));
        assert_eq!(n, want, "cloning a FermatSketch of {cfg:?} made {n} allocator calls");
    }
    let one_level = TowerConfig { levels: vec![TowerLevel { width: 64, bits: 8 }], seed: 3 };
    for cfg in [TowerConfig::paper_default(3), one_level] {
        let levels = cfg.levels.len() as u64;
        let (n, built) = ALLOC.calls_during(|| TowerSketch::new(&cfg));
        assert_eq!(n, levels, "TowerSketch::new of {levels} levels made {n} allocator calls");
        let n = allocations_during(|| drop(std::hint::black_box(built.clone())));
        assert_eq!(n, levels, "cloning a {levels}-level TowerSketch made {n} allocator calls");
    }
    let n = allocations_during(|| drop(std::hint::black_box(TowerSketch::saturated())));
    assert_eq!(n, 0, "TowerSketch::saturated made {n} allocator calls");
}

/// `take_group` hands the group over and leaves a tombstone that costs
/// nothing; the flip after it, with the runtime unchanged, allocates
/// exactly what the rebuilt sketches hold: the classifier's counter arrays,
/// one per level, and every encoder the runtime gives buckets. Under the
/// initial runtime and under an ill one, whose LL encoders have buckets.
/// (Before the tower held its level records inline and stopped keeping a
/// copy of its configuration, its rebuild cost levels + 2 calls: 4.)
fn take_group_allocates_nothing_and_its_flip_only_the_rebuilt_sketches() {
    let cfg = DataPlaneConfig::paper_default(23);
    let initial = RuntimeConfig::initial(&cfg);
    let ill = RuntimeConfig {
        partition: cfg.ill_partition,
        th: 50,
        tl: 10,
        sample_threshold: 8192,
    };
    let built = |m: usize| {
        allocations_during(|| drop(FermatSketch::<FiveTuple>::new(cfg.fermat_for(m, 0))))
    };
    let tower = cfg.tower.levels.len() as u64;
    let classifier = allocations_during(|| drop(TowerSketch::new(&cfg.tower)));
    assert_eq!(classifier, tower, "a {tower}-level classifier made {classifier} allocator calls");
    for rt in [initial, ill] {
        let p = rt.partition;
        let encoders: u64 = [p.m_hh, p.m_hl, p.m_ll, p.m_hl, p.m_ll].map(built).iter().sum();
        let mut d = EdgeDataPlane::<FiveTuple>::new(cfg.clone(), rt);
        for epoch in 0..3u32 {
            let ts = (epoch & 1) as u8;
            for i in 0..2_000u32 {
                for (h, pkts) in d.on_ingress_burst(&tuple(i), ts, 1 + u64::from(i % 9)) {
                    d.on_egress_burst(&tuple(i), ts, h, pkts);
                }
            }
            let (n, taken) = ALLOC.calls_during(|| d.take_group(ts));
            assert_eq!(n, 0, "{rt:?}: take_group made {n} allocator calls");
            assert!(taken.ingress_pkts > 0);
            let n = allocations_during(|| d.flip(ts));
            let want = tower + encoders;
            assert_eq!(n, want, "{rt:?}: the flip after a take made {n} calls, not {want}");
        }
    }
}

/// One row per epoch of [`close_epoch_calls`]: the `close_epoch`'s
/// allocator calls, the runtime the epoch ran under, the runtime it staged
/// and the state it was analyzed in.
type EpochCalls = (u64, RuntimeConfig, RuntimeConfig, NetworkState);

/// Replays one epoch of `trace` per entry of `phases`, under the plan it
/// names, and counts each `close_epoch`. `hold` redeploys the runtime in
/// effect instead of reconfiguring.
fn close_epoch_calls(
    sys: &mut ChameleMon<FiveTuple>,
    trace: &Trace<FiveTuple>,
    plans: &[LossPlan<FiveTuple>],
    phases: impl IntoIterator<Item = usize>,
    hold: bool,
) -> Vec<EpochCalls> {
    let mut rows = Vec::new();
    for phase in phases {
        let mut sites = SiteArray(&mut sys.edges);
        let report = sys.simulator.run_epoch_burst(trace, &plans[phase], &mut sites);
        let decide = |c: &mut Controller<FiveTuple>, a: &EpochAnalysis<FiveTuple>| {
            if hold {
                a.runtime
            } else {
                c.reconfigure(a)
            }
        };
        let (n, closed) = ALLOC.calls_during(|| {
            let edges = &mut sys.edges;
            let depths = &report.queue_depth;
            sys.controller.close_epoch(edges, report.epoch, None, depths, decide, 1, None)
        });
        let a = &closed.analysis;
        rows.push((n, a.runtime, closed.staged, a.state_during));
    }
    rows
}

/// ChameleMon shifting its attention at paper geometry, over the repo
/// benchmark's `testbed_shift` cycle (victim ratio 2.5 → 10 → 25 → 10 %,
/// five epochs each) at its 50 k flows, the scale at which the cycle goes
/// ill: below about 26 k flows, 25 % victims fit the healthy HL encoders
/// and the controller never leaves the healthy state. A reconfiguring epoch's
/// `close_epoch` makes at most what the costliest epoch of the cycle that
/// resized nothing makes, plus one call per (group, resized encoder): 4
/// edges × 2 groups. And the ill victim estimate does not grow with the
/// victims: held in the ill state, every epoch makes the same count, at
/// 25 % victims as at 10 %. Measured: 14–18 calls for an epoch that
/// resizes nothing, 37–56 for one that resizes 3 or 5 encoders a group,
/// and 18 for every held ill epoch. With a `Vec`-backed hash family the
/// first resizing epoch made 64 calls against a bound of 44. With the
/// distribution grown as larger sizes arrive, held ill epochs made 19–24,
/// varying with the order the decoded flowsets yield their flows, and with
/// the sampled victims also collected into a growing `Vec`, 27–33.
fn shifting_attention_allocates_only_the_resized_encoders() {
    let trace = testbed_trace(WorkloadKind::Dctcp, 50_000, 8, 0x77);
    let plans: Vec<LossPlan<FiveTuple>> = [0.025, 0.10, 0.25]
        .into_iter()
        .zip(0u64..)
        .map(|(ratio, i)| {
            LossPlan::build(&trace, VictimSelection::RandomRatio(ratio), 0.01, 0x99 ^ (i << 8))
        })
        .collect();
    let mut sys = ChameleMon::testbed(DataPlaneConfig::paper_default(7));
    let cycle = (0..40).map(|e| [0, 1, 2, 1][(e / 5) % 4]);
    let rows = close_epoch_calls(&mut sys, &trace, &plans, cycle, false);
    let groups = 2 * sys.edges.len() as u64;
    // HL and LL encoders exist upstream and downstream, HH upstream only.
    let resized = |from: Partition, to: Partition| -> u64 {
        let encoders = [(from.m_hh, to.m_hh, 1), (from.m_hl, to.m_hl, 2), (from.m_ll, to.m_ll, 2)];
        encoders.iter().filter(|(a, b, _)| a != b).map(|(_, _, copies)| copies).sum()
    };
    // The first epoch fills the controller's kept buffers.
    let rows = &rows[1..];
    let steady = rows.iter().filter(|r| resized(r.1.partition, r.2.partition) == 0).map(|r| r.0);
    let steady = steady.max().expect("an epoch that resized nothing");
    let mut resizing = 0;
    for (epoch, &(n, ran, staged, state)) in (1..).zip(rows) {
        let encoders = resized(ran.partition, staged.partition);
        resizing += usize::from(encoders > 0);
        let (from, to) = (ran.partition, staged.partition);
        let bound = steady + groups * encoders;
        assert!(n <= bound, "epoch {epoch} ({state:?}, {from:?} -> {to:?}): {n} calls > {bound}");
    }
    assert!(resizing >= 4, "the cycle resized encoders in only {resizing} epochs");
    assert!(rows.iter().any(|r| r.3 == NetworkState::Ill), "the cycle never went ill");

    // Into the ill state at 25 % victims, then held there.
    while sys.controller.state() != NetworkState::Ill {
        close_epoch_calls(&mut sys, &trace, &plans, [2], false);
    }
    let phases = [2, 1, 2, 1, 2, 1, 2, 1];
    let held = close_epoch_calls(&mut sys, &trace, &plans, phases, true);
    assert!(held.iter().all(|r| r.3 == NetworkState::Ill && r.1 == r.2));
    // Every held epoch makes the same count, so one at 25 % victims makes
    // no more calls than one at 10 %.
    let calls: Vec<u64> = held.iter().map(|r| r.0).collect();
    assert!(
        calls.iter().all(|&n| n == calls[0]),
        "held ill epochs at 25 %, 10 %, 25 %, … victims made {calls:?} calls"
    );
}
