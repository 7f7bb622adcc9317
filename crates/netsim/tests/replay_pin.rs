//! Pins the clean replay: what `Simulator::run_epoch` / `run_epoch_burst`
//! and their `ShardedReplay` counterparts produced while they still had
//! walker bodies of their own.
//!
//! Those bodies are gone — the clean replay is the one replay kernel under
//! [`ImpairmentSet::none`] — so there is no second implementation left to
//! compare with. The table below was recorded by this file at commit
//! 674dda9, the last one with the clean walkers, where it passed against
//! `Simulator::{run_epoch, run_epoch_burst}` and `ShardedReplay::{run_epoch,
//! run_epoch_burst}` as they then were; only the two call shapes in
//! [`serial`] and [`sharded`] differ from that recording run. Every route to
//! a clean epoch is held to it: three fabrics × three seeds (each with its
//! own loss rate) × victims at 0 / 10 / 100 % × two consecutive epochs, an
//! order-independent digest of the whole [`EpochReport`] plus every site
//! double's state.
//!
//! The second table, [`CONGESTED_PINS`], does the same for the link-loss
//! layer under [`ImpairmentSet::congestion`]. It was recorded by this file
//! at commit 9b324c9, the last one where a configured `CongestionModel` had
//! a realization and a per-packet draw loop of its own (`LinkLoss::Static`);
//! since then it is the one-slot, uncoupled `QueueModel`, and this table is
//! what holds that to "the same epochs": three fabrics × three seeds × four
//! hot-spot shapes (a browned-out core, a rolling ToR, a zero-capacity ToR,
//! and no derate at all under a headroom below the knee) × alone and under
//! Gilbert–Elliott loss plus duplication × two consecutive epochs.

mod common;

use chm_common::hash::mix64;
use chm_common::{FiveTuple, FlowId};
use chm_netsim::sim::EpochReport;
use chm_netsim::{
    CongestionModel, Derate, Duplication, FatTree, GilbertElliott, ImpairmentSet,
    KaryFatTree, ReplayMode, ShardedReplay, Sharding, SimConfig, Simulator, SiteArray,
    SwitchId, SwitchRole, Topology, WanGraph,
};
use chm_workloads::{testbed_trace, LossPlan, Trace, VictimSelection, WorkloadKind};
use common::{sites, Site};

/// Ordered combine: the digest of a sequence.
fn chain(acc: u64, v: u64) -> u64 {
    mix64(acc ^ v).wrapping_add(v)
}

fn switch_key(s: &SwitchId) -> u64 {
    ((s.role as u64) << 32) | s.index as u64
}

/// Wrapping sum of per-entry hashes: the fold the per-flow counts were
/// recorded with (iteration order cannot matter).
fn flows<'a>(m: impl Iterator<Item = (&'a FiveTuple, &'a u64)>) -> u64 {
    m.fold(0u64, |s, (f, &v)| s.wrapping_add(mix64(f.key64() ^ mix64(v))))
}

/// Ordered fold of `(switch, count)` pairs, sorted by switch, led by their
/// number.
fn at<'a>(m: impl ExactSizeIterator<Item = (&'a SwitchId, &'a u64)>) -> u64 {
    let n = m.len() as u64;
    m.fold(n, |a, (s, &c)| chain(chain(a, switch_key(s)), c))
}

/// Digest of the whole report and every site's state. Per-flow counts fold
/// by wrapping sums of per-entry hashes (the values were recorded when
/// `delivered`, `lost` and the per-victim drops were hash maps, the drops of
/// one victim a `BTreeMap` by switch), ordered maps and the site slice fold
/// in order.
fn digest(r: &EpochReport<FiveTuple>, sites: &[Site]) -> u64 {
    let mut d = chain(r.epoch, r.delivered.len() as u64);
    d = chain(d, flows(r.delivered.iter()));
    d = chain(d, r.lost.len() as u64);
    d = chain(d, flows(r.lost.iter()));
    d = chain(d, at(r.dropped_at.iter()));
    d = chain(d, r.lost.len() as u64);
    d = chain(
        d,
        r.lost.with_drops().fold(0u64, |s, (f, _, drops)| {
            s.wrapping_add(mix64(f.key64() ^ at(drops.iter().map(|(s, c)| (s, c)))))
        }),
    );
    d = r.hops_histogram.iter().fold(d, |a, (&h, &c)| chain(chain(a, h as u64), c));
    d = chain(d, r.queue_depth.len() as u64);
    for s in sites {
        for v in [s.chain, s.egress_acc, s.ingress_pkts, s.egress_pkts, s.seen.len() as u64] {
            d = chain(d, v);
        }
        d = chain(
            d,
            s.seen
                .iter()
                .fold(0u64, |a, (&(k, ts), &c)| a.wrapping_add(mix64(k ^ u64::from(ts) ^ mix64(c)))),
        );
    }
    d
}

/// One clean epoch through the serial driver's two clean entry points.
fn serial(
    burst: bool,
    sim: &mut Simulator,
    trace: &Trace<FiveTuple>,
    plan: &LossPlan<FiveTuple>,
    edges: &mut [Site],
) -> EpochReport<FiveTuple> {
    let mut hooks = SiteArray(edges);
    if burst {
        sim.run_epoch_burst(trace, plan, &mut hooks)
    } else {
        sim.run_epoch(trace, plan, &mut hooks)
    }
}

/// One clean epoch through the sharded driver, under `none()`.
fn sharded(
    burst: bool,
    eng: &mut ShardedReplay<FiveTuple>,
    sim: &mut Simulator,
    trace: &Trace<FiveTuple>,
    plan: &LossPlan<FiveTuple>,
    edges: &mut [Site],
) -> EpochReport<FiveTuple> {
    let mode = if burst { ReplayMode::Burst } else { ReplayMode::PerPacket };
    eng.run_epoch(sim, trace, plan, &ImpairmentSet::none(), mode, edges, &|| 0.0).0
}

const SEEDS: [(u64, f64); 3] = [(0x11, 0.02), (0x2b0b, 0.2), (0xfeed_5eed, 0.9)];
const VICTIM_PCT: [u32; 3] = [0, 10, 100];

/// `(fabric, seed, victim %, digest after epoch 0, digest after epoch 1)`.
#[rustfmt::skip]
const PINS: &[(&str, u64, u32, u64, u64)] = &[
    ("testbed", 0x11, 0, 0xa8110e47dc96a69b, 0x1499e3d20d1903e0),
    ("testbed", 0x11, 10, 0x2af8fb6140071145, 0x17aeed9d1a19cfc7),
    ("testbed", 0x11, 100, 0xa35e26f4424c5505, 0xa300bfc44c5b640d),
    ("testbed", 0x2b0b, 0, 0x3c52c384ded8c051, 0x823b4177547bb507),
    ("testbed", 0x2b0b, 10, 0x619fc10653d925a7, 0x64d8ee7d389d16e8),
    ("testbed", 0x2b0b, 100, 0xb25f1725fc81298f, 0x20c7874ab29351e1),
    ("testbed", 0xfeed5eed, 0, 0x45f5f8862016e5bf, 0x2965931e8605a9eb),
    ("testbed", 0xfeed5eed, 10, 0x8183e6cffc9ded40, 0xdda8e7ab022d7913),
    ("testbed", 0xfeed5eed, 100, 0xa6d3edd4209595b0, 0xc756453b9cda0a06),
    ("kary4", 0x11, 0, 0xcfaa71fcb4f361f5, 0x999f3c7f24cad98d),
    ("kary4", 0x11, 10, 0xd8c3144c17796301, 0xee9f65b287f27648),
    ("kary4", 0x11, 100, 0x9b4eb372bbd0144d, 0xa21dc6c3e59296c1),
    ("kary4", 0x2b0b, 0, 0x8d52135c6a94e8e1, 0xcf761919f7d4e3cb),
    ("kary4", 0x2b0b, 10, 0x13e3f8cc3bfd8909, 0x65923e811d359493),
    ("kary4", 0x2b0b, 100, 0x71a1a6690a928242, 0xc9cfaa0e0c020d08),
    ("kary4", 0xfeed5eed, 0, 0x2607cf2a85f4eede, 0xa4f1cd0c51982f81),
    ("kary4", 0xfeed5eed, 10, 0xbe2baf7bc0ed2879, 0xd550832e5d1c90c8),
    ("kary4", 0xfeed5eed, 100, 0x5b9bdc6dbb0d3433, 0x6dff4497d1d2e7a4),
    ("abilene", 0x11, 0, 0x8cb6777b4f3c364c, 0xa73e4c02e8f91c0f),
    ("abilene", 0x11, 10, 0xa318c93139465cf8, 0xffd6dedfa35ba1a7),
    ("abilene", 0x11, 100, 0xc9a4492335eb1620, 0xb26f41322533a0f7),
    ("abilene", 0x2b0b, 0, 0xf5695301719b8259, 0xb38a8993796480ac),
    ("abilene", 0x2b0b, 10, 0x077eb3c2c563b753, 0xd50e2824f24cacc5),
    ("abilene", 0x2b0b, 100, 0x21e2f8457284ae01, 0x6d626d58102078bc),
    ("abilene", 0xfeed5eed, 0, 0x98cc2c15f803dade, 0x08bec64be3fa25cd),
    ("abilene", 0xfeed5eed, 10, 0xc5a30df7a6ace769, 0xb8b8a03b89748eed),
    ("abilene", 0xfeed5eed, 100, 0xbd4e8df8ec94e0b3, 0x7ccea3b84cfd9f71),
];

#[test]
fn every_clean_route_reproduces_the_pinned_epochs() {
    let fabrics: [(&str, Topology); 3] = [
        ("testbed", FatTree::testbed().into()),
        ("kary4", KaryFatTree::new(4).into()),
        ("abilene", WanGraph::abilene(3).into()),
    ];
    let mut got = Vec::new();
    for (name, topo) in &fabrics {
        for (seed, rate) in SEEDS {
            for pct in VICTIM_PCT {
                let trace = testbed_trace(WorkloadKind::Dctcp, 300, topo.n_hosts() as u32, seed);
                let plan = LossPlan::build(
                    &trace,
                    VictimSelection::RandomRatio(f64::from(pct) / 100.0),
                    rate,
                    seed ^ 0xf00d,
                );
                let cfg = SimConfig { epoch_ms: 50.0, seed };
                let tag = format!("{name} seed={seed:#x} victims={pct}%");

                // Serial per-packet is the reference of this case; every
                // other route must land on the same two digests.
                let mut reference = [0u64; 2];
                for burst in [false, true] {
                    let mut sim = Simulator::new(topo.clone(), cfg.clone());
                    let mut s = sites(topo.n_edges());
                    for (e, want) in reference.iter_mut().enumerate() {
                        let r = serial(burst, &mut sim, &trace, &plan, &mut s);
                        let d = digest(&r, &s);
                        if !burst {
                            *want = d;
                        }
                        assert_eq!(d, *want, "{tag}: serial burst={burst} epoch {e}");
                    }
                    for sharding in [Sharding::single(), Sharding { shards: 3, workers: 2 }] {
                        let mut sim = Simulator::new(topo.clone(), cfg.clone());
                        let mut s = sites(topo.n_edges());
                        let mut eng = ShardedReplay::new(sharding);
                        for (e, want) in reference.iter().enumerate() {
                            let r = sharded(burst, &mut eng, &mut sim, &trace, &plan, &mut s);
                            assert_eq!(
                                digest(&r, &s),
                                *want,
                                "{tag}: {sharding:?} burst={burst} epoch {e}"
                            );
                        }
                    }
                }
                got.push((*name, seed, pct, reference[0], reference[1]));
            }
        }
    }
    let table: String = got
        .iter()
        .map(|(n, s, p, a, b)| format!("    ({n:?}, {s:#x}, {p}, {a:#018x}, {b:#018x}),\n"))
        .collect();
    assert!(got.as_slice() == PINS, "clean replay moved; this run computed:\n{table}");
}

/// The four hot-spot shapes of the congested table, by the name its rows
/// carry.
fn congestion_shapes() -> [(&'static str, CongestionModel); 4] {
    let derated = |d| CongestionModel { derates: vec![d], ..CongestionModel::calibrated() };
    [
        ("core0x0.4", derated(Derate::Switch { role: SwitchRole::Core, index: 0, factor: 0.4 })),
        ("rolling-tor", derated(Derate::RollingEdge { period: 1, factor: 0.3 })),
        // The zero-capacity clamp: every out-link of ToR 1 drops at `max_drop`.
        ("tor1x0.0", derated(Derate::Switch { role: SwitchRole::Edge, index: 1, factor: 0.0 })),
        ("headroom0.8", CongestionModel { headroom: 0.8, ..CongestionModel::calibrated() }),
    ]
}

/// `(fabric, seed, shape, with channel noise, digest after epoch 0, after epoch 1)`.
#[rustfmt::skip]
const CONGESTED_PINS: &[(&str, u64, &str, bool, u64, u64)] = &[
    ("testbed", 0x11, "core0x0.4", false, 0x6759574d5ecbc0d8, 0xd004724fab4744d6),
    ("testbed", 0x11, "core0x0.4", true, 0x28f008a438bda8cd, 0xc451f4de1525013b),
    ("testbed", 0x11, "rolling-tor", false, 0x2ad8eab0fd5faf17, 0x69de058219e22ffa),
    ("testbed", 0x11, "rolling-tor", true, 0x8e28d8a5fcb5746c, 0x250220947ca3f0be),
    ("testbed", 0x11, "tor1x0.0", false, 0xced4a996cd9775e1, 0xc5d2f46284d684fb),
    ("testbed", 0x11, "tor1x0.0", true, 0x7c4e49b345f21c00, 0x624b9c014f1739a6),
    ("testbed", 0x11, "headroom0.8", false, 0xd1db019c4bb56ec4, 0x95d055717175502c),
    ("testbed", 0x11, "headroom0.8", true, 0x05c149df3577be79, 0x5c13416da123809b),
    ("testbed", 0x2b0b, "core0x0.4", false, 0x288f6ea2b8c37592, 0xcc60953c6ececb6f),
    ("testbed", 0x2b0b, "core0x0.4", true, 0xe42533cb288ecd7a, 0xd23a4e11fddd783a),
    ("testbed", 0x2b0b, "rolling-tor", false, 0x5ea811dd2ffc105c, 0xf511509b6b4b546f),
    ("testbed", 0x2b0b, "rolling-tor", true, 0xbbd669ab64253fdc, 0xed94f68a2b9fdea9),
    ("testbed", 0x2b0b, "tor1x0.0", false, 0xd3b1e7d91f0b5e10, 0x2c1787e9d6e84836),
    ("testbed", 0x2b0b, "tor1x0.0", true, 0x4219bd24f66700b2, 0x481b3657d2bc92b7),
    ("testbed", 0x2b0b, "headroom0.8", false, 0xc4239777aca69506, 0xd154f410ff1f08a5),
    ("testbed", 0x2b0b, "headroom0.8", true, 0x7ff0b234f328ec25, 0x8d9cece56ac8cc0c),
    ("testbed", 0xfeed5eed, "core0x0.4", false, 0xce8164c4c7c9f681, 0xcf560247106cbe44),
    ("testbed", 0xfeed5eed, "core0x0.4", true, 0x174402e4f3f69736, 0x88d21e308a198af1),
    ("testbed", 0xfeed5eed, "rolling-tor", false, 0xec532105202480fa, 0xc38b311e79405b3f),
    ("testbed", 0xfeed5eed, "rolling-tor", true, 0xa5cd3509bf2279c7, 0x60f2ecb9056570c9),
    ("testbed", 0xfeed5eed, "tor1x0.0", false, 0xc3e246cd3bdc1f2a, 0x345a0e39048af6d7),
    ("testbed", 0xfeed5eed, "tor1x0.0", true, 0x2f9eefcd8680da42, 0x422356214602f561),
    ("testbed", 0xfeed5eed, "headroom0.8", false, 0xd6e79554e5c301a2, 0x3f3f34c210102649),
    ("testbed", 0xfeed5eed, "headroom0.8", true, 0x6151a5637b729536, 0x4deead9498b09c23),
    ("kary4", 0x11, "core0x0.4", false, 0x107ea9d0d117a3dd, 0x7bd421f57463b18b),
    ("kary4", 0x11, "core0x0.4", true, 0xf9a5bf8c0d608a63, 0x3667ca6462e7d4ff),
    ("kary4", 0x11, "rolling-tor", false, 0x425461d71e60e5c6, 0x3886ad3998891fd5),
    ("kary4", 0x11, "rolling-tor", true, 0x21736b19f4276bd3, 0xc76b0369ac816e88),
    ("kary4", 0x11, "tor1x0.0", false, 0x47e29d423cffb828, 0xeebc3992ceb8bb1b),
    ("kary4", 0x11, "tor1x0.0", true, 0xbb8e5528e93d45e3, 0xa131da66a1560166),
    ("kary4", 0x11, "headroom0.8", false, 0xfd8ec074e8d1d8be, 0x0dc88b54ac77ddd3),
    ("kary4", 0x11, "headroom0.8", true, 0x35d6c57f9f39eb1e, 0x20c6f627fb8a0c93),
    ("kary4", 0x2b0b, "core0x0.4", false, 0x0ad5bc896b21b170, 0x857bf6494211cf8e),
    ("kary4", 0x2b0b, "core0x0.4", true, 0xa588b2e8f2e0c5e2, 0x339599d5ba19a346),
    ("kary4", 0x2b0b, "rolling-tor", false, 0xb53a60021ff84f80, 0xcddb05caeba44069),
    ("kary4", 0x2b0b, "rolling-tor", true, 0xfa3d1ba866d182ec, 0xd5de47e8f129afbe),
    ("kary4", 0x2b0b, "tor1x0.0", false, 0xd6617750f981952e, 0xa973f6b9f95c82ba),
    ("kary4", 0x2b0b, "tor1x0.0", true, 0x7639b5deda98bf12, 0xb6b80670e833a002),
    ("kary4", 0x2b0b, "headroom0.8", false, 0x18b2accddb6885e6, 0x954fc3d55d35909e),
    ("kary4", 0x2b0b, "headroom0.8", true, 0xae516ab868e093f6, 0xbfda9914e510f50c),
    ("kary4", 0xfeed5eed, "core0x0.4", false, 0xbb3c974d6bc9db0f, 0xda055f29f3577210),
    ("kary4", 0xfeed5eed, "core0x0.4", true, 0x34eec3ca7fa478b7, 0x4bdaf7bc2fe7242d),
    ("kary4", 0xfeed5eed, "rolling-tor", false, 0x8296be525f99650e, 0x304bbd13c6dda7f0),
    ("kary4", 0xfeed5eed, "rolling-tor", true, 0x7c6ee85854d4ba56, 0x698bac6a725a5cbe),
    ("kary4", 0xfeed5eed, "tor1x0.0", false, 0x9845a51cd82c046a, 0x5b15c4bee89e56d3),
    ("kary4", 0xfeed5eed, "tor1x0.0", true, 0xf3e49cf0ab657071, 0x7f3edefec6cf0abf),
    ("kary4", 0xfeed5eed, "headroom0.8", false, 0x1ffa832ea89efbaf, 0x6c58e22d56cc7c3d),
    ("kary4", 0xfeed5eed, "headroom0.8", true, 0x0735842ba6396f94, 0x09af91145e954885),
    ("abilene", 0x11, "core0x0.4", false, 0xcdf9a4b4e0f9075e, 0x94f74bef522ff635),
    ("abilene", 0x11, "core0x0.4", true, 0x59289050171c2a4a, 0x54762977fe17ecfb),
    ("abilene", 0x11, "rolling-tor", false, 0xeefe48329e2be97f, 0xef78acd6d2f64f6e),
    ("abilene", 0x11, "rolling-tor", true, 0x37ce6bb5fdd50ccc, 0x8326ff2cbf7d8f86),
    ("abilene", 0x11, "tor1x0.0", false, 0xf7aaaac097d2828e, 0xf70fa385ec00007b),
    ("abilene", 0x11, "tor1x0.0", true, 0xb35449be898523a9, 0xe6ab6ec8e2f41bea),
    ("abilene", 0x11, "headroom0.8", false, 0x2306085e88cd758d, 0x3f66bec03712d589),
    ("abilene", 0x11, "headroom0.8", true, 0xfe780fe77cb9dcbc, 0x232ef16116fe2f7d),
    ("abilene", 0x2b0b, "core0x0.4", false, 0x93e9f5e5d123fac1, 0xedde80e06d9255df),
    ("abilene", 0x2b0b, "core0x0.4", true, 0x7a88f83d3747a381, 0x607ce6ab8cac8669),
    ("abilene", 0x2b0b, "rolling-tor", false, 0x0c56630a35288439, 0xd20b6ccc9332e600),
    ("abilene", 0x2b0b, "rolling-tor", true, 0xfe3ff71be7903ed3, 0x5621232cdffc4e94),
    ("abilene", 0x2b0b, "tor1x0.0", false, 0x8a2e581a1f2a71ef, 0x7079bb708bf7792c),
    ("abilene", 0x2b0b, "tor1x0.0", true, 0x3bff38c0a01648a0, 0xe87c176aac0d7189),
    ("abilene", 0x2b0b, "headroom0.8", false, 0xda0d80539dc78f79, 0x75b55b8ca1f113a1),
    ("abilene", 0x2b0b, "headroom0.8", true, 0x8c5579ca979b8beb, 0xfaca1cec862be492),
    ("abilene", 0xfeed5eed, "core0x0.4", false, 0x66399215fbfafb14, 0x6270a8ec27bafe7c),
    ("abilene", 0xfeed5eed, "core0x0.4", true, 0x020a5d09bcbda271, 0x2f89d9cbc10dac46),
    ("abilene", 0xfeed5eed, "rolling-tor", false, 0x7398f8b4cbce4667, 0x2f57415bf8fb01cd),
    ("abilene", 0xfeed5eed, "rolling-tor", true, 0x0bb65c7b99e268e6, 0x4c1991a979b7d40a),
    ("abilene", 0xfeed5eed, "tor1x0.0", false, 0x9bd5c4dc171320ad, 0x1de3d593bbd12ef8),
    ("abilene", 0xfeed5eed, "tor1x0.0", true, 0x8f2b21354d92bc3d, 0x6e2e4bbda563a7be),
    ("abilene", 0xfeed5eed, "headroom0.8", false, 0x1dbdae6172b88ed4, 0xb228ea09fe864bf0),
    ("abilene", 0xfeed5eed, "headroom0.8", true, 0x74b8ef7decf2137c, 0x231dfd035fcd058d),
];

#[test]
fn every_congested_route_reproduces_the_pinned_epochs() {
    let fabrics: [(&str, Topology); 3] = [
        ("testbed", FatTree::testbed().into()),
        ("kary4", KaryFatTree::new(4).into()),
        ("abilene", WanGraph::abilene(3).into()),
    ];
    let mut got = Vec::new();
    for (name, topo) in &fabrics {
        for (seed, rate) in SEEDS {
            let trace = testbed_trace(WorkloadKind::Dctcp, 300, topo.n_hosts() as u32, seed);
            let plan =
                LossPlan::build(&trace, VictimSelection::RandomRatio(0.1), rate, seed ^ 0xf00d);
            let cfg = SimConfig { epoch_ms: 50.0, seed };
            for (shape, model) in congestion_shapes() {
                for noisy in [false, true] {
                    let mut imp = ImpairmentSet {
                        seed: seed ^ 0x1a7a,
                        congestion: Some(model.clone()),
                        ..ImpairmentSet::none()
                    };
                    if noisy {
                        imp.gilbert_elliott = Some(GilbertElliott::bursty());
                        imp.duplication = Some(Duplication { prob: 0.05 });
                    }
                    let tag = format!("{name} seed={seed:#x} {shape} noisy={noisy}");

                    // Serial per-packet is the reference of this case; the
                    // burst walker and both sharded layouts are held to it.
                    let mut reference = [0u64; 2];
                    for mode in [ReplayMode::PerPacket, ReplayMode::Burst] {
                        let mut sim = Simulator::new(topo.clone(), cfg.clone());
                        let mut s = sites(topo.n_edges());
                        for (e, want) in reference.iter_mut().enumerate() {
                            let r = sim.run_epoch_scenario(
                                &trace,
                                &plan,
                                &imp,
                                mode,
                                &mut SiteArray(&mut s),
                            );
                            let d = digest(&r, &s);
                            if mode == ReplayMode::PerPacket {
                                *want = d;
                            }
                            assert_eq!(d, *want, "{tag}: serial {mode:?} epoch {e}");
                        }
                        if mode == ReplayMode::PerPacket {
                            continue;
                        }
                        for sharding in [Sharding::single(), Sharding { shards: 3, workers: 2 }] {
                            let mut sim = Simulator::new(topo.clone(), cfg.clone());
                            let mut s = sites(topo.n_edges());
                            let mut eng = ShardedReplay::new(sharding);
                            for (e, want) in reference.iter().enumerate() {
                                let r = eng
                                    .run_epoch(&mut sim, &trace, &plan, &imp, mode, &mut s, &|| 0.0)
                                    .0;
                                assert_eq!(digest(&r, &s), *want, "{tag}: {sharding:?} epoch {e}");
                            }
                        }
                    }
                    got.push((*name, seed, shape, noisy, reference[0], reference[1]));
                }
            }
        }
    }
    let table: String = got
        .iter()
        .map(|(n, s, c, z, a, b)| format!("    ({n:?}, {s:#x}, {c:?}, {z}, {a:#018x}, {b:#018x}),\n"))
        .collect();
    assert!(got.as_slice() == CONGESTED_PINS, "congested replay moved; this run computed:\n{table}");
}
