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

mod common;

use chm_common::hash::mix64;
use chm_common::{FiveTuple, FlowId};
use chm_netsim::sim::EpochReport;
use chm_netsim::{
    FatTree, ImpairmentSet, KaryFatTree, ReplayMode, ShardedReplay, Sharding,
    SimConfig, Simulator, SiteArray, SwitchId, Topology, WanGraph,
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

/// Digest of the whole report and every site's state. Per-flow counts fold
/// by wrapping sums of per-entry hashes (the values were recorded when
/// `delivered` was a hash map), ordered maps and the site slice fold in
/// order.
fn digest(r: &EpochReport<FiveTuple>, sites: &[Site]) -> u64 {
    let at = |m: &std::collections::BTreeMap<SwitchId, u64>| {
        m.iter().fold(m.len() as u64, |a, (s, &c)| chain(chain(a, switch_key(s)), c))
    };
    let mut d = chain(r.epoch, r.delivered.len() as u64);
    d = chain(d, flows(r.delivered.iter()));
    d = chain(d, r.lost.len() as u64);
    d = chain(d, flows(r.lost.iter()));
    d = chain(d, at(&r.dropped_at));
    d = chain(d, r.lost_at.len() as u64);
    d = chain(
        d,
        r.lost_at
            .iter()
            .fold(0u64, |s, (f, m)| s.wrapping_add(mix64(f.key64() ^ at(m)))),
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
