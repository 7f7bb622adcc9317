//! The dense switch and link numbering ([`FabricIndex`]) on every fabric
//! family: it lists exactly the fabric's links plus one host link per
//! host, in `LinkId` order, and the link-loss layer read through it hands
//! every flow the per-(hop, slot) drop probabilities that a map keyed by
//! `LinkId` gives — the map-based realization is rebuilt here as the
//! oracle.

use chm_common::FlowId;
use chm_netsim::congestion::derate_factor;
use chm_netsim::sim::Routable;
use chm_netsim::{
    Derate, Fabric, FabricIndex, FatTree, Hop, KaryFatTree, LeafSpine, LinkId, QueueModel,
    QueueRealization, RedDrop, SwitchId, SwitchRole, Topology, WanGraph,
};
use chm_workloads::{testbed_trace, ArrivalProfile, Trace, WorkloadKind};
use std::collections::BTreeMap;

fn fabrics() -> Vec<Topology> {
    vec![
        FatTree::testbed().into(),
        KaryFatTree::new(4).into(),
        LeafSpine::new(4, 3, 2).into(),
        WanGraph::abilene(2).into(),
    ]
}

#[test]
fn index_lists_the_fabric_links_and_one_host_link_per_host_in_link_order() {
    for topo in fabrics() {
        let ix = FabricIndex::new(&topo);
        let switch_links = topo.links();
        let host_links: Vec<LinkId> = (0..topo.n_hosts())
            .map(|h| {
                (
                    SwitchId {
                        role: SwitchRole::Edge,
                        index: topo.edge_of_host(h),
                    },
                    Hop::Host(h),
                )
            })
            .collect();
        let mut want: Vec<LinkId> = switch_links
            .iter()
            .map(|&(a, b)| (a, Hop::Switch(b)))
            .collect();
        want.extend_from_slice(&host_links);
        want.sort_unstable();
        assert_eq!(ix.links(), &want[..], "{}", topo.kind());
        assert_eq!(ix.links().len(), switch_links.len() + topo.n_hosts());
        assert!(
            ix.links().windows(2).all(|w| w[0] < w[1]),
            "{}: no link twice",
            topo.kind()
        );
        // Per upstream switch: its switch links, then its host links.
        for w in ix.links().windows(2) {
            if w[0].0 == w[1].0 {
                assert!(
                    !matches!((w[0].1, w[1].1), (Hop::Host(_), Hop::Switch(_))),
                    "{}: host link before switch link at {:?}",
                    topo.kind(),
                    w
                );
            }
        }
        assert_eq!(ix.n_switches(), topo.n_switches(), "{}", topo.kind());
        for (l, &link) in ix.links().iter().enumerate() {
            assert_eq!(ix.link_index(link), Some(l), "{}", topo.kind());
            assert_eq!(ix.switch(ix.link_from(l)), link.0, "{}", topo.kind());
        }
        for s in 0..ix.n_switches() {
            assert_eq!(ix.switch_index(ix.switch(s)), Some(s));
        }
    }
}

/// RED's early-drop probability (the model's private rule, restated).
fn red_prob(red: &RedDrop, depth: f64) -> f64 {
    if depth <= red.min_depth {
        return 0.0;
    }
    let span = (red.max_depth - red.min_depth).max(f64::MIN_POSITIVE);
    red.max_prob * ((depth - red.min_depth) / span).min(1.0)
}

/// The per-link drop probabilities the link-loss layer computed when its
/// tables were maps keyed by `LinkId`: only links that drop in some slot.
/// Slot layouts come from `r` itself, so only the tables differ.
fn map_oracle<F: Routable>(
    m: &QueueModel,
    topo: &Topology,
    trace: &Trace<F>,
    epoch: u64,
    r: &QueueRealization,
) -> BTreeMap<LinkId, Vec<f64>> {
    let s = m.slots;
    let mut arrivals: BTreeMap<LinkId, Vec<u64>> = BTreeMap::new();
    let mut counts = Vec::new();
    for &(f, pkts) in &trace.flows {
        let route = topo.route(f.src_host(), f.dst_host(), f.key64());
        r.flow_slot_counts(f.key64(), pkts, &mut counts);
        let mut links: Vec<LinkId> = route
            .windows(2)
            .map(|w| (w[0], Hop::Switch(w[1])))
            .collect();
        links.push((route[route.len() - 1], Hop::Host(f.dst_host())));
        for link in links {
            let a = arrivals.entry(link).or_insert_with(|| vec![0; s]);
            for (t, &n) in counts.iter().enumerate() {
                a[t] += n;
            }
        }
    }
    let class = |(from, to): LinkId| {
        (
            from.role,
            match to {
                Hop::Switch(x) => Some(x.role),
                Hop::Host(_) => None,
            },
        )
    };
    let mut class_sum: BTreeMap<_, (u64, u64)> = BTreeMap::new();
    for (&link, a) in &arrivals {
        let e = class_sum.entry(class(link)).or_insert((0, 0));
        e.0 += a.iter().sum::<u64>();
        e.1 += 1;
    }
    let mut probs = BTreeMap::new();
    for (&link, a) in &arrivals {
        let (sum, count) = class_sum[&class(link)];
        let service = m.headroom
            * (sum as f64 / count as f64 / s as f64)
            * derate_factor(&m.derates, link.0, epoch, topo.n_edges());
        let mut q = 0.0f64;
        let mut row = vec![0.0f64; s];
        for (t, &arr) in a.iter().enumerate() {
            let arr = arr as f64;
            let p = if service <= 0.0 {
                m.max_drop
            } else {
                let pressure = (arr + m.queue_coupling * q) / service;
                let tail = (m.slope * (pressure - m.knee)).clamp(0.0, m.max_drop);
                let early = m.red.map_or(0.0, |red| red_prob(&red, q / service));
                (tail + early).min(0.95)
            };
            let avail = q + arr - arr * p;
            q = avail - avail.min(service.max(0.0));
            row[t] = p;
        }
        if row.iter().any(|&p| p > 0.0) {
            probs.insert(link, row);
        }
    }
    probs
}

#[test]
fn hop_slot_probs_match_a_map_keyed_by_link_on_every_fabric() {
    let mut burst = QueueModel::calibrated(8);
    burst.profile = ArrivalProfile::Microburst {
        frac: 0.6,
        width: 2,
    };
    let mut derated = QueueModel::calibrated(4);
    derated.derates = vec![
        Derate::Switch {
            role: SwitchRole::Edge,
            index: 1,
            factor: 0.4,
        },
        Derate::Switch {
            role: SwitchRole::Core,
            index: 0,
            factor: 0.3,
        },
    ];
    derated.red = Some(RedDrop {
        min_depth: 0.1,
        max_depth: 2.0,
        max_prob: 0.3,
    });
    for topo in fabrics() {
        let trace = testbed_trace(WorkloadKind::Dctcp, 1500, topo.n_hosts() as u32, 0x1dec);
        for (name, m) in [("burst", &burst), ("derated", &derated)] {
            for epoch in [0u64, 3] {
                let r = m.realize(&topo, &trace, epoch, 0x5eed);
                let oracle = map_oracle(m, &topo, &trace, epoch, &r);
                let case = format!("{} / {name} / epoch {epoch}", topo.kind());
                assert!(!oracle.is_empty(), "{case}: the case must drop somewhere");
                assert!(
                    r.link_stats().map(|(l, _)| l).eq(oracle.keys().copied()),
                    "{case}: dropping links differ"
                );
                let mut got = Vec::new();
                for &(f, _) in &trace.flows {
                    let route = topo.route(f.src_host(), f.dst_host(), f.key64());
                    r.hop_slot_probs(&route, f.dst_host(), &mut got);
                    let mut want = Vec::new();
                    let hops = route.windows(2).map(|w| (w[0], Hop::Switch(w[1])));
                    for link in hops.chain([(route[route.len() - 1], Hop::Host(f.dst_host()))]) {
                        match oracle.get(&link) {
                            Some(row) => want.extend_from_slice(row),
                            None => want.extend(std::iter::repeat_n(0.0, m.slots)),
                        }
                    }
                    let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "{case}: flow {f:?}");
                }
            }
        }
    }
}
