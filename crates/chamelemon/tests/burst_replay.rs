//! The burst walker (`ReplayMode::Burst`) must be observationally identical
//! to the per-packet walker (`ReplayMode::PerPacket`): same epoch report,
//! same sketch state on every edge switch — the batching is purely a speed
//! optimization.

use chamelemon::config::DataPlaneConfig;
use chamelemon::dataplane::EdgeDataPlane;
use chamelemon::RuntimeConfig;
use chm_common::FiveTuple;
use chm_netsim::impair::{
    ClockSkew, Duplication, GilbertElliott, ImpairmentSet, Reordering,
};
use chm_netsim::{FatTree, ReplayMode, SimConfig, Simulator, SiteArray};
use chm_workloads::{testbed_trace, LossPlan, VictimSelection, WorkloadKind};

fn edges(cfg: &DataPlaneConfig, rt: &RuntimeConfig, n: usize) -> Vec<EdgeDataPlane<FiveTuple>> {
    (0..n).map(|_| EdgeDataPlane::new(cfg.clone(), *rt)).collect()
}

#[test]
fn burst_replay_is_byte_identical_to_per_packet_replay() {
    let topo = FatTree::testbed();
    let n_edges = topo.n_edge();
    let cfg = DataPlaneConfig::small(0xb0b0);
    // Exercise every hierarchy: thresholds that split flows across LL/HL/HH
    // and a sample rate below 1.
    let mut rt = RuntimeConfig::initial(&cfg);
    rt.partition = chamelemon::Partition { m_hh: 256, m_hl: 192, m_ll: 64 };
    rt.th = 12;
    rt.tl = 4;
    rt.sample_threshold = 30_000;

    let trace = testbed_trace(WorkloadKind::Dctcp, 1_500, 8, 0x5151);
    let plan = LossPlan::build(&trace, VictimSelection::RandomRatio(0.15), 0.05, 0x7272);

    let mut per_packet = edges(&cfg, &rt, n_edges);
    let mut burst = edges(&cfg, &rt, n_edges);
    let mut sim_a = Simulator::new(topo.clone(), SimConfig::default());
    let mut sim_b = Simulator::new(topo, SimConfig::default());

    for _ in 0..2 {
        let ra = sim_a.run_epoch(&trace, &plan, &mut SiteArray(&mut per_packet));
        let rb = sim_b.run_epoch_burst(&trace, &plan, &mut SiteArray(&mut burst));
        assert_eq!(ra.delivered, rb.delivered);
        assert_eq!(ra.lost, rb.lost);
        assert_eq!(ra.dropped_at, rb.dropped_at);
        assert_eq!(ra.hops_histogram, rb.hops_histogram);
        assert_eq!(ra.queue_depth, rb.queue_depth);
        assert_eq!(ra.epoch, rb.epoch);
    }

    for (e, (a, b)) in per_packet.iter().zip(&burst).enumerate() {
        for ts in 0..2u8 {
            let (ga, gb) = (a.group(ts), b.group(ts));
            assert_eq!(ga.classifier, gb.classifier, "edge {e} ts {ts} classifier");
            assert_eq!(ga.ingress_pkts, gb.ingress_pkts, "edge {e} ts {ts} ingress ctr");
            assert_eq!(ga.egress_pkts, gb.egress_pkts, "edge {e} ts {ts} egress ctr");
            assert_eq!(ga.up_hh, gb.up_hh, "edge {e} ts {ts} up_hh");
            assert_eq!(ga.up_hl, gb.up_hl, "edge {e} ts {ts} up_hl");
            assert_eq!(ga.up_ll, gb.up_ll, "edge {e} ts {ts} up_ll");
            assert_eq!(ga.down_hl, gb.down_hl, "edge {e} ts {ts} down_hl");
            assert_eq!(ga.down_ll, gb.down_ll, "edge {e} ts {ts} down_ll");
        }
    }
}

#[test]
fn impaired_burst_replay_is_byte_identical_to_per_packet_replay() {
    // The PR-2 equivalence contract must survive every fabric impairment:
    // the impairment layer lives above the hook boundary, so both walkers
    // consult one per-flow realization and stay identical.
    let topo = FatTree::testbed();
    let n_edges = topo.n_edge();
    let cfg = DataPlaneConfig::small(0xb1b1);
    let mut rt = RuntimeConfig::initial(&cfg);
    rt.partition = chamelemon::Partition { m_hh: 256, m_hl: 192, m_ll: 64 };
    rt.th = 12;
    rt.tl = 4;
    rt.sample_threshold = 30_000;

    let trace = testbed_trace(WorkloadKind::Hadoop, 1_000, 8, 0x6161);
    let plan = LossPlan::build(&trace, VictimSelection::RandomRatio(0.15), 0.05, 0x8282);
    let imp = ImpairmentSet {
        seed: 0x19a9_5eed,
        congestion: Some(chm_netsim::CongestionModel {
            derates: vec![chm_netsim::Derate::Switch {
                role: chm_netsim::SwitchRole::Core,
                index: 0,
                factor: 0.3,
            }],
            ..chm_netsim::CongestionModel::calibrated()
        }),
        queue: None,
        gilbert_elliott: Some(GilbertElliott::bursty()),
        duplication: Some(Duplication { prob: 0.08 }),
        reordering: Some(Reordering { prob: 0.3, window: 6 }),
        clock_skew: Some(ClockSkew { max_frac: 0.1 }),
    };

    let mut per_packet = edges(&cfg, &rt, n_edges);
    let mut burst = edges(&cfg, &rt, n_edges);
    let mut sim_a = Simulator::new(topo.clone(), SimConfig::default());
    let mut sim_b = Simulator::new(topo, SimConfig::default());

    for _ in 0..3 {
        let ra =
            sim_a.run_epoch_scenario(&trace, &plan, &imp, ReplayMode::PerPacket, &mut SiteArray(&mut per_packet));
        let rb = sim_b.run_epoch_scenario(&trace, &plan, &imp, ReplayMode::Burst, &mut SiteArray(&mut burst));
        assert_eq!(ra.delivered, rb.delivered);
        assert_eq!(ra.lost, rb.lost);
        assert_eq!(ra.dropped_at, rb.dropped_at);
        assert_eq!(ra.hops_histogram, rb.hops_histogram);
        assert_eq!(ra.queue_depth, rb.queue_depth);
        assert_eq!(ra.epoch, rb.epoch);
    }

    for (e, (a, b)) in per_packet.iter().zip(&burst).enumerate() {
        for ts in 0..2u8 {
            let (ga, gb) = (a.group(ts), b.group(ts));
            assert_eq!(ga.classifier, gb.classifier, "edge {e} ts {ts} classifier");
            assert_eq!(ga.ingress_pkts, gb.ingress_pkts, "edge {e} ts {ts} ingress ctr");
            assert_eq!(ga.egress_pkts, gb.egress_pkts, "edge {e} ts {ts} egress ctr");
            assert_eq!(ga.up_hh, gb.up_hh, "edge {e} ts {ts} up_hh");
            assert_eq!(ga.up_hl, gb.up_hl, "edge {e} ts {ts} up_hl");
            assert_eq!(ga.up_ll, gb.up_ll, "edge {e} ts {ts} up_ll");
            assert_eq!(ga.down_hl, gb.down_hl, "edge {e} ts {ts} down_hl");
            assert_eq!(ga.down_ll, gb.down_ll, "edge {e} ts {ts} down_ll");
        }
    }
}
