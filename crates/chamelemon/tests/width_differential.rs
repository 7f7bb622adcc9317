//! `Controller::close_epoch` at width 2 — the Tower EM on a scoped worker
//! beside the Fermat decode chain — against width 1, where the same two
//! chains run inline, one after the other. Width 2 is passed directly, so a
//! one-core host spawns the worker too. Two identical deployments replay
//! the same epochs serially in lockstep; each epoch's whole `EpochAnalysis`
//! must match, every `f64` by its bits, and so must the staged runtime, the
//! controller's state, both sketch groups of every edge, and the probe's
//! span names and counts.
//!
//! The schedule cycles the victim ratio 2.5 / 10 / 25 / 10 % (the repo
//! benchmark's `testbed_shift` cycle), so the controller re-divides memory,
//! sees a delta-HL decode fail and crosses into the ill state, and it
//! includes an epoch with no traffic, two epochs whose reports only partly
//! arrive, and one where none does. A debug build (tier-1) runs it at the
//! 1/8-scale configuration over 5 000 flows; a release build at the paper's
//! testbed configuration over 50 000 flows, the benchmark's scale.

use chamelemon::config::DataPlaneConfig;
use chamelemon::{ChameleMon, ClosedEpoch, Controller, EpochAnalysis, EpochProbe, NetworkState};
use chm_common::FiveTuple;
use chm_netsim::SiteArray;
use chm_obs::SpanProfiler;
use chm_workloads::{testbed_trace, LossPlan, Trace, VictimSelection, WorkloadKind};

const SEED: u64 = 0x31d7;
const RATIOS: [f64; 3] = [0.025, 0.10, 0.25];
const EPOCHS: u64 = 40;
const EMPTY_EPOCH: u64 = 7;
/// Epochs whose reports arrive from only some edges, and the one whose
/// reports all perish.
const PARTIAL: [(u64, [bool; 4]); 3] = [
    (13, [true, false, true, true]),
    (27, [false, true, true, false]),
    (33, [false; 4]),
];

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Every field of two analyses, each `f64` by its bits. The destructuring
/// names every field, so a new one does not compile until it is compared.
fn assert_same_analysis(a: &EpochAnalysis<FiveTuple>, b: &EpochAnalysis<FiveTuple>, at: &str) {
    let EpochAnalysis {
        hh_flowsets,
        hh_decode_ok,
        hl_flowset,
        ll_flowset,
        loss_report,
        est_flows_per_switch,
        est_flows,
        est_hls,
        est_lls,
        est_victims,
        flow_size_dist,
        victim_size_dist,
        edge_ingress,
        edge_egress,
        runtime,
        state_during,
        switches_reporting,
    } = a;
    assert_eq!(hh_flowsets, &b.hh_flowsets, "{at}: hh_flowsets");
    assert_eq!(hh_decode_ok, &b.hh_decode_ok, "{at}: hh_decode_ok");
    assert_eq!(hl_flowset, &b.hl_flowset, "{at}: hl_flowset");
    assert_eq!(ll_flowset, &b.ll_flowset, "{at}: ll_flowset");
    assert_eq!(loss_report, &b.loss_report, "{at}: loss_report");
    assert_eq!(
        bits(est_flows_per_switch),
        bits(&b.est_flows_per_switch),
        "{at}: per switch"
    );
    assert_eq!(
        est_flows.to_bits(),
        b.est_flows.to_bits(),
        "{at}: est_flows"
    );
    assert_eq!(est_hls.to_bits(), b.est_hls.to_bits(), "{at}: est_hls");
    assert_eq!(est_lls.to_bits(), b.est_lls.to_bits(), "{at}: est_lls");
    assert_eq!(
        est_victims.to_bits(),
        b.est_victims.to_bits(),
        "{at}: est_victims"
    );
    assert_eq!(
        bits(flow_size_dist),
        bits(&b.flow_size_dist),
        "{at}: flow_size_dist"
    );
    assert_eq!(
        victim_size_dist.as_deref().map(bits),
        b.victim_size_dist.as_deref().map(bits),
        "{at}: victim_size_dist"
    );
    assert_eq!(edge_ingress, &b.edge_ingress, "{at}: edge_ingress");
    assert_eq!(edge_egress, &b.edge_egress, "{at}: edge_egress");
    assert_eq!(runtime, &b.runtime, "{at}: runtime");
    assert_eq!(state_during, &b.state_during, "{at}: state_during");
    assert_eq!(
        switches_reporting, &b.switches_reporting,
        "{at}: switches_reporting"
    );
}

/// Replays `trace` under `plan` serially and closes the epoch at `width`,
/// probed on `spans` under the zero clock.
fn step(
    sys: &mut ChameleMon<FiveTuple>,
    trace: &Trace<FiveTuple>,
    plan: &LossPlan<FiveTuple>,
    arrived: Option<&[bool]>,
    width: usize,
    spans: &mut SpanProfiler,
) -> ClosedEpoch<FiveTuple> {
    let report = sys
        .simulator
        .run_epoch_burst(trace, plan, &mut SiteArray(&mut sys.edges));
    let mut zero = || 0.0;
    let probe = EpochProbe {
        spans,
        clock: &mut zero,
        allocs: &|| 0,
    };
    sys.controller.close_epoch(
        &mut sys.edges,
        report.epoch,
        arrived,
        &report.queue_depth,
        Controller::reconfigure,
        width,
        Some(probe),
    )
}

#[test]
fn close_epoch_at_width_2_matches_width_1() {
    let (cfg, flows) = if cfg!(debug_assertions) {
        (DataPlaneConfig::small(SEED), 5_000)
    } else {
        (DataPlaneConfig::paper_default(SEED), 50_000)
    };
    let trace = testbed_trace(WorkloadKind::Dctcp, flows, 8, SEED);
    let plans: Vec<LossPlan<FiveTuple>> = RATIOS
        .iter()
        .zip(0u64..)
        .map(|(&r, i)| LossPlan::build(&trace, VictimSelection::RandomRatio(r), 0.01, SEED ^ i))
        .collect();
    let empty = Trace { flows: Vec::new() };

    let mut inline = ChameleMon::testbed(cfg.clone());
    let mut beside = ChameleMon::testbed(cfg);
    let (mut inline_spans, mut beside_spans) = (SpanProfiler::new(), SpanProfiler::new());
    let (mut resized, mut hl_failed, mut ill, mut partial) = (0, 0, 0, 0);
    for epoch in 0..EPOCHS {
        let (trace, plan) = match epoch {
            EMPTY_EPOCH => (&empty, &LossPlan::none()),
            _ => (&trace, &plans[[0, 1, 2, 1][(epoch / 5 % 4) as usize]]),
        };
        let arrived = PARTIAL
            .iter()
            .find(|(e, _)| *e == epoch)
            .map(|(_, mask)| &mask[..]);
        let want = step(&mut inline, trace, plan, arrived, 1, &mut inline_spans);
        let got = step(&mut beside, trace, plan, arrived, 2, &mut beside_spans);

        let at = format!("epoch {epoch}");
        assert_same_analysis(&want.analysis, &got.analysis, &at);
        assert_eq!(want.staged, got.staged, "{at}: staged runtime");
        assert_eq!(
            inline.controller.snapshot(),
            beside.controller.snapshot(),
            "{at}: controller"
        );
        for (i, (a, b)) in inline.edges.iter().zip(&beside.edges).enumerate() {
            for ts in [0, 1] {
                assert!(a.group(ts) == b.group(ts), "{at}: edge {i} group {ts}");
            }
        }
        assert_eq!(
            inline_spans.flatten(),
            beside_spans.flatten(),
            "{at}: spans"
        );

        let a = &want.analysis;
        resized += usize::from(a.runtime.partition != want.staged.partition);
        hl_failed +=
            usize::from(a.hh_decode_ok && a.runtime.partition.m_hl > 0 && a.hl_flowset.is_none());
        ill += usize::from(a.state_during == NetworkState::Ill);
        partial += usize::from(arrived.is_some() && a.switches_reporting < 4);
    }
    assert!(resized >= 2, "memory was re-divided in {resized} epochs");
    assert!(hl_failed >= 1, "no delta-HL decode failed");
    assert!(ill >= 1, "the schedule never went ill");
    assert_eq!(partial, PARTIAL.len(), "partial-arrival epochs");
    let fsd = beside_spans
        .get(&["analyze", "fsd"])
        .map(|(count, _)| count);
    assert_eq!(
        fsd,
        Some(EPOCHS - 1),
        "one fsd span per epoch with a report"
    );
}
