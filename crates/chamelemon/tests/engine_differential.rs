//! `ChameleMon::run_epoch` replays on the sharded engine at every layout,
//! one shard included, so this compares the engine against the serial
//! reference on every host (a one-core host once ran the serial replay on
//! both sides). The serial `Simulator` plus `Controller::close_epoch`,
//! driven by hand through the deployment's pub fields, is the reference it
//! must match bit for bit —
//! report, loss report, staged runtime and both sketch groups of every
//! edge, every epoch. The victim ratio cycles 2.5 / 10 / 25 / 10 % and the
//! schedule includes an epoch with no traffic and an epoch with a single
//! flow. Over the 5 000-flow trace the testbed configuration
//! (`paper_default`) holds its initial runtime — its HL encoder decodes even
//! the 25 % phase — so the same schedule also runs at the 1/8-scale
//! configuration (`small`), where the controller re-divides memory, crosses
//! into the ill state and back, and the flip resizes encoders both ways.

use chamelemon::config::DataPlaneConfig;
use chamelemon::{ChameleMon, Controller, NetworkState, RuntimeConfig};
use chm_common::FiveTuple;
use chm_netsim::SiteArray;
use chm_workloads::{testbed_trace, LossPlan, Trace, VictimSelection, WorkloadKind};

const SEED: u64 = 0xd1ff;
const RATIOS: [f64; 4] = [0.025, 0.10, 0.25, 0.10];
const EPOCHS: u64 = 22;
const EMPTY_EPOCH: u64 = 7;
const ONE_FLOW_EPOCH: u64 = 13;

/// Drives two deployments of `cfg` through the schedule, one through
/// `run_epoch` and one by hand, and returns the runtimes staged and the
/// states the controller believed in, per epoch.
fn assert_engine_matches_serial(cfg: DataPlaneConfig) -> Vec<(RuntimeConfig, NetworkState)> {
    let trace = testbed_trace(WorkloadKind::Dctcp, 5_000, 8, SEED);
    let plans: Vec<LossPlan<FiveTuple>> = RATIOS
        .iter()
        .zip(0u64..)
        .map(|(&r, i)| LossPlan::build(&trace, VictimSelection::RandomRatio(r), 0.01, SEED ^ i))
        .collect();
    let empty = Trace { flows: Vec::new() };
    let one = Trace {
        flows: trace.flows[..1].to_vec(),
    };
    let one_plan = LossPlan::build(&one, VictimSelection::RandomRatio(1.0), 0.5, SEED);

    let mut engine = ChameleMon::testbed(cfg.clone());
    let mut serial = ChameleMon::testbed(cfg);
    let mut staged = Vec::new();
    for epoch in 0..EPOCHS {
        let (trace, plan) = match epoch {
            EMPTY_EPOCH => (&empty, &LossPlan::none()),
            ONE_FLOW_EPOCH => (&one, &one_plan),
            _ => (&trace, &plans[(epoch / 2) as usize % RATIOS.len()]),
        };
        let got = engine.run_epoch(trace, plan);

        let report =
            serial
                .simulator
                .run_epoch_burst(trace, plan, &mut SiteArray(&mut serial.edges));
        let want = serial.controller.close_epoch(
            &mut serial.edges,
            report.epoch,
            None,
            &report.queue_depth,
            Controller::reconfigure,
            None,
        );

        assert!(got.report == report, "epoch {epoch}: report");
        assert_eq!(
            got.analysis.loss_report, want.analysis.loss_report,
            "epoch {epoch}: loss report"
        );
        assert_eq!(
            got.staged_runtime, want.staged,
            "epoch {epoch}: staged runtime"
        );
        for (i, (a, b)) in engine.edges.iter().zip(&serial.edges).enumerate() {
            for ts in [0, 1] {
                assert!(
                    a.group(ts) == b.group(ts),
                    "epoch {epoch}: edge {i} group {ts}"
                );
            }
        }
        staged.push((got.staged_runtime, engine.controller.state()));
    }
    staged
}

#[test]
fn run_epoch_matches_the_serial_reference_at_the_testbed_configuration() {
    assert_engine_matches_serial(DataPlaneConfig::paper_default(SEED));
}

#[test]
fn run_epoch_matches_the_serial_reference_while_memory_is_re_divided() {
    let staged = assert_engine_matches_serial(DataPlaneConfig::small(SEED));
    let mut partitions: Vec<_> = staged.iter().map(|(rt, _)| rt.partition).collect();
    partitions.dedup();
    assert!(
        partitions.len() > 3,
        "the controller never re-divided memory: {partitions:?}"
    );
    let states: Vec<NetworkState> = staged.iter().map(|&(_, s)| s).collect();
    let ill = states.iter().position(|&s| s == NetworkState::Ill);
    assert!(
        ill.is_some_and(|i| states[i..].contains(&NetworkState::Healthy)),
        "the schedule never went ill and back: {states:?}"
    );
}
