//! Telemetry determinism: under the injected zero clock, the serve
//! runtime's Prometheus snapshot and JSONL trace must be byte-identical
//! across double runs AND across shard layouts (the spans the runtime
//! records are layout-independent stage/decode spans, never per-shard
//! engine internals).

use chm_netsim::Sharding;
use chm_scenarios::Scenario;
use chm_serve::{FaultPlan, ServeConfig, ServeRuntime};

fn scenario(seed: u64) -> Scenario {
    Scenario::builder("obs_test")
        .seed(seed)
        .flows(300)
        .congestion()
        .queue_model(8)
        .microburst(0.3, 2)
        .slow_drain_tor(1, 0.55)
        .build()
}

fn telemetry_after(epochs: u64, shards: Option<usize>) -> (String, String) {
    let cfg = ServeConfig::new(scenario(11), FaultPlan::standard(11));
    let mut rt = ServeRuntime::new(cfg);
    if let Some(s) = shards {
        rt.set_sharding(Sharding { shards: s, workers: s });
    }
    for _ in 0..epochs {
        rt.step();
    }
    (rt.obs().prom_snapshot(), rt.obs().jsonl_line(epochs - 1))
}

#[test]
fn telemetry_is_byte_identical_across_runs_and_shard_layouts() {
    let serial = telemetry_after(24, None);
    assert_eq!(serial, telemetry_after(24, None), "double run must match");
    assert_eq!(serial, telemetry_after(24, Some(1)), "shards=1 must match serial");
    assert_eq!(serial, telemetry_after(24, Some(2)), "shards=2 must match serial");
}

#[test]
fn span_tree_reflects_the_service_pipeline() {
    let cfg = ServeConfig::new(scenario(3), FaultPlan::standard(3));
    let mut rt = ServeRuntime::new(cfg);
    for _ in 0..8 {
        rt.step();
    }
    let spans = &rt.obs().spans;
    assert!(spans.balanced(), "every epoch span must be closed");
    let (epochs, total) = spans.get(&["epoch"]).expect("epoch span recorded");
    assert_eq!(epochs, 8);
    assert_eq!(total, 0.0, "zero clock → zero durations");
    assert_eq!(spans.get(&["epoch", "replay"]).map(|(c, _)| c), Some(8));
    assert_eq!(spans.get(&["epoch", "collect"]).map(|(c, _)| c), Some(8));
    assert_eq!(spans.get(&["epoch", "analyze"]).map(|(c, _)| c), Some(8));
    assert_eq!(spans.get(&["epoch", "localize"]).map(|(c, _)| c), Some(8));
    assert_eq!(spans.get(&["epoch", "reconfigure"]).map(|(c, _)| c), Some(8));
    // Edge decodes appear under analyze (testbed topology has edges).
    assert!(
        spans.get(&["epoch", "analyze", "decode", "edge_0"]).is_some(),
        "per-edge decode spans recorded: {:?}",
        spans.flatten()
    );
    let prom = rt.obs().prom_snapshot();
    assert!(prom.contains("chm_serve_epochs_total 8"));
    assert!(prom.contains("# TYPE chm_serve_reaction_seconds histogram"));
}
