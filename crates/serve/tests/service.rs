//! Service-mode integration tests: crash/restore byte-identity, watchdog
//! degradation under sustained faults, backpressure, and stream
//! determinism — the tentpole properties of `chm-serve`.

use chm_scenarios::Scenario;
use chm_serve::{
    EpochRecord, FaultPlan, ServeConfig, ServeRuntime, ServeSnapshot, ServeState,
};

/// A small but fully loaded serve scenario: congestion-coupled queueing,
/// microbursts, a slow-draining ToR — everything the localizer feeds on.
fn scenario(seed: u64) -> Scenario {
    Scenario::builder("svc_test")
        .seed(seed)
        .flows(300)
        .congestion()
        .queue_model(8)
        .microburst(0.3, 2)
        .slow_drain_tor(1, 0.55)
        .build()
}

fn run_epochs(rt: &mut ServeRuntime, n: u64) -> Vec<EpochRecord> {
    (0..n).map(|_| rt.step()).collect()
}

fn jsonl(records: &[EpochRecord]) -> String {
    records.iter().map(|r| r.to_jsonl() + "\n").collect()
}

#[test]
fn identical_configs_stream_identical_bytes() {
    let cfg = ServeConfig::new(scenario(5), FaultPlan::standard(5));
    let a = jsonl(&run_epochs(&mut ServeRuntime::new(cfg.clone()), 16));
    let b = jsonl(&run_epochs(&mut ServeRuntime::new(cfg), 16));
    assert_eq!(a, b, "same config must serve byte-identical metrics");
}

/// The headline property: kill the process at ANY epoch boundary,
/// serialize the snapshot to text, parse it back, restore into a fresh
/// process — the remainder of the stream (decisions and metrics bytes) is
/// identical to the uninterrupted run's.
#[test]
fn crash_restore_at_every_boundary_is_byte_identical() {
    const EPOCHS: u64 = 18;
    let cfg = ServeConfig::new(scenario(7), FaultPlan::standard(7));
    let baseline = run_epochs(&mut ServeRuntime::new(cfg.clone()), EPOCHS);
    let baseline_jsonl = jsonl(&baseline);

    for k in 1..EPOCHS {
        // Run to the boundary, snapshot, and "crash".
        let mut first = ServeRuntime::new(cfg.clone());
        let prefix = run_epochs(&mut first, k);
        let wire = first.snapshot().serialize();
        drop(first);

        // New process: parse, restore, continue.
        let snap = ServeSnapshot::parse(&wire).expect("snapshot parses");
        let mut second = ServeRuntime::new(cfg.clone());
        second.restore(&snap).unwrap();
        assert_eq!(second.next_epoch(), k, "restore must reposition the stream");
        let suffix = run_epochs(&mut second, EPOCHS - k);

        let mut combined = prefix;
        combined.extend(suffix);
        assert_eq!(
            jsonl(&combined),
            baseline_jsonl,
            "restore at epoch {k} diverged from the uninterrupted run"
        );
    }
}

#[test]
fn faultless_profile_neither_degrades_nor_goes_blind() {
    let cfg = ServeConfig::new(scenario(11), FaultPlan::none(11));
    let mut rt = ServeRuntime::new(cfg);
    let records = run_epochs(&mut rt, 12);
    assert!(records.iter().all(|r| !r.blind && !r.paused));
    assert!(records.iter().all(|r| r.state == "live"));
    assert!(records.iter().all(|r| r.lost == 0 && r.duplicates == 0));
    // Quality holds up: the pipeline still detects victims.
    let mean_f1: f64 =
        records.iter().map(|r| r.f1).sum::<f64>() / records.len() as f64;
    assert!(mean_f1 > 0.5, "mean F1 {mean_f1} too low for a clean control plane");
}

#[test]
fn sustained_pauses_degrade_then_service_recovers() {
    // Pause every epoch: the watchdog must degrade after stall_threshold.
    let mut cfg = ServeConfig::new(
        scenario(13),
        FaultPlan { pause: 1.0, ..FaultPlan::none(13) },
    );
    cfg.stall_threshold = 3;
    cfg.base_recovery = 2;
    let mut rt = ServeRuntime::new(cfg);
    let records = run_epochs(&mut rt, 6);
    assert!(records[..2].iter().all(|r| r.state == "live"));
    assert!(
        records[2..].iter().all(|r| r.state == "degraded"),
        "3 consecutive blind epochs must degrade the service"
    );
    // Degraded epochs hold the last-good (initial) runtime: the staged
    // partition never moves while degraded.
    let held: Vec<_> = records[2..].iter().map(|r| (r.m_hh, r.m_hl, r.m_ll)).collect();
    assert!(held.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(rt.state(), ServeState::Degraded);

    // Faults clear (a fresh runtime with a clean plan, restored from the
    // degraded snapshot): healthy decodes accumulate and service resumes.
    let snap = rt.snapshot();
    let mut healed = ServeRuntime::new(ServeConfig::new(
        scenario(13),
        FaultPlan::none(13),
    ));
    healed.restore(&snap).unwrap();
    let after = run_epochs(&mut healed, 4);
    assert_eq!(after[0].state, "degraded", "recovery needs consecutive proof");
    assert_eq!(healed.state(), ServeState::Live, "service must self-heal");
    // The strictly-growing discipline: the next episode demands more.
    assert!(healed.recovery_needed() > 2);
}

#[test]
fn bounded_inbox_applies_backpressure() {
    let mut cfg = ServeConfig::new(scenario(17), FaultPlan::none(17));
    cfg.inbox_capacity = Some(2); // topology has 4 edges
    let mut rt = ServeRuntime::new(cfg);
    let records = run_epochs(&mut rt, 6);
    assert!(records.iter().all(|r| r.backpressure_drops == 2));
    // Partial collections are survivable: never blind, never panicking.
    assert!(records.iter().all(|r| !r.blind));
}

#[test]
fn rebooted_switches_report_empty_not_missing() {
    // Reboot everything every epoch: reports all arrive but carry nothing.
    let cfg = ServeConfig::new(
        scenario(19),
        FaultPlan { reboot: 1.0, ..FaultPlan::none(19) },
    );
    let mut rt = ServeRuntime::new(cfg);
    let records = run_epochs(&mut rt, 4);
    assert!(records.iter().all(|r| r.reboots == 4 && r.delivered == 4));
    // All-empty reports are a *decoded* collection of nothing — the epoch
    // is not blind (reports arrived), and nothing is detected.
    assert!(records.iter().all(|r| !r.blind));
    assert!(records.iter().all(|r| r.reported_victims == 0));
}

#[test]
fn clock_stall_yields_null_latency_not_zero() {
    let cfg = ServeConfig::new(
        scenario(23),
        FaultPlan { clock_stall: 1.0, ..FaultPlan::none(23) },
    );
    let mut rt = ServeRuntime::new(cfg);
    for _ in 0..3 {
        let r = rt.step();
        assert!(r.clock_stalled);
        assert_eq!(r.reaction_ms, None);
        assert!(r.to_jsonl().contains("\"reaction_ms\":null"));
    }
    // And with a working clock the model reports a positive latency.
    let mut rt = ServeRuntime::new(ServeConfig::new(scenario(23), FaultPlan::none(23)));
    let r = rt.step();
    assert!(r.reaction_ms.expect("clock is fine") > 0.0);
}

#[test]
fn delayed_reports_pay_backoff_latency() {
    let cfg = ServeConfig::new(
        scenario(29),
        FaultPlan {
            report_delay: 1.0,
            delay_retries_max: 3,
            max_retries: 3,
            ..FaultPlan::none(29)
        },
    );
    let mut rt = ServeRuntime::new(cfg);
    let delayed = rt.step();
    let mut rt = ServeRuntime::new(ServeConfig::new(scenario(29), FaultPlan::none(29)));
    let clean = rt.step();
    assert!(
        delayed.reaction_ms.expect("measured") > clean.reaction_ms.expect("measured"),
        "retry backoff must show up in the reaction latency"
    );
    assert_eq!(delayed.delayed, 4);
}

/// Serve ≡ scorer when nothing is injected: under `FaultPlan::none`, on a
/// scenario without `report_loss`, while the watchdog stays live, the serve
/// runtime and the scenario scorer are the same procedure on the same
/// stack — they agree epoch by epoch on what was replayed, what the
/// controller reported and staged, and where it localized the loss.
#[test]
fn faultless_serve_agrees_with_the_scenario_scorer() {
    use chm_netsim::Sharding;
    use chm_scenarios::{ReplayMode, ScenarioStack};

    let calm = Scenario::builder("svc_calm").seed(13).flows(300).build();
    for s in [calm, scenario(13)] {
        assert_eq!(s.report_loss, 0.0);
        for sharding in [None, Some(Sharding { shards: 3, workers: 2 })] {
            let mut rt = ServeRuntime::new(ServeConfig::new(s.clone(), FaultPlan::none(13)));
            let mut stack = ScenarioStack::new(&s);
            if let Some(sh) = sharding {
                rt.set_sharding(sh);
                stack.set_sharding(sh);
            }
            let base = s.base_trace();
            for epoch in 0..40 {
                let tag = format!("{} {sharding:?} epoch {epoch}", s.name);
                let served = rt.step();
                let scored = stack.step_epoch(&s, &base, ReplayMode::Burst);
                assert_eq!(served.state, "live", "{tag}: the comparison needs a live run");
                assert_eq!(served.epoch, scored.metrics.epoch, "{tag}");
                assert_eq!(served.packets, scored.metrics.packets_sent, "{tag}");
                assert_eq!(served.reported_victims, scored.metrics.reported_victims, "{tag}");
                assert_eq!(served.decode_ok, scored.metrics.decode_ok, "{tag}");
                let p = scored.staged.partition;
                assert_eq!((served.m_hh, served.m_hl, served.m_ll), (p.m_hh, p.m_hl, p.m_ll), "{tag}");
                assert_eq!(
                    served.sample_rate.to_bits(),
                    scored.staged.sample_rate().to_bits(),
                    "{tag}"
                );
                assert_eq!(served.loc_top1.to_bits(), scored.metrics.loc_top1.to_bits(), "{tag}");
                assert_eq!(served.loc_top3.to_bits(), scored.metrics.loc_top3.to_bits(), "{tag}");
            }
        }
    }
}
