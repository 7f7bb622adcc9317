//! Pins the serve stream **across commits**: what `ServeRuntime::step`
//! emitted while the runtime still owned its own `edges` / `controller` /
//! `simulator` / `sharded` fields and its own serial-or-sharded `match`.
//!
//! `tests/service.rs`, `tests/obs.rs` and the CI `cmp`s only ever compare a
//! commit with itself, so a refactor that moved every run the same way would
//! pass them all. The first digest column below was recorded by this file at
//! commit 8d2fec3, the last one before the runtime was rebuilt on
//! `chm_scenarios::ScenarioStack`, with `runtime.rs` untouched. Every route
//! to a served epoch is held to it: the CLI's two workload presets × the
//! three fault profiles × {serial, 3 shards on 2 workers}, 64 epochs each,
//! one FNV-1a digest per run over everything an operator can read back —
//! the `--metrics` line, the `--metrics-out` line, the `--prom-out` snapshot
//! and the `--snapshot` text of every epoch. The two layouts share one
//! pinned digest per row (the stream is byte-identical at any shard count).
//!
//! One change to the stream was made on purpose since: once serve closed its
//! epochs through `chamelemon::Controller::close_epoch`, the span tree in
//! every `--metrics-out` line gained an `epoch/reconfigure` entry. The
//! 8d2fec3 column is checked against the stream with that entry cut out of
//! each line; the second column pins the full stream as it is now.
use chm_netsim::Sharding;
use chm_scenarios::Scenario;
use chm_serve::{FaultPlan, ServeConfig, ServeRuntime};

const SEED: u64 = 7;
const EPOCHS: u64 = 64;

/// FNV-1a over `bytes`, continuing from `acc`.
fn fnv(acc: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(acc, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The `chm-serve --scenario` presets, spelled out so this file does not
/// move with the code it pins.
fn scenario(name: &str) -> Scenario {
    match name {
        "calm" => Scenario::builder("serve_calm").seed(SEED).flows(600).build(),
        "congested" => Scenario::builder("serve_congested")
            .seed(SEED)
            .flows(600)
            .congestion()
            .queue_model(8)
            .microburst(0.3, 2)
            .slow_drain_tor(1, 0.55)
            .build(),
        other => panic!("no preset {other}"),
    }
}

fn faults(profile: &str) -> FaultPlan {
    match profile {
        "none" => FaultPlan::none(SEED),
        "standard" => FaultPlan::standard(SEED),
        "stress" => FaultPlan::stress(SEED),
        other => panic!("no profile {other}"),
    }
}

/// The `--metrics-out` line as 8d2fec3 wrote it: without the
/// `"epoch/reconfigure":{...}` span entry.
fn without_reconfigure_span(line: &str) -> String {
    let Some(start) = line.find("\"epoch/reconfigure\":{") else { return line.to_string() };
    let end = start + line[start..].find('}').expect("a span entry closes") + 1;
    match line[end..].strip_prefix(',') {
        Some(rest) => format!("{}{rest}", &line[..start]),
        None => format!("{}{}", line[..start].trim_end_matches(','), &line[end..]),
    }
}

/// Serves [`EPOCHS`] epochs and digests every byte the CLI would write:
/// `(8d2fec3 view, full stream)`.
fn stream_digest(scenario_name: &str, profile: &str, sharding: Option<Sharding>) -> (u64, u64) {
    let mut rt = ServeRuntime::new(ServeConfig::new(scenario(scenario_name), faults(profile)));
    if let Some(s) = sharding {
        rt.set_sharding(s);
    }
    let (mut old, mut full) = (0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325);
    for _ in 0..EPOCHS {
        let record = rt.step();
        let obs_line = rt.obs().jsonl_line(record.epoch);
        let texts = [
            record.to_jsonl(),
            obs_line.clone(),
            rt.obs().prom_snapshot(),
            rt.snapshot().serialize(),
        ];
        for (i, text) in texts.iter().enumerate() {
            full = fnv(fnv(full, text.as_bytes()), b"\n");
            let text = if i == 1 { without_reconfigure_span(text) } else { text.clone() };
            old = fnv(fnv(old, text.as_bytes()), b"\n");
        }
    }
    (old, full)
}

/// `(scenario preset, fault profile, digest of the 64-epoch stream without
/// the reconfigure span (8d2fec3), digest of the full stream)`.
#[rustfmt::skip]
const PINS: &[(&str, &str, u64, u64)] = &[
    ("calm", "none", 0xcc1c187854dd9b3c, 0x18ceae50aef218f6),
    ("calm", "standard", 0xc066c1158aa0b130, 0x3425c37fb834ac0c),
    ("calm", "stress", 0x67f7d1a0f799f9e0, 0x29d04af38936ac28),
    ("congested", "none", 0xacda634b4d67c43c, 0x1621a950bc5c932c),
    ("congested", "standard", 0x92829add5c2d09cb, 0xbd896154b83a65a1),
    ("congested", "stress", 0x757eac9a63988cdc, 0x8b9b80c95c5187b4),
];

#[test]
fn cutting_the_reconfigure_span_restores_the_old_line() {
    let line = r#"{"spans":{"epoch/localize":{"count":2,"total_s":0},"epoch/reconfigure":{"count":2,"total_s":0},"epoch/replay":{"count":2,"total_s":0}}}"#;
    let old = r#"{"spans":{"epoch/localize":{"count":2,"total_s":0},"epoch/replay":{"count":2,"total_s":0}}}"#;
    assert_eq!(without_reconfigure_span(line), old);
    assert_eq!(without_reconfigure_span(old), old);
    let last = r#"{"a":{"count":1},"epoch/reconfigure":{"count":1}}"#;
    assert_eq!(without_reconfigure_span(last), r#"{"a":{"count":1}}"#);
}

#[test]
fn every_layout_reproduces_the_pinned_streams() {
    let mut got = Vec::new();
    for scenario_name in ["calm", "congested"] {
        for profile in ["none", "standard", "stress"] {
            let serial = stream_digest(scenario_name, profile, None);
            let sharded =
                stream_digest(scenario_name, profile, Some(Sharding { shards: 3, workers: 2 }));
            assert_eq!(
                serial, sharded,
                "{scenario_name}/{profile}: 3 shards on 2 workers left the serial stream"
            );
            got.push((scenario_name, profile, serial.0, serial.1));
        }
    }
    let table: String = got
        .iter()
        .map(|(s, p, old, full)| format!("    ({s:?}, {p:?}, {old:#018x}, {full:#018x}),\n"))
        .collect();
    assert!(got.as_slice() == PINS, "serve stream moved; this run computed:\n{table}");
}
