//! Pins the serve stream **across commits**: what `ServeRuntime::step`
//! emitted while the runtime still owned its own `edges` / `controller` /
//! `simulator` / `sharded` fields and its own serial-or-sharded `match`.
//!
//! `tests/service.rs`, `tests/obs.rs` and the CI `cmp`s only ever compare a
//! commit with itself, so a refactor that moved every run the same way would
//! pass them all. The table below was recorded by this file at commit
//! 8d2fec3, the last one before the runtime was rebuilt on
//! `chm_scenarios::ScenarioStack`, with `runtime.rs` untouched; nothing but
//! the table has been added since that recording run. Every route to a
//! served epoch is held to it: the CLI's two workload presets × the three
//! fault profiles × {serial, 3 shards on 2 workers}, 64 epochs each, one
//! FNV-1a digest per run over everything an operator can read back — the
//! `--metrics` line, the `--metrics-out` line, the `--prom-out` snapshot and
//! the `--snapshot` text of every epoch. The two layouts share one pinned
//! digest per row (the stream is byte-identical at any shard count).

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

/// Serves [`EPOCHS`] epochs and digests every byte the CLI would write.
fn stream_digest(scenario_name: &str, profile: &str, sharding: Option<Sharding>) -> u64 {
    let mut rt = ServeRuntime::new(ServeConfig::new(scenario(scenario_name), faults(profile)));
    if let Some(s) = sharding {
        rt.set_sharding(s);
    }
    let mut d = 0xcbf2_9ce4_8422_2325;
    for _ in 0..EPOCHS {
        let record = rt.step();
        for text in [
            record.to_jsonl(),
            rt.obs().jsonl_line(record.epoch),
            rt.obs().prom_snapshot(),
            rt.snapshot().serialize(),
        ] {
            d = fnv(d, text.as_bytes());
            d = fnv(d, b"\n");
        }
    }
    d
}

/// `(scenario preset, fault profile, digest of the 64-epoch stream)`.
#[rustfmt::skip]
const PINS: &[(&str, &str, u64)] = &[
    ("calm", "none", 0xcc1c187854dd9b3c),
    ("calm", "standard", 0xc066c1158aa0b130),
    ("calm", "stress", 0x67f7d1a0f799f9e0),
    ("congested", "none", 0xacda634b4d67c43c),
    ("congested", "standard", 0x92829add5c2d09cb),
    ("congested", "stress", 0x757eac9a63988cdc),
];

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
            got.push((scenario_name, profile, serial));
        }
    }
    let table: String =
        got.iter().map(|(s, p, d)| format!("    ({s:?}, {p:?}, {d:#018x}),\n")).collect();
    assert!(got.as_slice() == PINS, "serve stream moved; this run computed:\n{table}");
}
