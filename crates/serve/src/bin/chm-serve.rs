//! `chm-serve` — the streaming controller service CLI.
//!
//! ```text
//! chm-serve [--epochs <n>] [--seed <s>] [--profile none|standard|stress]
//!           [--scenario calm|congested] [--inbox-capacity <n>]
//!           [--shards <n>] [--metrics <path|->] [--metrics-out <path>]
//!           [--prom-out <path>] [--snapshot <path>] [--snapshot-every <k>]
//!           [--restore <path>] [--quiet]
//! ```
//!
//! Serves `n` epochs of the scenario's endless workload stream through the
//! fault-injected runtime, writing one JSONL [`EpochRecord`] line per
//! epoch to `--metrics` (default stdout). `--snapshot-every k` overwrites
//! `--snapshot` with a crash-consistent [`ServeSnapshot`] every `k`
//! epochs (and once more at exit); `--restore` resumes from one — the
//! combined metrics stream of a killed-and-restored run is byte-identical
//! to an uninterrupted one (CI proves this with `cmp`).
//!
//! The process is fully deterministic: same flags, same bytes. It reads
//! no clock — real-time latency measurement lives in `chm-bench soak`.
//! `--shards <n>` replays each epoch through the sharded engine; the
//! metrics stream (and any snapshot) is byte-identical at every shard
//! count, so the flag only changes how the replay work is scheduled.
//!
//! Telemetry sinks (`chm_obs`): `--metrics-out <path>` appends one JSONL
//! line per epoch (`{"epoch":N,"metrics":{...},"spans":{...}}` — the flat
//! registry plus the cumulative span tree) and `--prom-out <path>`
//! rewrites a Prometheus text-format 0.0.4 snapshot after every epoch.
//! Both run under the injected zero clock, so their bytes too are
//! identical across runs and shard counts (CI cmp-gates this).

use std::io::Write;

use chm_netsim::Sharding;
use chm_scenarios::Scenario;
use chm_serve::{FaultPlan, ServeConfig, ServeRuntime, ServeSnapshot, ServeState};

fn usage() -> ! {
    eprintln!(
        "usage: chm-serve [--epochs <n>] [--seed <s>] \
         [--profile none|standard|stress] [--scenario calm|congested]\n       \
         [--inbox-capacity <n>] [--shards <n>] [--metrics <path|->]\n       \
         [--metrics-out <path>] [--prom-out <path>] [--snapshot <path>] \
         [--snapshot-every <k>] [--restore <path>] [--quiet]"
    );
    std::process::exit(2);
}

fn fail(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// The two serve-mode workload presets. `calm` is the scenario engine's
/// baseline traffic; `congested` is [`Scenario::serve_congested`].
fn scenario_for(name: &str, seed: u64) -> Scenario {
    match name {
        "calm" => Scenario::builder("serve_calm").seed(seed).flows(600).build(),
        "congested" => Scenario::serve_congested(seed, 600),
        _ => usage(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut epochs: u64 = 256;
    let mut seed: u64 = 0xc4a3;
    let mut profile = "standard".to_string();
    let mut scenario_name = "congested".to_string();
    let mut inbox_capacity: Option<usize> = None;
    let mut shards: Option<usize> = None;
    let mut metrics_path = "-".to_string();
    let mut obs_jsonl_path: Option<String> = None;
    let mut prom_path: Option<String> = None;
    let mut snapshot_path: Option<String> = None;
    let mut snapshot_every: Option<u64> = None;
    let mut restore_path: Option<String> = None;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--epochs" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) => epochs = n,
                None => usage(),
            },
            "--seed" => match it.next().and_then(|n| n.parse().ok()) {
                Some(s) => seed = s,
                None => usage(),
            },
            "--profile" => match it.next() {
                Some(p) => profile = p.clone(),
                None => usage(),
            },
            "--scenario" => match it.next() {
                Some(s) => scenario_name = s.clone(),
                None => usage(),
            },
            "--inbox-capacity" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 1 => inbox_capacity = Some(n),
                _ => usage(),
            },
            "--shards" => match it.next().and_then(|n| n.parse().ok()) {
                Some(n) if n >= 1 => shards = Some(n),
                _ => usage(),
            },
            "--metrics" => match it.next() {
                Some(p) => metrics_path = p.clone(),
                None => usage(),
            },
            "--metrics-out" => match it.next() {
                Some(p) => obs_jsonl_path = Some(p.clone()),
                None => usage(),
            },
            "--prom-out" => match it.next() {
                Some(p) => prom_path = Some(p.clone()),
                None => usage(),
            },
            "--snapshot" => match it.next() {
                Some(p) => snapshot_path = Some(p.clone()),
                None => usage(),
            },
            "--snapshot-every" => match it.next().and_then(|n| n.parse().ok()) {
                Some(k) if k >= 1 => snapshot_every = Some(k),
                _ => usage(),
            },
            "--restore" => match it.next() {
                Some(p) => restore_path = Some(p.clone()),
                None => usage(),
            },
            "--quiet" => quiet = true,
            _ => usage(),
        }
    }
    let Some(faults) = FaultPlan::named(&profile, seed) else { usage() };
    if snapshot_every.is_some() && snapshot_path.is_none() {
        fail("--snapshot-every needs --snapshot <path>".to_string());
    }

    let mut serve_cfg = ServeConfig::new(scenario_for(&scenario_name, seed), faults);
    serve_cfg.inbox_capacity = inbox_capacity;
    let mut rt = ServeRuntime::new(serve_cfg);
    if let Some(n) = shards {
        rt.set_sharding(Sharding::of(n));
    }
    if let Some(path) = &restore_path {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(format!("could not read snapshot {path}: {e}")));
        let snap = ServeSnapshot::parse(&text)
            .unwrap_or_else(|e| fail(format!("could not parse snapshot {path}: {e}")));
        rt.restore(&snap)
            .unwrap_or_else(|e| fail(format!("could not restore snapshot {path}: {e}")));
    }

    let first = rt.next_epoch();
    let Some(end) = first.checked_add(epochs) else {
        fail(format!(
            "epoch range {first}..{first}+{epochs} runs past the last epoch number, {}",
            u64::MAX
        ))
    };

    let stdout = std::io::stdout();
    let mut sink: Box<dyn Write> = if metrics_path == "-" {
        Box::new(std::io::BufWriter::new(stdout.lock()))
    } else {
        let f = std::fs::File::create(&metrics_path)
            .unwrap_or_else(|e| fail(format!("could not create {metrics_path}: {e}")));
        Box::new(std::io::BufWriter::new(f))
    };

    let mut obs_sink: Option<std::io::BufWriter<std::fs::File>> =
        obs_jsonl_path.as_ref().map(|p| {
            let f = std::fs::File::create(p)
                .unwrap_or_else(|e| fail(format!("could not create {p}: {e}")));
            std::io::BufWriter::new(f)
        });
    let write_prom = |rt: &ServeRuntime| {
        if let Some(path) = &prom_path {
            if let Err(e) = std::fs::write(path, rt.obs().prom_snapshot()) {
                fail(format!("could not write Prometheus snapshot {path}: {e}"));
            }
        }
    };

    let write_snap = |rt: &ServeRuntime| {
        if let Some(path) = &snapshot_path {
            if let Err(e) = std::fs::write(path, rt.snapshot().serialize()) {
                fail(format!("could not write snapshot {path}: {e}"));
            }
        }
    };

    let mut degraded_epochs = 0u64;
    let mut blind_epochs = 0u64;
    while rt.next_epoch() < end {
        let record = rt.step();
        degraded_epochs += u64::from(record.state == "degraded");
        blind_epochs += u64::from(record.blind);
        if let Err(e) = writeln!(sink, "{}", record.to_jsonl()) {
            fail(format!("could not write metrics: {e}"));
        }
        if let Some(obs_sink) = &mut obs_sink {
            if let Err(e) = writeln!(obs_sink, "{}", rt.obs().jsonl_line(record.epoch)) {
                fail(format!("could not write telemetry trace: {e}"));
            }
        }
        write_prom(&rt);
        if let Some(k) = snapshot_every {
            if (rt.next_epoch() - first).is_multiple_of(k) {
                write_snap(&rt);
            }
        }
    }
    if let Err(e) = sink.flush() {
        fail(format!("could not flush metrics: {e}"));
    }
    if let Some(obs_sink) = &mut obs_sink {
        if let Err(e) = obs_sink.flush() {
            fail(format!("could not flush telemetry trace: {e}"));
        }
    }
    write_snap(&rt);

    if !quiet {
        eprintln!(
            "served epochs {first}..{end}: {} degraded, {} blind; state {}; \
             recovery requirement {}",
            degraded_epochs,
            blind_epochs,
            match rt.state() {
                ServeState::Live => "live",
                ServeState::Degraded => "degraded",
            },
            rt.recovery_needed(),
        );
    }
}
