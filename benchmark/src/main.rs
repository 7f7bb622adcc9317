//! `chm-benchmark` — the repo benchmark (BENCHMARK.json at the root names
//! `benchmark/run.sh`, which builds and runs this).
//!
//! ```text
//! chm-benchmark [--workload <name>] [--trace 0|1] [--seed <u64>]
//!               [--seconds <s>] [--quick] [--out <dir>]
//! ```
//!
//! With `--workload` and `--trace` it makes that one pass and ends its
//! output with the one-line JSON result the benchmark driver reads. With
//! neither it runs all four workloads, untraced then traced, and requires
//! the two passes' digests to agree. Either way it prints every metric by
//! name with its unit and writes `results.json` (and `trace.jsonl` after a
//! traced pass) under `--out`. The exit status is non-zero when any
//! correctness check failed.

mod adapter;
mod alloc;
mod harness;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use adapter::{FermatCodec, ReplayScale, ServeSteady, TestbedShift};
use harness::{run_traced, run_untraced, PassArgs, PassResult, Workload};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const WORKLOADS: [&str; 4] = [
    ServeSteady::NAME,
    TestbedShift::NAME,
    ReplayScale::NAME,
    FermatCodec::NAME,
];
/// `run_seconds` of BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 20.0;
const DEFAULT_SEED: u64 = 0x50a7;

struct Cli {
    workload: Option<String>,
    trace: Option<bool>,
    pass: PassArgs,
    out: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: chm-benchmark [--workload {}] [--trace 0|1] [--seed <u64>] \
         [--seconds <s>] [--quick] [--out <dir>]",
        WORKLOADS.join("|")
    )
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        trace: None,
        pass: PassArgs {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            quick: false,
        },
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or(format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}\n{}", usage()));
                }
                cli.workload = Some(name.clone());
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--seed" => {
                let text = value()?;
                cli.pass.seed = parse_u64(text).ok_or(format!("--seed: not a u64: {text:?}"))?;
            }
            "--seconds" => {
                let text = value()?;
                cli.pass.seconds = match text.parse::<f64>() {
                    Ok(s) if s.is_finite() && (0.0..=600.0).contains(&s) => s,
                    _ => return Err(format!("--seconds: not in 0..=600: {text:?}")),
                };
            }
            "--quick" => cli.pass.quick = true,
            "--out" => cli.out = PathBuf::from(value()?),
            _ => return Err(format!("unknown argument {flag:?}\n{}", usage())),
        }
    }
    Ok(cli)
}

/// One pass of the named workload; the spans as JSONL after a traced one.
fn run_pass(workload: &str, traced: bool, args: PassArgs, spans: &mut String) -> PassResult {
    fn go<W: Workload>(traced: bool, args: PassArgs, spans: &mut String) -> PassResult {
        if traced {
            let (result, tracer) = run_traced::<W>(args);
            tracer.write_jsonl(W::NAME, spans);
            result
        } else {
            run_untraced::<W>(args)
        }
    }
    match workload {
        ServeSteady::NAME => go::<ServeSteady>(traced, args, spans),
        TestbedShift::NAME => go::<TestbedShift>(traced, args, spans),
        ReplayScale::NAME => go::<ReplayScale>(traced, args, spans),
        FermatCodec::NAME => go::<FermatCodec>(traced, args, spans),
        other => unreachable!("parse_cli admits only known workloads, not {other}"),
    }
}

/// JSON number: every digit as measured; non-finite values become `null`.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn print_pass(r: &PassResult) {
    println!(
        "== {} ({}): {} operations in {} rounds, {} failed, digest {}",
        r.workload,
        if r.traced {
            "traced, per-layer"
        } else {
            "untraced, end-to-end"
        },
        r.attempted,
        r.rounds,
        r.failed,
        r.digest
    );
    for e in &r.errors {
        println!("   CHECK FAILED: {e}");
    }
    for m in &r.metrics {
        let spread = m.quartiles.map_or(String::new(), |[q1, q2, q3]| {
            format!("  rounds q1/med/q3 {q1:.4} / {q2:.4} / {q3:.4}")
        });
        println!(
            "   {:<38} {:>14.4} {:<6} n={}{}",
            m.name, m.value, m.unit, m.samples, spread
        );
    }
}

fn pass_json(r: &PassResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            let q = m.quartiles.map_or("null".to_string(), |q| {
                format!("[{}]", q.map(num).join(","))
            });
            let rounds: Vec<String> = m.per_round.iter().copied().map(num).collect();
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"better\":\"{}\",\"samples\":{},\
                 \"round_quartiles\":{},\"per_round\":[{}]}}",
                m.name,
                num(m.value),
                m.unit,
                m.better.as_str(),
                m.samples,
                q,
                rounds.join(",")
            )
        })
        .collect();
    let errors: Vec<String> = r.errors.iter().map(|e| format!("{e:?}")).collect();
    format!(
        "{{\"workload\":\"{}\",\"traced\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\
         \"rounds\":{},\"digest\":\"{}\",\"errors\":[{}],\"metrics\":{{{}}}}}",
        r.workload,
        r.traced,
        r.correct(),
        r.attempted,
        r.failed,
        r.rounds,
        r.digest,
        errors.join(","),
        metrics.join(",")
    )
}

/// The line the benchmark driver reads: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
fn driver_line(r: &PassResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics.join(",")
    )
}

/// The row a PR appends to `benchmark/history.jsonl`: every end-to-end
/// metric of every workload, from the untraced passes.
fn history_row(seed: u64, passes: &[PassResult]) -> String {
    let per_workload: Vec<String> = passes
        .iter()
        .filter(|r| !r.traced)
        .map(|r| {
            let metrics: Vec<String> = r
                .metrics
                .iter()
                .map(|m| format!("\"{}\":{}", m.name, num(m.value)))
                .collect();
            format!(
                "\"{}\":{{\"digest\":\"{}\",{}}}",
                r.workload,
                r.digest,
                metrics.join(",")
            )
        })
        .collect();
    format!(
        "{{\"commit\":\"<fill in>\",\"seed\":{seed},{}}}\n",
        per_workload.join(",")
    )
}

fn write_outputs(cli: &Cli, passes: &[PassResult], spans: &str, full: bool) -> std::io::Result<()> {
    std::fs::create_dir_all(&cli.out)?;
    let threads = std::thread::available_parallelism().map_or(0, usize::from);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{{\"seed\":{},\"seconds\":{},\"quick\":{},\"available_parallelism\":{},\"passes\":[",
        cli.pass.seed,
        num(cli.pass.seconds),
        cli.pass.quick,
        threads
    );
    let rows: Vec<String> = passes.iter().map(pass_json).collect();
    text.push_str(&rows.join(",\n"));
    text.push_str("\n]}\n");
    std::fs::write(cli.out.join("results.json"), text)?;
    if !spans.is_empty() {
        std::fs::write(cli.out.join("trace.jsonl"), spans)?;
    }
    if full && !cli.pass.quick {
        std::fs::write(
            cli.out.join("history_row.json"),
            history_row(cli.pass.seed, passes),
        )?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    // Prove the allocation counter before measuring anything with it.
    if let Err(msg) = alloc::self_test() {
        eprintln!("{msg}");
        return ExitCode::FAILURE;
    }

    let workloads: Vec<&str> = match &cli.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let tracings: Vec<bool> = match cli.trace {
        Some(t) => vec![t],
        None => vec![false, true],
    };
    println!(
        "chm-benchmark: seed {:#x}, {} s per pass{}, {} hardware threads",
        cli.pass.seed,
        cli.pass.seconds,
        if cli.pass.quick {
            ", QUICK (smoke sizes; never compare these numbers)"
        } else {
            ""
        },
        std::thread::available_parallelism().map_or(0, usize::from)
    );

    let mut passes: Vec<PassResult> = Vec::new();
    let mut spans = String::new();
    for w in &workloads {
        let first = passes.len();
        for &traced in &tracings {
            let mut result = run_pass(w, traced, cli.pass, &mut spans);
            for m in result.metrics.iter().filter(|m| !stats::valid_name(m.name)) {
                result
                    .errors
                    .push(format!("metric name {:?} breaks the naming rule", m.name));
            }
            print_pass(&result);
            passes.push(result);
        }
        // Same seed, same round 0: the two passes must have seen the same
        // outputs.
        if let [plain, traced] = &mut passes[first..] {
            if plain.digest != traced.digest {
                traced.errors.push(format!(
                    "digest {} differs from the untraced pass's {}",
                    traced.digest, plain.digest
                ));
                println!(
                    "   CHECK FAILED: {}",
                    traced.errors.last().expect("just pushed")
                );
            }
        }
    }

    let full = cli.workload.is_none() && cli.trace.is_none();
    if let Err(e) = write_outputs(&cli, &passes, &spans, full) {
        eprintln!("could not write results under {}: {e}", cli.out.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", cli.out.join("results.json").display());
    let correct = passes.iter().all(PassResult::correct);
    if let [only] = passes.as_slice() {
        println!("{}", driver_line(only));
    } else {
        println!(
            "{}",
            if correct {
                "all checks passed"
            } else {
                "SOME CHECKS FAILED"
            }
        );
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let cli = parse_cli(&args(
            "--workload fermat_codec --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("fermat_codec"));
        assert_eq!(cli.trace, Some(true));
        assert_eq!(
            (cli.pass.seed, cli.pass.seconds, cli.pass.quick),
            (7, 3.0, false)
        );
        assert_eq!(parse_cli(&args("--seed 0x50a7")).unwrap().pass.seed, 0x50a7);
    }

    #[test]
    fn hostile_arguments_are_errors_not_panics() {
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seed -1",
            "--seconds nan",
            "--seconds 1e9",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse_cli(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn every_workload_name_is_valid() {
        assert!(WORKLOADS.iter().all(|w| stats::valid_name(w)));
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let r = PassResult {
            workload: "w",
            traced: false,
            attempted: 10,
            failed: 0,
            errors: Vec::new(),
            digest: "00".into(),
            rounds: 1,
            metrics: vec![harness::MetricRow {
                name: "op_ms_p50",
                unit: "ms",
                better: stats::Better::Lower,
                value: 1.25,
                samples: 10,
                quartiles: None,
                per_round: Vec::new(),
            }],
        };
        assert_eq!(
            driver_line(&r),
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\
             \"metrics\":{\"op_ms_p50\":{\"value\":1.25,\"unit\":\"ms\"}}}"
        );
        assert_eq!(num(f64::NAN), "null");
    }
}
