//! Drives the `chm-bench` binary itself: an explicit flag must win over
//! `--quick` whatever their order, and a hostile value must end in a typed
//! error and exit 2 — never a panic, and never a run of a layout other than
//! the one asked for.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bench_cli").join(name);
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    dir
}

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chm-bench")).args(args).output().expect("run chm-bench")
}

#[test]
fn an_explicit_soak_epoch_count_wins_over_quick_in_either_order() {
    for (name, flags) in [
        ("epochs_first", ["--epochs", "3", "--quick"]),
        ("quick_first", ["--quick", "--epochs", "3"]),
    ] {
        let dir = scratch(name);
        let out = bench(&[&["soak"], &flags[..], &["--out", dir.to_str().unwrap()]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "{flags:?}: want exit 0, got {:?}; stderr: {stderr}",
            out.status
        );
        let json = std::fs::read_to_string(dir.join("SOAK.json")).expect("read SOAK.json");
        assert!(json.contains("\n  \"epochs\": 3,\n"), "{flags:?} ran other than 3 epochs: {json}");
    }
}

#[test]
fn a_thread_count_past_the_sweep_fabric_is_refused() {
    let dir = scratch("too_many_threads");
    for threads in ["33", "4294967296", &u64::MAX.to_string()] {
        let out = bench(&["perf", "--quick", "--threads", threads, "--out", dir.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--threads {threads}: stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "--threads {threads} panicked: {stderr}");
        assert!(
            stderr.contains("--threads expects a comma list of counts from 1 to 32"),
            "the error names the range: {stderr}"
        );
        assert!(!dir.join("BENCH_hotpath.json").exists(), "--threads {threads} wrote a curve");
    }
}

#[test]
fn pairs_refuses_a_bad_range_and_a_file_of_no_runs() {
    let dir = scratch("pairs");
    let file = dir.join("not_runs.jsonl");
    std::fs::write(&file, "{\"workload\":\"w\"}\n").expect("write the file");
    let file = file.to_str().unwrap();
    for (args, code, says) in [
        (vec!["pairs", file, "--seeds", "101"], 2, "usage:"),
        (vec!["pairs", file, "--seeds", "a-b"], 2, "usage:"),
        (vec!["pairs"], 2, "usage:"),
        (vec!["pairs", file], 1, "line 1: not a benchmark run"),
        (vec!["pairs", "/nonexistent/pairs.jsonl"], 1, "could not read"),
    ] {
        let out = bench(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}: stderr: {stderr}");
        assert!(stderr.contains(says) && !stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
