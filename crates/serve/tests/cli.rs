//! Drives the `chm-serve` binary itself: hostile flag values must end in a
//! typed error and an exit code of 1 or 2, or serve exactly what a sane
//! value serves — never a panic, and never a run that exits 0 having served
//! nothing.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve_cli").join(name);
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    dir
}

fn serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chm-serve"))
        .args(["--seed", "7", "--quiet"])
        .args(args)
        .output()
        .expect("run chm-serve")
}

/// A snapshot of a short run, with its `epoch` line set to `epoch`.
fn snapshot_at(dir: &Path, epoch: u64) -> PathBuf {
    let snap = dir.join("state.snap");
    let metrics = dir.join("warmup.jsonl");
    let out = serve(&[
        "--epochs",
        "3",
        "--metrics",
        metrics.to_str().unwrap(),
        "--snapshot",
        snap.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "warm-up run failed: {out:?}");
    let text = std::fs::read_to_string(&snap).expect("read the snapshot");
    assert!(text.contains("\nepoch 3\n"), "snapshot after 3 epochs: {text}");
    std::fs::write(&snap, text.replace("\nepoch 3\n", &format!("\nepoch {epoch}\n")))
        .expect("write the snapshot");
    snap
}

/// Restores `snap`, asks for `epochs` more, and checks the run is refused.
fn assert_refused(dir: &Path, snap: &Path, epochs: &str) {
    let metrics = dir.join("metrics.jsonl");
    let _ = std::fs::remove_file(&metrics);
    let out = serve(&[
        "--restore",
        snap.to_str().unwrap(),
        "--epochs",
        epochs,
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        matches!(out.status.code(), Some(1 | 2)),
        "--epochs {epochs}: want exit 1 or 2, got {:?}; stderr: {stderr}",
        out.status
    );
    assert!(!stderr.contains("panicked"), "--epochs {epochs} panicked: {stderr}");
    assert!(stderr.contains("epoch range"), "the error names the range: {stderr}");
    let written = std::fs::read_to_string(&metrics).unwrap_or_default();
    assert!(written.is_empty(), "--epochs {epochs} wrote metrics: {written}");
}

#[test]
fn an_epoch_range_past_u64_max_is_refused() {
    let dir = scratch("range_from_3");
    let snap = snapshot_at(&dir, 3);
    assert_refused(&dir, &snap, &u64::MAX.to_string());
}

#[test]
fn a_snapshot_at_the_last_epoch_cannot_serve_one_more() {
    let dir = scratch("range_from_max");
    let snap = snapshot_at(&dir, u64::MAX);
    assert_refused(&dir, &snap, "1");
}

#[test]
fn a_huge_shard_count_serves_the_serial_stream() {
    let dir = scratch("huge_shards");
    let run = |name: &str, extra: &[&str]| {
        let metrics = dir.join(name);
        let args = [&["--epochs", "3", "--metrics", metrics.to_str().unwrap()], extra].concat();
        let out = serve(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "{extra:?}: want exit 0, got {:?}; stderr: {stderr}",
            out.status
        );
        std::fs::read(&metrics).expect("read the metrics stream")
    };
    let serial = run("serial.jsonl", &[]);
    let huge = run("huge.jsonl", &["--shards", &u64::MAX.to_string()]);
    assert!(!serial.is_empty(), "the serial run wrote metrics");
    assert_eq!(huge, serial, "--shards u64::MAX must serve the serial stream");
}
