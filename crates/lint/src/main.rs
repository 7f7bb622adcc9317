//! `chm-lint` — the CLI gate.
//!
//! ```text
//! chm-lint [--check] [--json PATH] [ROOT]
//! ```
//!
//! Scans the workspace (found by walking up from the current directory,
//! or `ROOT` when given), prints every violation, optionally writes the
//! machine-readable JSON report, and exits non-zero when the workspace is
//! not clean. `--check` is the CI mode: compact per-violation lines, no
//! allow listing. There is deliberately no `--fix` — fixes are code
//! review's job; the analyzer only refuses.

use chm_lint::{find_workspace_root, scan_workspace};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut check = false;
    let mut json: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => check = true,
            "--json" => match args.next() {
                Some(p) => json = Some(PathBuf::from(p)),
                None => {
                    eprintln!("chm-lint: --json needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: chm-lint [--check] [--json PATH] [ROOT]");
                return ExitCode::SUCCESS;
            }
            _ => root = Some(PathBuf::from(a)),
        }
    }
    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("chm-lint: no workspace root found (no Cargo.toml with [workspace])");
            return ExitCode::from(2);
        }
    };
    let report = match scan_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chm-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &json {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("chm-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    for d in &report.violations {
        let f = d
            .function
            .as_deref()
            .map(|f| format!(" (in `{f}`)"))
            .unwrap_or_default();
        println!("{}:{}: [{}]{} {}", d.file, d.line, d.rule, f, d.message);
    }
    if !check && !report.allows.is_empty() {
        println!("\n{} reasoned allow(s):", report.allows.len());
        for a in &report.allows {
            println!("  {}:{}: allow({}) — {}", a.file, a.line, a.rule, a.reason);
        }
    }
    println!(
        "chm-lint: {} file(s) scanned, {} violation(s), {} reasoned allow(s)",
        report.files_scanned,
        report.violations.len(),
        report.allows.len()
    );
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
