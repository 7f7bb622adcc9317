//! The gate's gate: the workspace itself must lint clean, every allow must
//! carry a reason, and the report must serialize. This is the same scan CI
//! runs via `chm-lint --check`, executed as a plain test so `cargo test`
//! alone already enforces the invariants.

use chm_lint::{find_workspace_root, scan_workspace};
use std::path::Path;

fn workspace_root() -> std::path::PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("the lint crate lives inside the workspace")
}

#[test]
fn workspace_is_lint_clean() {
    let report = scan_workspace(&workspace_root()).expect("scan");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — did the walker break?",
        report.files_scanned
    );
    let rendered: Vec<String> = report
        .violations
        .iter()
        .map(|d| format!("{}:{}: [{}] {}", d.file, d.line, d.rule, d.message))
        .collect();
    assert!(
        report.clean(),
        "workspace has lint violations:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn every_allow_carries_a_real_reason() {
    let report = scan_workspace(&workspace_root()).expect("scan");
    assert!(
        !report.allows.is_empty(),
        "the workspace is expected to document at least its map-iter-order allows"
    );
    for a in &report.allows {
        assert!(
            a.reason.len() >= 15,
            "{}:{}: allow({}) reason too thin to be a justification: {:?}",
            a.file,
            a.line,
            a.rule,
            a.reason
        );
    }
}

#[test]
fn json_report_is_well_formed_enough() {
    let report = scan_workspace(&workspace_root()).expect("scan");
    let json = report.to_json();
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"violations\""));
    assert!(json.contains("\"allows\""));
    assert!(json.contains("\"files_scanned\""));
    // Balanced quotes is a cheap smoke test for the hand-rolled escaper.
    let quotes = json.chars().filter(|&c| c == '"').count();
    assert_eq!(quotes % 2, 0, "odd number of '\"' in JSON output");
}
