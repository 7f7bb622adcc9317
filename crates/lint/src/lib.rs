//! **chm-lint** — in-tree static analysis enforcing the invariants of the
//! workspace that only a token-level pass can see.
//!
//! Every result this reproduction ships — byte-identical per-packet vs
//! burst replays, the CI scenario gate, the committed benchmark goldens —
//! rests on invariants that were previously enforced only by review: no
//! unordered hash iteration feeding committed metrics (the exact PR 3 bug
//! class), no `%`/allocation in hot paths, and no undocumented `unwrap`
//! in library code. This crate checks them mechanically on every CI run.
//!
//! What the compiler can check with types resolved lives there instead,
//! in one place each: wall-clock reads in `clippy.toml`, entropy-seeded
//! RNGs in the vendored `rand` (it has no entropy source), `unsafe` in
//! `[workspace.lints]`, and metric names in `chm_obs`'s registry (see
//! [`rules`]).
//!
//! The analyzer is a hand-rolled lexer + token-stream rule engine
//! ([`lexer`], [`model`], [`rules`]) — the vendoring policy forbids new
//! external dependencies, so there is no `syn` and no AST. Rules are
//! context-sensitive by crate/module role ([`roles`]): tests, examples
//! and the bench harness may `unwrap`, only output surfaces are held to
//! ordered iteration, and the vendored stubs are skipped.
//!
//! Escape hatch: `// chm-lint: allow(rule, "reason")` — the reason string
//! is mandatory and audited (see [`directives`]).
//!
//! Run locally:
//!
//! ```text
//! cargo run -p chm_lint --bin chm-lint -- --check
//! ```

pub mod diag;
pub mod directives;
pub mod lexer;
pub mod model;
pub mod roles;
pub mod rules;

pub use diag::{AllowRecord, Diagnostic, LintReport};
pub use roles::Role;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Lints one source text under a workspace-relative virtual path (the
/// path only determines the file's [`Role`]). Used by the fixture tests
/// and by [`scan_workspace`].
pub fn lint_source(
    rel: &str,
    src: &str,
    ws_hash_names: &BTreeSet<String>,
) -> (Vec<Diagnostic>, Vec<AllowRecord>) {
    let role = roles::classify(rel);
    if !role.scanned() {
        return (Vec::new(), Vec::new());
    }
    let toks = lexer::lex(src);
    let model = model::build(&toks);
    let ctx = rules::FileCtx {
        rel,
        role,
        toks: &toks,
        model: &model,
        ws_hash_names,
    };
    let mut diags = rules::check_file(&ctx);
    // Apply allows: a diagnostic is suppressed by a reasoned allow of the
    // same rule whose line scope covers it. `bad-allow` itself cannot be
    // allowed away.
    diags.retain(|d| {
        d.rule == "bad-allow"
            || !model.allows.iter().any(|a| {
                a.rule == d.rule
                    && a.reason.is_some()
                    && directives::is_known_rule(&a.rule)
                    && (a.lines.0..=a.lines.1).contains(&d.line)
            })
    });
    let allows = model
        .allows
        .iter()
        .filter_map(|a| {
            a.reason.as_ref().map(|r| AllowRecord {
                file: rel.to_string(),
                line: a.line,
                rule: a.rule.clone(),
                reason: r.clone(),
            })
        })
        .collect();
    (diags, allows)
}

/// Lints a standalone snippet with no cross-file type knowledge —
/// convenience for tests and fixtures.
pub fn lint_snippet(rel: &str, src: &str) -> Vec<Diagnostic> {
    lint_source(rel, src, &BTreeSet::new()).0
}

/// Scans the whole workspace rooted at `root`: every `.rs` file under
/// `src/`, `tests/`, `examples/`, and `crates/` (skipping `vendor/`,
/// `target/`, and the lint's own fixtures), in two passes — the first
/// collects hash-collection-typed names workspace-wide so struct fields
/// are recognized across crate boundaries, the second runs the rules.
pub fn scan_workspace(root: &Path) -> std::io::Result<LintReport> {
    let mut files = Vec::new();
    for top in ["src", "tests", "examples", "crates"] {
        collect_rs_files(&root.join(top), &mut files)?;
    }
    files.sort();

    // Pass 1: lex + model everything, union the hash-typed names.
    let mut parsed = Vec::new();
    let mut ws_hash_names = BTreeSet::new();
    for path in &files {
        let rel = rel_path(root, path);
        if !roles::classify(&rel).scanned() {
            continue;
        }
        let src = std::fs::read_to_string(path)?;
        let toks = lexer::lex(&src);
        let model = model::build(&toks);
        ws_hash_names.extend(model.hash_exports.iter().cloned());
        parsed.push((rel, src));
    }

    // Pass 2: rules with global context.
    let mut report = LintReport {
        files_scanned: parsed.len(),
        ..Default::default()
    };
    for (rel, src) in &parsed {
        let (diags, allows) = lint_source(rel, src, &ws_hash_names);
        report.violations.extend(diags);
        report.allows.extend(allows);
    }
    report.violations.sort();
    report.allows.sort();
    Ok(report)
}

/// Recursively collects `.rs` files, skipping `target`, `vendor`, `.git`,
/// and `fixtures` directories.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | "vendor" | ".git" | "fixtures") {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Walks upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snippet_flags_unwrap_in_lib_role() {
        let d = lint_snippet(
            "crates/foo/src/lib.rs",
            "fn f(v: Vec<u8>) -> u8 { *v.first().unwrap() }",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "unwrap");
    }

    #[test]
    fn snippet_allows_unwrap_in_harness_role() {
        for path in [
            "crates/bench/src/perf.rs",
            "crates/netsim/tests/replay_pin.rs",
            "examples/quickstart.rs",
            "crates/serve/src/bin/chm-serve.rs",
        ] {
            let d = lint_snippet(path, "fn f(v: Vec<u8>) -> u8 { *v.first().unwrap() }");
            assert!(d.is_empty(), "{path}: {d:?}");
        }
    }

    #[test]
    fn reasoned_allow_suppresses_and_is_recorded() {
        let src = r#"
// chm-lint: allow(unwrap, "value checked non-empty one line above")
fn f(v: Vec<u8>) -> u8 { *v.first().unwrap() }
"#;
        let (d, a) = lint_source("crates/foo/src/lib.rs", src, &BTreeSet::new());
        assert!(d.is_empty(), "{d:?}");
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].rule, "unwrap");
    }

    #[test]
    fn reasonless_allow_is_a_violation_and_does_not_suppress() {
        let src = "
// chm-lint: allow(unwrap)
fn f(v: Vec<u8>) -> u8 { *v.first().unwrap() }
";
        let d = lint_snippet("crates/foo/src/lib.rs", src);
        let rules: Vec<&str> = d.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"bad-allow"), "{d:?}");
        assert!(rules.contains(&"unwrap"), "{d:?}");
    }
}
