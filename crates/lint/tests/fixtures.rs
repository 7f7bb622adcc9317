//! Fixture proof for every rule: each `fixtures/*_bad.rs` snippet must
//! produce exactly the expected diagnostics, and its `*_good.rs` twin must
//! produce none. The fixture's *virtual path* selects the role under which
//! it is linted (output surface, library, …) — the snippets never live at
//! those paths.

use chm_lint::lint_source;
use std::collections::BTreeSet;

/// An output-surface path (see `chm_lint::roles`): map-iter-order applies.
const SURFACE: &str = "crates/common/src/metrics.rs";
/// An ordinary library path: the unwrap audit applies.
const LIB: &str = "crates/foo/src/lib.rs";

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Rules fired by `name` linted under `role_path`, in source order.
fn rules_fired(role_path: &str, name: &str) -> Vec<String> {
    let (diags, _) = lint_source(role_path, &fixture(name), &BTreeSet::new());
    diags.iter().map(|d| d.rule.to_string()).collect()
}

fn assert_clean(role_path: &str, name: &str) {
    let fired = rules_fired(role_path, name);
    assert!(fired.is_empty(), "{name} expected clean, fired {fired:?}");
}

#[test]
fn map_iter_order_bad_fires() {
    assert_eq!(
        rules_fired(SURFACE, "map_iter_order_bad.rs"),
        ["map-iter-order", "map-iter-order", "map-iter-order"]
    );
}

#[test]
fn map_iter_order_good_is_clean() {
    assert_clean(SURFACE, "map_iter_order_good.rs");
}

#[test]
fn map_iter_order_only_guards_output_surfaces() {
    // The same unordered iteration is fine in a role that never feeds
    // serialized output.
    assert_clean("crates/foo/src/internal.rs", "map_iter_order_bad.rs");
}

#[test]
fn hot_path_bad_fires() {
    let mut fired = rules_fired(LIB, "hot_path_bad.rs");
    fired.sort();
    assert_eq!(
        fired,
        ["hot-path-alloc", "hot-path-alloc", "hot-path-mod"]
    );
}

#[test]
fn hot_path_good_is_clean() {
    assert_clean(LIB, "hot_path_good.rs");
}

#[test]
fn unwrap_bad_fires() {
    assert_eq!(rules_fired(LIB, "unwrap_bad.rs"), ["unwrap", "unwrap"]);
}

#[test]
fn unwrap_good_is_clean() {
    assert_clean(LIB, "unwrap_good.rs");
}

#[test]
fn unwrap_is_free_in_test_files() {
    assert_clean("crates/foo/tests/integration.rs", "unwrap_bad.rs");
}

#[test]
fn allow_bad_fires() {
    let mut fired = rules_fired(LIB, "allow_bad.rs");
    fired.sort();
    // Three broken directives, plus the unwrap the reasonless allow failed
    // to suppress.
    assert_eq!(fired, ["bad-allow", "bad-allow", "bad-allow", "unwrap"]);
}

#[test]
fn allow_good_is_clean_and_recorded() {
    let (diags, allows) = lint_source(LIB, &fixture("allow_good.rs"), &BTreeSet::new());
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(allows.len(), 1);
    assert_eq!(allows[0].rule, "unwrap");
}
