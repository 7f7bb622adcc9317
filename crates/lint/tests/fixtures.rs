//! Fixture proof for every rule: each `fixtures/*_bad.rs` snippet must
//! produce exactly the expected diagnostics, and its `*_good.rs` twin must
//! produce none. The fixture's *virtual path* selects the role under which
//! it is linted (output surface, library, …) — the snippets never live at
//! those paths.

use chm_lint::lint_source;
use std::collections::BTreeSet;

/// An output-surface path (see `chm_lint::roles`): map-iter-order applies.
const SURFACE: &str = "crates/common/src/metrics.rs";
/// An ordinary library path: wall-clock/unwrap audits apply.
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
fn rng_bad_fires() {
    assert_eq!(
        rules_fired(LIB, "rng_bad.rs"),
        ["rng-discipline", "rng-discipline"]
    );
}

#[test]
fn rng_good_is_clean() {
    assert_clean(LIB, "rng_good.rs");
}

#[test]
fn rng_discipline_applies_even_to_benches() {
    // Unlike wall-clock, there is no role exemption for entropy.
    assert_eq!(
        rules_fired("crates/bench/src/perf.rs", "rng_bad.rs"),
        ["rng-discipline", "rng-discipline"]
    );
}

#[test]
fn wall_clock_bad_fires() {
    assert_eq!(
        rules_fired(LIB, "wall_clock_bad.rs"),
        ["wall-clock", "wall-clock"]
    );
}

#[test]
fn wall_clock_good_is_clean() {
    assert_clean(LIB, "wall_clock_good.rs");
}

#[test]
fn wall_clock_exempts_the_bench_harness() {
    assert_clean("crates/bench/src/perf.rs", "wall_clock_bad.rs");
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
fn unsafe_bad_fires() {
    assert_eq!(
        rules_fired(LIB, "unsafe_bad.rs"),
        ["unsafe-block", "unsafe-block"]
    );
}

#[test]
fn unsafe_good_is_clean_and_audited() {
    let (diags, allows) = lint_source(LIB, &fixture("unsafe_good.rs"), &BTreeSet::new());
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(allows.len(), 1);
    assert_eq!(allows[0].rule, "unsafe-block");
    assert!(allows[0].reason.contains("caller contract"));
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
fn metric_name_bad_fires() {
    assert_eq!(
        rules_fired(LIB, "metric_name_bad.rs"),
        ["metric-name", "metric-name", "metric-name", "metric-name"]
    );
}

#[test]
fn metric_name_good_is_clean() {
    assert_clean(LIB, "metric_name_good.rs");
}

#[test]
fn metric_name_skips_test_files() {
    // Test files register deliberately bad names to pin the runtime panic.
    assert_clean("crates/obs/tests/expo.rs", "metric_name_bad.rs");
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
