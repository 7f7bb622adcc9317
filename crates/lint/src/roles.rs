//! Path → role classification.
//!
//! Two rules are context-sensitive by crate/module role: `map-iter-order`
//! guards only the output surfaces, and the `unwrap` audit only library
//! code — tests, examples, bins and the bench harness may fail loudly. The
//! vendored dependency stubs and the lint's own fixtures are not scanned
//! at all. Roles are derived purely from the workspace-relative path, so
//! the same source text lints differently depending on where it lives —
//! which is the point: the *same* bare `.unwrap()` is fine in a test and
//! an undocumented panic in library code.

/// The role a file plays in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Ordinary library code: the `unwrap` audit applies.
    Lib,
    /// Files that build serialized output, metrics, or `EpochReport`
    /// content — the `map-iter-order` rule applies here on top of the
    /// library rules.
    OutputSurface,
    /// Code that may fail loudly: the timing harness (`crates/bench/**`),
    /// integration tests (`tests/` directories), examples and the CLI entry
    /// points of library crates (`src/bin/**`). Scanned, but the `unwrap`
    /// audit does not apply.
    Harness,
    /// `vendor/**`: offline API stubs for external crates — not scanned.
    Vendor,
    /// The lint's own test fixtures — not scanned in workspace mode.
    Fixture,
}

/// Files whose contents become serialized output, committed metrics, or
/// `EpochReport` fields. `map-iter-order` (rule D1) is enforced here:
/// iterating a `HashMap`/`HashSet` in these files must be provably
/// order-independent or sorted first.
const OUTPUT_SURFACE: &[&str] = &[
    "crates/common/src/metrics.rs",
    "crates/bench/src/report.rs",
    "crates/bench/src/scenarios.rs",
    "crates/scenarios/src/runner.rs",
    "crates/netsim/src/sim.rs",
    "crates/chamelemon/src/control.rs",
    "crates/chamelemon/src/localize.rs",
    "crates/obs/src/registry.rs",
    "crates/obs/src/span.rs",
    "crates/obs/src/expo.rs",
    "crates/serve/src/obs.rs",
    "crates/scenarios/src/obs.rs",
];

/// Classifies a workspace-relative path (forward slashes).
pub fn classify(rel: &str) -> Role {
    if rel.starts_with("vendor/") {
        return Role::Vendor;
    }
    if rel.contains("crates/lint/tests/fixtures/") || rel.starts_with("tests/fixtures/") {
        return Role::Fixture;
    }
    if OUTPUT_SURFACE.contains(&rel) {
        return Role::OutputSurface;
    }
    let harness = rel.starts_with("crates/bench/")
        || rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.starts_with("examples/")
        || rel.contains("/examples/")
        || rel.contains("/src/bin/");
    if harness {
        return Role::Harness;
    }
    Role::Lib
}

impl Role {
    /// Is the file scanned at all?
    pub fn scanned(self) -> bool {
        !matches!(self, Role::Vendor | Role::Fixture)
    }

    /// Does the `map-iter-order` rule (D1) apply?
    pub fn is_output_surface(self) -> bool {
        self == Role::OutputSurface
    }

    /// Does the bare-`unwrap` audit (D5) apply? Library and output-surface
    /// code must justify panics; tests, examples, benches, and CLI demos
    /// may fail loudly.
    pub fn audits_unwrap(self) -> bool {
        matches!(self, Role::Lib | Role::OutputSurface)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matrix() {
        assert_eq!(classify("crates/common/src/hash.rs"), Role::Lib);
        assert_eq!(classify("crates/common/src/metrics.rs"), Role::OutputSurface);
        assert_eq!(classify("crates/bench/src/perf.rs"), Role::Harness);
        assert_eq!(classify("crates/bench/src/report.rs"), Role::OutputSurface);
        assert_eq!(classify("crates/obs/src/expo.rs"), Role::OutputSurface);
        assert_eq!(classify("crates/serve/src/obs.rs"), Role::OutputSurface);
        assert_eq!(classify("crates/scenarios/src/obs.rs"), Role::OutputSurface);
        assert_eq!(classify("crates/chamelemon/tests/attention.rs"), Role::Harness);
        assert_eq!(classify("tests/alloc_audit.rs"), Role::Harness);
        assert_eq!(classify("examples/quickstart.rs"), Role::Harness);
        assert_eq!(classify("crates/chamelemon/src/bin/chamelemon-sim.rs"), Role::Harness);
        assert_eq!(classify("vendor/rand/src/lib.rs"), Role::Vendor);
        assert_eq!(classify("crates/lint/tests/fixtures/d4_hot_bad.rs"), Role::Fixture);
    }
}
