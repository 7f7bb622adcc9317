//! Byte-identical results over the full golden scenario matrix: two
//! independent runs of all 17 scenarios must produce the exact same
//! scorecards, down to their `{:?}` rendering (the zero-clock determinism
//! contract).

use chm_scenarios::{run, standard_matrix, ReplayMode, Scenario, ScenarioResult};

/// Shrinks a matrix scenario to test size (determinism is exact at any
/// size; small keeps the double run of all 17 scenarios fast).
fn shrink(mut s: Scenario) -> Scenario {
    s.n_flows = 300;
    s.epochs = 2;
    s
}

fn run_matrix() -> Vec<ScenarioResult> {
    standard_matrix(true)
        .into_iter()
        .map(shrink)
        .map(|s| run(&s, ReplayMode::Burst))
        .collect()
}

#[test]
fn matrix_rendering_is_byte_identical_across_two_runs() {
    let first = run_matrix();
    let second = run_matrix();
    assert_eq!(first.len(), 17, "the golden matrix holds 17 scenarios");
    assert_eq!(
        format!("{first:?}"),
        format!("{second:?}"),
        "scenario results must render byte-identically"
    );
}
