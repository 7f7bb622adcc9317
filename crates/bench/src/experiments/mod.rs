//! One module per paper table/figure; each exposes `run() -> Vec<Table>`.
//! [`EXPERIMENTS`] is the one index of them: `chm-bench fig <id>` runs a
//! row, `chm-bench fig all` runs the lot.
//!
//! The README's "Running experiments" section lists the ids; each module's
//! doc comment quotes the paper's value, and the measured values land in
//! `results/*.json`.

use crate::report::Table;

pub mod ablations;
pub mod fig04_06;
pub mod fig07_08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig20;
pub mod fig21;
pub mod fig22;
pub mod table1;

/// One figure/table command: its id and its run, given `(trials, scale)`
/// (see [`trials`] and [`scale`]; most rows use one or neither).
pub type Experiment = (&'static str, fn(u64, usize) -> Vec<Table>);

/// Every experiment, in the order `chm-bench fig all` runs them (cheap
/// tables first, so progress shows early).
pub const EXPERIMENTS: &[Experiment] = &[
    ("table1", |_, _| table1::table1()),
    ("fig21", |_, _| fig21::fig21()),
    ("fig22", |_, _| fig22::fig22()),
    ("fig10", |trials, _| fig10::fig10(trials.max(50))),
    ("fig04", |trials, _| fig04_06::fig04(trials)),
    ("fig05", |trials, _| fig04_06::fig05(trials)),
    ("fig06", |trials, _| fig04_06::fig06(trials)),
    ("ablations", |trials, _| {
        use ablations::{ablation_arrays, ablation_fingerprint, ablation_load_target};
        let runs = [ablation_arrays, ablation_fingerprint, ablation_load_target];
        runs.iter().flat_map(|run| run(trials)).collect()
    }),
    ("fig07", |_, _| fig07_08::fig07()),
    ("fig08", |_, _| fig07_08::fig08()),
    ("fig09", |_, _| fig09::fig09()),
    ("fig11", |_, scale| fig11::fig11(scale)),
    ("fig14", |_, _| fig07_08::fig14_15()),
    ("fig16", |_, _| fig07_08::fig16_17()),
    ("fig18", |_, _| fig07_08::fig18_19()),
    ("fig20", |_, scale| fig20::fig20(scale)),
];

/// The environment variable `var` parsed, or `default` when unset or garbage.
fn env_or<T: std::str::FromStr>(var: &str, default: T) -> T {
    std::env::var(var).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// Number of trials used when searching for the minimum memory (the paper's
/// 99.9%-success operating point; see `lossdet` docs). Override with the
/// `CHM_TRIALS` environment variable.
pub fn trials() -> u64 {
    env_or("CHM_TRIALS", 30)
}

/// Scale factor for expensive sweeps (1 = paper scale). `CHM_SCALE=4`
/// divides flow counts by 4 for quick runs.
pub fn scale() -> usize {
    env_or("CHM_SCALE", 1).max(1)
}
