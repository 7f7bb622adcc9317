//! Experiment harness shared by the figure/table binaries (`src/bin/`) and
//! the Criterion benches (`benches/`).
//!
//! The README's "Running experiments" section indexes them; measured
//! results are recorded in `results/*.json`. Every binary prints a human-readable
//! table to stdout and, when `--json <path>` conventions are used via
//! [`report::Table::write_json`], a machine-readable record under
//! `results/`.

#![forbid(unsafe_code)]

pub mod attention;
// The timing harnesses are the one place the workspace reads real time
// (clippy.toml disallows `Instant::now` everywhere else).
#[allow(clippy::disallowed_methods)]
pub mod lossdet;
pub mod parallel;
#[allow(clippy::disallowed_methods)]
pub mod perf;
#[allow(clippy::disallowed_methods)]
pub mod profile;
pub mod report;
pub mod scenarios;
#[allow(clippy::disallowed_methods)]
pub mod soak;
pub mod sweep;

pub use lossdet::{min_memory_for_success, FermatLossBench, FlowRadarLossBench, LossBench, LossRadarLossBench, LossScenario};
pub use parallel::{run_trials, run_trials_all, run_trials_with};
pub mod experiments;
