//! One module per paper table/figure; each exposes `run() -> Vec<Table>`.
//! The `src/bin/` wrappers call these, and `all_experiments` runs the lot.
//!
//! The README's "Running experiments" section indexes the binaries; each
//! module's doc comment quotes the paper's value, and the measured values
//! land in `results/*.json`.

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

/// Number of trials used when searching for the minimum memory (the paper's
/// 99.9%-success operating point; see `lossdet` docs). Override with the
/// `CHM_TRIALS` environment variable.
pub fn trials() -> u64 {
    std::env::var("CHM_TRIALS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(30)
}

/// Scale factor for expensive sweeps (1 = paper scale). `CHM_SCALE=4`
/// divides flow counts by 4 for quick runs.
pub fn scale() -> usize {
    std::env::var("CHM_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
        .max(1)
}
