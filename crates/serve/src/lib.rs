//! **`chm-serve`** — a fault-injected, self-healing streaming controller
//! runtime for the ChameleMon reproduction.
//!
//! The scenario engine (`chm_scenarios`) runs finite, clean-control-plane
//! experiments. Production controllers do not get that luxury: reports
//! are lost, delayed and duplicated, switches reboot and come back empty,
//! the controller itself pauses, and clocks lie. This crate turns the
//! epoch pipeline into an *endless service* under exactly those faults:
//!
//! * [`fault`] — the seeded, per-epoch-deterministic fault model
//!   ([`FaultPlan`] → [`EpochFaults`]);
//! * [`watchdog`] — the stall detector and degraded-mode state machine
//!   with strictly-growing recovery requirements ([`Watchdog`]);
//! * [`runtime`] — the collection → decode → localize → reconfigure loop
//!   itself ([`ServeRuntime`]);
//! * [`metrics`] — one JSONL [`EpochRecord`] per epoch, built for
//!   byte-identical re-runs;
//! * [`snapshot`] — crash-consistent [`ServeSnapshot`]s: a process killed
//!   and restored at any epoch boundary reproduces the uninterrupted
//!   run's decisions and metrics byte for byte.
//!
//! The whole crate is clock-free and allocation-steady: wall time is only
//! ever measured by the bench harness around it, and the 10k-epoch soak
//! (`chm-bench soak`) gates on flat per-epoch allocation counts.

pub mod fault;
pub mod metrics;
pub mod obs;
pub mod runtime;
pub mod snapshot;
pub mod watchdog;

pub use fault::{EpochFaults, FaultPlan, ReportFate};
pub use metrics::{json_f64, latency_percentiles, percentile, EpochRecord};
pub use obs::ServeObs;
pub use runtime::{ServeConfig, ServeRuntime};
pub use snapshot::ServeSnapshot;
pub use watchdog::{ServeState, Watchdog, WatchdogSnapshot};
