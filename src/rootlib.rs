//! Workspace facade: re-exports every crate of the ChameleMon reproduction
//! so examples and integration tests can use one dependency.
//!
//! The individual crates are the real API surface:
//!
//! * [`chamelemon`] — the system (data plane + control plane).
//! * [`chm_fermat`] — FermatSketch.
//! * [`chm_tower`] — TowerSketch + estimators.
//! * [`chm_baselines`] — every competitor from the paper's evaluation.
//! * [`chm_workloads`] — traces, distributions, loss plans.
//! * [`chm_netsim`] — topology, epochs, clocks, collection model.
//! * [`chm_obs`] — deterministic telemetry core (metrics, spans, exposition).
//! * [`chm_scenarios`] — adversarial scenario engine + golden matrix.
//! * [`chm_serve`] — fault-injected streaming controller runtime.
//! * [`chm_common`] — hashing, modular arithmetic, flow IDs, metrics.

pub use chamelemon;
pub use chm_baselines;
pub use chm_common;
pub use chm_fermat;
pub use chm_netsim;
pub use chm_obs;
pub use chm_scenarios;
pub use chm_serve;
pub use chm_tower;
pub use chm_workloads;
