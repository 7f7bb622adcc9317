//! **`chm_obs`** — the deterministic telemetry core of the ChameleMon
//! reproduction.
//!
//! Every layer of the stack reports through this crate: the shard engine's
//! per-phase timing, the controller's decode spans, the streaming
//! runtime's service counters, and the scenario matrix's scorecards. Three
//! pieces compose:
//!
//! * [`Registry`] — counters, gauges, and fixed-bucket histograms behind
//!   static [`MetricId`] handles. Metric names are validated at
//!   registration against the workspace naming convention (snake-case
//!   ASCII, `chm_` namespace prefix, Prometheus unit suffix — enforced
//!   statically too, by chm-lint's `metric-name` rule). Per-shard deltas
//!   accumulate in [`ShardBuf`]s and merge with the same
//!   order-independent reduction discipline as the shard engine's
//!   `ReportFragment`s.
//! * [`SpanProfiler`] — nested named spans (`epoch/phase_a/shard_3`,
//!   `decode/edge_12`, `localize`) driven entirely by an **injected**
//!   `&mut dyn FnMut() -> f64` clock. The crate never reads real time:
//!   under the zero clock (`&mut || 0.0`) every duration is exactly
//!   `0.0`, span *counts* still accumulate, and all rendered output is
//!   byte-identical across runs — the PR 6 wall-clock rule stays intact
//!   (real clocks only ever come from `crates/bench`).
//! * [`expo`] — Prometheus text-format 0.0.4 rendering
//!   ([`render_prometheus`]) and JSONL sinks, all iteration
//!   BTreeMap-backed so emission is bit-stable.
//!
//! ```
//! use chm_obs::{Registry, SpanProfiler};
//!
//! let mut reg = Registry::new();
//! let epochs = reg.register_counter(
//!     "chm_demo_epochs_total", "Epochs served.", &[]);
//! reg.inc(epochs);
//!
//! let mut spans = SpanProfiler::new();
//! let mut zero = || 0.0; // the injected clock — no wall time in here
//! spans.enter("epoch", &mut zero);
//! spans.record(&["replay"], 0.0);
//! spans.exit(&mut zero);
//!
//! let text = chm_obs::render_prometheus(&reg);
//! assert!(text.contains("chm_demo_epochs_total 1"));
//! assert_eq!(spans.get(&["epoch", "replay"]), Some((1, 0.0)));
//! ```

#![forbid(unsafe_code)]

pub mod expo;
pub mod registry;
pub mod span;

pub use expo::{json_f64, json_string, render_json_metrics, render_prometheus};
pub use registry::{
    metric_name_error, MetricId, MetricKind, Registry, ShardBuf, UNIT_SUFFIXES,
};
pub use span::SpanProfiler;
