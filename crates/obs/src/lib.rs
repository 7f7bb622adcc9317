//! **`chm_obs`** — the deterministic telemetry core of the ChameleMon
//! reproduction.
//!
//! `chm-serve` reports its service counters through a [`Registry`]; every
//! layer of the stack — the shard engine's per-phase timing, the
//! controller's decode spans, the serve epoch — records into a
//! [`SpanProfiler`]. Three pieces compose:
//!
//! * [`Registry`] — counters, gauges, and fixed-bucket histograms behind
//!   static [`MetricId`] handles, one series per name. Metric names are
//!   validated at registration against the workspace naming convention
//!   (snake-case ASCII, `chm_` namespace prefix, Prometheus unit suffix):
//!   a bad name panics at registration, and every registration in the
//!   tree runs in a tier-1 test.
//! * [`SpanProfiler`] — nested named spans (`epoch/phase_a/shard_3`,
//!   `decode/edge_12`, `localize`) driven entirely by an **injected**
//!   `&mut dyn FnMut() -> f64` clock. The crate never reads real time:
//!   under the zero clock (`&mut || 0.0`) every duration is exactly
//!   `0.0`, span *counts* still accumulate, and all rendered output is
//!   byte-identical across runs — the workspace wall-clock rule holds
//!   (real clocks only ever come from `crates/bench`).
//! * [`expo`] — Prometheus text-format 0.0.4 ([`render_prometheus`]) and
//!   flat JSON ([`render_json_metrics`]) rendering, in name order so
//!   emission is bit-stable, plus the workspace's JSON scalar formatters
//!   ([`json_string`], [`JsonF64`]).
//!
//! ```
//! use chm_obs::{Registry, SpanProfiler};
//!
//! let mut reg = Registry::new();
//! let epochs = reg.register_counter("chm_demo_epochs_total", "Epochs served.");
//! reg.add(epochs, 1);
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

pub mod expo;
pub mod registry;
pub mod span;

pub use expo::{json_f64, json_string, render_json_metrics, render_prometheus, JsonF64};
pub use registry::{metric_name_error, MetricId, Registry, UNIT_SUFFIXES};
pub use span::SpanProfiler;
