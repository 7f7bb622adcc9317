//! The serve runtime's telemetry surface: a [`chm_obs::Registry`] of
//! service counters/gauges/histograms plus the per-epoch span tree, all
//! fed from each [`EpochRecord`].
//!
//! One path: `EpochRecord` → registry → renders. Each series is declared
//! once, as one row of [`ServeObs::new`]'s table: the `register_*` call with
//! its name and help, and the record field it reads. The record stays the
//! source and the registry a cumulative view of it, not the other way
//! round: the record carries per-epoch values a cumulative registry does not
//! hold (`state`, `precision`, `recall`, `loc_top1`, the victim counts), and
//! its `--metrics` line ([`EpochRecord::to_jsonl`]) is a pinned format of its
//! own.
//!
//! Determinism: everything here derives from the deterministic epoch
//! records and the zero-clock span profiler, so both exposition formats
//! are byte-identical across runs, shard layouts, and kill/restore — with
//! one deliberate exception: telemetry is **process-lifetime** state (a
//! restarted process starts its counters at zero, exactly like a
//! restarted Prometheus target) and is therefore *not* part of
//! [`ServeSnapshot`][crate::snapshot::ServeSnapshot].

use std::cell::Cell;
use std::fmt::Write as _;

use chm_obs::{render_json_metrics_into, render_prometheus_into, MetricId, Registry, SpanProfiler};

use crate::metrics::EpochRecord;

/// Upper bounds (seconds) for the reaction-latency histogram. The virtual
/// latency model tops out around `base + per_report·edges + backoff`, so
/// these buckets spread the realistic 2–60 ms range.
const REACTION_BUCKETS: [f64; 8] = [0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.128, 0.256];

/// How one series reads an [`EpochRecord`].
#[derive(Debug, Clone, Copy)]
enum Read {
    /// A counter adds this much per epoch.
    Add(fn(&EpochRecord) -> u64),
    /// A gauge tracks this value of the latest epoch.
    Set(fn(&EpochRecord) -> f64),
    /// A histogram observes this sample, when the epoch has one.
    Observe(fn(&EpochRecord) -> Option<f64>),
}

/// The serve runtime's observability state: metric registry + span tree.
#[derive(Debug, Clone)]
pub struct ServeObs {
    registry: Registry,
    /// The live span tree. [`ServeRuntime::step`][crate::runtime::ServeRuntime::step]
    /// opens an `epoch` span per epoch (under the zero clock — durations
    /// stay 0.0; counts accumulate) and records `replay` below it;
    /// `chamelemon::Controller::close_epoch` records `collect`, `analyze`
    /// (with its `decode/*` spans), `reconfigure` and `localize`.
    pub spans: SpanProfiler,
    /// One row per series: how it reads the record, and its handle.
    series: Vec<(Read, MetricId)>,
    /// The lengths of the last [`jsonl_line`](Self::jsonl_line) and the
    /// last [`prom_snapshot`](Self::prom_snapshot): each render reserves
    /// its output once, from its predecessor's length.
    line_len: Cell<usize>,
    prom_len: Cell<usize>,
}

impl Default for ServeObs {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeObs {
    pub fn new() -> Self {
        let mut r = Registry::new();
        let series = vec![
            (Read::Add(|_| 1), r.register_counter("chm_serve_epochs_total", "Epochs served.")),
            (Read::Add(|e| e.blind.into()), r.register_counter(
                "chm_serve_blind_epochs_total",
                "Epochs where zero reports were analyzed.",
            )),
            (Read::Add(|e| (e.state == "degraded").into()), r.register_counter(
                "chm_serve_degraded_epochs_total",
                "Epochs decided in watchdog-degraded mode.",
            )),
            (Read::Add(|e| e.paused.into()), r.register_counter(
                "chm_serve_paused_epochs_total",
                "Epochs where the controller missed the collection window.",
            )),
            (Read::Add(|e| e.clock_stalled.into()), r.register_counter(
                "chm_serve_clock_stall_epochs_total",
                "Epochs with an unreliable latency clock.",
            )),
            (Read::Add(|e| (!e.decode_ok).into()), r.register_counter(
                "chm_serve_decode_failure_epochs_total",
                "Epochs where some deployed encoder failed to decode.",
            )),
            (Read::Add(|e| e.packets), r.register_counter(
                "chm_serve_packets_total",
                "Packets the fabric carried.",
            )),
            (Read::Add(|e| e.delivered.into()), r.register_counter(
                "chm_serve_reports_delivered_total",
                "Switch reports that arrived on the first try.",
            )),
            (Read::Add(|e| e.lost.into()), r.register_counter(
                "chm_serve_reports_lost_total",
                "Switch reports lost outright.",
            )),
            (Read::Add(|e| e.delayed.into()), r.register_counter(
                "chm_serve_reports_delayed_total",
                "Switch reports that arrived late within the retry budget.",
            )),
            (Read::Add(|e| e.timed_out.into()), r.register_counter(
                "chm_serve_reports_timed_out_total",
                "Switch reports that exceeded the retry budget.",
            )),
            (Read::Add(|e| e.duplicates.into()), r.register_counter(
                "chm_serve_report_duplicates_total",
                "Duplicate report copies discarded by dedup.",
            )),
            (Read::Add(|e| e.backpressure_drops.into()), r.register_counter(
                "chm_serve_backpressure_drops_total",
                "Reports dropped by the bounded collection inbox.",
            )),
            (Read::Add(|e| e.reboots.into()), r.register_counter(
                "chm_serve_switch_reboots_total",
                "Switch reboots (empty report groups).",
            )),
            (Read::Set(|e| e.f1), r.register_gauge(
                "chm_serve_f1_ratio",
                "Victim-detection F1 of the latest epoch.",
            )),
            (Read::Set(|e| e.loc_top3), r.register_gauge(
                "chm_serve_loc_top3_ratio",
                "Top-3 localization hit rate of the latest epoch.",
            )),
            (Read::Set(|e| e.sample_rate), r.register_gauge(
                "chm_serve_sample_rate_ratio",
                "Staged LL sample rate of the latest epoch.",
            )),
            (Read::Set(|e| e.m_hh as f64), r.register_gauge(
                "chm_serve_staged_hh_buckets_count",
                "Staged HH encoder buckets per array.",
            )),
            (Read::Set(|e| e.m_hl as f64), r.register_gauge(
                "chm_serve_staged_hl_buckets_count",
                "Staged HL encoder buckets per array.",
            )),
            (Read::Set(|e| e.m_ll as f64), r.register_gauge(
                "chm_serve_staged_ll_buckets_count",
                "Staged LL encoder buckets per array.",
            )),
            (Read::Observe(|e| e.reaction_ms.map(|ms| ms / 1e3)), r.register_histogram(
                "chm_serve_reaction_seconds",
                "Virtual controller reaction latency (collection + retry backoff).",
                &REACTION_BUCKETS,
            )),
        ];
        ServeObs {
            registry: r,
            spans: SpanProfiler::new(),
            series,
            line_len: Cell::default(),
            prom_len: Cell::default(),
        }
    }

    /// Folds one epoch's record into the registry (counters accumulate,
    /// gauges track the latest epoch, the reaction histogram observes
    /// each measurable epoch once).
    pub fn observe_epoch(&mut self, rec: &EpochRecord) {
        let r = &mut self.registry;
        for &(read, id) in &self.series {
            match read {
                Read::Add(f) => r.add(id, f(rec)),
                Read::Set(f) => r.set(id, f(rec)),
                Read::Observe(f) => {
                    if let Some(v) = f(rec) {
                        r.observe(id, v);
                    }
                }
            }
        }
    }

    /// Current Prometheus text-format 0.0.4 snapshot of the registry.
    pub fn prom_snapshot(&self) -> String {
        let mut out = reserved(&self.prom_len);
        render_prometheus_into(&self.registry, &mut out);
        self.prom_len.set(out.len());
        out
    }

    /// One JSONL trace line: the epoch number, the flat metrics object,
    /// and the cumulative span tree — the `--metrics-out` sink's format.
    /// Both objects are written straight into the line.
    pub fn jsonl_line(&self, epoch: u64) -> String {
        let mut out = reserved(&self.line_len);
        let _ = write!(out, "{{\"epoch\":{epoch},\"metrics\":");
        render_json_metrics_into(&self.registry, &mut out);
        out.push_str(",\"spans\":");
        self.spans.json_object_into(&mut out);
        out.push('}');
        self.line_len.set(out.len());
        out
    }
}

/// An empty render, with room for its predecessor's `last` bytes and an
/// eighth more, as the counters gain digits and the gauges change from
/// epoch to epoch: a steady stream writes each render into one allocation.
fn reserved(last: &Cell<usize>) -> String {
    String::with_capacity(last.get() + last.get() / 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(epoch: u64) -> EpochRecord {
        EpochRecord {
            epoch,
            state: if epoch.is_multiple_of(2) { "live" } else { "degraded" },
            blind: epoch == 1,
            decode_ok: epoch != 1,
            delivered: 4,
            lost: 1,
            delayed: 1,
            timed_out: 0,
            duplicates: 1,
            backpressure_drops: 0,
            reboots: 1,
            paused: false,
            clock_stalled: epoch == 2,
            packets: 1000 + epoch,
            true_victims: 3,
            reported_victims: 3,
            precision: 1.0,
            recall: 1.0,
            f1: 1.0,
            loc_top1: 0.5,
            loc_top3: 1.0,
            m_hh: 32,
            m_hl: 64,
            m_ll: 16,
            sample_rate: 0.25,
            reaction_ms: if epoch == 2 { None } else { Some(3.5) },
        }
    }

    #[test]
    fn epoch_records_accumulate_deterministically() {
        let run = || {
            let mut obs = ServeObs::new();
            for e in 0..4 {
                obs.observe_epoch(&record(e));
            }
            (obs.prom_snapshot(), obs.jsonl_line(3))
        };
        assert_eq!(run(), run());
        let (prom, line) = run();
        assert!(prom.contains("chm_serve_epochs_total 4"));
        assert!(prom.contains("chm_serve_degraded_epochs_total 2"));
        assert!(prom.contains("chm_serve_clock_stall_epochs_total 1"));
        // 4 epochs, one clock-stalled → 3 reaction observations.
        assert!(prom.contains("chm_serve_reaction_seconds_count 3"));
        assert!(prom.contains("chm_serve_reaction_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(line.starts_with("{\"epoch\":3,\"metrics\":{"));
        assert!(line.contains("\"chm_serve_f1_ratio\":1"));
    }
}
