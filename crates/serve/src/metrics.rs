//! **Per-epoch service metrics** — one JSONL line per epoch.
//!
//! The record follows the repo's metric taxonomy: **time** (virtual
//! reaction latency), **throughput** (packets and reports processed),
//! **quality** (victim detection precision/recall/F1, localization hit
//! rates), and **overhead** (staged encoder partition, sample rate), plus
//! the service-specific fault and state columns.
//!
//! Serialization is hand-rolled (the repo vendors no serde) and built for
//! byte-identity: keys are emitted in one fixed order, floats print via
//! Rust's shortest-roundtrip formatter, and non-finite or unmeasured
//! values become JSON `null` — an unmeasured latency is `null`, never a
//! fake `0.0`.

use std::fmt::Write as _;

pub use chm_obs::json_f64;
use chm_obs::JsonF64;

/// Everything the runtime knows about one served epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Epoch number in the stream.
    pub epoch: u64,
    /// Serving state *after* this epoch's watchdog verdict — the state the
    /// epoch's decision was made in, so the epoch that degrades the service
    /// is labelled `degraded`.
    pub state: &'static str,
    /// The controller analyzed zero reports this epoch.
    pub blind: bool,
    /// All decodes of the analyzed collection succeeded.
    pub decode_ok: bool,
    /// Reports that arrived on the first try.
    pub delivered: u32,
    /// Reports lost outright.
    pub lost: u32,
    /// Reports that arrived late (within the retry budget).
    pub delayed: u32,
    /// Reports that exceeded the retry budget (counted as lost too late).
    pub timed_out: u32,
    /// Duplicate report copies discarded by dedup.
    pub duplicates: u32,
    /// Reports dropped because the bounded inbox overflowed.
    pub backpressure_drops: u32,
    /// Switches that rebooted (and thus reported empty groups).
    pub reboots: u32,
    /// Controller missed the collection window.
    pub paused: bool,
    /// Latency clock was unreliable; `reaction_ms` is null.
    pub clock_stalled: bool,
    /// Packets the fabric carried this epoch.
    pub packets: u64,
    /// Ground-truth victim flows.
    pub true_victims: usize,
    /// Victim flows the controller reported.
    pub reported_victims: usize,
    /// Victim detection precision (`1.0` when nothing was reported; the
    /// empty-set conventions are stated at `runtime::score_detection`).
    pub precision: f64,
    /// Victim detection recall (`1.0` when there were no victims).
    pub recall: f64,
    /// Victim detection F1.
    pub f1: f64,
    /// Top-1 localization hit rate over ground-truth victims.
    pub loc_top1: f64,
    /// Top-3 localization hit rate.
    pub loc_top3: f64,
    /// Staged HH encoder buckets/array.
    pub m_hh: usize,
    /// Staged HL encoder buckets/array.
    pub m_hl: usize,
    /// Staged LL encoder buckets/array.
    pub m_ll: usize,
    /// Staged LL sample rate.
    pub sample_rate: f64,
    /// Virtual controller reaction latency (collection + retry backoff),
    /// `None` when the clock stalled this epoch.
    pub reaction_ms: Option<f64>,
}

impl EpochRecord {
    /// The record as one JSON object on one line, keys in fixed order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            concat!(
                "{{\"epoch\":{},\"state\":\"{}\",\"blind\":{},\"decode_ok\":{},",
                "\"delivered\":{},\"lost\":{},\"delayed\":{},\"timed_out\":{},",
                "\"duplicates\":{},\"backpressure_drops\":{},\"reboots\":{},",
                "\"paused\":{},\"clock_stalled\":{},\"packets\":{},",
                "\"true_victims\":{},\"reported_victims\":{},",
                "\"precision\":{},\"recall\":{},\"f1\":{},",
                "\"loc_top1\":{},\"loc_top3\":{},",
                "\"m_hh\":{},\"m_hl\":{},\"m_ll\":{},\"sample_rate\":{},",
                "\"reaction_ms\":{}}}"
            ),
            self.epoch,
            self.state,
            self.blind,
            self.decode_ok,
            self.delivered,
            self.lost,
            self.delayed,
            self.timed_out,
            self.duplicates,
            self.backpressure_drops,
            self.reboots,
            self.paused,
            self.clock_stalled,
            self.packets,
            self.true_victims,
            self.reported_victims,
            JsonF64(self.precision),
            JsonF64(self.recall),
            JsonF64(self.f1),
            JsonF64(self.loc_top1),
            JsonF64(self.loc_top3),
            self.m_hh,
            self.m_hl,
            self.m_ll,
            JsonF64(self.sample_rate),
            // `None` (a stalled clock) renders `null`, as a non-finite value does.
            JsonF64(self.reaction_ms.unwrap_or(f64::NAN)),
        );
        out
    }
}

/// The `p`-th percentile (`0 ≤ p ≤ 1`) of an **unsorted** sample by the
/// nearest-rank method; `None` on an empty sample. Sorting happens on a
/// copy — callers keep their insertion order.
///
/// **Small-sample behavior:** nearest-rank rounds the rank *up*, so any
/// percentile whose rank lands past the last distinct position returns
/// the **maximum** sample. Concretely, `p999` on fewer than 1000 samples
/// is exactly `max(samples)` (rank `ceil(0.999·n)` = `n` for `n < 1000`),
/// and on a single sample every percentile is that sample. This is the
/// standard nearest-rank definition, not a bug — but it means a tail
/// percentile is only meaningful once `n ≥ 1/(1-p)`.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The (p50, p99, p999) triple of a sample, `None` when empty. The p999
/// column inherits [`percentile`]'s nearest-rank small-sample behavior:
/// with fewer than 1000 samples it reports the sample maximum.
pub fn latency_percentiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    Some((
        percentile(samples, 0.50)?,
        percentile(samples, 0.99)?,
        percentile(samples, 0.999)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> EpochRecord {
        EpochRecord {
            epoch: 3,
            state: "live",
            blind: false,
            decode_ok: true,
            delivered: 4,
            lost: 0,
            delayed: 1,
            timed_out: 0,
            duplicates: 1,
            backpressure_drops: 0,
            reboots: 0,
            paused: false,
            clock_stalled: false,
            packets: 1000,
            true_victims: 10,
            reported_victims: 9,
            precision: 1.0,
            recall: 0.9,
            f1: 0.9473684210526315,
            loc_top1: 0.5,
            loc_top3: 0.8,
            m_hh: 448,
            m_hl: 64,
            m_ll: 0,
            sample_rate: 1.0,
            reaction_ms: Some(12.5),
        }
    }

    #[test]
    fn jsonl_is_stable_and_null_safe() {
        let r = record();
        assert_eq!(r.to_jsonl(), r.to_jsonl());
        assert!(r.to_jsonl().starts_with("{\"epoch\":3,\"state\":\"live\""));
        let stalled = EpochRecord {
            reaction_ms: None,
            precision: f64::NAN,
            ..record()
        };
        let line = stalled.to_jsonl();
        assert!(line.contains("\"reaction_ms\":null"));
        assert!(line.contains("\"precision\":null"));
        assert!(!line.contains("NaN"));
    }

    #[test]
    fn percentiles_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), Some(50.0));
        assert_eq!(percentile(&xs, 0.99), Some(99.0));
        assert_eq!(percentile(&xs, 0.999), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Unsorted input is handled.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
    }

    #[test]
    fn percentile_small_sample_edges() {
        // n = 0: no sample, no percentile — every p.
        for p in [0.0, 0.5, 0.999, 1.0] {
            assert_eq!(percentile(&[], p), None);
        }
        // n = 1: every percentile is the one sample (rank clamps to 1).
        for p in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(percentile(&[42.0], p), Some(42.0));
        }
        // n = 2: the median is the lower sample (rank ceil(0.5*2)=1), and
        // every tail percentile saturates to the max.
        assert_eq!(percentile(&[10.0, 20.0], 0.50), Some(10.0));
        assert_eq!(percentile(&[10.0, 20.0], 0.51), Some(20.0));
        assert_eq!(percentile(&[10.0, 20.0], 0.99), Some(20.0));
        assert_eq!(percentile(&[10.0, 20.0], 0.999), Some(20.0));
        // The documented n < 1000 saturation: p999 == max exactly.
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.999), Some(999.0));
        assert_eq!(latency_percentiles(&xs).map(|t| t.2), Some(999.0));
    }
}
