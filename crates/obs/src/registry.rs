//! Metric registry: counters, gauges, and fixed-bucket histograms behind
//! static [`MetricId`] handles, one series per name.
//!
//! Determinism contract: registration validates names against the
//! workspace convention (see [`metric_name_error`]), and the renderers walk
//! the metrics in name order, so emission is bit-stable across runs and
//! independent of the registration order.

/// Handle to one registered series. Cheap to copy; obtained once at
/// setup time and used on the hot path without any map lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetricId(pub(crate) u32);

/// Prometheus base-unit suffixes accepted by [`metric_name_error`].
///
/// `total` is the counter suffix; the rest follow the Prometheus
/// base-unit conventions (`seconds` not `ms`, `bytes` not `kb`,
/// `ratio` for 0..1 fractions, `count` for unit-less tallies, `info`
/// for constant metadata gauges).
pub const UNIT_SUFFIXES: [&str; 6] = ["total", "seconds", "bytes", "ratio", "count", "info"];

/// Validate a metric name against the workspace convention. Returns
/// `None` when the name is acceptable, `Some(reason)` otherwise.
///
/// Rules: lowercase ASCII `[a-z0-9_]`, no leading/trailing/double
/// underscore, a `chm_` namespace prefix, and a final segment drawn
/// from [`UNIT_SUFFIXES`]. The chm-lint `metric-name` rule enforces the
/// same predicate statically on registration call sites.
pub fn metric_name_error(name: &str) -> Option<String> {
    if name.is_empty() {
        return Some("metric name is empty".into());
    }
    if let Some(bad) = name
        .chars()
        .find(|c| !(c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_'))
    {
        return Some(format!(
            "metric name {name:?} contains {bad:?}; only [a-z0-9_] are allowed"
        ));
    }
    if name.starts_with('_') || name.ends_with('_') || name.contains("__") {
        return Some(format!(
            "metric name {name:?} has a leading, trailing, or doubled underscore"
        ));
    }
    if !name.starts_with("chm_") {
        return Some(format!("metric name {name:?} lacks the chm_ namespace prefix"));
    }
    let last = name.rsplit('_').next().unwrap_or("");
    if !UNIT_SUFFIXES.contains(&last) {
        return Some(format!(
            "metric name {name:?} must end in a unit suffix ({})",
            UNIT_SUFFIXES.join("|")
        ));
    }
    None
}

/// A series' value; the variant is the metric kind, mirroring the
/// Prometheus core types.
#[derive(Debug, Clone)]
pub(crate) enum Value {
    /// Monotone `u64`; the name ends in `_total`.
    Counter(u64),
    /// Free `f64` set-point.
    Gauge(f64),
    /// Fixed upper-bound buckets plus `sum`/`count`; cumulative on render.
    Histogram {
        /// Strictly increasing finite upper bounds.
        bounds: Vec<f64>,
        /// Per-bucket (non-cumulative) hit counts; one slot per bound
        /// plus the trailing overflow (`+Inf`) slot.
        hits: Vec<u64>,
        sum: f64,
        count: u64,
    },
}

/// One registered series.
#[derive(Debug, Clone)]
pub(crate) struct Metric {
    pub name: String,
    /// The help text, escaped for a `# HELP` line once, at registration.
    pub help: String,
    pub value: Value,
}

/// The metric registry. Single-threaded by design.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    /// Indexed by [`MetricId`].
    metrics: Vec<Metric>,
    /// Metric ids sorted by name: the render order.
    by_name: Vec<u32>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    fn register(&mut self, name: &str, help: &str, value: Value) -> MetricId {
        if let Some(err) = metric_name_error(name) {
            panic!("chm_obs: {err}");
        }
        if matches!(value, Value::Counter(_)) {
            assert!(name.ends_with("_total"), "chm_obs: counter {name:?} must end in _total");
        } else {
            assert!(
                !name.ends_with("_total"),
                "chm_obs: the _total suffix is reserved for counters, got {name:?}"
            );
        }
        let slot = match self
            .by_name
            .binary_search_by(|&i| self.metrics[i as usize].name.as_str().cmp(name))
        {
            Ok(_) => panic!("chm_obs: metric {name:?} registered twice"),
            Err(slot) => slot,
        };
        let id = u32::try_from(self.metrics.len()).expect("chm_obs: series count fits in u32");
        let help = help.replace('\\', "\\\\").replace('\n', "\\n");
        self.metrics.push(Metric { name: name.to_string(), help, value });
        self.by_name.insert(slot, id);
        MetricId(id)
    }

    /// Register a counter series. Panics on a name-convention violation or
    /// a name that is already registered.
    pub fn register_counter(&mut self, name: &str, help: &str) -> MetricId {
        self.register(name, help, Value::Counter(0))
    }

    /// Register a gauge series.
    pub fn register_gauge(&mut self, name: &str, help: &str) -> MetricId {
        self.register(name, help, Value::Gauge(0.0))
    }

    /// Register a histogram series with the given strictly increasing
    /// finite upper bounds (an implicit `+Inf` bucket is always appended
    /// on render).
    pub fn register_histogram(&mut self, name: &str, help: &str, bounds: &[f64]) -> MetricId {
        assert!(!bounds.is_empty(), "chm_obs: histogram {name:?} needs bounds");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "chm_obs: histogram {name:?} bounds must be finite and strictly increasing"
        );
        let (bounds, hits) = (bounds.to_vec(), vec![0; bounds.len() + 1]);
        self.register(name, help, Value::Histogram { bounds, hits, sum: 0.0, count: 0 })
    }

    /// Add `n` to a counter.
    pub fn add(&mut self, id: MetricId, n: u64) {
        match &mut self.metrics[id.0 as usize].value {
            Value::Counter(c) => *c += n,
            other => panic!("chm_obs: add on non-counter series {other:?}"),
        }
    }

    /// Set a gauge.
    pub fn set(&mut self, id: MetricId, v: f64) {
        match &mut self.metrics[id.0 as usize].value {
            Value::Gauge(g) => *g = v,
            other => panic!("chm_obs: set on non-gauge series {other:?}"),
        }
    }

    /// Observe one histogram sample. A bound is inclusive: `v` lands in
    /// the first bucket whose upper bound admits it, else in `+Inf`.
    pub fn observe(&mut self, id: MetricId, v: f64) {
        match &mut self.metrics[id.0 as usize].value {
            Value::Histogram { bounds, hits, sum, count } => {
                hits[bounds.iter().position(|&b| v <= b).unwrap_or(bounds.len())] += 1;
                *sum += v;
                *count += 1;
            }
            other => panic!("chm_obs: observe on non-histogram series {other:?}"),
        }
    }

    /// Every series, sorted by name.
    pub(crate) fn in_name_order(&self) -> impl Iterator<Item = &Metric> {
        self.by_name.iter().map(|&i| &self.metrics[i as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_convention() {
        assert!(metric_name_error("chm_serve_epochs_total").is_none());
        assert!(metric_name_error("chm_replay_phase_a_seconds").is_none());
        assert!(metric_name_error("chm_inbox_depth_count").is_none());
        // missing prefix
        assert!(metric_name_error("serve_epochs_total").is_some());
        // bad charset
        assert!(metric_name_error("chm_Epochs_total").is_some());
        assert!(metric_name_error("chm-epochs-total").is_some());
        // underscore shape
        assert!(metric_name_error("chm__epochs_total").is_some());
        assert!(metric_name_error("_chm_epochs_total").is_some());
        assert!(metric_name_error("chm_epochs_total_").is_some());
        // unit suffix
        assert!(metric_name_error("chm_epochs").is_some());
        assert!(metric_name_error("chm_latency_ms").is_some());
        assert!(metric_name_error("").is_some());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn kind_mismatch_panics() {
        let mut r = Registry::new();
        r.register_gauge("chm_x_depth_count", "Depth.");
        r.register_histogram("chm_x_depth_count", "Depth.", &[1.0]);
    }

    #[test]
    #[should_panic(expected = "must end in _total")]
    fn counter_requires_total_suffix() {
        let mut r = Registry::new();
        r.register_counter("chm_x_depth_count", "Depth.");
    }

    #[test]
    #[should_panic(expected = "reserved for counters")]
    fn gauge_rejects_total_suffix() {
        let mut r = Registry::new();
        r.register_gauge("chm_x_packets_total", "Packets.");
    }

    #[test]
    fn escaping() {
        // HELP text is escaped once, at registration: `\` → `\\`, newline
        // → `\n`; quotes stay as they are.
        let mut r = Registry::new();
        r.register_gauge("chm_x_odd_ratio", "a\\b \"c\"\nd");
        assert_eq!(r.metrics[0].help, "a\\\\b \"c\"\\nd");
    }

    #[test]
    fn histogram_buckets_fill_correctly() {
        let mut r = Registry::new();
        let h = r.register_histogram("chm_x_reaction_seconds", "Reaction.", &[0.001, 0.01, 0.1]);
        for v in [0.0005, 0.002, 0.05, 7.0, 0.001] {
            r.observe(h, v);
        }
        // boundary 0.001 lands in the le=0.001 bucket (inclusive upper bound);
        // the rendered buckets are cumulative
        let text = crate::render_prometheus(&r);
        for line in [
            "chm_x_reaction_seconds_bucket{le=\"0.001\"} 2\n",
            "chm_x_reaction_seconds_bucket{le=\"0.01\"} 3\n",
            "chm_x_reaction_seconds_bucket{le=\"0.1\"} 4\n",
            "chm_x_reaction_seconds_bucket{le=\"+Inf\"} 5\n",
            "chm_x_reaction_seconds_count 5\n",
        ] {
            assert!(text.contains(line), "{line:?} missing from:\n{text}");
        }
        let sum: f64 = text
            .lines()
            .find_map(|l| l.strip_prefix("chm_x_reaction_seconds_sum "))
            .and_then(|v| v.parse().ok())
            .expect("_sum rendered");
        assert!((sum - 7.0535).abs() < 1e-12);
    }
}
