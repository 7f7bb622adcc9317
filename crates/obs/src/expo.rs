//! Exposition: Prometheus text-format 0.0.4 and flat JSON rendering.
//!
//! Both renderers walk the registry's `(name, labels)` BTreeMap index,
//! so output is sorted and bit-stable regardless of registration or
//! update order. Float formatting is deterministic: plain `{}` for
//! finite values, `NaN`/`+Inf`/`-Inf` spelled the Prometheus way (JSON
//! uses `null` for non-finite, matching the rest of the workspace).

use crate::registry::{MetricKind, Registry, Value};

/// Deterministic float rendering for the Prometheus text format.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Escape a HELP line: `\` → `\\`, newline → `\n` (quotes stay as-is
/// per the text-format spec — only label values escape quotes).
fn escape_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Splice `le="..."` into a pre-rendered label block, keeping it last.
fn labels_with_le(labels: &str, le: &str) -> String {
    if labels.is_empty() {
        format!("{{le=\"{le}\"}}")
    } else {
        // labels is "{k=\"v\",...}" — drop the closing brace and append.
        format!("{},le=\"{le}\"}}", &labels[..labels.len() - 1])
    }
}

/// Render the whole registry in Prometheus text-format 0.0.4.
///
/// `# HELP` / `# TYPE` headers are emitted once per family, at the
/// family's first series in index order. Histograms render cumulative
/// `_bucket` series (monotone in `le`), a terminal `le="+Inf"` bucket
/// equal to `_count`, then `_sum` and `_count`.
pub fn render_prometheus(reg: &Registry) -> String {
    let mut out = String::new();
    let mut current: Option<&str> = None;
    for ((name, _), &id) in &reg.index {
        let series = &reg.series[id as usize];
        let fam = &reg.families[name.as_str()];
        if current != Some(name.as_str()) {
            current = Some(name.as_str());
            let kind = match fam.kind {
                MetricKind::Counter => "counter",
                MetricKind::Gauge => "gauge",
                MetricKind::Histogram => "histogram",
            };
            out.push_str(&format!("# HELP {name} {}\n", escape_help(&fam.help)));
            out.push_str(&format!("# TYPE {name} {kind}\n"));
        }
        match &series.value {
            Value::Counter(c) => {
                out.push_str(&format!("{name}{} {c}\n", series.labels));
            }
            Value::Gauge(g) => {
                out.push_str(&format!("{name}{} {}\n", series.labels, fmt_f64(*g)));
            }
            Value::Histogram { hits, sum, count } => {
                let mut cumulative = 0u64;
                for (bound, hit) in fam.buckets.iter().zip(hits.iter()) {
                    cumulative += hit;
                    out.push_str(&format!(
                        "{name}_bucket{} {cumulative}\n",
                        labels_with_le(&series.labels, &fmt_f64(*bound))
                    ));
                }
                out.push_str(&format!(
                    "{name}_bucket{} {count}\n",
                    labels_with_le(&series.labels, "+Inf")
                ));
                out.push_str(&format!("{name}_sum{} {}\n", series.labels, fmt_f64(*sum)));
                out.push_str(&format!("{name}_count{} {count}\n", series.labels));
            }
        }
    }
    out
}

/// Render the registry as one flat JSON object in index order:
/// counters as integers, gauges as numbers (`null` when non-finite),
/// histograms as `{"sum":...,"count":...}`. Keys are
/// `name{rendered,labels}` exactly as Prometheus would print them.
pub fn render_json_metrics(reg: &Registry) -> String {
    let mut rows: Vec<String> = Vec::with_capacity(reg.index.len());
    for ((name, _), &id) in &reg.index {
        let series = &reg.series[id as usize];
        let key = json_string(&format!("{name}{}", series.labels));
        let val = match &series.value {
            Value::Counter(c) => format!("{c}"),
            Value::Gauge(g) => json_f64(*g),
            Value::Histogram { sum, count, .. } => {
                format!("{{\"sum\":{},\"count\":{count}}}", json_f64(*sum))
            }
        };
        rows.push(format!("{key}:{val}"));
    }
    format!("{{{}}}", rows.join(","))
}

/// `s` as a JSON string literal, quotes included: `"`, `\\` and every
/// control character below 0x20 escaped (`\n`, `\r`, `\t`, else `\u00XX`).
/// The workspace's one JSON string escaper (`chm_lint` keeps its own copy:
/// it is a zero-dependency crate).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number for `v`: shortest-roundtrip decimal, `null` when non-finite
/// (JSON has no NaN/Inf; an unmeasured value is `null`, never a fake `0.0`).
/// The workspace's one JSON number formatter.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_render() {
        let mut r = Registry::new();
        let c = r.register_counter("chm_x_events_total", "Events seen.", &[("kind", "a")]);
        let g = r.register_gauge("chm_x_f1_ratio", "F1.", &[]);
        r.add(c, 42);
        r.set(g, 0.5);
        let text = render_prometheus(&r);
        assert_eq!(
            text,
            "# HELP chm_x_events_total Events seen.\n\
             # TYPE chm_x_events_total counter\n\
             chm_x_events_total{kind=\"a\"} 42\n\
             # HELP chm_x_f1_ratio F1.\n\
             # TYPE chm_x_f1_ratio gauge\n\
             chm_x_f1_ratio 0.5\n"
        );
    }

    #[test]
    fn histogram_renders_cumulative_with_inf_equal_to_count() {
        let mut r = Registry::new();
        let h = r.register_histogram("chm_x_lat_seconds", "Latency.", &[], &[0.01, 0.1, 1.0]);
        for v in [0.005, 0.02, 0.05, 0.5, 3.0] {
            r.observe(h, v);
        }
        let text = render_prometheus(&r);
        assert!(text.contains("chm_x_lat_seconds_bucket{le=\"0.01\"} 1\n"));
        assert!(text.contains("chm_x_lat_seconds_bucket{le=\"0.1\"} 3\n"));
        assert!(text.contains("chm_x_lat_seconds_bucket{le=\"1\"} 4\n"));
        assert!(text.contains("chm_x_lat_seconds_bucket{le=\"+Inf\"} 5\n"));
        assert!(text.contains("chm_x_lat_seconds_count 5\n"));
    }

    #[test]
    fn help_escaping() {
        let mut r = Registry::new();
        r.register_gauge("chm_x_odd_ratio", "line\\one\nline two", &[]);
        let text = render_prometheus(&r);
        assert!(text.contains("# HELP chm_x_odd_ratio line\\\\one\\nline two\n"));
    }

    #[test]
    fn non_finite_gauges() {
        let mut r = Registry::new();
        let g = r.register_gauge("chm_x_odd_ratio", "Odd.", &[]);
        r.set(g, f64::NAN);
        assert!(render_prometheus(&r).contains("chm_x_odd_ratio NaN\n"));
        assert!(render_json_metrics(&r).contains("\"chm_x_odd_ratio\":null"));
        r.set(g, f64::INFINITY);
        assert!(render_prometheus(&r).contains("chm_x_odd_ratio +Inf\n"));
    }

    #[test]
    fn json_metrics_shape() {
        let mut r = Registry::new();
        let c = r.register_counter("chm_x_events_total", "E.", &[]);
        let h = r.register_histogram("chm_x_lat_seconds", "L.", &[], &[1.0]);
        r.add(c, 7);
        r.observe(h, 0.5);
        assert_eq!(
            render_json_metrics(&r),
            "{\"chm_x_events_total\":7,\"chm_x_lat_seconds\":{\"sum\":0.5,\"count\":1}}"
        );
    }
}
