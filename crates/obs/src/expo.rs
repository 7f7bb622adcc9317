//! Exposition: Prometheus text-format 0.0.4 and flat JSON rendering.
//!
//! Both renderers walk the registry in name order, so output is sorted and
//! bit-stable regardless of registration or update order, and both write
//! straight into one `String`: the caller's (the `_into` forms, which
//! append), or the one they return. Float formatting is
//! deterministic: plain `{}` for finite values, `NaN`/`+Inf`/`-Inf` spelled
//! the Prometheus way (JSON uses `null` for non-finite, matching the rest of
//! the workspace).

use std::fmt::{self, Write as _};

use crate::registry::{Registry, Value};

/// Deterministic float rendering for the Prometheus text format.
struct PromF64(f64);

impl fmt::Display for PromF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            v if v.is_nan() => f.write_str("NaN"),
            f64::INFINITY => f.write_str("+Inf"),
            f64::NEG_INFINITY => f.write_str("-Inf"),
            v => write!(f, "{v}"),
        }
    }
}

/// Render the whole registry in Prometheus text-format 0.0.4.
///
/// Every series is preceded by its `# HELP` / `# TYPE` headers. Histograms
/// render cumulative `_bucket` series (monotone in `le`), a terminal
/// `le="+Inf"` bucket equal to `_count`, then `_sum` and `_count`.
pub fn render_prometheus(reg: &Registry) -> String {
    let mut out = String::new();
    render_prometheus_into(reg, &mut out);
    out
}

/// [`render_prometheus`], appended to `out`.
pub fn render_prometheus_into(reg: &Registry, out: &mut String) {
    for m in reg.in_name_order() {
        let (name, help) = (&m.name, &m.help);
        let kind = match m.value {
            Value::Counter(_) => "counter",
            Value::Gauge(_) => "gauge",
            Value::Histogram { .. } => "histogram",
        };
        let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
        let _ = match &m.value {
            Value::Counter(c) => writeln!(out, "{name} {c}"),
            Value::Gauge(g) => writeln!(out, "{name} {}", PromF64(*g)),
            Value::Histogram {
                bounds,
                hits,
                sum,
                count,
            } => {
                let mut cumulative = 0u64;
                for (bound, hit) in bounds.iter().zip(hits) {
                    cumulative += hit;
                    let le = PromF64(*bound);
                    let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                }
                writeln!(
                    out,
                    "{name}_bucket{{le=\"+Inf\"}} {count}\n{name}_sum {}\n{name}_count {count}",
                    PromF64(*sum)
                )
            }
        };
    }
}

/// Render the registry as one flat JSON object in name order: counters as
/// integers, gauges as numbers (`null` when non-finite), histograms as
/// `{"sum":...,"count":...}`.
pub fn render_json_metrics(reg: &Registry) -> String {
    let mut out = String::new();
    render_json_metrics_into(reg, &mut out);
    out
}

/// [`render_json_metrics`], appended to `out`.
pub fn render_json_metrics_into(reg: &Registry, out: &mut String) {
    out.push('{');
    for (i, m) in reg.in_name_order().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let key = JsonStr(&m.name);
        let _ = match &m.value {
            Value::Counter(c) => write!(out, "{key}:{c}"),
            Value::Gauge(g) => write!(out, "{key}:{}", JsonF64(*g)),
            Value::Histogram { sum, count, .. } => {
                write!(out, "{key}:{{\"sum\":{},\"count\":{count}}}", JsonF64(*sum))
            }
        };
    }
    out.push('}');
}

/// A string as a JSON string literal, quotes included, for `write!`: `"`,
/// `\\` and every control character below 0x20 escaped (`\n`, `\r`, `\t`,
/// else `\u00XX`). The string is anything that displays as one — a `&str`,
/// or a span path written piece by piece — and is escaped as it is written,
/// never collected first. The workspace's one JSON string escaper
/// (`chm_lint` keeps its own copy: it is a zero-dependency crate).
pub(crate) struct JsonStr<T>(pub T);

impl<T: fmt::Display> fmt::Display for JsonStr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        write!(JsonEscape(f), "{}", self.0)?;
        f.write_char('"')
    }
}

/// Writes what it is given into a JSON string body, escaped.
struct JsonEscape<'a, 'b>(&'a mut fmt::Formatter<'b>);

impl fmt::Write for JsonEscape<'_, '_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let f = &mut *self.0;
        for c in s.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        Ok(())
    }
}

/// A JSON number for `write!`: shortest-roundtrip decimal, `null` when
/// non-finite (JSON has no NaN/Inf; an unmeasured value is `null`, never a
/// fake `0.0`). The workspace's one JSON number formatter.
#[derive(Debug, Clone, Copy)]
pub struct JsonF64(pub f64);

impl fmt::Display for JsonF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

/// `s` as a JSON string literal, quotes included (see `JsonStr`).
pub fn json_string(s: &str) -> String {
    JsonStr(s).to_string()
}

/// [`JsonF64`] as an owned `String`.
pub fn json_f64(v: f64) -> String {
    JsonF64(v).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_render() {
        let mut r = Registry::new();
        let c = r.register_counter("chm_x_events_total", "Events seen.");
        let g = r.register_gauge("chm_x_f1_ratio", "F1.");
        r.add(c, 42);
        r.set(g, 0.5);
        let text = render_prometheus(&r);
        assert_eq!(
            text,
            "# HELP chm_x_events_total Events seen.\n\
             # TYPE chm_x_events_total counter\n\
             chm_x_events_total 42\n\
             # HELP chm_x_f1_ratio F1.\n\
             # TYPE chm_x_f1_ratio gauge\n\
             chm_x_f1_ratio 0.5\n"
        );
    }

    #[test]
    fn histogram_renders_cumulative_with_inf_equal_to_count() {
        let mut r = Registry::new();
        let h = r.register_histogram("chm_x_lat_seconds", "Latency.", &[0.01, 0.1, 1.0]);
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
        r.register_gauge("chm_x_odd_ratio", "line\\one\nline two");
        let text = render_prometheus(&r);
        assert!(text.contains("# HELP chm_x_odd_ratio line\\\\one\\nline two\n"));
    }

    #[test]
    fn non_finite_gauges() {
        let mut r = Registry::new();
        let g = r.register_gauge("chm_x_odd_ratio", "Odd.");
        r.set(g, f64::NAN);
        assert!(render_prometheus(&r).contains("chm_x_odd_ratio NaN\n"));
        assert!(render_json_metrics(&r).contains("\"chm_x_odd_ratio\":null"));
        r.set(g, f64::INFINITY);
        assert!(render_prometheus(&r).contains("chm_x_odd_ratio +Inf\n"));
    }

    #[test]
    fn json_metrics_shape() {
        let mut r = Registry::new();
        let c = r.register_counter("chm_x_events_total", "E.");
        let h = r.register_histogram("chm_x_lat_seconds", "L.", &[1.0]);
        r.add(c, 7);
        r.observe(h, 0.5);
        assert_eq!(
            render_json_metrics(&r),
            "{\"chm_x_events_total\":7,\"chm_x_lat_seconds\":{\"sum\":0.5,\"count\":1}}"
        );
    }
}
