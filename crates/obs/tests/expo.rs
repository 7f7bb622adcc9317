//! Integration coverage for the Prometheus and JSON exposition: bucket
//! cumulativity and byte-identical rendering.

use chm_obs::{render_json_metrics, render_prometheus, Registry, SpanProfiler};

/// A registry with one series of each kind, registered in `order` (a
/// permutation of `0..3`): 0 the counter, 1 the gauge, 2 the histogram.
fn busy_registry(order: [usize; 3]) -> Registry {
    let mut r = Registry::new();
    let mut ids = [None; 3];
    for i in order {
        ids[i] = Some(match i {
            0 => r.register_counter("chm_t_packets_total", "Packets replayed."),
            1 => r.register_gauge("chm_t_f1_ratio", "Detection F1."),
            _ => r.register_histogram(
                "chm_t_reaction_seconds",
                "Reaction latency.",
                &[0.001, 0.01, 0.1, 1.0],
            ),
        });
    }
    let [packets, f1, lat] = ids.map(|id| id.expect("every series registered"));
    r.set(f1, 0.9375);
    for i in 0..3 {
        r.add(packets, 100 + i as u64);
        for k in 0..=i {
            r.observe(lat, 0.0005 * (k + 1) as f64 * 10f64.powi(i));
        }
    }
    r
}

/// Parse every `_bucket` line of one histogram family and check the
/// text-format invariants: cumulative counts monotone in `le`, and the
/// terminal `+Inf` bucket equal to `_count`.
#[test]
fn histogram_buckets_are_cumulative_and_inf_matches_count() {
    let text = render_prometheus(&busy_registry([0, 1, 2]));
    let mut bucket_counts: Vec<u64> = Vec::new();
    let mut inf = None;
    let mut count = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("chm_t_reaction_seconds_bucket{") {
            let v: u64 = rest
                .rsplit(' ')
                .next()
                .and_then(|n| n.parse().ok())
                .expect("bucket line ends in an integer");
            if rest.contains("le=\"+Inf\"") {
                inf = Some(v);
            } else {
                bucket_counts.push(v);
            }
        } else if let Some(rest) = line.strip_prefix("chm_t_reaction_seconds_count") {
            count = rest.rsplit(' ').next().and_then(|n| n.parse().ok());
        }
    }
    assert_eq!(bucket_counts.len(), 4, "one line per finite bound:\n{text}");
    assert!(
        bucket_counts.windows(2).all(|w| w[0] <= w[1]),
        "bucket counts must be monotone in le: {bucket_counts:?}"
    );
    let inf = inf.expect("+Inf bucket rendered");
    let count: u64 = count.expect("_count rendered");
    assert_eq!(inf, count, "le=\"+Inf\" must equal _count");
    assert_eq!(count, 6, "1+2+3 samples observed");
    assert!(*bucket_counts.last().expect("nonempty") <= inf);
}

#[test]
fn rendering_is_byte_identical_across_runs_and_registration_orders() {
    let a = busy_registry([0, 1, 2]);
    let b = busy_registry([2, 0, 1]);
    assert_eq!(render_prometheus(&a), render_prometheus(&busy_registry([0, 1, 2])));
    assert_eq!(render_prometheus(&a), render_prometheus(&b));
    assert_eq!(render_json_metrics(&a), render_json_metrics(&b));
}

#[test]
fn span_tree_renders_byte_identically_under_zero_clock() {
    let run = || {
        let mut p = SpanProfiler::new();
        let mut zero = || 0.0;
        for e in 0..5 {
            p.enter("epoch", &mut zero);
            p.record(&["replay"], 0.0);
            for s in 0..3 {
                p.record(&["phase_a", &format!("shard_{s}")], 0.0);
            }
            for _ in 0..2 {
                p.record(&["decode", &format!("edge_{}", e % 2)], 0.0);
            }
            p.exit(&mut zero);
        }
        assert!(p.balanced());
        p.json_object()
    };
    assert_eq!(run(), run());
    let obj = run();
    assert!(obj.contains("\"epoch/phase_a/shard_2\":{\"count\":5,\"total_s\":0}"));
    assert!(obj.contains("\"epoch/decode/edge_0\":{\"count\":6,\"total_s\":0}"));
}

/// Minimal JSON syntax check (the workspace has no parser by design):
/// consumes one value from `s` and returns the rest, or `None` when the text
/// is not JSON — in particular when a string holds a raw control character.
fn json_value(s: &str) -> Option<&str> {
    let s = s.trim_start();
    match s.chars().next()? {
        '{' | '[' => {
            let (close, keyed) = if s.starts_with('{') { ('}', true) } else { (']', false) };
            let mut rest = s[1..].trim_start();
            if let Some(after) = rest.strip_prefix(close) {
                return Some(after);
            }
            loop {
                if keyed {
                    rest = json_value(rest).filter(|_| rest.trim_start().starts_with('"'))?;
                    rest = rest.trim_start().strip_prefix(':')?;
                }
                rest = json_value(rest)?.trim_start();
                if let Some(after) = rest.strip_prefix(close) {
                    return Some(after);
                }
                rest = rest.strip_prefix(',')?;
            }
        }
        '"' => {
            let mut chars = s[1..].char_indices();
            while let Some((i, c)) = chars.next() {
                match c {
                    '"' => return Some(&s[i + 2..]),
                    '\\' => match chars.next()?.1 {
                        'u' => {
                            for _ in 0..4 {
                                chars.next().filter(|(_, h)| h.is_ascii_hexdigit())?;
                            }
                        }
                        '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' => {}
                        _ => return None,
                    },
                    c if (c as u32) < 0x20 => return None,
                    _ => {}
                }
            }
            None
        }
        _ => {
            let end = s.find([',', '}', ']', ' ', '\n']).unwrap_or(s.len());
            let tok = &s[..end];
            (matches!(tok, "null" | "true" | "false") || tok.parse::<f64>().is_ok())
                .then_some(&s[end..])
        }
    }
}

fn is_json(s: &str) -> bool {
    json_value(s).is_some_and(|rest| rest.trim().is_empty())
}

/// A span name becomes a JSON key, so it must survive control characters:
/// `\t` / `\r` by their short escapes, the rest as `\u00XX`. (Metric names
/// are validated `[a-z0-9_]` and the registry takes no labels, so the span
/// tree is the one place such a character can reach the output.)
#[test]
fn control_characters_in_labels_and_span_names_render_valid_json() {
    assert!(is_json("{\"a\":[1,null,{\"b\":\"\\u0001\\t\"}]}") && !is_json("{\"a\":\"\t\"}"));

    let mut p = SpanProfiler::new();
    p.record(&["decode\tedge", "\u{1f}"], 0.0);
    let obj = p.json_object();
    assert!(obj.contains("\"decode\\tedge/\\u001f\":{\"count\":1"), "got: {obj}");
    assert!(is_json(&obj), "not JSON: {obj}");
}
