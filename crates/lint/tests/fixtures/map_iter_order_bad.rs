// Fixture: unordered HashMap iteration feeding an output surface.
// Expected (under an output-surface role): map-iter-order x3.
use std::collections::HashMap;

pub fn victim_table(lost: &HashMap<u64, u64>) -> Vec<(u64, u64)> {
    let mut rows = Vec::new();
    for (f, n) in lost.iter() {
        rows.push((*f, *n));
    }
    rows
}

pub fn report_lines(counts: HashMap<String, u64>) -> String {
    let mut s = String::new();
    for (k, v) in &counts {
        s.push_str(&format!("{k}={v}\n"));
    }
    s
}

// The clamp is a `max` inside the `map` closure, not the chain's terminal:
// the float sum still depends on iteration order.
pub fn g_sum(weights: &HashMap<u64, i64>) -> f64 {
    weights.values().map(|&w| w.max(0) as f64).sum::<f64>()
}
