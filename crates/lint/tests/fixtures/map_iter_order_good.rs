// Fixture: the three blessed ways to consume a hash collection on an
// output surface. Expected: no diagnostics.
use std::collections::{BTreeMap, HashMap};

// Sorted accumulation: collect, sort, then fold (the canonical fix).
pub fn victim_table(lost: &HashMap<u64, u64>) -> Vec<(u64, u64)> {
    let mut rows: Vec<(u64, u64)> = lost.iter().map(|(f, n)| (*f, *n)).collect();
    rows.sort_unstable();
    rows
}

// Order-free terminal reduction.
pub fn victim_count(lost: &HashMap<u64, u64>) -> usize {
    lost.iter().filter(|(_, &n)| n > 0).count()
}

// Re-collection into an ordered container.
pub fn ordered(lost: &HashMap<u64, u64>) -> BTreeMap<u64, u64> {
    lost.iter().map(|(f, n)| (*f, *n)).collect::<BTreeMap<_, _>>()
}

// Exact integer sum: commutative, order cannot show.
pub fn total(lost: &HashMap<u64, u64>) -> u64 {
    lost.values().sum::<u64>()
}

// A chain that ends in `max`: the largest value whatever the order.
pub fn largest(lost: &HashMap<u64, u64>) -> Option<u64> {
    lost.values().copied().max()
}
