//! Nested span profiler driven by an **injected** clock.
//!
//! The profiler never reads real time. Every duration comes either from
//! an explicit `record(path, seconds)` or from an `enter`/`exit` pair
//! around a caller-supplied `&mut dyn FnMut() -> f64`. Production code
//! passes the zero clock (`&mut || 0.0`): span *counts* accumulate
//! deterministically while every duration stays exactly `0.0`, so all
//! rendered output is byte-identical across runs and thread counts.
//! Only `crates/bench` may inject a wall clock — the rule `clippy.toml`
//! enforces.
//!
//! Nodes live in an arena; children hang off a `BTreeMap<String, usize>`
//! so the one depth-first walk behind [`SpanProfiler::flatten`] and
//! [`SpanProfiler::json_object`] is bit-stable.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::expo::{JsonF64, JsonStr};

#[derive(Debug, Clone, Default)]
struct SpanNode {
    children: BTreeMap<String, usize>,
    count: u64,
    total_s: f64,
}

/// Hierarchical span accumulator. See the module docs for the clock
/// contract.
#[derive(Debug, Clone)]
pub struct SpanProfiler {
    /// Arena; node 0 is the unnamed root.
    nodes: Vec<SpanNode>,
    /// Open spans: `(node index, start timestamp)`.
    stack: Vec<(usize, f64)>,
}

impl Default for SpanProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanProfiler {
    pub fn new() -> Self {
        Self { nodes: vec![SpanNode::default()], stack: Vec::new() }
    }

    /// Drop all recorded spans (arena and stack), keeping capacity.
    pub fn clear(&mut self) {
        self.nodes.truncate(1);
        self.nodes[0].children.clear();
        self.nodes[0].count = 0;
        self.nodes[0].total_s = 0.0;
        self.stack.clear();
    }

    fn child_of(&mut self, parent: usize, name: &str) -> usize {
        if let Some(&idx) = self.nodes[parent].children.get(name) {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(SpanNode::default());
        self.nodes[parent].children.insert(name.to_string(), idx);
        idx
    }

    fn resolve(&mut self, base: usize, path: &[&str]) -> usize {
        let mut at = base;
        for seg in path {
            at = self.child_of(at, seg);
        }
        at
    }

    fn top(&self) -> usize {
        self.stack.last().map_or(0, |&(idx, _)| idx)
    }

    /// Open a span named `name` under the current stack top, sampling
    /// the injected clock for its start time.
    pub fn enter(&mut self, name: &str, clock: &mut dyn FnMut() -> f64) {
        let idx = self.child_of(self.top(), name);
        let t = clock();
        self.stack.push((idx, t));
    }

    /// Close the innermost open span, charging `clock() - start` to it.
    /// Panics if no span is open.
    pub fn exit(&mut self, clock: &mut dyn FnMut() -> f64) {
        let (idx, start) = self
            .stack
            .pop()
            .expect("chm_obs: span exit without a matching enter");
        let t = clock();
        self.nodes[idx].count += 1;
        self.nodes[idx].total_s += t - start;
    }

    /// Record one completed span at `path`, **relative to the current
    /// stack top** (the root when no span is open), charging `dur_s`.
    pub fn record(&mut self, path: &[&str], dur_s: f64) {
        let base = self.top();
        let idx = self.resolve(base, path);
        self.nodes[idx].count += 1;
        self.nodes[idx].total_s += dur_s;
    }

    /// Look up `(count, total seconds)` at an **absolute** path from the
    /// root. `None` when the path was never recorded.
    pub fn get(&self, path: &[&str]) -> Option<(u64, f64)> {
        let mut at = 0usize;
        for seg in path {
            at = *self.nodes[at].children.get(*seg)?;
        }
        Some((self.nodes[at].count, self.nodes[at].total_s))
    }

    /// Merge another profiler's whole tree under the current stack top,
    /// nested below `prefix` (may be empty). Counts and durations add,
    /// so absorbing shard-local profilers in any order yields the same
    /// tree.
    pub fn absorb(&mut self, other: &SpanProfiler, prefix: &[&str]) {
        let base = self.top();
        let at = self.resolve(base, prefix);
        self.absorb_node(other, 0, at);
    }

    fn absorb_node(&mut self, other: &SpanProfiler, from: usize, into: usize) {
        // Clone the child map up front: `child_of` needs `&mut self` and
        // `other` may alias patterns we cannot borrow across.
        let children: Vec<(String, usize)> = other.nodes[from]
            .children
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect();
        for (name, src) in children {
            let dst = self.child_of(into, &name);
            self.nodes[dst].count += other.nodes[src].count;
            self.nodes[dst].total_s += other.nodes[src].total_s;
            self.absorb_node(other, src, dst);
        }
    }

    /// True when every `enter` has been matched by an `exit`.
    pub fn balanced(&self) -> bool {
        self.stack.is_empty()
    }

    /// Depth-first walk in BTreeMap child order: `visit(path, count, total
    /// seconds)` for every node below `at`, the `a/b/c` path built in the
    /// one reused `path` buffer.
    fn walk(&self, at: usize, path: &mut String, visit: &mut dyn FnMut(&str, u64, f64)) {
        for (name, &idx) in &self.nodes[at].children {
            let len = path.len();
            if len > 0 {
                path.push('/');
            }
            path.push_str(name);
            let node = &self.nodes[idx];
            visit(path, node.count, node.total_s);
            self.walk(idx, path, visit);
            path.truncate(len);
        }
    }

    /// Depth-first flattening to `("a/b/c", count, total seconds)`
    /// rows, sorted by the BTreeMap child order at every level.
    pub fn flatten(&self) -> Vec<(String, u64, f64)> {
        let mut out = Vec::new();
        self.walk(0, &mut String::new(), &mut |path, count, total| {
            out.push((path.to_string(), count, total));
        });
        out
    }

    /// Flat JSON object `{"a/b": {"count": N, "total_s": S}, ...}` in
    /// flatten order. Non-finite totals render as `null` (hand-rolled
    /// JSON, same convention as the rest of the workspace).
    pub fn json_object(&self) -> String {
        let mut out = String::from("{");
        self.walk(0, &mut String::new(), &mut |path, count, total| {
            if out.len() > 1 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{count},\"total_s\":{}}}",
                JsonStr(path),
                JsonF64(total)
            );
        });
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enter_exit_nests_and_times() {
        let mut p = SpanProfiler::new();
        let mut t = 0.0_f64;
        let mut clock = move || {
            t += 1.0;
            t
        };
        p.enter("epoch", &mut clock); // start 1
        p.enter("replay", &mut clock); // start 2
        p.exit(&mut clock); // end 3 → replay 1.0
        p.exit(&mut clock); // end 4 → epoch 3.0
        assert!(p.balanced());
        assert_eq!(p.get(&["epoch"]), Some((1, 3.0)));
        assert_eq!(p.get(&["epoch", "replay"]), Some((1, 1.0)));
        assert_eq!(p.get(&["replay"]), None);
    }

    #[test]
    fn record_is_relative_to_stack_top() {
        let mut p = SpanProfiler::new();
        let mut zero = || 0.0;
        p.enter("epoch", &mut zero);
        p.record(&["phase_a", "shard_3"], 0.25);
        p.exit(&mut zero);
        p.record(&["prologue"], 0.5); // stack empty → rooted
        assert_eq!(p.get(&["epoch", "phase_a", "shard_3"]), Some((1, 0.25)));
        assert_eq!(p.get(&["prologue"]), Some((1, 0.5)));
    }

    #[test]
    fn zero_clock_keeps_counts_and_zero_durations() {
        let mut p = SpanProfiler::new();
        let mut zero = || 0.0;
        for _ in 0..3 {
            p.enter("epoch", &mut zero);
            p.record(&["decode", "edge_0"], 0.0);
            p.exit(&mut zero);
        }
        assert_eq!(p.get(&["epoch"]), Some((3, 0.0)));
        assert_eq!(p.get(&["epoch", "decode", "edge_0"]), Some((3, 0.0)));
    }

    #[test]
    fn absorb_merges_under_prefix_and_is_order_independent() {
        let mk = |d: f64| {
            let mut s = SpanProfiler::new();
            s.record(&["phase_a", "shard_0"], d);
            s.record(&["merge"], d * 2.0);
            s
        };
        let (a, b) = (mk(1.0), mk(10.0));
        let run = |order: [&SpanProfiler; 2]| {
            let mut p = SpanProfiler::new();
            let mut zero = || 0.0;
            p.enter("epoch", &mut zero);
            for s in order {
                p.absorb(s, &[]);
            }
            p.exit(&mut zero);
            p.flatten()
        };
        assert_eq!(run([&a, &b]), run([&b, &a]));
        let rows = run([&a, &b]);
        assert!(rows.contains(&("epoch/phase_a/shard_0".to_string(), 2, 11.0)));
        assert!(rows.contains(&("epoch/merge".to_string(), 2, 22.0)));
    }

    #[test]
    fn flatten_is_sorted_and_stable() {
        let mut p = SpanProfiler::new();
        p.record(&["b"], 0.0);
        p.record(&["a", "z"], 0.0);
        p.record(&["a", "k"], 0.0);
        let paths: Vec<String> = p.flatten().into_iter().map(|(s, _, _)| s).collect();
        assert_eq!(paths, vec!["a", "a/k", "a/z", "b"]);
    }

    #[test]
    fn json_renderings() {
        let mut p = SpanProfiler::new();
        p.record(&["localize"], 0.5);
        assert_eq!(p.json_object(), "{\"localize\":{\"count\":1,\"total_s\":0.5}}");
    }

    #[test]
    #[should_panic(expected = "without a matching enter")]
    fn unbalanced_exit_panics() {
        let mut p = SpanProfiler::new();
        p.exit(&mut || 0.0);
    }

    #[test]
    fn clear_resets() {
        let mut p = SpanProfiler::new();
        p.record(&["x"], 1.0);
        p.clear();
        assert!(p.flatten().is_empty());
        assert_eq!(p.get(&["x"]), None);
    }
}
