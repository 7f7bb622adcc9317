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
//! Nodes live in an arena; children hang off a `BTreeMap<Box<str>, usize>`
//! so the one depth-first walk behind [`SpanProfiler::flatten`] and
//! [`SpanProfiler::json_object`] is bit-stable. A name never changes, so it
//! is a `Box<str>`: 8 bytes less than a `String` in each of a map node's
//! eleven key slots.
//!
//! [`SpanProfiler::clear`] keeps the arena: it starts a new generation, and
//! a node recorded (or entered) in an earlier one is zeroed when a later
//! generation touches it again and is invisible until then — to
//! [`get`](SpanProfiler::get), [`flatten`](SpanProfiler::flatten),
//! [`json_object`](SpanProfiler::json_object) and
//! [`absorb`](SpanProfiler::absorb) alike, so a cleared profiler renders
//! what a fresh one would. A profiler cleared and refilled with the same
//! paths every epoch (the sharded engine's span tree) allocates nothing
//! after its first epoch; the arena keeps every path it has ever seen.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use crate::expo::{JsonF64, JsonStr};

#[derive(Debug, Clone, Default)]
struct SpanNode {
    children: BTreeMap<Box<str>, usize>,
    count: u64,
    total_s: f64,
    /// The profiler generation this node was last touched in; a node of an
    /// older one is not shown.
    generation: u64,
}

/// Hierarchical span accumulator. See the module docs for the clock
/// contract.
#[derive(Debug, Clone)]
pub struct SpanProfiler {
    /// Arena; node 0 is the unnamed root.
    nodes: Vec<SpanNode>,
    /// Open spans: `(node index, start timestamp)`.
    stack: Vec<(usize, f64)>,
    /// Bumped by every [`clear`](Self::clear); the live nodes carry it.
    generation: u64,
}

impl Default for SpanProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanProfiler {
    pub fn new() -> Self {
        Self { nodes: vec![SpanNode::default()], stack: Vec::new(), generation: 0 }
    }

    /// Drop all recorded spans and open spans. The arena is kept (see the
    /// module docs): what is recorded next reuses its nodes.
    pub fn clear(&mut self) {
        self.generation += 1;
        self.nodes[0].count = 0;
        self.nodes[0].total_s = 0.0;
        self.stack.clear();
    }

    /// The live child `idx` of a node, or `None` when it belongs to an
    /// earlier generation.
    fn live(&self, idx: usize) -> Option<&SpanNode> {
        Some(&self.nodes[idx]).filter(|n| n.generation == self.generation)
    }

    /// Child `name` of `parent`, made live: a node of an earlier generation
    /// starts over from zero, a new one is appended.
    fn child_of(&mut self, parent: usize, name: &str) -> usize {
        if let Some(&idx) = self.nodes[parent].children.get(name) {
            let node = &mut self.nodes[idx];
            if node.generation != self.generation {
                node.count = 0;
                node.total_s = 0.0;
                node.generation = self.generation;
            }
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(SpanNode { generation: self.generation, ..SpanNode::default() });
        self.nodes[parent].children.insert(name.into(), idx);
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
        let mut node = &self.nodes[0];
        for seg in path {
            node = self.live(*node.children.get(*seg)?)?;
        }
        Some((node.count, node.total_s))
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
        for (name, &src) in &other.nodes[from].children {
            let Some(node) = other.live(src) else { continue };
            let dst = self.child_of(into, name);
            self.nodes[dst].count += node.count;
            self.nodes[dst].total_s += node.total_s;
            self.absorb_node(other, src, dst);
        }
    }

    /// True when every `enter` has been matched by an `exit`.
    pub fn balanced(&self) -> bool {
        self.stack.is_empty()
    }

    /// Depth-first walk in BTreeMap child order: `visit(path, count, total
    /// seconds)` for every node below `at`, each node's path held on the
    /// walk's call stack as its name below `parent`'s.
    fn walk(
        &self,
        at: usize,
        parent: Option<&SpanPath<'_>>,
        visit: &mut dyn FnMut(&SpanPath<'_>, u64, f64),
    ) {
        for (name, &idx) in &self.nodes[at].children {
            let Some(node) = self.live(idx) else { continue };
            let path = SpanPath { parent, name };
            visit(&path, node.count, node.total_s);
            self.walk(idx, Some(&path), visit);
        }
    }

    /// Depth-first flattening to `("a/b/c", count, total seconds)`
    /// rows, sorted by the BTreeMap child order at every level.
    pub fn flatten(&self) -> Vec<(String, u64, f64)> {
        let mut out = Vec::new();
        self.walk(0, None, &mut |path, count, total| {
            out.push((path.to_string(), count, total));
        });
        out
    }

    /// Flat JSON object `{"a/b": {"count": N, "total_s": S}, ...}` in
    /// flatten order. Non-finite totals render as `null` (hand-rolled
    /// JSON, same convention as the rest of the workspace).
    pub fn json_object(&self) -> String {
        let mut out = String::new();
        self.json_object_into(&mut out);
        out
    }

    /// [`json_object`](Self::json_object), appended to `out`: each path is
    /// written, escaped, straight from the tree, so nothing but `out` grows.
    pub fn json_object_into(&self, out: &mut String) {
        out.push('{');
        let mut first = true;
        self.walk(0, None, &mut |path, count, total| {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{}:{{\"count\":{count},\"total_s\":{}}}",
                JsonStr(path),
                JsonF64(total)
            );
        });
        out.push('}');
    }
}

/// A span's `a/b/c` path during a walk: its name below its parent's path
/// (`None` for a child of the root), on the walk's call stack. Displays as
/// the joined path.
struct SpanPath<'a> {
    parent: Option<&'a SpanPath<'a>>,
    name: &'a str,
}

impl fmt::Display for SpanPath<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(parent) = self.parent {
            write!(f, "{parent}/")?;
        }
        f.write_str(self.name)
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
        // The node comes back from zero when it is recorded again.
        p.record(&["x"], 0.5);
        assert_eq!(p.get(&["x"]), Some((1, 0.5)));
    }

    /// The span names the property draws from: six, so that a round reuses
    /// some of the previous round's names and drops others.
    const NAMES: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

    /// Applies one round of `(op, name, tick)` operations: `record` of a
    /// one- or two-segment path, `enter`, or `exit` (skipped when no span
    /// is open), with the injected clock reading `tick`. Open spans are
    /// closed at the end, so the round leaves the profiler balanced.
    fn apply(p: &mut SpanProfiler, ops: &[(u8, usize, u8)]) {
        let mut open = 0;
        for &(op, name, tick) in ops {
            let (name, next) = (NAMES[name], NAMES[(name + 1) % NAMES.len()]);
            let mut clock = || f64::from(tick);
            match op {
                0 => p.record(&[name], f64::from(tick)),
                1 => p.record(&[name, next], f64::from(tick) / 4.0),
                2 => {
                    p.enter(name, &mut clock);
                    open += 1;
                }
                _ if open > 0 => {
                    p.exit(&mut clock);
                    open -= 1;
                }
                _ => {}
            }
        }
        for _ in 0..open {
            p.exit(&mut || 9.0);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// A profiler cleared between rounds renders each round exactly as
        /// a fresh profiler given the same round does: the same rows, the
        /// same JSON, the same `get` at every path of up to three of the
        /// names, and the same tree when absorbed into another profiler.
        #[test]
        fn a_cleared_profiler_renders_as_a_fresh_one(
            rounds in proptest::collection::vec(
                proptest::collection::vec((0u8..4, 0usize..6, 0u8..8), 0..24),
                1..6,
            ),
        ) {
            let mut kept = SpanProfiler::new();
            for ops in &rounds {
                kept.clear();
                apply(&mut kept, ops);
                let mut fresh = SpanProfiler::new();
                apply(&mut fresh, ops);
                proptest::prop_assert_eq!(kept.flatten(), fresh.flatten());
                proptest::prop_assert_eq!(kept.json_object(), fresh.json_object());
                for a in NAMES {
                    for b in NAMES {
                        for c in NAMES {
                            for path in [&[a][..], &[a, b], &[a, b, c]] {
                                proptest::prop_assert_eq!(kept.get(path), fresh.get(path));
                            }
                        }
                    }
                }
                let absorbed = |p: &SpanProfiler| {
                    let mut into = SpanProfiler::new();
                    into.record(&["a"], 1.0);
                    into.absorb(p, &["a"]);
                    into.absorb(p, &[]);
                    into.flatten()
                };
                proptest::prop_assert_eq!(absorbed(&kept), absorbed(&fresh));
            }
        }
    }
}
