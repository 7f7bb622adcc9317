//! The benchmark's clock and its in-memory span recorder.
//!
//! Spans are recorded *from outside*: the adapter opens one around each
//! call into a layer's public functions. A span is `{name, parent, op_id,
//! start_ns, end_ns}` plus the allocation calls made inside it; all spans
//! of one operation (epoch or repetition) share its `op_id`. They stay in
//! a preallocated vector while the benchmark runs and are written to
//! `trace.jsonl` when it ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc;

/// The one wall-clock read of the benchmark.
#[allow(clippy::disallowed_methods)] // bench timing harness
pub fn now() -> Instant {
    Instant::now()
}

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub op_id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotal {
    pub count: u64,
    pub ns: u64,
    pub self_ns: u64,
    pub allocs: u64,
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    op_id: u64,
    /// Named counts taken at the same boundaries as the spans.
    pub counts: BTreeMap<&'static str, f64>,
    /// Named per-operation sample series (for percentiles of a layer).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

/// Enough for every traced pass the benchmark makes without the vector
/// growing (a growth would be charged to whichever span was open).
const SPAN_CAPACITY: usize = 1 << 18;

impl Tracer {
    pub fn new() -> Self {
        Self::with_capacity(SPAN_CAPACITY)
    }

    pub fn with_capacity(spans: usize) -> Self {
        Tracer {
            t0: now(),
            spans: Vec::with_capacity(spans),
            open: Vec::with_capacity(8),
            op_id: 0,
            counts: BTreeMap::new(),
            samples: BTreeMap::new(),
        }
    }

    fn ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Spans opened from now on belong to operation `op_id`.
    pub fn set_op(&mut self, op_id: u64) {
        self.op_id = op_id;
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            op_id: self.op_id,
            start_ns: 0,
            end_ns: 0,
            allocs: alloc::allocs(),
        });
        self.open.push(id);
        // Clock last on entry and first on exit: the recorder's own work
        // stays outside the span.
        self.spans[id].start_ns = self.ns();
        id
    }

    pub fn exit(&mut self, id: SpanId) {
        let end = self.ns();
        let allocs = alloc::allocs();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.allocs = allocs - s.allocs;
    }

    /// Records an already-measured interval as a child of the open span
    /// (for timings the program reports itself, e.g. `ShardTiming`).
    pub fn record(&mut self, name: &'static str, dur_s: f64) {
        let end = self.ns();
        let dur = (dur_s * 1e9) as u64;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            op_id: self.op_id,
            start_ns: end.saturating_sub(dur),
            end_ns: end,
            allocs: 0,
        });
    }

    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counts.entry(name).or_insert(0.0) += by;
    }

    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dur_ns(&self, id: SpanId) -> u64 {
        self.spans[id].dur_ns()
    }

    /// Per-name totals of the recorded spans.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.ns += s.dur_ns();
            t.self_ns += self_ns;
            t.allocs += s.allocs;
        }
        out
    }

    /// One JSON object per span, in recording order; `id` is the line's
    /// index within this tracer and `parent` refers to it.
    pub fn write_jsonl(&self, workload: &str, out: &mut String) {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\
                 \"op_id\":{},\"start_ns\":{},\"end_ns\":{},\"allocs\":{}}}",
                s.name, s.op_id, s.start_ns, s.end_ns, s.allocs
            );
        }
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its direct children cover. Children are clipped to the parent and
/// overlapping children are merged first, so no instant is subtracted
/// twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let iv = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if iv.1 > iv.0 {
                children[p].push(iv);
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, ivs)| {
            ivs.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(a, b) in ivs.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            parent,
            op_id: 0,
            start_ns,
            end_ns,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let spans = [
            span(None, 0, 100),    // 0: root
            span(Some(0), 10, 30), // 1
            span(Some(0), 50, 70), // 2
            span(Some(1), 12, 20), // 3: grandchild, charged to 1 only
        ];
        assert_eq!(self_times(&spans), vec![60, 12, 20, 8]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = [
            span(None, 100, 200),
            span(Some(0), 110, 150),
            span(Some(0), 140, 160), // overlaps the previous by 10
            span(Some(0), 190, 250), // hangs 50 past the parent
            span(Some(0), 120, 130), // nested inside the first
        ];
        // Covered: [110,160) = 50 and [190,200) = 10.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn tracer_nests_spans_and_shares_the_op_id() {
        let mut tr = Tracer::new();
        tr.set_op(7);
        let op = tr.enter("op");
        let a = tr.enter("layer.a");
        let boxed = std::hint::black_box(Box::new(1u64));
        tr.exit(a);
        drop(boxed);
        tr.record("layer.b", 0.0);
        tr.exit(op);
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(op), Some(op))
        );
        assert!(s.iter().all(|x| x.op_id == 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(s[1].allocs >= 1);
        let totals = tr.totals();
        assert_eq!(totals["op"].count, 1);
        assert_eq!(totals["op"].ns, s[0].dur_ns());
        let mut text = String::new();
        tr.write_jsonl("w", &mut text);
        assert_eq!(text.lines().count(), 3);
        assert!(text
            .lines()
            .nth(1)
            .unwrap()
            .contains("\"name\":\"layer.a\",\"parent\":0,\"op_id\":7"));
    }
}
