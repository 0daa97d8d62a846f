//! In-memory spans recorded by the benchmark around each call it makes
//! into a layer, and the per-layer self time derived from them.
//!
//! A span's name is `<layer>.<operation>`; its layer is everything
//! before the first dot. Spans are kept in memory while the workload
//! runs and written out once at the end, so recording costs a clock
//! read and a vector push. With tracing off every call is a branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// The operation (kernel run, simulation, request) the span serves.
    pub req: u64,
}

impl Span {
    /// The layer the span is charged to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Handle of an open span (`usize::MAX` while tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// A per-thread span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch` (share one epoch
    /// between threads whose traces are merged).
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// The instant timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(self.spans.len() - 1)
    }

    /// Closes `id` (and anything left open inside it).
    pub fn end(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let now = self.now();
        self.spans[id.0].end = now;
        while let Some(top) = self.open.pop() {
            if top == id.0 {
                break;
            }
            self.spans[top].end = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, req);
        let out = f();
        self.end(id);
        out
    }

    /// Moves another thread's spans into this trace, hanging its root
    /// spans under `parent`.
    pub fn absorb(&mut self, other: Tracer, parent: Option<SpanId>) {
        let base = self.spans.len();
        let parent = parent.filter(|p| p.0 != usize::MAX).map(|p| p.0);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\
                 \"parent\":{parent},\"req\":{}}}",
                s.name,
                s.start as f64 / 1e3,
                s.end as f64 / 1e3,
                s.req
            );
        }
        out.push(']');
        out
    }
}

/// Milliseconds of self time per layer: each span's duration minus the
/// part of it that its children cover (children on other threads may
/// overlap each other; their union is subtracted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let own = (s.end - s.start).saturating_sub(covered);
        *out.entry(s.layer()).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("bench.pass", 0, 10_000_000, None),
            span("rt.run", 1_000_000, 4_000_000, Some(0)),
            // Two overlapping children (different threads): 5..9 ms.
            span("serve.request", 5_000_000, 8_000_000, Some(0)),
            span("serve.request", 6_000_000, 9_000_000, Some(0)),
            span("core.compile", 6_500_000, 7_000_000, Some(3)),
        ];
        let t = self_times(&spans);
        assert!((t["bench"] - 3.0).abs() < 1e-9, "{t:?}");
        assert!((t["rt"] - 3.0).abs() < 1e-9);
        assert!((t["serve"] - 5.5).abs() < 1e-9);
        assert!((t["core"] - 0.5).abs() < 1e-9);
        let total: f64 = t.values().sum();
        // Overlap across threads is counted in each thread's own spans.
        assert!((total - 12.0).abs() < 1e-9);
    }

    #[test]
    fn nested_spans_record_parents_and_merge_across_threads() {
        let epoch = Instant::now();
        let mut tr = Tracer::new(true, epoch);
        let outer = tr.begin("bench.phase", 1);
        tr.time("ir.lower", 1, || ());
        let mut worker = Tracer::new(true, epoch);
        worker.time("serve.request", 7, || ());
        tr.absorb(worker, Some(outer));
        tr.end(outer);
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[2].req, 7);
        assert!(s[0].end >= s[1].end);
        assert!(tr.to_json().contains("\"name\":\"serve.request\""));
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false, Instant::now());
        let id = tr.begin("rt.run", 0);
        tr.end(id);
        assert!(tr.spans().is_empty());
    }
}
