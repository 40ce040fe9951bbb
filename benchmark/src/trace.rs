//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A traced run keeps every span in memory and writes them out as JSON
//! lines when it ends. A layer's self time is its span's duration minus the
//! part of that interval its child spans cover; children may nest and may
//! overlap one another (the remote clients run side by side).

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// The wire request id, on spans of one remote request.
    pub request_id: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder, shared by reference across threads.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        self.begin_request(name, parent, None)
    }

    /// Opens a span that belongs to one wire request.
    pub fn begin_request(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request_id: Option<u64>,
    ) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request_id,
        });
        spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&self, id: SpanId) {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        if let Some(span) = spans.get_mut(id) {
            span.end_ns = end_ns;
        }
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }
}

/// Opens a span when tracing, and does nothing otherwise.
pub fn begin(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
) -> Option<SpanId> {
    tracer.map(|t| t.begin(name, parent))
}

/// Closes a span opened by [`begin`].
pub fn end(tracer: Option<&Tracer>, id: Option<SpanId>) {
    if let (Some(t), Some(id)) = (tracer, id) {
        t.end(id);
    }
}

/// Runs `f` inside a span named `name` when tracing, and returns its
/// result with its wall time in nanoseconds (measured either way).
pub fn timed<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    f: impl FnOnce() -> R,
) -> (R, u64) {
    let id = begin(tracer, name, parent);
    let t = Instant::now();
    let r = f();
    let ns = t.elapsed().as_nanos() as u64;
    end(tracer, id);
    (r, ns)
}

/// The self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns().saturating_sub(union_len(kids)))
        .collect()
}

/// Total length covered by a set of intervals.
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    covered
}

/// Writes spans as JSON lines: id, name, start, end, parent, request id
/// and self time, all times in nanoseconds since the tracer started.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request_id\":{},\"self_ns\":{self_ns}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent.map(|p| p as u64)),
            opt(s.request_id),
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id: None,
        }
    }

    #[test]
    fn nested_children_count_once_at_each_level() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 60, Some(0)),
            span("a.inner", 15, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![70, 15, 10, 5]);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("client0", 10, 50, Some(0)),
            span("client1", 40, 80, Some(0)),
            span("client2", 45, 55, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span("parent", 0, 100, None),
            span("late", 90, 120, Some(0)),
            span("early", 0, 5, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![85, 30, 5]);
    }

    #[test]
    fn a_fully_covered_parent_has_no_self_time() {
        let spans = vec![span("p", 0, 10, None), span("c", 0, 10, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 10]);
    }

    #[test]
    fn tracer_records_parents_and_request_ids() {
        let t = Tracer::default();
        let root = t.begin("root", None);
        let req = t.begin_request("req", Some(root), Some(42));
        t.end(req);
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].request_id, Some(42));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
