//! In-memory span tracing from the benchmark's side of each layer boundary.
//!
//! Every call the benchmark makes into a layer's public function can be
//! wrapped in a span: name, start, end, parent span and request id. Each
//! thread records into its own [`SpanBuf`] (no shared lock on the measured
//! path); buffers are merged and written as JSON lines when the run ends.
//! A disabled buffer records nothing and costs one branch per call, which
//! is how the untraced run measures the end-to-end metrics.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the process-wide trace
/// epoch, so spans of different threads share one clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.predict`.
    pub name: &'static str,
    /// Start, ns since the trace epoch.
    pub start: u64,
    /// End, ns since the trace epoch (0 while open).
    pub end: u64,
    /// Index of the enclosing span in the same buffer.
    pub parent: Option<usize>,
    /// Request this span belongs to.
    pub req: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    crate::stats::nanos(epoch().elapsed())
}

/// Handle of an open span; `None` when tracing is off or the buffer is full.
pub type SpanId = Option<usize>;

/// One thread's span buffer.
pub struct SpanBuf {
    enabled: bool,
    cap: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanBuf {
    /// A buffer that records up to `cap` spans when `enabled`.
    pub fn new(enabled: bool, cap: usize) -> Self {
        epoch();
        Self {
            enabled,
            cap,
            spans: Vec::with_capacity(if enabled { cap.min(1 << 16) } else { 0 }),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str, req: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        if self.spans.len() >= self.cap {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: now_ns(),
            end: 0,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`SpanBuf::begin`].
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if let Some(id) = id {
            self.spans[id].end = now_ns();
            if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
                self.open.truncate(pos);
            }
        }
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn time<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, req);
        let out = f();
        self.end(id);
        out
    }

    /// True when the next request may not fit: a traced pass stops here,
    /// so every request it times is traced.
    pub fn full(&self) -> bool {
        self.enabled && self.spans.len() + 64 >= self.cap
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another buffer's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: SpanBuf) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start, s.end, s.req
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Overlapping children (work a span fans
/// out to several threads) are merged first, so covered time is never
/// counted twice; children are clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur().saturating_sub(covered)
        })
        .collect()
}

/// Per-name self times in nanoseconds.
pub fn self_times_by_name(spans: &[Span]) -> HashMap<&'static str, Vec<u64>> {
    let mut by_name: HashMap<&'static str, Vec<u64>> = HashMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        by_name.entry(s.name).or_default().push(t);
    }
    by_name
}

/// How a set of request spans (the roots, names starting with `req.`)
/// splits into layer self time and time no layer span covers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Attribution {
    /// Summed duration of the request spans, ns.
    pub request_ns: u64,
    /// Summed self time of every descendant span, ns.
    pub layer_ns: u64,
    /// Summed self time of the request spans themselves, ns.
    pub unattributed_ns: u64,
    /// Requests whose descendants' self times plus the remainder did not
    /// sum exactly to the request's duration (overlapping descendants).
    pub unbalanced: u64,
}

impl Attribution {
    /// Share of request time no layer span covers.
    pub fn unattributed_share(&self) -> f64 {
        if self.request_ns == 0 {
            0.0
        } else {
            self.unattributed_ns as f64 / self.request_ns as f64
        }
    }
}

/// Attributes every request span's time to its descendants' self times
/// and an unattributed remainder.
pub fn attribute(spans: &[Span]) -> Attribution {
    let selfs = self_times(spans);
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    let mut descendant_self: HashMap<usize, u64> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_some() {
            *descendant_self.entry(root_of(i)).or_default() += selfs[i];
        }
    }
    let mut a = Attribution::default();
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_none() && s.name.starts_with("req.") {
            let layers = descendant_self.get(&i).copied().unwrap_or(0);
            a.request_ns += s.dur();
            a.layer_ns += layers;
            a.unattributed_ns += selfs[i];
            if layers + selfs[i] != s.dur() {
                a.unbalanced += 1;
            }
        }
    }
    a
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
            req: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("req.op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 15, 25, Some(1)),
            span("c", 50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
        let a = attribute(&spans);
        assert_eq!(a.request_ns, 100);
        assert_eq!(a.layer_ns + a.unattributed_ns, 100);
        assert_eq!(a.unattributed_ns, 50);
        assert_eq!(a.unbalanced, 0);
        assert_eq!(a.unattributed_share(), 0.5);
    }

    #[test]
    fn overlapping_children_are_not_counted_twice() {
        let spans = vec![
            span("req.op", 0, 100, None),
            span("x", 10, 60, Some(0)),
            span("y", 40, 80, Some(0)),
            // Reaches past the parent's end: only the inside part counts.
            span("z", 90, 130, Some(0)),
        ];
        // Covered: [10, 80) and [90, 100) = 80 ns.
        assert_eq!(self_times(&spans)[0], 20);
        // The children's self times overlap, so the request cannot balance.
        assert_eq!(attribute(&spans).unbalanced, 1);
    }

    #[test]
    fn contained_child_inside_another_child_interval() {
        let spans = vec![
            span("req.op", 0, 100, None),
            span("x", 10, 90, Some(0)),
            span("y", 20, 30, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn buffer_nests_spans_and_rebases_on_merge() {
        let mut a = SpanBuf::new(true, 16);
        let outer = a.begin("req.op", 7);
        let inner = a.time("layer", 7, || a_len(3));
        assert_eq!(inner, 3);
        a.end(outer);
        assert_eq!(a.spans()[1].parent, Some(0));
        assert!(a.spans()[0].end >= a.spans()[1].end);

        let mut b = SpanBuf::new(true, 16);
        let o = b.begin("req.op", 8);
        let i = b.begin("layer", 8);
        b.end(i);
        b.end(o);
        a.absorb(b);
        assert_eq!(a.spans()[3].parent, Some(2));
        let attr = attribute(a.spans());
        assert_eq!(attr.unbalanced, 0);
        assert_eq!(attr.layer_ns + attr.unattributed_ns, attr.request_ns);
    }

    fn a_len(n: usize) -> usize {
        n
    }

    #[test]
    fn disabled_and_full_buffers_record_nothing() {
        let mut off = SpanBuf::new(false, 16);
        let id = off.begin("x", 0);
        off.end(id);
        assert!(off.spans().is_empty());
        let mut full = SpanBuf::new(true, 1);
        let a = full.begin("a", 0);
        let b = full.begin("b", 0);
        full.end(b);
        full.end(a);
        assert_eq!(full.spans().len(), 1);
        assert!(full.full());
    }
}
