//! In-memory span tracer and the self-time summary.
//!
//! Spans are recorded from the benchmark's own code, around calls into a
//! layer's public functions; nothing inside the program is instrumented.
//! Every span carries its name, start and end (ns since the tracer was
//! made), its parent and a request id. Spans stay in memory until the run
//! ends and are then written out as JSON lines.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans for one thread of work. Methods take `&self` so the
/// tracer can be shared by the operator wrappers PCG calls into.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    request: Cell<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            request: Cell::new(0),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the request id stamped on spans opened from now on.
    pub fn set_request(&self, request: u64) {
        self.request.set(request);
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.borrow().last().copied(),
                request: self.request.get(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(id);
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[id].start_ns = start;
        spans[id].end_ns = end;
        out
    }

    /// A copy of the spans recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-name totals: (summed duration, summed self time, count), in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub total_s: f64,
    pub self_s: f64,
    pub count: usize,
}

pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        let e = out.entry(s.name).or_default();
        e.total_s += s.duration_ns() as f64 * 1e-9;
        e.self_s += own as f64 * 1e-9;
        e.count += 1;
    }
    out
}

/// Writes spans as JSON lines: `{"id", "name", "start_ns", "end_ns",
/// "parent", "request"}`.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_only() {
        // root [0,100) has children [10,30) and [25,60) (overlapping, as
        // spans from two lanes could be) and a grandchild [40,50) that
        // must not be subtracted from the root a second time.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 25, 60, Some(0)),
            span("c", 40, 50, Some(2)),
            span("d", 90, 120, Some(0)), // clipped to the parent's end
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 20, 25, 10, 30]);
    }

    #[test]
    fn summary_groups_by_name() {
        let spans = vec![
            span("root", 0, 100, None),
            span("leaf", 0, 40, Some(0)),
            span("leaf", 50, 70, Some(0)),
        ];
        let s = summarize(&spans);
        assert_eq!(s["leaf"].count, 2);
        assert!((s["leaf"].self_s - 60e-9).abs() < 1e-15);
        assert!((s["root"].self_s - 40e-9).abs() < 1e-15);
        assert!((s["root"].total_s - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_spans_and_stamps_requests() {
        let t = Tracer::default();
        t.set_request(7);
        t.span("outer", || t.span("inner", || ()));
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.request == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
