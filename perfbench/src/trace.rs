//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (name, start, end, parent, and an iteration or request id), kept in
//! memory, and written out once the run ends. A layer's self time is its
//! span's duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the tracer.
    pub id: usize,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer name, e.g. `stats.redundancy`.
    pub name: &'static str,
    /// Iteration number or request id the span belongs to.
    pub key: u64,
    /// Start, nanoseconds since the origin.
    pub start_ns: u64,
    /// End, nanoseconds since the origin.
    pub end_ns: u64,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, key: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            key,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Record a span timed elsewhere (for instance on another thread),
    /// nested under the innermost open span.
    pub fn record(&mut self, name: &'static str, key: u64, start: Instant, end: Instant) {
        let id = self.spans.len();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            key,
            start_ns,
            end_ns,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"key\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.key, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per span: its duration minus the union of its direct
/// children's intervals, clipped to its own interval.
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
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self time summed by span name, nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: usize,
        parent: Option<usize>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            id,
            parent,
            name,
            key: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // root [0,100) with children [10,30) and [50,60); the first child
        // has its own child [15,20).
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 30),
            span(2, Some(1), "a.inner", 15, 20),
            span(3, Some(0), "b", 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![70, 15, 5, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children recorded from other threads can overlap each other or
        // overhang the parent; only the covered part of the parent counts.
        let spans = vec![
            span(0, None, "root", 100, 200),
            span(1, Some(0), "x", 90, 130),
            span(2, Some(0), "x", 120, 150),
            span(3, Some(0), "y", 190, 250),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["root"], 40);
        assert_eq!(by_name["x"], 40 + 30);
    }

    #[test]
    fn tracer_nests_spans() {
        let mut t = Tracer::new();
        let v = t.span("outer", 1, |t| t.span("inner", 2, |_| 7));
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].key, 2);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
