//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records a name, its start and end relative to the tracer's
//! origin, and the span that was open when it started. Spans stay in
//! memory until the run ends; [`Tracer::to_jsonl`] then renders them one
//! per line. A span's self time is its duration minus the time its
//! direct children cover (children never overlap: the benchmark is
//! single-threaded).

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer call this span wraps, e.g. `market.shard_round`.
    pub name: &'static str,
    /// Nanoseconds from the tracer's origin to the span's start.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's origin to the span's end.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's wall time in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records nested spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` and returns its result together
    /// with the span's wall time in seconds. Spans opened by `f` become
    /// this span's children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[index].end_ns = end_ns;
        (result, self.spans[index].secs())
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The self time of span `index`: its duration minus its children's.
    pub fn self_secs(&self, index: usize) -> f64 {
        let children: f64 =
            self.spans.iter().filter(|s| s.parent == Some(index)).map(Span::secs).sum();
        self.spans[index].secs() - children
    }

    /// The share of the first span named `name` that its descendants
    /// account for: Σ descendant self time ÷ the span's wall time. With
    /// non-overlapping children this is `1 − self ÷ wall`.
    pub fn coverage(&self, name: &str) -> f64 {
        let Some(index) = self.spans.iter().position(|s| s.name == name) else {
            return 0.0;
        };
        let wall = self.spans[index].secs();
        if wall <= 0.0 {
            return 0.0;
        }
        1.0 - self.self_secs(index) / wall
    }

    /// Renders every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                span.name, span.start_ns, span.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut tracer = Tracer::default();
        let ((), outer) = tracer.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(5)));
            t.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(outer >= spans[1].secs() + spans[2].secs());
        assert!(tracer.self_secs(0) >= 0.0);
        let coverage = tracer.coverage("outer");
        assert!(coverage > 0.5 && coverage <= 1.0, "coverage {coverage}");
        assert_eq!(tracer.to_jsonl().lines().count(), 3);
    }
}
