//! In-memory spans for the traced run, written out as JSON at exit.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a span inside its [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<SpanId>,
    start: Duration,
    end: Duration,
}

/// Collects the spans of one run. All spans share the run's workload name
/// as their trace identifier.
#[derive(Debug)]
pub struct Tracer {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Self { workload: workload.to_string(), epoch: Instant::now(), spans: Vec::new() }
    }

    /// Opens a span under `parent`; it lasts until [`Tracer::close`].
    pub fn open(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        let start = self.epoch.elapsed();
        self.spans.push(Span { name: name.to_string(), parent, start, end: start });
        SpanId(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id.0].end = self.epoch.elapsed();
    }

    /// Runs `f` inside a new span under `parent`; `f` gets the span's id so
    /// it can open children.
    pub fn span<R>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(&mut Tracer, SpanId) -> R,
    ) -> (R, SpanId) {
        let id = self.open(name, parent);
        let out = f(self, id);
        self.close(id);
        (out, id)
    }

    /// Records a span whose duration was measured elsewhere (a job's
    /// reported wall), starting `offset` after `parent` started.
    pub fn reported(
        &mut self,
        name: &str,
        parent: SpanId,
        offset: Duration,
        wall: Duration,
    ) -> SpanId {
        let start = self.spans[parent.0].start + offset;
        self.spans.push(Span {
            name: name.to_string(),
            parent: Some(parent),
            start,
            end: start + wall,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn seconds(&self, id: SpanId) -> f64 {
        (self.spans[id.0].end - self.spans[id.0].start).as_secs_f64()
    }

    /// Summed duration of the direct children of `id`.
    pub fn children_seconds(&self, id: SpanId) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].parent == Some(id))
            .map(|i| self.seconds(SpanId(i)))
            .sum()
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.0.to_string());
            let _ = write!(
                s,
                "  {{\"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"workload\": \"{}\", \"start_s\": {:.9}, \"end_s\": {:.9}}}",
                span.name,
                self.workload,
                span.start.as_secs_f64(),
                span.end.as_secs_f64()
            );
            s.push_str(if i + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        s.push_str("]\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_children_sum_inside_their_parent() {
        let mut t = Tracer::new("w");
        let ((), root) = t.span("root", None, |t, root| {
            t.span("a", Some(root), |_, _| std::thread::sleep(Duration::from_millis(5)));
            t.span("b", Some(root), |_, _| std::thread::sleep(Duration::from_millis(5)));
        });
        assert!(t.seconds(root) >= 0.010);
        assert!(t.children_seconds(root) >= 0.010);
        assert!(t.children_seconds(root) <= t.seconds(root));
        let reported = t.reported("job", root, Duration::from_millis(1), Duration::from_millis(2));
        assert!((t.seconds(reported) - 0.002).abs() < 1e-9);
        let json = t.to_json();
        assert_eq!(json.matches("\"workload\": \"w\"").count(), 4);
        assert!(json.contains("\"id\": 1, \"parent\": 0, \"name\": \"a\""));
        assert!(json.contains("\"id\": 0, \"parent\": null"));
    }
}
