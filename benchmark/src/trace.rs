//! Span recording from the benchmark's side of each layer boundary.
//!
//! The program under test is not instrumented: the traced run calls each crate's
//! public functions itself (see `layers`) and brackets every call with a span. Spans
//! stay in memory until the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call into a layer. `parent == 0` marks a root span; ids start at 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// Spans of one query share this identifier.
    pub query_id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span recorder for one thread. A disabled tracer records nothing, so
/// the same call sites serve the with-spans and without-spans passes that
/// `trace.overhead_frac` compares.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: vec![],
            open: vec![],
        }
    }

    /// Opens a span under the innermost open one and returns its handle.
    pub fn begin(&mut self, name: &'static str, query_id: u64) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            query_id,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes the span `begin` returned. Spans close innermost first.
    pub fn end(&mut self, id: u32) {
        if !self.enabled {
            return;
        }
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize - 1].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span name: each span's duration minus the part of it its direct
/// children cover, summed over all spans of that name. Nanoseconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut covered = vec![0u64; spans.len() + 1];
    for span in spans {
        if span.parent != 0 {
            let parent = &spans[span.parent as usize - 1];
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            covered[span.parent as usize] += end.saturating_sub(start);
        }
    }
    let mut out = BTreeMap::new();
    for span in spans {
        let duration = span.end_ns.saturating_sub(span.start_ns);
        *out.entry(span.name).or_insert(0) += duration.saturating_sub(covered[span.id as usize]);
    }
    out
}

/// Renders spans as a JSON array of objects.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"id\":{},\"parent\":{},\"query_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.query_id, s.name, s.start_ns, s.end_ns
        ));
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            query_id: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(1, 0, "query", 0, 100),
            span(2, 1, "parse", 10, 30),
            span(3, 1, "execute", 40, 90),
            span(4, 3, "scan", 50, 70),
            span(5, 0, "query", 200, 260),
            span(6, 5, "parse", 200, 210),
        ];
        let times = self_times(&spans);
        // query: (100 - 20 - 50) + (60 - 10); execute: 50 - 20 (grandchildren are the
        // child's to subtract, not the root's).
        assert_eq!(times["query"], 30 + 50);
        assert_eq!(times["parse"], 20 + 10);
        assert_eq!(times["execute"], 30);
        assert_eq!(times["scan"], 20);
        let total: u64 = times.values().sum();
        assert_eq!(total, 100 + 60, "self times partition the root spans");
    }

    #[test]
    fn child_overhang_is_clipped_to_the_parent() {
        let spans = vec![span(1, 0, "outer", 10, 20), span(2, 1, "inner", 5, 15)];
        assert_eq!(self_times(&spans)["outer"], 5);
    }

    #[test]
    fn tracer_nests_and_a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.begin("outer", 7);
        let inner = tracer.begin("inner", 7);
        tracer.end(inner);
        tracer.end(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (0, 1));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(spans_json(spans).contains("\"name\":\"inner\""));

        let mut off = Tracer::new(false);
        let id = off.begin("outer", 1);
        off.end(id);
        assert!(off.spans().is_empty());
    }
}
