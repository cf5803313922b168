//! In-memory span recording around the benchmark's calls into each layer.
//!
//! A span has a name, start and end (nanoseconds since the tracer's
//! origin), the span that caused it, and optionally the request it
//! belongs to. Spans are kept in a `Vec` and written out once the run
//! ends. A disabled tracer reads no clock and stores nothing, so the
//! untraced runs that give the end-to-end figures pay nothing for it.
//! Tracing inside the program is not done here: every span wraps a
//! public entry point called by the benchmark.

use std::time::Instant;

use mcs_core::engine::{BatchContext, BatchOutput, ExecutionPolicy, Halt, Serial};
use mcs_core::Problem;

use crate::json::{count, obj, JsonValue};

/// Handle of an open or closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub u64);

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within one tracer.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer boundary name (`build_problem`, `transport_batch`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// Request the span belongs to (serve spans of one request share it).
    pub request: Option<u64>,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    id_base: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer::with_origin(enabled, Instant::now(), 0)
    }

    /// A recorder sharing `origin` with other tracers (one per thread),
    /// whose ids start at `id_base` so merged spans stay unique.
    pub fn with_origin(enabled: bool, origin: Instant, id_base: u64) -> Tracer {
        Tracer {
            enabled,
            origin,
            id_base,
            next: 0,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> SpanId {
        let id = self.id_base + self.next;
        self.next += 1;
        if self.enabled {
            self.spans.push(Span {
                id,
                parent: parent.map(|p| p.0),
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                request,
            });
        }
        SpanId(id)
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let span = self
            .spans
            .iter_mut()
            .rev()
            .find(|s| s.id == id.0)
            .expect("closing a span this tracer opened");
        span.end_ns = now;
    }

    /// Record `f` as one span.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, None);
        let out = f();
        self.end(id);
        out
    }

    /// Take the spans out (to merge tracers or write them).
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Spans named `name`.
pub fn named<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
    spans.iter().filter(move |s| s.name == name)
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover (overlapping children are counted once).
pub fn self_seconds(spans: &[Span], id: u64) -> f64 {
    let span = spans
        .iter()
        .find(|s| s.id == id)
        .expect("self time of a recorded span");
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start_ns;
    for (a, b) in children {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (span.end_ns - span.start_ns - covered) as f64 * 1e-9
}

/// Spans as JSON, for the trace file.
pub fn spans_json(spans: &[Span]) -> JsonValue {
    JsonValue::Array(
        spans
            .iter()
            .map(|s| {
                let mut fields = vec![
                    ("id", count(s.id)),
                    ("name", JsonValue::Str(s.name.to_string())),
                    ("start_ns", count(s.start_ns)),
                    ("end_ns", count(s.end_ns)),
                ];
                if let Some(p) = s.parent {
                    fields.push(("parent", count(p)));
                }
                if let Some(r) = s.request {
                    fields.push(("request", count(r)));
                }
                obj(fields)
            })
            .collect(),
    )
}

/// [`Serial`] with a `transport_batch` span around every batch: the
/// benchmark-side view of the engine's batch loop.
pub struct TracedSerial<'t> {
    inner: Serial,
    tracer: &'t mut Tracer,
    parent: SpanId,
}

impl<'t> TracedSerial<'t> {
    /// Wrap a fresh [`Serial`]; batch spans hang off `parent`.
    pub fn new(tracer: &'t mut Tracer, parent: SpanId) -> Self {
        TracedSerial {
            inner: Serial::new(),
            tracer,
            parent,
        }
    }
}

impl ExecutionPolicy for TracedSerial<'_> {
    fn describe(&self) -> String {
        format!("{} (traced)", self.inner.describe())
    }

    fn transport_batch(
        &mut self,
        problem: &Problem,
        ctx: &BatchContext<'_>,
    ) -> Result<BatchOutput, Halt> {
        let id = self
            .tracer
            .begin("transport_batch", Some(self.parent), None);
        let out = self.inner.transport_batch(problem, ctx);
        self.tracer.end(id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),  // overlaps span 1
            span(3, Some(0), 90, 120), // runs past the parent's end
            span(4, Some(1), 12, 14),  // grandchild: not the root's child
        ];
        // Covered: [10, 50) + [90, 100) = 50 ns.
        assert!((self_seconds(&spans, 0) - 50e-9).abs() < 1e-15);
        assert!((self_seconds(&spans, 1) - 18e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let a = t.begin("a", None, None);
        t.scope("b", Some(a), || ());
        t.end(a);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn spans_nest_and_close() {
        let mut t = Tracer::with_origin(true, Instant::now(), 1 << 32);
        let root = t.begin("root", None, Some(7));
        t.scope("child", Some(root), || std::hint::black_box(3 + 4));
        t.end(root);
        let s = t.into_spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].id, 1 << 32);
        assert_eq!(s[1].parent, Some(1 << 32));
        assert_eq!(s[0].request, Some(7));
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(named(&s, "child").count(), 1);
    }
}
