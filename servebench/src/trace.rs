//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start and an end (ns since the run began), an
//! optional parent, and a request id that the spans of one frame or
//! query share. Each thread records into its own [`Tracer`]; the run
//! merges them at the end and derives a per-layer self-time table. With
//! tracing off every call is a no-op.

use std::collections::BTreeMap;
use std::time::Instant;

use cots_core::json::Json;

/// One recorded span.
pub struct Span {
    /// Layer call, e.g. `serve.bin1.encode`.
    pub name: &'static str,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
    /// Index of the parent span in the same tracer.
    pub parent: Option<usize>,
    /// Frame or query id shared by the spans of one request.
    pub req: u64,
}

/// A per-thread span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Option<Vec<Span>>,
}

/// Handle to an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Tracer {
    /// A recorder whose times count from `epoch`; records nothing unless
    /// `on`.
    pub fn new(epoch: Instant, on: bool) -> Self {
        Self {
            epoch,
            spans: on.then(Vec::new),
        }
    }

    /// A recorder for another thread, sharing this one's epoch.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.epoch, self.on())
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.spans.is_some()
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span now.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, now, now, parent, req)
    }

    /// Close a span now.
    pub fn end(&mut self, id: SpanId) {
        let now = self.spans.is_some().then(Instant::now);
        if let (Some(spans), Some(i), Some(now)) = (self.spans.as_mut(), id, now) {
            spans[i].end_ns = now.saturating_duration_since(self.epoch).as_nanos() as u64;
        }
    }

    /// Record a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        req: u64,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let spans = self.spans.as_mut()?;
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        Some(spans.len() - 1)
    }

    /// Time `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, req);
        let r = f();
        self.end(id);
        r
    }

    /// Append another thread's spans (re-basing its parent indices).
    pub fn absorb(&mut self, other: Tracer) {
        if let (Some(mine), Some(theirs)) = (self.spans.as_mut(), other.spans) {
            let base = mine.len();
            mine.extend(theirs.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }
}

/// One row of the self-time table.
#[derive(Default)]
pub struct LayerRow {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans, ns.
    pub self_ns: u64,
}

/// Aggregate spans by name. Children of one span never overlap (each
/// thread records its calls in sequence), so a span's self time is its
/// duration minus its children's durations.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerRow> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(child_ns) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let row = rows.entry(s.name).or_default();
        row.count += 1;
        row.total_ns += dur;
        row.self_ns += dur.saturating_sub(kids);
    }
    rows
}

/// The spans as JSON, `[name, start_ns, end_ns, parent, req]` each.
pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::Str(s.name.to_string()),
                    Json::UInt(s.start_ns),
                    Json::UInt(s.end_ns),
                    s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                    Json::UInt(s.req),
                ])
            })
            .collect(),
    )
}
