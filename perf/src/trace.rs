//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded only by the benchmark's own code, at the boundary
//! where it calls a layer's public function; nothing inside the program
//! is instrumented. They stay in memory and are written out at exit.

use argus_orchestrator::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: String,
    /// The layer the call enters (`faults`, `orchestrator`, `server`, ...).
    pub layer: &'static str,
    /// The benchmark workload that made the call.
    pub workload: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Span recorder; disabled tracers record nothing and cost one branch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index (`None` when disabled). Close
    /// it with [`Tracer::end`]; children pass the index as `parent`.
    pub fn begin(
        &self,
        name: impl Into<String>,
        layer: &'static str,
        workload: &'static str,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("tracer lock poisoned by a panicking span");
        spans.push(Span { name: name.into(), layer, workload, start_ns, end_ns: start_ns, parent });
        Some(spans.len() - 1)
    }

    /// Closes span `id` (no-op for `None`).
    pub fn end(&self, id: Option<usize>) {
        if let Some(id) = id {
            let end_ns = self.now_ns();
            self.spans.lock().expect("tracer lock poisoned by a panicking span")[id].end_ns =
                end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: impl Into<String>,
        layer: &'static str,
        workload: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, layer, workload, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned by a panicking span").clone()
    }
}

/// Self time per `(workload, layer)`, in seconds: each span's duration
/// minus the part of it its direct children cover.
pub fn self_seconds_by_layer(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(c);
        *out.entry((s.workload, s.layer)).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// A span as a JSON object for the output file.
pub fn span_json(s: &Span) -> Json {
    Json::obj()
        .set("name", s.name.as_str())
        .set("layer", s.layer)
        .set("workload", s.workload)
        .set("start_ns", s.start_ns)
        .set("end_ns", s.end_ns)
        .set("parent", s.parent.map_or(Json::Null, Json::from))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: layer.into(), layer, workload: "w", start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            span("bench", 0, 100, None),
            span("faults", 10, 40, Some(0)),
            span("faults", 50, 70, Some(0)),
            span("machine", 55, 60, Some(2)),
        ];
        let by = self_seconds_by_layer(&spans);
        assert!((by[&("w", "bench")] - 50e-9).abs() < 1e-15);
        assert!((by[&("w", "faults")] - 45e-9).abs() < 1e-15);
        assert!((by[&("w", "machine")] - 5e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", "bench", "w", None, || 7), 7);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let outer = t.begin("outer", "bench", "w", None);
        t.span("inner", "faults", "w", outer, || ());
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
