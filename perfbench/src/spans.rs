//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the self-time split computed from them.
//!
//! A span's name is `<layer>.<call>`. Its self time is its duration minus
//! the part of its interval its child spans cover (the union of the child
//! intervals, so children running in parallel are not counted twice), minus
//! `inner_nanos`: time a child layer spent inside the span that was summed
//! by counters rather than recorded as spans (per-decision scheduler calls).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in the trace.
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// What the call worked on (a benchmark or technique), or empty.
    pub label: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end: u64,
    /// Time of `inner_layer` inside this span, summed by counters.
    pub inner_nanos: u64,
    /// The layer `inner_nanos` belongs to.
    pub inner_layer: &'static str,
}

impl Span {
    /// The layer this span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans from any thread.
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
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span recording never panics")
    }

    /// Run `f` inside a span named `name` under `parent`. `f` gets the new
    /// span's id (to parent further spans) and returns its result plus the
    /// nanoseconds of `inner_layer` time it summed by counters.
    pub fn span_with_inner<R>(
        &self,
        name: &'static str,
        label: &str,
        parent: Option<usize>,
        inner_layer: &'static str,
        f: impl FnOnce(usize) -> (R, u64),
    ) -> R {
        let id = {
            let start = self.now();
            let mut spans = self.spans();
            let id = spans.len();
            spans.push(Span {
                id,
                parent,
                name,
                label: label.to_string(),
                start,
                end: 0,
                inner_nanos: 0,
                inner_layer,
            });
            id
        };
        let (result, inner_nanos) = f(id);
        let end = self.now();
        let mut spans = self.spans();
        spans[id].end = end;
        spans[id].inner_nanos = inner_nanos;
        result
    }

    /// Run `f` inside a span named `name` under `parent`.
    pub fn span<R>(
        &self,
        name: &'static str,
        label: &str,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        self.span_with_inner(name, label, parent, "", |id| (f(id), 0))
    }

    /// Every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans().clone()
    }
}

/// Self time of every span, indexed by span id.
pub fn self_nanos(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration().saturating_sub(covered + s.inner_nanos)
        })
        .collect()
}

/// Self time summed per layer, in seconds; counter-summed inner time is
/// credited to its own layer.
pub fn layer_self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_nanos(spans)) {
        *out.entry(s.layer()).or_insert(0.0) += own as f64 / 1e9;
        if s.inner_nanos > 0 {
            *out.entry(s.inner_layer).or_insert(0.0) += s.inner_nanos as f64 / 1e9;
        }
    }
    out
}

/// The spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"label\":{},\"start_ns\":{},\"end_ns\":{},\"inner_ns\":{},\"inner_layer\":\"{}\"}}",
            s.id,
            s.name,
            sct_core::telemetry::json_string(&s.label),
            s.start,
            s.end,
            s.inner_nanos,
            s.inner_layer,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            label: String::new(),
            start,
            end,
            inner_nanos: 0,
            inner_layer: "",
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let mut spans = vec![
            span(0, None, "bench.workload", 0, 100),
            span(1, Some(0), "explore.a", 10, 60),
            span(2, Some(0), "explore.b", 40, 80),
            span(3, Some(1), "explore.c", 20, 30),
        ];
        spans[1].inner_nanos = 5;
        spans[1].inner_layer = "scheduler";
        assert_eq!(self_nanos(&spans), vec![30, 35, 40, 10]);
        let layers = layer_self_seconds(&spans);
        assert_eq!(layers["bench"], 30e-9);
        assert_eq!(layers["scheduler"], 5e-9);
    }
}
