//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer (see `adapter`), kept in memory, and written out when the run
//! ends. A span's *self time* is its duration minus the part of its
//! interval that its child spans cover, on any thread: a query root that
//! fans out over the worker pool is charged only for the time no child of
//! it runs anywhere.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. `parent == 0` marks a root.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub query: u32,
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans and counters from every thread of one traced stream.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
    samples: Mutex<BTreeMap<&'static str, Vec<f64>>>,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD_ID: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            samples: Mutex::new(BTreeMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span and returns its result with the span's id.
    fn record<R>(
        &self,
        name: &'static str,
        parent: u32,
        query: u32,
        f: impl FnOnce(u32) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let r = f(id);
        let end_ns = self.now_ns();
        let span = Span {
            id,
            parent,
            query,
            name,
            thread: THREAD_ID.with(|t| *t),
            start_ns,
            end_ns,
        };
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking query")
            .push(span);
        r
    }

    fn add(&self, name: &'static str, n: f64) {
        *self
            .counters
            .lock()
            .expect("counter lock poisoned by a panicking query")
            .entry(name)
            .or_insert(0.0) += n;
    }

    fn sample(&self, name: &'static str, v: f64) {
        self.samples
            .lock()
            .expect("sample lock poisoned by a panicking query")
            .entry(name)
            .or_default()
            .push(v);
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .lock()
            .expect("counter lock poisoned by a panicking query")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.samples
            .lock()
            .expect("sample lock poisoned by a panicking query")
            .get(name)
            .cloned()
            .unwrap_or_default()
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span buffer lock poisoned by a panicking query"),
        )
    }
}

/// Where a call sits in the trace: disabled (`None`), or the tracer plus
/// the enclosing span and query id. Copied into the closures the adapter
/// hands to the library, so spans on pool workers keep their parent.
#[derive(Clone, Copy)]
pub struct Scope<'a>(Option<(&'a Tracer, u32, u32)>);

impl<'a> Scope<'a> {
    pub const OFF: Scope<'static> = Scope(None);

    /// The root scope of query `query` (no span yet).
    pub fn query(tracer: Option<&'a Tracer>, query: u32) -> Self {
        Scope(tracer.map(|t| (t, 0, query)))
    }

    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Runs `f` in a child span named `name`; `f` gets the child's scope.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce(Scope<'a>) -> R) -> R {
        match self.0 {
            None => f(Scope(None)),
            Some((t, parent, query)) => {
                t.record(name, parent, query, |id| f(Scope(Some((t, id, query)))))
            }
        }
    }

    /// Adds `n` to a counter (no-op when tracing is off).
    pub fn add(&self, name: &'static str, n: f64) {
        if let Some((t, _, _)) = self.0 {
            t.add(name, n);
        }
    }

    /// Records one sample of a distribution (no-op when tracing is off).
    pub fn sample(&self, name: &'static str, v: f64) {
        if let Some((t, _, _)) = self.0 {
            t.sample(name, v);
        }
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time (seconds) summed per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let child_ns = children
            .get_mut(&s.id)
            .map_or(0, |c| covered(c, s.start_ns, s.end_ns));
        let self_ns = (s.end_ns - s.start_ns).saturating_sub(child_ns);
        *out.entry(s.name).or_insert(0.0) += self_ns as f64 * 1e-9;
    }
    out
}

/// The spans as a Chrome `trace_event` document (timestamps in µs).
pub fn chrome_json(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"query\":{}}}}}",
                s.name,
                s.thread,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                s.query
            )
        })
        .collect();
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            query: 1,
            name,
            thread: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children (as on two pool workers) cover 30..90,
        // and a third covers 95..100 of the root.
        let spans = [
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 30, 70),
            span(3, 1, "b", 50, 90),
            span(4, 1, "a", 95, 120), // clipped to the parent's end
        ];
        let t = self_times(&spans);
        assert!((t["root"] - 35e-9).abs() < 1e-15);
        assert!((t["a"] - 65e-9).abs() < 1e-15);
        assert!((t["b"] - 40e-9).abs() < 1e-15);
    }
}
