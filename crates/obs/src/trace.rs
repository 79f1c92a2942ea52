//! Span tracing: RAII guards record `(name, args, thread, start, dur)`
//! into a bounded ring on drop; the ring exports as Chrome
//! `trace_event` JSON (complete `"ph": "X"` events) that loads directly
//! in `chrome://tracing` and Perfetto.

use crate::metrics::Registry;
use crate::unpoisoned;
use serde_json::Value;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One completed span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Span name (a static call-site label, e.g. `"solve_group"`).
    pub name: &'static str,
    /// Rendered arguments, call-site order.
    pub args: Vec<(&'static str, String)>,
    /// Process-wide small thread index.
    pub tid: u32,
    /// Start, nanoseconds since the registry epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A process-wide small integer id for the current thread: the `tid`
/// of spans and events.
pub(crate) fn thread_index() -> u32 {
    use std::cell::Cell;
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TID: Cell<u32> = const { Cell::new(u32::MAX) };
    }
    TID.with(|t| {
        let mut id = t.get();
        if id == u32::MAX {
            id = NEXT.fetch_add(1, Ordering::Relaxed) as u32;
            t.set(id);
        }
        id
    })
}

/// Bounded record storage (the span ring and the event ring): the
/// oldest record is dropped once `cap` is reached, and the drop count
/// is surfaced in the export.
pub(crate) struct Ring<T> {
    cap: usize,
    inner: Mutex<RingInner<T>>,
}

struct RingInner<T> {
    items: VecDeque<T>,
    dropped: u64,
}

impl<T: Clone> Ring<T> {
    pub(crate) fn new(cap: usize) -> Ring<T> {
        Ring {
            cap: cap.max(1),
            inner: Mutex::new(RingInner {
                items: VecDeque::new(),
                dropped: 0,
            }),
        }
    }

    pub(crate) fn push(&self, rec: T) {
        let mut inner = unpoisoned(self.inner.lock());
        if inner.items.len() == self.cap {
            inner.items.pop_front();
            inner.dropped += 1;
        }
        inner.items.push_back(rec);
    }

    pub(crate) fn drain_copy(&self) -> Vec<T> {
        unpoisoned(self.inner.lock())
            .items
            .iter()
            .cloned()
            .collect()
    }

    /// Records evicted because the ring was full.
    pub(crate) fn dropped(&self) -> u64 {
        unpoisoned(self.inner.lock()).dropped
    }
}

/// RAII span guard: records on drop. A disabled span is a `None` and
/// costs nothing beyond its construction branch.
pub struct Span {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    reg: Arc<Registry>,
    name: &'static str,
    args: Vec<(&'static str, String)>,
    start: Instant,
}

impl Span {
    /// The no-op span handed out when no sink is installed.
    pub fn disabled() -> Span {
        Span { active: None }
    }

    pub(crate) fn start(
        reg: Arc<Registry>,
        name: &'static str,
        args: Vec<(&'static str, String)>,
    ) -> Span {
        reg.note_call();
        Span {
            active: Some(ActiveSpan {
                reg,
                name,
                args,
                start: Instant::now(),
            }),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(a) = self.active.take() {
            let dur_ns = a.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            let start_ns = a
                .start
                .duration_since(a.reg.epoch())
                .as_nanos()
                .min(u64::MAX as u128) as u64;
            let rec = SpanRecord {
                name: a.name,
                args: a.args,
                tid: thread_index(),
                start_ns,
                dur_ns,
            };
            if let Some(sink) = a.reg.export() {
                sink.append(&crate::export::span_line(&rec));
            }
            a.reg.trace_ring().push(rec);
        }
    }
}

/// Render one span as a Chrome complete event (`"ph": "X"`).
fn event_json(s: &SpanRecord) -> Value {
    let args: Vec<(String, Value)> = s
        .args
        .iter()
        .map(|(k, v)| (k.to_string(), Value::Str(v.clone())))
        .collect();
    Value::Object(vec![
        ("name".to_string(), Value::Str(s.name.to_string())),
        ("cat".to_string(), Value::Str("lightyear".to_string())),
        ("ph".to_string(), Value::Str("X".to_string())),
        ("pid".to_string(), Value::UInt(1)),
        ("tid".to_string(), Value::UInt(s.tid as u64)),
        // trace_event timestamps are microseconds; keep sub-us
        // precision as a fraction so short solver spans stay visible.
        ("ts".to_string(), Value::Float(s.start_ns as f64 / 1_000.0)),
        (
            "dur".to_string(),
            Value::Float((s.dur_ns as f64 / 1_000.0).max(0.001)),
        ),
        ("args".to_string(), Value::Object(args)),
    ])
}

impl Registry {
    /// The JSON-object trace format Perfetto and `chrome://tracing`
    /// load directly: `{"traceEvents": [...], ...}`, sorted by start
    /// time. Extra top-level keys are ignored by viewers, which is what
    /// makes the profile report self-contained (metrics ride alongside
    /// the trace).
    pub fn chrome_trace(&self) -> Value {
        self.chrome_trace_last(usize::MAX)
    }

    /// Like [`Registry::chrome_trace`] but keeping only the `n` most
    /// recently *completed* spans (the `/trace?last=N` view — a bounded
    /// answer no matter how long the daemon has run).
    pub fn chrome_trace_last(&self, n: usize) -> Value {
        let mut spans = self.spans();
        let skipped = spans.len().saturating_sub(n);
        spans.drain(..skipped);
        spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
        Value::Object(vec![
            (
                "traceEvents".to_string(),
                Value::Array(spans.iter().map(event_json).collect()),
            ),
            ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
            (
                "spans_dropped".to_string(),
                Value::UInt(self.trace_ring().dropped() + skipped as u64),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let ring = Ring::new(4);
        for i in 0..10u64 {
            ring.push(SpanRecord {
                name: "s",
                args: vec![("i", i.to_string())],
                tid: 0,
                start_ns: i,
                dur_ns: 1,
            });
        }
        let spans = ring.drain_copy();
        assert_eq!(spans.len(), 4);
        assert_eq!(ring.dropped(), 6);
        assert_eq!(spans[0].args[0].1, "6"); // oldest surviving
    }

    #[test]
    fn guard_records_nested_spans_on_one_thread() {
        let reg = Registry::new();
        {
            let _outer = Span::start(reg.clone(), "outer", Vec::new());
            std::thread::sleep(std::time::Duration::from_millis(1));
            {
                let _inner = Span::start(reg.clone(), "inner", Vec::new());
            }
        }
        let spans = reg.spans();
        assert_eq!(spans.len(), 2);
        // Inner completes (and records) first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[1].name, "outer");
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.tid, outer.tid);
        // Strict nesting: inner starts after outer and ends before it.
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
    }

    #[test]
    fn chrome_export_is_valid_trace_event_json() {
        let reg = Registry::new();
        {
            let _s = Span::start(reg.clone(), "solve_group", vec![("group", "e1".into())]);
        }
        let v = reg.chrome_trace();
        let text = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        let events = back
            .as_object()
            .unwrap()
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v.as_array().unwrap())
            .unwrap();
        assert_eq!(events.len(), 1);
        let ev = events[0].as_object().unwrap();
        let get = |key: &str| ev.iter().find(|(k, _)| k == key).map(|(_, v)| v).unwrap();
        assert_eq!(get("ph").as_str(), Some("X"));
        assert_eq!(get("name").as_str(), Some("solve_group"));
        assert!(get("ts").as_f64().is_some());
        assert!(get("dur").as_f64().unwrap() > 0.0);
    }
}
