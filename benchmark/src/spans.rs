//! Harness-side spans: one per call into a layer's public function,
//! recorded from outside the program (spans inside the program are a
//! later change). Kept in memory; written as Chrome-trace JSON when the
//! run ends. With tracing off every call here is a branch and nothing
//! else, except the one clock pair that times the op itself.

use serde_json::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The span that covers one whole op; its self time is what no layer
/// span accounts for.
pub const OP: &str = "op";

/// One completed span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.call`, or [`OP`] for the root.
    pub name: &'static str,
    /// Ordinal of the op the span belongs to (shared by all its spans).
    pub op: u32,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle for a span; `None` when tracing is off.
#[derive(Clone, Copy)]
pub struct Tok(Option<u32>);

/// The span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
    op_start: Instant,
}

impl Tracer {
    /// A recorder; `on = false` records nothing but still times ops.
    pub fn new(on: bool) -> Tracer {
        let now = Instant::now();
        Tracer {
            on,
            epoch: now,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            op_start: now,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start the op clock (and the root span).
    pub fn begin_op(&mut self) {
        self.op_start = Instant::now();
        if self.on {
            let t = self.op_start.duration_since(self.epoch).as_nanos() as u64;
            self.push(OP, t);
        }
    }

    /// Stop the op clock; the op's wall time.
    pub fn end_op(&mut self) -> Duration {
        let wall = self.op_start.elapsed();
        if self.on {
            // An op that bailed out on an error leaves its layer spans
            // open; they end where the op ends.
            let root = *self.stack.first().expect("end_op without begin_op");
            let end_ns = self.spans[root as usize].start_ns + wall.as_nanos() as u64;
            for id in self.stack.drain(..) {
                self.spans[id as usize].end_ns = end_ns;
            }
            self.op += 1;
        }
        wall
    }

    fn push(&mut self, name: &'static str, start_ns: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    /// Open a span under whichever span is open now.
    pub fn start(&mut self, name: &'static str) -> Tok {
        if !self.on {
            return Tok(None);
        }
        let t = self.now_ns();
        Tok(Some(self.push(name, t)))
    }

    /// Close a span opened by [`Tracer::start`].
    pub fn end(&mut self, tok: Tok) {
        if let Some(id) = tok.0 {
            assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Record a span measured elsewhere (a child process's own account
    /// of where its time went) under `parent`, laid end to end from
    /// `*cursor_ns`. Returns its handle so it can take children too.
    pub fn record(
        &mut self,
        parent: Tok,
        name: &'static str,
        cursor_ns: &mut u64,
        dur: Duration,
    ) -> Tok {
        let Some(parent) = parent.0 else {
            return Tok(None);
        };
        let id = self.spans.len() as u32;
        let start_ns = *cursor_ns;
        *cursor_ns += dur.as_nanos() as u64;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: Some(parent),
            start_ns,
            end_ns: *cursor_ns,
        });
        Tok(Some(id))
    }

    /// When a span started, for [`Tracer::record`]'s cursor.
    pub fn start_ns(&self, tok: Tok) -> u64 {
        tok.0.map_or(0, |id| self.spans[id as usize].start_ns)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome `trace_event` JSON (complete events, microseconds).
    pub fn chrome_trace(&self) -> Value {
        let events = self
            .spans
            .iter()
            .map(|s| {
                serde_json::json!({
                    "name": s.name,
                    "ph": "X",
                    "ts": s.start_ns as f64 / 1e3,
                    "dur": s.dur() as f64 / 1e3,
                    "pid": 1u64,
                    "tid": 1u64,
                    "args": serde_json::json!({"op": s.op as u64})
                })
            })
            .collect();
        serde_json::json!({"traceEvents": Value::Array(events)})
    }
}

/// Self time per span name for each op: a span's duration minus the part
/// its direct children cover. The root's self time is filed under
/// [`OP`]; the values of one op sum to its wall time exactly.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, BTreeMap<&'static str, u64>> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur();
        }
    }
    let mut out: BTreeMap<u32, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        *out.entry(s.op).or_default().entry(s.name).or_default() += s.dur().saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // op [0,100): parse [5,25), verify [30,90) with encode [40,70)
        // and a second encode [70,80) inside it.
        let spans = vec![
            span(OP, None, 0, 100),
            span("bgp-config.parse", Some(0), 5, 25),
            span("core.verify", Some(0), 30, 90),
            span("smt.encode", Some(2), 40, 70),
            span("smt.encode", Some(2), 70, 80),
        ];
        let st = &self_times(&spans)[&0];
        assert_eq!(st["bgp-config.parse"], 20);
        assert_eq!(st["core.verify"], 20);
        assert_eq!(st["smt.encode"], 40);
        assert_eq!(st[OP], 20, "unattributed = root minus its children");
        assert_eq!(st.values().sum::<u64>(), 100, "parts sum to the op wall");
    }

    #[test]
    fn tracer_nests_and_separates_ops() {
        let mut tr = Tracer::new(true);
        for _ in 0..2 {
            tr.begin_op();
            let a = tr.start("core.verify");
            let b = tr.start("api.render");
            tr.end(b);
            tr.end(a);
            let wall = tr.end_op();
            assert!(wall.as_nanos() > 0);
        }
        let s = tr.spans();
        assert_eq!(s.len(), 6);
        assert_eq!((s[0].name, s[0].parent, s[0].op), (OP, None, 0));
        assert_eq!((s[2].name, s[2].parent), ("api.render", Some(1)));
        assert_eq!((s[3].name, s[3].parent, s[3].op), (OP, None, 1));
        let per_op = self_times(s);
        for (op, parts) in per_op {
            let root = &s[op as usize * 3];
            assert_eq!(parts.values().sum::<u64>(), root.end_ns - root.start_ns);
        }
    }

    #[test]
    fn off_tracer_times_ops_and_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.begin_op();
        let t = tr.start("core.verify");
        tr.end(t);
        assert!(tr.end_op().as_nanos() > 0);
        assert!(tr.spans().is_empty());
    }
}
