//! Observability for the verifier pipeline: a metrics registry
//! (counters / gauges / histograms, one atomic per value), a
//! lightweight span API with a bounded in-memory ring, and a Chrome
//! `trace_event` exporter so a verify run opens directly in
//! `chrome://tracing` / Perfetto.
//!
//! The design constraint is that instrumentation must be *near-free
//! when no sink is installed*: every event entry point loads one
//! relaxed atomic and returns. When a sink IS installed, an event takes
//! the sink's read lock, looks its metric up by name and pays one
//! relaxed `fetch_add`.
//!
//! ```
//! let reg = obs::install();
//! {
//!     let _s = obs::span!("encode_group", group = "R1 -> R2");
//!     obs::add("engine.checks_posed", 3);
//! }
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("engine.checks_posed"), 3);
//! obs::uninstall();
//! ```

pub mod export;
pub mod http;
pub mod metrics;
pub mod trace;

pub use export::{EventRecord, ExportSink, Level};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry};
pub use trace::{Span, SpanRecord};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, LockResult, PoisonError, RwLock};

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: RwLock<Option<Arc<Registry>>> = RwLock::new(None);

/// The guard of a lock, whether or not a thread panicked while holding
/// it. Telemetry must never take down the run it observes: every lock
/// here guards plain records (name maps of atomics, a ring, a round's
/// status, a file writer), so a panic under one leaves at worst a stale
/// value, and every later call recovers the guard instead of panicking
/// in turn. `serve`'s tenant table follows the same policy.
pub(crate) fn unpoisoned<G>(lock: LockResult<G>) -> G {
    lock.unwrap_or_else(PoisonError::into_inner)
}

/// Whether a sink is installed. One relaxed load — this is the whole
/// cost of every instrumentation point in a run without observability.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Install a fresh registry as the process-wide sink and return it.
/// Replaces any previously installed sink.
pub fn install() -> Arc<Registry> {
    let reg = Registry::new();
    install_registry(reg.clone());
    reg
}

/// Install an existing registry as the process-wide sink.
pub fn install_registry(reg: Arc<Registry>) {
    let mut sink = unpoisoned(SINK.write());
    *sink = Some(reg);
    ENABLED.store(true, Ordering::Release);
}

/// Remove the sink (instrumentation reverts to the near-free path)
/// and hand back the registry so its contents can still be read.
pub fn uninstall() -> Option<Arc<Registry>> {
    let mut sink = unpoisoned(SINK.write());
    ENABLED.store(false, Ordering::Release);
    sink.take()
}

/// The currently installed registry, if any.
pub fn sink() -> Option<Arc<Registry>> {
    if !enabled() {
        return None;
    }
    unpoisoned(SINK.read()).clone()
}

/// Run `f` against the installed registry; `None` when disabled.
#[inline]
pub fn with<R>(f: impl FnOnce(&Registry) -> R) -> Option<R> {
    if !enabled() {
        return None;
    }
    let guard = unpoisoned(SINK.read());
    guard.as_ref().map(|reg| f(reg))
}

/// Bump a named counter. No-op (one atomic load) when disabled.
#[inline]
pub fn add(name: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    with(|reg| {
        reg.note_call();
        reg.counter(name).add(n);
    });
}

/// Set a named gauge to `v`. No-op when disabled.
#[inline]
pub fn gauge_set(name: &'static str, v: u64) {
    if !enabled() {
        return;
    }
    with(|reg| {
        reg.note_call();
        reg.gauge(name).set(v);
    });
}

/// Raise a named gauge to `v` if `v` is larger (high-water mark).
#[inline]
pub fn gauge_max(name: &'static str, v: u64) {
    if !enabled() {
        return;
    }
    with(|reg| {
        reg.note_call();
        reg.gauge(name).set_max(v);
    });
}

/// Record a duration (nanoseconds) into a named histogram.
#[inline]
pub fn observe_ns(name: &'static str, ns: u64) {
    if !enabled() {
        return;
    }
    with(|reg| {
        reg.note_call();
        reg.histogram(name).record_ns(ns);
    });
}

/// Record a [`std::time::Duration`] into a named histogram.
#[inline]
pub fn observe(name: &'static str, d: std::time::Duration) {
    if !enabled() {
        return;
    }
    observe_ns(name, d.as_nanos().min(u64::MAX as u128) as u64);
}

/// Peak resident-set size (`VmHWM`) of the current process in
/// kilobytes, read from `/proc/self/status`. `0` when the field is
/// unavailable (non-Linux, restricted procfs) — callers treat that as
/// "unknown", never as an actual zero footprint.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}

/// Open a span with pre-rendered arguments (used by [`span!`]).
pub fn span_with(name: &'static str, args: Vec<(&'static str, String)>) -> Span {
    match sink() {
        Some(reg) => Span::start(reg, name, args),
        None => Span::disabled(),
    }
}

/// Emit a structured event with pre-rendered fields (used by
/// [`event!`]). Routed to the in-memory event ring, the last-error
/// latch (error level), and the export sink if one is attached.
pub fn event_with(level: Level, target: &'static str, fields: Vec<(&'static str, String)>) {
    with(|reg| {
        let ts = reg.now_ns();
        reg.record_event(EventRecord::new(level, target, fields, ts));
    });
}

/// Latch `msg` as the registry's last error (the flight-recorder dump
/// headline) and emit it as an error-level event. No-op when disabled.
pub fn record_error(msg: &str) {
    with(|reg| reg.record_error(msg));
}

/// Write the flight-recorder dump (recent spans as a Chrome trace,
/// recent events, last error, metrics snapshot) to `path`. Returns
/// `false` when disabled or the write fails — a post-mortem dump must
/// never take down the exiting process.
pub fn dump_flight(path: &std::path::Path) -> bool {
    with(|reg| {
        let body = serde_json::to_string_pretty(&reg.flight_json()).unwrap_or_default();
        std::fs::write(path, body).is_ok()
    })
    .unwrap_or(false)
}

/// Chain a panic hook that dumps the flight recorder to `path` before
/// the default hook prints the panic — the "post-mortems need no
/// re-run" half of the flight recorder.
pub fn install_panic_flight(path: &std::path::Path) {
    let path = path.to_path_buf();
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        with(|reg| reg.record_error(&format!("panic: {info}")));
        dump_flight(&path);
        prev(info);
    }));
}

/// Emit a structured event:
/// `obs::event!(info, "watch.round", round = n, verdict = "pass")`.
/// Level is one of the `info` / `warn` / `error` idents. Field
/// expressions are not evaluated when no sink is installed.
#[macro_export]
macro_rules! event {
    (info, $target:expr $(, $k:ident = $v:expr)* $(,)?) => {
        $crate::event!(@emit $crate::Level::Info, $target $(, $k = $v)*)
    };
    (warn, $target:expr $(, $k:ident = $v:expr)* $(,)?) => {
        $crate::event!(@emit $crate::Level::Warn, $target $(, $k = $v)*)
    };
    (error, $target:expr $(, $k:ident = $v:expr)* $(,)?) => {
        $crate::event!(@emit $crate::Level::Error, $target $(, $k = $v)*)
    };
    (@emit $level:expr, $target:expr $(, $k:ident = $v:expr)*) => {
        if $crate::enabled() {
            $crate::event_with(
                $level,
                $target,
                ::std::vec![$((stringify!($k), ::std::string::ToString::to_string(&$v))),*],
            );
        }
    };
}

/// Open a named span: `obs::span!("encode_group", group = key)`.
/// Argument expressions are not evaluated when no sink is installed,
/// so call sites stay near-free in the disabled case.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span_with($name, ::std::vec::Vec::new())
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::span_with(
                $name,
                ::std::vec![$((stringify!($k), ::std::string::ToString::to_string(&$v))),+],
            )
        } else {
            $crate::Span::disabled()
        }
    };
}

#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    // The sink is process-global; tests that install one must not
    // interleave. Poisoning (a failed test) must not cascade.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    unpoisoned(LOCK.lock())
}

/// Run `hold` on a thread of its own and expect it to panic: a `hold`
/// that takes a lock and panics while holding it poisons that lock.
#[cfg(test)]
pub(crate) fn poison_with(hold: impl FnOnce() + Send) {
    let joined = std::thread::scope(|s| s.spawn(hold).join());
    assert!(joined.is_err(), "`hold` must panic");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_events_are_noops() {
        let _l = test_lock();
        uninstall();
        add("x", 1);
        gauge_set("g", 7);
        observe_ns("h", 100);
        let s = span!("nothing", arg = 1);
        drop(s);
        assert!(!enabled());
        let reg = install();
        assert_eq!(reg.snapshot().counter("x"), 0);
        uninstall();
    }

    #[test]
    fn install_routes_events_and_uninstall_stops_them() {
        let _l = test_lock();
        let reg = install();
        add("a", 2);
        add("a", 3);
        gauge_set("g", 9);
        gauge_max("g", 4); // lower: must not clobber
        observe_ns("h", 1_500);
        {
            let _s = span!("unit", k = "v");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a"), 5);
        assert_eq!(snap.gauge("g"), 9);
        assert_eq!(snap.histograms["h"].count, 1);
        assert_eq!(reg.spans().len(), 1);
        uninstall();
        add("a", 100);
        assert_eq!(reg.snapshot().counter("a"), 5);
    }

    #[test]
    fn events_ring_latch_errors_and_reach_the_flight_dump() {
        let _l = test_lock();
        let reg = install();
        event!(info, "watch.round", round = 1, verdict = "pass");
        event!(error, "watch.round", round = 2, err = "bad cfg");
        let events = reg.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].level, Level::Info);
        assert_eq!(
            reg.last_error().as_deref(),
            Some("watch.round: round=2 err=bad cfg")
        );
        let flight = reg.flight_json();
        let text = serde_json::to_string(&flight).unwrap();
        let back: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert!(back.get("traceEvents").is_some());
        assert_eq!(
            back.get("events")
                .and_then(serde_json::Value::as_array)
                .map(Vec::len),
            Some(2)
        );
        assert!(back
            .get("last_error")
            .and_then(serde_json::Value::as_str)
            .unwrap()
            .contains("bad cfg"));
        assert!(back.get("metrics").is_some());
        uninstall();
        // Disabled: field expressions must not even evaluate.
        let mut hit = false;
        event!(
            info,
            "gone",
            x = {
                hit = true;
                1
            }
        );
        assert!(!hit);
    }
}
