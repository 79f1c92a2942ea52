//! Observability for the verifier pipeline: a metrics registry
//! (counters / gauges / histograms, one atomic per value), a
//! lightweight span API with a bounded in-memory ring, and a Chrome
//! `trace_event` exporter so a verify run opens directly in
//! `chrome://tracing` / Perfetto. The flight recorder
//! ([`dump_flight`]) is that trace plus the last error and the metrics
//! snapshot; a daemon's rounds are recorded once, on
//! [`http::Status`].
//!
//! The design constraint is that instrumentation must be *near-free
//! when no sink is installed*: every instrumentation point loads one
//! relaxed atomic and returns. When a sink IS installed, a point takes
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

pub mod http;
pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry};
pub use trace::{Span, SpanRecord};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, LockResult, PoisonError, RwLock};

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: RwLock<Option<Arc<Registry>>> = RwLock::new(None);

/// The guard of a lock, whether or not a thread panicked while holding
/// it. Telemetry must never take down the run it observes: every lock
/// here guards plain records (name maps of atomics, a ring, a round's
/// status, the last error), so a panic under one leaves at worst a stale
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

/// Latch `msg` as the registry's last error (the flight-recorder dump
/// headline). No-op when disabled.
pub fn record_error(msg: &str) {
    with(|reg| reg.record_error(msg));
}

/// Write the flight-recorder dump (recent spans as a Chrome trace, the
/// last error, the metrics snapshot) to `path`. Returns `false` when
/// disabled or the write fails — a post-mortem dump must never take
/// down the exiting process.
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
    fn the_last_error_reaches_the_flight_dump() {
        let _l = test_lock();
        let reg = install();
        {
            let _s = span!("round", n = 1);
        }
        record_error("round 2: bad cfg");
        record_error("round 3: bad cfg");
        assert_eq!(reg.last_error().as_deref(), Some("round 3: bad cfg"));
        let text = serde_json::to_string(&reg.flight_json()).unwrap();
        let back: serde_json::Value = serde_json::from_str(&text).unwrap();
        let keys: Vec<&str> = back
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "traceEvents",
                "displayTimeUnit",
                "spans_dropped",
                "last_error",
                "metrics"
            ]
        );
        assert_eq!(
            back.get("last_error").and_then(serde_json::Value::as_str),
            Some("round 3: bad cfg")
        );
        uninstall();
        // Disabled: nothing is latched.
        record_error("gone");
        assert_eq!(reg.last_error().as_deref(), Some("round 3: bad cfg"));
    }
}
