//! Streaming export and the flight recorder.
//!
//! Two pieces live here:
//!
//! * **Structured log events** ([`EventRecord`], the [`crate::event!`]
//!   macro): leveled `(target, key=value...)` records kept in a bounded
//!   in-memory ring on the registry — the "recent events" half of the
//!   flight recorder — with error-level events additionally latched as
//!   the registry's *last error*.
//! * **The JSONL export sink** ([`ExportSink`]): an incremental
//!   line-per-record stream of every event and every completed span,
//!   flushed as it happens with size-capped rotation (`<path>` rolls to
//!   `<path>.1`), so a long-running daemon's trace survives a crash —
//!   the in-memory ring alone only surfaces what a clean exit dumps.
//!
//! The flight-recorder dump ([`crate::metrics::Registry::flight_json`])
//! combines both rings with the metrics snapshot and the last error
//! into one post-mortem file that is also a loadable Chrome trace.

use crate::trace::{thread_index, SpanRecord};
use crate::unpoisoned;
use serde_json::Value;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Default bound on the in-memory event ring.
pub const EVENT_RING_CAP: usize = 4_096;

/// Event severity. `Error` events additionally latch the registry's
/// last-error slot (surfaced in the flight-recorder dump).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// Routine progress (round completed, case finished).
    Info,
    /// Something degraded but the run continues.
    Warn,
    /// A failure worth a post-mortem (also sets the last error).
    Error,
}

impl Level {
    /// The lowercase wire name (`"info"` / `"warn"` / `"error"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// One structured log event.
#[derive(Clone, Debug)]
pub struct EventRecord {
    /// Severity.
    pub level: Level,
    /// Event name, dotted like metric names (e.g. `"watch.round"`).
    pub target: &'static str,
    /// Rendered `key = value` fields, call-site order.
    pub fields: Vec<(&'static str, String)>,
    /// Process-wide small thread index.
    pub tid: u32,
    /// Nanoseconds since the registry epoch.
    pub ts_ns: u64,
}

impl EventRecord {
    pub(crate) fn new(
        level: Level,
        target: &'static str,
        fields: Vec<(&'static str, String)>,
        ts_ns: u64,
    ) -> EventRecord {
        EventRecord {
            level,
            target,
            fields,
            tid: thread_index(),
            ts_ns,
        }
    }

    /// One-line rendering, used for the last-error latch:
    /// `target: k=v k=v`.
    pub fn render(&self) -> String {
        let mut s = self.target.to_string();
        for (i, (k, v)) in self.fields.iter().enumerate() {
            s.push_str(if i == 0 { ": " } else { " " });
            s.push_str(k);
            s.push('=');
            s.push_str(v);
        }
        s
    }

    /// The JSON value of one event (an object, exported both in the
    /// flight dump's `events` array and as one JSONL line).
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("type".to_string(), Value::Str("event".to_string())),
            (
                "level".to_string(),
                Value::Str(self.level.as_str().to_string()),
            ),
            ("target".to_string(), Value::Str(self.target.to_string())),
            ("tid".to_string(), Value::UInt(self.tid as u64)),
            ("ts_ns".to_string(), Value::UInt(self.ts_ns)),
            (
                "fields".to_string(),
                Value::Object(
                    self.fields
                        .iter()
                        .map(|(k, v)| (k.to_string(), Value::Str(v.clone())))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The JSONL line of one completed span (the streaming counterpart of
/// the Chrome trace export).
pub(crate) fn span_line(s: &SpanRecord) -> Value {
    Value::Object(vec![
        ("type".to_string(), Value::Str("span".to_string())),
        ("name".to_string(), Value::Str(s.name.to_string())),
        ("tid".to_string(), Value::UInt(s.tid as u64)),
        ("ts_ns".to_string(), Value::UInt(s.start_ns)),
        ("dur_ns".to_string(), Value::UInt(s.dur_ns)),
        (
            "args".to_string(),
            Value::Object(
                s.args
                    .iter()
                    .map(|(k, v)| (k.to_string(), Value::Str(v.clone())))
                    .collect(),
            ),
        ),
    ])
}

/// An incremental JSONL writer with size-capped rotation.
///
/// Every appended record is written and flushed immediately — the
/// stream is the durable trace path, so a crashed daemon's log ends at
/// the last completed record, not at the last clean exit. When the
/// current file would exceed `max_bytes` it is rotated to `<path>.1`
/// (replacing a previous rotation) and a fresh file is started, so the
/// pair is bounded at ~`2 * max_bytes` on disk.
pub struct ExportSink {
    path: PathBuf,
    max_bytes: u64,
    inner: Mutex<SinkInner>,
}

struct SinkInner {
    file: std::fs::File,
    written: u64,
    rotations: u64,
    io_errors: u64,
}

impl ExportSink {
    /// Default rotation cap: 64 MiB per file.
    pub const DEFAULT_MAX_BYTES: u64 = 64 * 1024 * 1024;

    /// Create (truncating) the sink file at `path`.
    pub fn create(path: &Path, max_bytes: u64) -> std::io::Result<ExportSink> {
        let file = std::fs::File::create(path)?;
        Ok(ExportSink {
            path: path.to_path_buf(),
            max_bytes: max_bytes.max(1),
            inner: Mutex::new(SinkInner {
                file,
                written: 0,
                rotations: 0,
                io_errors: 0,
            }),
        })
    }

    /// The rotation target: `<path>.1`.
    fn rotated_path(&self) -> PathBuf {
        let mut name = self.path.as_os_str().to_os_string();
        name.push(".1");
        PathBuf::from(name)
    }

    /// Append one record as a JSONL line (write + flush). IO errors are
    /// counted, not propagated: telemetry must never take down the run
    /// it is observing.
    pub fn append(&self, v: &Value) {
        let mut line = serde_json::to_string(v).unwrap_or_default();
        line.push('\n');
        let mut inner = unpoisoned(self.inner.lock());
        if inner.written > 0 && inner.written + line.len() as u64 > self.max_bytes {
            // Rotate: current file becomes `<path>.1`, a fresh file
            // takes its place. Failure to rotate falls through to
            // appending (unbounded is better than lost).
            let rotate = std::fs::rename(&self.path, self.rotated_path())
                .and_then(|()| std::fs::File::create(&self.path));
            match rotate {
                Ok(f) => {
                    inner.file = f;
                    inner.written = 0;
                    inner.rotations += 1;
                }
                Err(_) => inner.io_errors += 1,
            }
        }
        let write = inner
            .file
            .write_all(line.as_bytes())
            .and_then(|()| inner.file.flush());
        match write {
            Ok(()) => inner.written += line.len() as u64,
            Err(_) => inner.io_errors += 1,
        }
    }

    /// Completed rotations.
    pub fn rotations(&self) -> u64 {
        unpoisoned(self.inner.lock()).rotations
    }

    /// Swallowed IO errors (writes or rotations that failed).
    pub fn io_errors(&self) -> u64 {
        unpoisoned(self.inner.lock()).io_errors
    }

    /// Bytes written to the *current* file.
    pub fn written(&self) -> u64 {
        unpoisoned(self.inner.lock()).written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("obs-export-{name}-{}", std::process::id()))
    }

    #[test]
    fn event_ring_is_bounded_and_renders() {
        let ring = crate::trace::Ring::new(3);
        for i in 0..5u64 {
            ring.push(EventRecord::new(
                Level::Info,
                "t.event",
                vec![("i", i.to_string())],
                i,
            ));
        }
        let events = ring.drain_copy();
        assert_eq!(events.len(), 3);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(events[0].fields[0].1, "2");
        assert_eq!(events[0].render(), "t.event: i=2");
    }

    #[test]
    fn sink_appends_parseable_jsonl() {
        let path = tmp("jsonl");
        let sink = ExportSink::create(&path, ExportSink::DEFAULT_MAX_BYTES).unwrap();
        sink.append(&EventRecord::new(Level::Warn, "a.b", vec![("k", "v".into())], 7).to_json());
        sink.append(&span_line(&SpanRecord {
            name: "s",
            args: vec![("g", "x".into())],
            tid: 1,
            start_ns: 10,
            dur_ns: 5,
        }));
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let ev: Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(ev.get("type").and_then(Value::as_str), Some("event"));
        assert_eq!(ev.get("level").and_then(Value::as_str), Some("warn"));
        let sp: Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(sp.get("type").and_then(Value::as_str), Some("span"));
        assert_eq!(sp.get("dur_ns").and_then(Value::as_u64), Some(5));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sink_rotates_at_the_size_cap() {
        let path = tmp("rotate");
        let _ = std::fs::remove_file(&path);
        // A cap small enough that every few records force a rotation.
        let sink = ExportSink::create(&path, 256).unwrap();
        for i in 0..50u64 {
            sink.append(
                &EventRecord::new(Level::Info, "rot.fill", vec![("i", i.to_string())], i).to_json(),
            );
        }
        assert!(sink.rotations() > 0, "cap must trigger rotation");
        assert_eq!(sink.io_errors(), 0);
        // Both generations exist; each is valid line-per-record JSONL
        // and the current file respects the cap.
        let rotated = {
            let mut n = path.as_os_str().to_os_string();
            n.push(".1");
            PathBuf::from(n)
        };
        for p in [&path, &rotated] {
            let text = std::fs::read_to_string(p).unwrap();
            assert!(!text.is_empty());
            for line in text.lines() {
                let v: Value = serde_json::from_str(line).unwrap();
                assert_eq!(v.get("target").and_then(Value::as_str), Some("rot.fill"));
            }
        }
        assert!(std::fs::metadata(&path).unwrap().len() <= 256);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&rotated);
    }
}
