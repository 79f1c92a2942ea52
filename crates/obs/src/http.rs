//! The live-telemetry endpoint: a dependency-free blocking HTTP server
//! (std `TcpListener`, thread-per-connection, graceful shutdown flag)
//! that lets anyone ask a *running* daemon what it is doing.
//!
//! Three endpoints:
//!
//! * `GET /metrics` — the shared status document ([`status_body`]):
//!   round count, verdict, last-round delta metrics, and the full
//!   registry snapshot as JSON. `?format=prom` renders the same
//!   snapshot as Prometheus text exposition instead.
//! * `GET /healthz` — process uptime, last-round age, and an ok/fail
//!   verdict; stale or failing state answers `503` so a probe needs no
//!   body parsing.
//! * `GET /trace?last=N` — the most recent `N` flight-recorder spans
//!   as loadable Chrome trace JSON.
//!
//! Handlers only *read* (snapshot merges, ring copies) — a scrape
//! never records into the registry, which is what makes the final
//! scrape byte-for-value equal to the `--metrics-json` file written
//! through the same renderer.
//!
//! [`Status`] is deliberately the **single** round-increment site:
//! the totals line, the metrics file, and `/metrics` all read the same
//! counter, so they cannot disagree across rejected rounds.

use crate::metrics::{MetricsSnapshot, Registry, BUCKET_BOUNDS_US};
use crate::unpoisoned;
use serde_json::Value;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Shared round/verdict state between the observed loop (writer) and
/// the endpoint (reader). One instance per daemon; rounds are counted
/// *here and nowhere else* so every surface agrees. It also owns the
/// round-delta baseline: the registry snapshot taken when the previous
/// round was noted, kept beside the round counter, so each noted round
/// carries what the registry accumulated since the one before.
pub struct Status {
    start: Instant,
    stale_after: Option<Duration>,
    inner: Mutex<StatusInner>,
}

struct StatusInner {
    rounds: u64,
    ok: bool,
    last_round: Option<Instant>,
    last_round_secs: f64,
    /// The registry snapshot at the previous note (empty before it).
    prev: MetricsSnapshot,
    delta: Option<MetricsSnapshot>,
}

impl Status {
    /// A fresh status: zero rounds, ok, no staleness threshold unless
    /// given one.
    pub fn new(stale_after: Option<Duration>) -> Arc<Status> {
        Arc::new(Status {
            start: Instant::now(),
            stale_after,
            inner: Mutex::new(StatusInner {
                rounds: 0,
                ok: true,
                last_round: None,
                last_round_secs: 0.0,
                prev: MetricsSnapshot::default(),
                delta: None,
            }),
        })
    }

    /// Record one completed round — verified, violated, or rejected —
    /// with `reg`'s change since the previous note as its delta, and
    /// return the new round count. This is the single increment site
    /// shared by the totals line, the metrics file and the `/metrics`
    /// endpoint.
    pub fn note_round(&self, ok: bool, elapsed: Duration, reg: &Registry) -> u64 {
        self.note(ok, elapsed, reg, 1)
    }

    /// Record the baseline (round zero) without burning a round
    /// number: it refreshes the verdict, the delta and the staleness
    /// clock only.
    pub fn note_baseline(&self, ok: bool, elapsed: Duration, reg: &Registry) {
        self.note(ok, elapsed, reg, 0);
    }

    /// Note a round boundary, counting `burned` (0 or 1) round numbers.
    fn note(&self, ok: bool, elapsed: Duration, reg: &Registry, burned: u64) -> u64 {
        // Snapshot under the lock: concurrent notes cannot interleave
        // their snapshots and step the baseline backwards.
        let mut inner = unpoisoned(self.inner.lock());
        let snap = reg.snapshot();
        inner.ok = ok;
        inner.last_round = Some(Instant::now());
        inner.last_round_secs = elapsed.as_secs_f64();
        inner.delta = Some(snap.delta_since(&inner.prev));
        inner.prev = snap;
        inner.rounds += burned;
        inner.rounds
    }

    /// Rounds completed so far (baseline excluded).
    pub fn rounds(&self) -> u64 {
        unpoisoned(self.inner.lock()).rounds
    }

    /// The most recent round's verdict (`true` before any round).
    pub fn ok(&self) -> bool {
        unpoisoned(self.inner.lock()).ok
    }

    /// Seconds since the last completed round (baseline counts), or
    /// since process start when no round has run yet.
    fn age(&self) -> Duration {
        unpoisoned(self.inner.lock())
            .last_round
            .unwrap_or(self.start)
            .elapsed()
    }

    /// Whether the staleness threshold (if any) has been exceeded.
    fn stale(&self) -> bool {
        self.stale_after.is_some_and(|t| self.age() > t)
    }
}

/// The status document shared by the `--metrics-json` file and the
/// `/metrics` endpoint: round count, verdict, the last round's *delta*
/// metrics (rates, not totals), and the full cumulative snapshot.
/// Deliberately contains no wall-clock-dependent field, so a scrape
/// and a file written after the same round are byte-for-value equal.
pub fn status_json(status: &Status, reg: &Registry) -> Value {
    let inner = unpoisoned(status.inner.lock());
    let last_round = match &inner.delta {
        None => Value::Null,
        Some(d) => Value::Object(vec![
            ("seconds".to_string(), Value::Float(inner.last_round_secs)),
            ("metrics".to_string(), d.to_json()),
        ]),
    };
    Value::Object(vec![
        ("rounds".to_string(), Value::UInt(inner.rounds)),
        ("ok".to_string(), Value::Bool(inner.ok)),
        ("last_round".to_string(), last_round),
        ("metrics".to_string(), reg.snapshot().to_json()),
    ])
}

/// [`status_json`] rendered as pretty JSON — the exact bytes both the
/// metrics file and `/metrics` serve.
pub fn status_body(status: &Status, reg: &Registry) -> String {
    serde_json::to_string_pretty(&status_json(status, reg)).unwrap_or_default()
}

/// Atomically (tmp + rename) write [`status_body`] to `path`, so a
/// polling reader never observes a half-written JSON.
pub fn write_status_file(path: &Path, status: &Status, reg: &Registry) -> std::io::Result<()> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, status_body(status, reg))?;
    std::fs::rename(&tmp, path)
}

/// The `/healthz` answer: `(http_status, body)`. `503` when the last
/// round failed or the staleness threshold is exceeded.
fn healthz(status: &Status) -> (u16, Value) {
    let ok = status.ok();
    let stale = status.stale();
    let verdict = if !ok {
        "failing"
    } else if stale {
        "stale"
    } else {
        "ok"
    };
    let body = Value::Object(vec![
        ("status".to_string(), Value::Str(verdict.to_string())),
        (
            "uptime_seconds".to_string(),
            Value::Float(status.start.elapsed().as_secs_f64()),
        ),
        ("rounds".to_string(), Value::UInt(status.rounds())),
        ("ok".to_string(), Value::Bool(ok)),
        (
            "last_round_age_seconds".to_string(),
            Value::Float(status.age().as_secs_f64()),
        ),
        (
            "stale_after_seconds".to_string(),
            match status.stale_after {
                Some(t) => Value::Float(t.as_secs_f64()),
                None => Value::Null,
            },
        ),
    ]);
    (if ok && !stale { 200 } else { 503 }, body)
}

/// A metric name as a Prometheus metric name: `lightyear_` prefix,
/// non-`[a-zA-Z0-9_]` characters mapped to `_`.
fn prom_name(name: &str) -> String {
    let mut s = String::with_capacity(name.len() + 10);
    s.push_str("lightyear_");
    for c in name.chars() {
        s.push(if c.is_ascii_alphanumeric() || c == '_' {
            c
        } else {
            '_'
        });
    }
    s
}

/// The registry snapshot plus round status as Prometheus text
/// exposition (version 0.0.4). Histograms are exported in seconds with
/// cumulative `le` buckets plus `_sum` / `_count` and pre-computed
/// p50/p95/p99 quantile samples.
pub fn prometheus_text(status: &Status, reg: &Registry) -> String {
    let snap = reg.snapshot();
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
    }
    for (name, v) in &snap.gauges {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
    }
    for (name, h) in &snap.histograms {
        let n = format!("{}_seconds", prom_name(name));
        out.push_str(&format!("# TYPE {n} histogram\n"));
        let mut cum = 0u64;
        for (i, &b) in h.buckets.iter().enumerate() {
            cum += b;
            match BUCKET_BOUNDS_US.get(i) {
                Some(&us) => out.push_str(&format!(
                    "{n}_bucket{{le=\"{le}\"}} {cum}\n",
                    le = us as f64 / 1_000_000.0
                )),
                None => out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {cum}\n")),
            }
        }
        out.push_str(&format!("{n}_sum {}\n", h.sum_ns as f64 / 1e9));
        out.push_str(&format!("{n}_count {}\n", h.count));
        for (q, label) in [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
            out.push_str(&format!(
                "{n}{{quantile=\"{label}\"}} {}\n",
                h.quantile_ns(q) as f64 / 1e9
            ));
        }
    }
    out.push_str(&format!(
        "# TYPE lightyear_rounds_total counter\nlightyear_rounds_total {}\n",
        status.rounds()
    ));
    out.push_str(&format!(
        "# TYPE lightyear_ok gauge\nlightyear_ok {}\n",
        if status.ok() { 1 } else { 0 }
    ));
    out.push_str(&format!(
        "# TYPE lightyear_uptime_seconds gauge\nlightyear_uptime_seconds {}\n",
        status.start.elapsed().as_secs_f64()
    ));
    out
}

/// One parsed HTTP request as seen by a mounted [`Handler`]: method,
/// split target, and the (possibly empty) body.
pub struct Request {
    pub method: String,
    pub path: String,
    pub query: String,
    pub body: Vec<u8>,
}

impl Request {
    /// The value of query parameter `key`, if present.
    pub fn param(&self, key: &str) -> Option<String> {
        self.query
            .split('&')
            .filter_map(|kv| kv.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.to_string())
    }
}

/// A handler's answer: status code, content type, body.
pub struct Response {
    pub code: u16,
    pub content_type: &'static str,
    pub body: String,
}

impl Response {
    /// A JSON response (pretty-printed, like every built-in endpoint),
    /// streamed straight from `v` into the body.
    pub fn json(code: u16, v: &impl serde::Serialize) -> Response {
        Response {
            code,
            content_type: "application/json",
            body: serde_json::to_string_pretty(v).unwrap_or_default(),
        }
    }

    /// A plain-text response.
    pub fn text(code: u16, body: impl Into<String>) -> Response {
        Response {
            code,
            content_type: "text/plain",
            body: body.into(),
        }
    }
}

/// An application handler mounted beside the built-in telemetry
/// endpoints. It sees every request the built-ins did not claim
/// (any method); returning `None` falls through to `404` (GET) or
/// `405` (anything else).
pub type Handler = Arc<dyn Fn(&Request) -> Option<Response> + Send + Sync>;

/// Default bound on concurrently-served connections. A mounted handler
/// holds its connection's slot for its whole call (a `serve` round),
/// so this is also the bound on concurrent calls; what it prevents is
/// an unbounded thread pile-up when clients open connections faster
/// than calls finish or the 5 s request deadline reaps them.
pub const DEFAULT_MAX_CONNS: usize = 64;

/// A running telemetry server. Dropping it stops the accept loop
/// (graceful: the flag is set, the blocking `accept` is unblocked by a
/// self-connection, and the thread is joined).
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TelemetryServer {
    /// The actually-bound address (resolves `:0` to the chosen port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Bind `addr` (e.g. `127.0.0.1:0`) and serve `/metrics`, `/healthz`
/// and `/trace` from `reg` + `status` until the returned handle drops.
pub fn serve(
    addr: &str,
    reg: Arc<Registry>,
    status: Arc<Status>,
) -> std::io::Result<TelemetryServer> {
    serve_with(addr, reg, status, None, DEFAULT_MAX_CONNS)
}

/// [`serve`] plus an application [`Handler`] mounted beside the
/// built-in endpoints and an explicit concurrent-connection cap.
/// Connection `max_conns + 1` is answered `503` and closed instead of
/// spawning a thread, so a client flood cannot pile up blocked threads
/// behind the request deadline.
pub fn serve_with(
    addr: &str,
    reg: Arc<Registry>,
    status: Arc<Status>,
    handler: Option<Handler>,
    max_conns: usize,
) -> std::io::Result<TelemetryServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let live = Arc::new(AtomicUsize::new(0));
    let handle = std::thread::Builder::new()
        .name("obs-http".to_string())
        .spawn(move || {
            for conn in listener.incoming() {
                if stop2.load(Ordering::Acquire) {
                    break;
                }
                let Ok(mut stream) = conn else { continue };
                // Admission first: past the cap we answer 503 inline
                // and never spawn, bounding live threads at max_conns.
                if live.load(Ordering::Acquire) >= max_conns {
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                    respond(&mut stream, 503, "text/plain", "connection limit reached\n");
                    continue;
                }
                let slot = Slot::take(&live);
                // The whole request must arrive within 5 s of accept;
                // a per-read timeout alone lets a client that trickles
                // bytes hold its slot indefinitely.
                let deadline = Instant::now() + Duration::from_secs(5);
                let (reg, status, handler) = (reg.clone(), status.clone(), handler.clone());
                // Thread-per-connection: a slow client cannot stall the
                // next scrape. A failed spawn drops the closure, and
                // with it the slot.
                let _ = std::thread::Builder::new()
                    .name("obs-http-conn".to_string())
                    .spawn(move || {
                        let _slot = slot;
                        handle_conn(stream, deadline, &reg, &status, handler.as_ref());
                    });
            }
        })?;
    Ok(TelemetryServer {
        addr,
        stop,
        handle: Some(handle),
    })
}

/// One of the `max_conns` connection slots, given back on drop, so a
/// connection thread that unwinds still frees its slot.
struct Slot(Arc<AtomicUsize>);

impl Slot {
    fn take(live: &Arc<AtomicUsize>) -> Slot {
        live.fetch_add(1, Ordering::AcqRel);
        Slot(live.clone())
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Cap on the request head we are willing to buffer.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Cap on a request body (submitted configs can be sizeable; anything
/// past this is answered `413`).
const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// One `read` that gives up at `deadline` (as `ErrorKind::TimedOut` or
/// `WouldBlock`, see [`timed_out`]).
fn read_before(stream: &mut TcpStream, chunk: &mut [u8], deadline: Instant) -> io::Result<usize> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(io::ErrorKind::TimedOut.into());
    }
    stream.set_read_timeout(Some(left))?;
    stream.read(chunk)
}

/// Whether a read error is the request deadline passing (a socket read
/// timeout surfaces as `WouldBlock` on Unix, `TimedOut` on Windows).
fn timed_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn handle_conn(
    mut stream: TcpStream,
    deadline: Instant,
    reg: &Registry,
    status: &Status,
    handler: Option<&Handler>,
) {
    // A client that stops reading must not hold the slot on the answer.
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    // Read until the end of the request head.
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return respond(&mut stream, 400, "text/plain", "request too large\n");
        }
        match read_before(&mut stream, &mut chunk, deadline) {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if timed_out(&e) => {
                return respond(&mut stream, 408, "text/plain", "request timeout\n")
            }
            Err(_) => return,
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut parts = head.lines().next().unwrap_or_default().split_whitespace();
    let (method, target) = (
        parts.next().unwrap_or("").to_string(),
        parts.next().unwrap_or(""),
    );
    let content_length = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return respond(&mut stream, 413, "text/plain", "body too large\n");
    }
    // The head read may have pulled in part of the body already.
    let mut body = buf[head_end..].to_vec();
    while body.len() < content_length {
        match read_before(&mut stream, &mut chunk, deadline) {
            // The client half-closed early: a truncated body is not a
            // request, and no handler may see it.
            Ok(0) => {
                return respond(
                    &mut stream,
                    400,
                    "text/plain",
                    "body shorter than Content-Length\n",
                )
            }
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) if timed_out(&e) => {
                return respond(&mut stream, 408, "text/plain", "request timeout\n")
            }
            Err(_) => return,
        }
    }
    body.truncate(content_length);
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let req = Request {
        method,
        path: path.to_string(),
        query: query.to_string(),
        body,
    };
    let param = |key: &str| req.param(key);
    if req.method == "GET" {
        match req.path.as_str() {
            "/metrics" => {
                return if param("format").as_deref() == Some("prom") {
                    let body = prometheus_text(status, reg);
                    respond(&mut stream, 200, "text/plain; version=0.0.4", &body)
                } else {
                    let body = status_body(status, reg);
                    respond(&mut stream, 200, "application/json", &body)
                };
            }
            "/healthz" => {
                let (code, v) = healthz(status);
                let body = serde_json::to_string_pretty(&v).unwrap_or_default();
                return respond(&mut stream, code, "application/json", &body);
            }
            "/trace" => {
                let last = param("last")
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or(256);
                let body =
                    serde_json::to_string_pretty(&reg.chrome_trace_last(last)).unwrap_or_default();
                return respond(&mut stream, 200, "application/json", &body);
            }
            _ => {}
        }
    }
    // Everything the built-ins did not claim goes to the mounted
    // handler; without one (or when it declines) we keep the historic
    // answers: 404 for unknown GETs, 405 for other methods.
    if let Some(h) = handler {
        // A handler that panics answers 500; the panic hook has already
        // reported it, and the connection still closes cleanly.
        match std::panic::catch_unwind(AssertUnwindSafe(|| h(&req))) {
            Ok(Some(resp)) => {
                return respond(&mut stream, resp.code, resp.content_type, &resp.body)
            }
            Ok(None) => {}
            Err(_) => return respond(&mut stream, 500, "text/plain", "handler panicked\n"),
        }
    }
    if req.method == "GET" {
        respond(&mut stream, 404, "text/plain", "not found\n")
    } else {
        respond(&mut stream, 405, "text/plain", "method not allowed\n")
    }
}

fn respond(stream: &mut TcpStream, code: u16, content_type: &str, body: &str) {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {len}\r\nConnection: close\r\n\r\n",
        len = body.len()
    );
    let _ = stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .and_then(|()| stream.flush());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Raw one-shot HTTP GET against a served address; returns
    /// `(status_code, body)`.
    pub(crate) fn get(addr: SocketAddr, target: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        let code = text
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .unwrap_or(0);
        let body = text
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (code, body)
    }

    /// `name`'s increase over the last noted round, as `/metrics`
    /// reports it under `last_round`.
    fn round_delta(status: &Status, reg: &Registry, name: &str) -> Option<u64> {
        let v = status_json(status, reg);
        let counters = v.get("last_round")?.get("metrics")?.get("counters")?;
        counters.get(name)?.as_u64()
    }

    #[test]
    fn status_has_a_single_increment_site() {
        let reg = Registry::new();
        let status = Status::new(None);
        status.note_baseline(true, Duration::from_millis(3), &reg);
        assert_eq!(status.rounds(), 0, "baseline must not burn a round");
        assert_eq!(status.note_round(true, Duration::from_millis(1), &reg), 1);
        assert_eq!(status.note_round(false, Duration::from_millis(1), &reg), 2);
        assert_eq!(status.rounds(), 2);
        assert!(!status.ok());
    }

    #[test]
    fn status_answers_after_a_panicking_holder_poisons_it() {
        let reg = Registry::new();
        let status = Status::new(None);
        reg.counter("smt.solves").add(2);
        status.note_round(true, Duration::from_millis(1), &reg);
        crate::poison_with(|| {
            let _held = status.inner.lock().unwrap();
            panic!("poisons the status");
        });
        assert!(status.inner.is_poisoned());
        reg.counter("smt.solves").add(3);
        assert_eq!(status.note_round(false, Duration::from_millis(1), &reg), 2);
        assert_eq!(round_delta(&status, &reg, "smt.solves"), Some(3));
        assert!(!status.ok() && !status.stale());
        let v = status_json(&status, &reg);
        assert_eq!(v.get("rounds").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
    }

    #[test]
    fn status_body_matches_file_bytes_and_has_delta() {
        let reg = Registry::new();
        let status = Status::new(None);
        reg.counter("smt.solves").add(5);
        status.note_baseline(true, Duration::from_millis(10), &reg);
        assert_eq!(round_delta(&status, &reg, "smt.solves"), Some(5));
        reg.counter("smt.solves").add(3);
        status.note_round(true, Duration::from_millis(10), &reg);
        let body = status_body(&status, &reg);
        let path = std::env::temp_dir().join(format!("obs-status-{}.json", std::process::id()));
        write_status_file(&path, &status, &reg).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), body);
        let _ = std::fs::remove_file(&path);
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v.get("rounds").and_then(Value::as_u64), Some(1));
        let delta = v
            .get("last_round")
            .and_then(|lr| lr.get("metrics"))
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get("smt.solves"))
            .and_then(Value::as_u64);
        assert_eq!(delta, Some(3), "last_round carries the delta, not totals");
        let total = v
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get("smt.solves"))
            .and_then(Value::as_u64);
        assert_eq!(total, Some(8));
    }

    #[test]
    fn healthz_flags_failures_and_staleness() {
        let reg = Registry::new();
        let status = Status::new(Some(Duration::from_millis(20)));
        let (code, v) = healthz(&status);
        assert_eq!(code, 200);
        assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
        status.note_round(false, Duration::from_millis(1), &reg);
        let (code, v) = healthz(&status);
        assert_eq!(code, 503);
        assert_eq!(v.get("status").and_then(Value::as_str), Some("failing"));
        status.note_round(true, Duration::from_millis(1), &reg);
        assert_eq!(healthz(&status).0, 200);
        std::thread::sleep(Duration::from_millis(40));
        let (code, v) = healthz(&status);
        assert_eq!(code, 503, "quiet past the threshold must go stale");
        assert_eq!(v.get("status").and_then(Value::as_str), Some("stale"));
    }

    #[test]
    fn prometheus_text_renders_all_metric_kinds() {
        let reg = Registry::new();
        reg.counter("smt.solves").add(7);
        reg.gauge("orchestrator.queue_depth").set(3);
        for _ in 0..10 {
            reg.histogram("round.wall").record_ns(2_000_000); // 2ms
        }
        let status = Status::new(None);
        status.note_round(true, Duration::from_millis(1), &reg);
        let text = prometheus_text(&status, &reg);
        assert!(text.contains("# TYPE lightyear_smt_solves counter\nlightyear_smt_solves 7\n"));
        assert!(text.contains("lightyear_orchestrator_queue_depth 3\n"));
        assert!(text.contains("# TYPE lightyear_round_wall_seconds histogram\n"));
        assert!(text.contains("lightyear_round_wall_seconds_bucket{le=\"+Inf\"} 10\n"));
        assert!(text.contains("lightyear_round_wall_seconds_count 10\n"));
        assert!(text.contains("lightyear_round_wall_seconds{quantile=\"0.99\"}"));
        assert!(text.contains("lightyear_rounds_total 1\n"));
        assert!(text.contains("lightyear_ok 1\n"));
        // Cumulative le buckets: the 2ms observations appear from the
        // 2.5ms bound on.
        assert!(text.contains("lightyear_round_wall_seconds_bucket{le=\"0.0025\"} 10\n"));
        assert!(text.contains("lightyear_round_wall_seconds_bucket{le=\"0.001\"} 0\n"));
    }

    #[test]
    fn server_serves_metrics_healthz_trace_and_404s() {
        let reg = Registry::new();
        reg.counter("c").add(1);
        {
            let _s = crate::Span::start(reg.clone(), "unit", Vec::new());
        }
        let status = Status::new(None);
        let server = serve("127.0.0.1:0", reg.clone(), status.clone()).unwrap();
        let addr = server.addr();

        let (code, body) = get(addr, "/metrics");
        assert_eq!(code, 200);
        assert_eq!(body, status_body(&status, &reg), "scrape == renderer bytes");

        let (code, body) = get(addr, "/metrics?format=prom");
        assert_eq!(code, 200);
        assert!(body.contains("lightyear_c 1\n"));

        let (code, body) = get(addr, "/healthz");
        assert_eq!(code, 200);
        let v: Value = serde_json::from_str(&body).unwrap();
        assert!(v.get("uptime_seconds").and_then(Value::as_f64).is_some());

        let (code, body) = get(addr, "/trace?last=1");
        assert_eq!(code, 200);
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(
            v.get("traceEvents").and_then(Value::as_array).map(Vec::len),
            Some(1)
        );

        assert_eq!(get(addr, "/nope").0, 404);

        // Non-GET is rejected.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut text = String::new();
        s.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 405"));

        drop(server); // graceful shutdown must not hang or panic
        assert!(
            TcpStream::connect(addr).is_err() || {
                // The OS may still accept briefly; a request must fail.
                std::thread::sleep(Duration::from_millis(50));
                TcpStream::connect(addr).is_err()
            }
        );
    }

    #[test]
    fn connection_cap_rejects_with_503() {
        let reg = Registry::new();
        let status = Status::new(None);
        let server = serve_with("127.0.0.1:0", reg, status, None, 2).unwrap();
        let addr = server.addr();

        // Two idle connections occupy both slots (their handler
        // threads block reading a request head that never comes).
        // Admission is asynchronous, so probe until the cap bites.
        let hold_a = TcpStream::connect(addr).unwrap();
        let hold_b = TcpStream::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(4);
        let mut saw_503 = false;
        while Instant::now() < deadline {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap();
            let mut text = String::new();
            let _ = s.read_to_string(&mut text);
            if text.starts_with("HTTP/1.1 503") {
                saw_503 = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(saw_503, "over-cap connections must be rejected with 503");

        // Freeing the slots restores service.
        drop(hold_a);
        drop(hold_b);
        let deadline = Instant::now() + Duration::from_secs(4);
        let mut recovered = false;
        while Instant::now() < deadline {
            // While the cap is still draining, a probe can be reset
            // mid-read — treat any I/O error as "retry", not a failure.
            let ok = TcpStream::connect(addr).ok().and_then(|mut s| {
                s.write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                    .ok()?;
                let mut text = String::new();
                s.read_to_string(&mut text).ok()?;
                Some(text.starts_with("HTTP/1.1 200"))
            });
            if ok == Some(true) {
                recovered = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(recovered, "capacity must recover once connections close");
    }

    #[test]
    fn slow_request_is_cut_at_the_deadline() {
        let reg = Registry::new();
        let status = Status::new(None);
        let server = serve_with("127.0.0.1:0", reg, status, None, 1).unwrap();
        let addr = server.addr();

        // Trickle a never-ending request head, one byte a second, into
        // the only slot. The one-second read timeout paces the loop and
        // notices the server answering or closing.
        let mut slow = TcpStream::connect(addr).unwrap();
        slow.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
        let start = Instant::now();
        let mut answer = Vec::new();
        let mut buf = [0u8; 256];
        let closed = loop {
            assert!(
                start.elapsed() < Duration::from_secs(6),
                "a trickling client held its slot past the 5 s deadline"
            );
            if slow.write_all(b"x").is_err() {
                break start.elapsed();
            }
            match slow.read(&mut buf) {
                Ok(0) => break start.elapsed(),
                Ok(n) => answer.extend_from_slice(&buf[..n]),
                Err(e) if timed_out(&e) => {}
                Err(_) => break start.elapsed(),
            }
        };
        assert!(closed < Duration::from_secs(6), "closed after {closed:?}");
        if !answer.is_empty() {
            assert!(answer.starts_with(b"HTTP/1.1 408"), "got: {answer:?}");
        }

        // The freed slot serves the next client. Until the handler
        // thread has released it, a probe may get 503 or be reset.
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let ok = TcpStream::connect(addr).ok().and_then(|mut s| {
                s.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                    .ok()?;
                let mut text = String::new();
                s.read_to_string(&mut text).ok()?;
                Some(text.starts_with("HTTP/1.1 200"))
            });
            if ok == Some(true) {
                break;
            }
            assert!(Instant::now() < deadline, "the slot was not freed");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn mounted_handler_sees_post_bodies_and_falls_through() {
        let reg = Registry::new();
        let status = Status::new(None);
        let handler: Handler = Arc::new(|req: &Request| {
            if req.path == "/echo" {
                Some(Response::text(
                    200,
                    format!("{}:{}", req.method, String::from_utf8_lossy(&req.body)),
                ))
            } else {
                None
            }
        });
        let server = serve_with(
            "127.0.0.1:0",
            reg.clone(),
            status.clone(),
            Some(handler),
            DEFAULT_MAX_CONNS,
        )
        .unwrap();
        let addr = server.addr();

        // POST body reaches the handler intact.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap();
        let mut text = String::new();
        s.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 200"), "got: {text:?}");
        assert!(text.ends_with("POST:hello"), "got: {text:?}");

        // Built-ins still win for their paths.
        let (code, body) = get(addr, "/metrics");
        assert_eq!(code, 200);
        assert_eq!(body, status_body(&status, &reg));

        // Handler declining keeps the historic answers.
        assert_eq!(get(addr, "/nope").0, 404);
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n")
            .unwrap();
        let mut text = String::new();
        s.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 405"), "got: {text:?}");

        // Oversized declared bodies are refused outright.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 999999999\r\n\r\n")
            .unwrap();
        let mut text = String::new();
        s.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 413"), "got: {text:?}");
    }

    /// Send `raw` on a fresh connection, half-close, and read the whole
    /// answer.
    fn exchange(addr: SocketAddr, raw: &[u8]) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut text = String::new();
        let _ = s.read_to_string(&mut text);
        text
    }

    #[test]
    fn panicking_handler_answers_500_and_frees_its_slot() {
        let handler: Handler = Arc::new(|_: &Request| panic!("handler bug"));
        let server = serve_with(
            "127.0.0.1:0",
            Registry::new(),
            Status::new(None),
            Some(handler),
            1,
        )
        .unwrap();
        let addr = server.addr();
        let text = exchange(addr, b"POST /boom HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
        assert!(text.starts_with("HTTP/1.1 500"), "got: {text:?}");
        // The only slot comes back once the connection thread ends;
        // until then a probe may still see 503.
        let deadline = Instant::now() + Duration::from_secs(2);
        while get(addr, "/metrics").0 != 200 {
            assert!(Instant::now() < deadline, "the panicked slot was not freed");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn truncated_body_is_a_400_the_handler_never_sees() {
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = calls.clone();
        let handler: Handler = Arc::new(move |req: &Request| {
            seen.fetch_add(1, Ordering::SeqCst);
            Some(Response::text(200, req.body.len().to_string()))
        });
        let server = serve_with(
            "127.0.0.1:0",
            Registry::new(),
            Status::new(None),
            Some(handler),
            DEFAULT_MAX_CONNS,
        )
        .unwrap();
        let addr = server.addr();
        let text = exchange(
            addr,
            b"POST /len HTTP/1.1\r\nContent-Length: 10\r\n\r\nhello",
        );
        assert!(text.starts_with("HTTP/1.1 400"), "got: {text:?}");
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        // A whole body still reaches the handler.
        let text = exchange(
            addr,
            b"POST /len HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
        );
        assert!(text.ends_with("\r\n\r\n5"), "got: {text:?}");
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }
}
