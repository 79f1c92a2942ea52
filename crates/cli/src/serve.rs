//! `lightyear serve`: the long-lived multi-tenant verification daemon.
//!
//! One process hosts many isolated tenants, each with its own spec,
//! configuration set, per-property [`ReverifyEngine`]s and (under
//! `--cache-root`) its own spill directory — so a restarted daemon
//! answers its first full round warm, exactly like a restarted `watch`
//! (after an upgrade that changed the fingerprint format the old keys
//! simply miss: each tenant's first round reports `dirty N/N` once).
//!
//! The wire protocol is the typed, versioned envelope of
//! [`api::wire`]: `POST /api/v1` with an [`api::ApiRequest`], answered
//! by an [`api::ApiResponse`] whose reports are the same
//! [`api::PropertyReport`] documents `verify --json` emits — one
//! serializer, no drift. The existing telemetry endpoints
//! (`/metrics`, `/healthz`, `/trace`) share the listener.
//!
//! ## Admission and fairness
//!
//! Requests are enqueued per tenant into bounded queues
//! (`--queue-depth`, overflow answered `429`) and drained by a fixed
//! worker pool in **round-robin tenant order** with an in-flight cap
//! of one job per tenant. The cap is what makes a tenant's engines
//! single-writer (no locking inside rounds) and the round-robin drain
//! is the fairness bound: a tenant flooding its queue can delay
//! another tenant by at most the one job per other tenant already in
//! flight, never by its whole backlog.

use crate::session::{round_line, Session};
use crate::spec::Spec;
use crate::telemetry::TelemetryOpts;
use crate::{flag_value, usage};
use api::{ApiCall, ApiRequest, ApiResponse, ConfigFile};
use bgp_config::{parse_config, ConfigAst};
use obs::http::Status;
use serde_json::Value;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

/// Default bound on each tenant's pending-request queue.
const DEFAULT_QUEUE_DEPTH: usize = 16;

/// Default worker count (tenant rounds run one-per-tenant at a time,
/// so workers bound cross-tenant parallelism).
const DEFAULT_WORKERS: usize = 4;

/// How long a connection waits for its queued job before giving up.
/// Queue depth × worst-case round time stays well under this for any
/// realistic deployment; hitting it answers a 500 rather than holding
/// the connection forever.
const REPLY_TIMEOUT: Duration = Duration::from_secs(600);

/// One tenant's verification state and last-round artifacts.
#[derive(Default)]
struct Tenant {
    session: Option<Session>,
    /// Per-tenant round counter (baseline submit is round 0).
    rounds: u64,
    passed: bool,
    line: String,
    reports: Vec<api::PropertyReport>,
}

/// A queued request: the call plus the channel its connection blocks on.
struct Job {
    call: ApiCall,
    reply: mpsc::Sender<ApiResponse>,
}

/// The admission queue: bounded per-tenant FIFOs drained round-robin
/// with at most one in-flight job per tenant.
#[derive(Default)]
struct QueueState {
    queues: HashMap<String, VecDeque<Job>>,
    /// Tenants with pending jobs, in drain order. Invariant: a tenant
    /// appears here exactly once iff it has pending jobs and no job in
    /// flight.
    ready: VecDeque<String>,
    inflight: std::collections::HashSet<String>,
}

struct Daemon {
    tenants: Mutex<HashMap<String, Arc<Mutex<Tenant>>>>,
    queue: Mutex<QueueState>,
    wake: Condvar,
    cache_root: Option<PathBuf>,
    queue_depth: usize,
    reg: Arc<obs::Registry>,
    status: Arc<Status>,
    /// Registry snapshot at the last round boundary, for per-round
    /// delta metrics in the status document (same scheme as `watch`).
    prev: Mutex<obs::MetricsSnapshot>,
}

impl Daemon {
    /// Enqueue `call` for `tenant`, or refuse with the 429 payload when
    /// the tenant's queue is full.
    fn enqueue(&self, tenant: &str, call: ApiCall) -> Result<mpsc::Receiver<ApiResponse>, ()> {
        let (tx, rx) = mpsc::channel();
        let mut qs = self.queue.lock().unwrap();
        let q = qs.queues.entry(tenant.to_string()).or_default();
        if q.len() >= self.queue_depth {
            return Err(());
        }
        q.push_back(Job { call, reply: tx });
        if !qs.inflight.contains(tenant) && !qs.ready.iter().any(|t| t == tenant) {
            qs.ready.push_back(tenant.to_string());
        }
        self.wake.notify_one();
        Ok(rx)
    }

    /// Worker loop: claim the next ready tenant's front job, run it,
    /// then requeue the tenant at the back if it still has work — the
    /// round-robin drain.
    fn work(self: &Arc<Self>) {
        loop {
            let (tenant, job) = {
                let mut qs = self.queue.lock().unwrap();
                loop {
                    if let Some(t) = qs.ready.pop_front() {
                        if let Some(j) = qs.queues.get_mut(&t).and_then(VecDeque::pop_front) {
                            qs.inflight.insert(t.clone());
                            break (t, j);
                        }
                        continue; // stale ready entry; drop it
                    }
                    qs = self.wake.wait(qs).unwrap();
                }
            };
            let resp = self.execute(&tenant, job.call);
            let _ = job.reply.send(resp);
            let mut qs = self.queue.lock().unwrap();
            qs.inflight.remove(&tenant);
            if qs.queues.get(&tenant).is_some_and(|q| !q.is_empty()) {
                qs.ready.push_back(tenant.clone());
                self.wake.notify_one();
            }
        }
    }

    /// The tenant's state cell (created on first use).
    fn tenant(&self, name: &str) -> Arc<Mutex<Tenant>> {
        self.tenants
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Run one call against its tenant. The in-flight cap makes the
    /// inner lock uncontended; it exists so a misbehaving future caller
    /// cannot corrupt a tenant, not for coordination.
    fn execute(&self, tenant: &str, call: ApiCall) -> ApiResponse {
        self.reg
            .counter_labeled(&format!("serve.calls.{}", call.name()))
            .add(1);
        self.reg
            .counter_labeled(&format!("serve.tenant.{tenant}.calls"))
            .add(1);
        let cell = self.tenant(tenant);
        let mut t = cell.lock().unwrap();
        match call {
            ApiCall::SubmitConfigs { configs, spec } => {
                let spec: Spec = match serde_json::from_value(spec) {
                    Ok(s) => s,
                    Err(e) => return ApiResponse::failure(format!("bad spec: {e}")),
                };
                let asts = match parse_config_files(&configs) {
                    Ok(a) => a,
                    Err(e) => return ApiResponse::failure(e),
                };
                // A (re-)submit replaces the whole session; with a
                // cache root the new session starts from the tenant's
                // spilled passes — the warm-restart path.
                let cache = self.cache_root.as_ref().map(|r| r.join(tenant));
                let mut session = Session::new(&format!("serve[{tenant}]"), spec, cache);
                let round = session.round(asts, true);
                t.session = Some(session);
                self.finish_round(tenant, &mut t, round, true)
            }
            ApiCall::SubmitDelta { configs } => {
                let asts = match parse_config_files(&configs) {
                    Ok(a) => a,
                    Err(e) => return ApiResponse::failure(e),
                };
                let Some(session) = t.session.as_mut() else {
                    return ApiResponse::failure("no configuration submitted for this tenant");
                };
                let round = session.round(asts, false);
                self.finish_round(tenant, &mut t, round, false)
            }
            ApiCall::Verify => {
                let Some(session) = t.session.as_mut() else {
                    return ApiResponse::failure("no configuration submitted for this tenant");
                };
                let asts = session.current.clone();
                let round = session.round(asts, true);
                self.finish_round(tenant, &mut t, round, false)
            }
            ApiCall::QueryCores { property } => {
                if t.session.is_none() {
                    return ApiResponse::failure("no configuration submitted for this tenant");
                }
                let cores: Vec<Value> = t
                    .reports
                    .iter()
                    .filter(|r| property.as_deref().is_none_or(|p| p == r.property))
                    .map(|r| {
                        Value::Object(vec![
                            ("property".to_string(), Value::Str(r.property.clone())),
                            (
                                "cores".to_string(),
                                Value::Array(r.cores.iter().map(|c| c.to_value()).collect()),
                            ),
                        ])
                    })
                    .collect();
                if cores.is_empty() && property.is_some() {
                    return ApiResponse::failure(format!(
                        "unknown property {:?}",
                        property.unwrap_or_default()
                    ));
                }
                ApiResponse::success(Value::Object(vec![(
                    "cores".to_string(),
                    Value::Array(cores),
                )]))
            }
            ApiCall::GetReport => {
                if t.session.is_none() {
                    return ApiResponse::failure("no configuration submitted for this tenant");
                }
                ApiResponse::success(report_value(&t))
            }
            // Health never reaches the queue (answered inline).
            ApiCall::Health => ApiResponse::failure("Health is answered without a tenant"),
        }
    }

    /// Seal a verification round: spill caches, store the artifacts,
    /// count it (both globally and per tenant) and render the response.
    fn finish_round(
        &self,
        tenant: &str,
        t: &mut Tenant,
        round: Result<crate::session::RoundOutcome, String>,
        baseline: bool,
    ) -> ApiResponse {
        let outcome = match round {
            Ok(o) => o,
            Err(e) => {
                // The session keeps its previous accepted state; the
                // stored report stays the last good round's.
                self.reg.counter("serve.rounds.rejected").add(1);
                return ApiResponse::failure(e);
            }
        };
        if let Some(s) = &t.session {
            s.spill();
        }
        if !baseline {
            t.rounds += 1;
        }
        t.passed = outcome.passed;
        t.line = round_line(
            &format!("serve[{tenant}] round {n}", n = t.rounds),
            &outcome,
        );
        t.reports = outcome.reports;
        // The HTTP reply is the product; the log line is not. A closed
        // stdout must not panic here, under the tenant's lock.
        let _ = crate::log_stdout(&format!("{}{}\n", outcome.violations, t.line));
        self.reg
            .counter_labeled(&format!("serve.tenant.{tenant}.rounds"))
            .add(1);
        let delta = {
            let snap = self.reg.snapshot();
            let mut prev = self.prev.lock().unwrap();
            let d = snap.delta_since(&prev);
            *prev = snap;
            d
        };
        if baseline {
            self.status
                .note_baseline(outcome.passed, outcome.elapsed, Some(delta));
        } else {
            self.status
                .note_round(outcome.passed, outcome.elapsed, Some(delta));
        }
        ApiResponse::success(report_value(t))
    }

    /// The daemon-level health answer (no tenant, never queued).
    fn health(&self) -> ApiResponse {
        let tenants = self.tenants.lock().unwrap();
        let list: Vec<Value> = tenants
            .iter()
            .map(|(name, cell)| {
                let t = cell.lock().unwrap();
                Value::Object(vec![
                    ("tenant".to_string(), Value::Str(name.clone())),
                    ("rounds".to_string(), Value::UInt(t.rounds)),
                    ("passed".to_string(), Value::Bool(t.passed)),
                ])
            })
            .collect();
        ApiResponse::success(Value::Object(vec![
            ("status".to_string(), Value::Str("ok".to_string())),
            ("api_version".to_string(), Value::UInt(api::API_VERSION)),
            ("tenants".to_string(), Value::Array(list)),
        ]))
    }

    /// The HTTP entry point: parse the envelope, answer Health inline,
    /// queue everything else and wait for the worker's reply.
    fn handle(&self, body: &[u8]) -> (u16, ApiResponse) {
        self.reg.counter("serve.requests").add(1);
        let req = match ApiRequest::from_json(&String::from_utf8_lossy(body)) {
            Ok(r) => r,
            Err(e) => {
                self.reg.counter("serve.requests.bad").add(1);
                return (400, ApiResponse::failure(e));
            }
        };
        if matches!(req.call, ApiCall::Health) {
            return (200, self.health());
        }
        match self.enqueue(&req.tenant, req.call) {
            Err(()) => {
                self.reg.counter("serve.requests.throttled").add(1);
                self.reg
                    .counter_labeled(&format!("serve.tenant.{}.throttled", req.tenant))
                    .add(1);
                (
                    429,
                    ApiResponse::failure(format!("tenant {:?} queue is full", req.tenant)),
                )
            }
            Ok(rx) => match rx.recv_timeout(REPLY_TIMEOUT) {
                Ok(resp) => {
                    let code = if resp.ok { 200 } else { 422 };
                    (code, resp)
                }
                Err(_) => (500, ApiResponse::failure("verification timed out")),
            },
        }
    }
}

/// A tenant's last-round document (the GetReport / round-reply body).
fn report_value(t: &Tenant) -> Value {
    Value::Object(vec![
        ("round".to_string(), Value::UInt(t.rounds)),
        ("passed".to_string(), Value::Bool(t.passed)),
        ("line".to_string(), Value::Str(t.line.clone())),
        (
            "reports".to_string(),
            Value::Array(t.reports.iter().map(|r| r.to_value()).collect()),
        ),
    ])
}

/// Parse submitted config files (sorted by name, matching the
/// directory-walk order of the file-based front-ends).
fn parse_config_files(configs: &[ConfigFile]) -> Result<Vec<ConfigAst>, String> {
    if configs.is_empty() {
        return Err("configs must not be empty".to_string());
    }
    let mut sorted: Vec<&ConfigFile> = configs.iter().collect();
    sorted.sort_by(|a, b| a.name.cmp(&b.name));
    sorted
        .iter()
        .map(|c| parse_config(&c.text).map_err(|e| format!("{}: {e}", c.name)))
        .collect()
}

pub(crate) fn cmd_serve(args: &[String]) -> ExitCode {
    // Strict flags, like every other daemon mode.
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--cache-root" | "--workers" | "--queue-depth" | "--max-conns" => i += 2,
            a if TelemetryOpts::takes(a) => i += 2,
            a => {
                eprintln!("error: unknown serve option {a}");
                return usage();
            }
        }
    }
    let tele_opts = match TelemetryOpts::parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    if tele_opts.listen.is_none() {
        eprintln!("error: serve needs --listen <addr> (use 127.0.0.1:0 for an ephemeral port)");
        return usage();
    }
    let cache_root = flag_value(args, "--cache-root").map(PathBuf::from);
    let positive = |flag: &str, default: usize| -> Result<usize, ()> {
        match flag_value(args, flag).map(|v| v.parse::<usize>()) {
            None => Ok(default),
            Some(Ok(n)) if n > 0 => Ok(n),
            Some(_) => {
                eprintln!("error: {flag} needs a positive integer");
                Err(())
            }
        }
    };
    let Ok(workers) = positive("--workers", DEFAULT_WORKERS) else {
        return usage();
    };
    let Ok(queue_depth) = positive("--queue-depth", DEFAULT_QUEUE_DEPTH) else {
        return usage();
    };
    let Ok(max_conns) = positive("--max-conns", obs::http::DEFAULT_MAX_CONNS) else {
        return usage();
    };

    // The daemon cell is created first, then the listener is brought up
    // with the API handler pointing back into it.
    let daemon_slot: Arc<Mutex<Option<Arc<Daemon>>>> = Arc::new(Mutex::new(None));
    let slot = daemon_slot.clone();
    let handler: obs::http::Handler = Arc::new(move |req: &obs::http::Request| {
        if req.path != "/api/v1" {
            return None;
        }
        if req.method != "POST" {
            return Some(obs::http::Response::json(
                405,
                &ApiResponse::failure("use POST /api/v1").to_value(),
            ));
        }
        // The listener prints its address (and can accept requests)
        // a beat before the daemon lands in the slot; wait out that
        // bring-up gap instead of declining the request.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let daemon = loop {
            if let Some(d) = slot.lock().unwrap().clone() {
                break d;
            }
            if std::time::Instant::now() >= deadline {
                return Some(obs::http::Response::json(
                    503,
                    &ApiResponse::failure("daemon still starting").to_value(),
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let (code, resp) = daemon.handle(&req.body);
        Some(obs::http::Response::json(code, &resp.to_value()))
    });
    let active = match tele_opts.start("serve", Some(handler), max_conns) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let daemon = Arc::new(Daemon {
        tenants: Mutex::new(HashMap::new()),
        queue: Mutex::new(QueueState::default()),
        wake: Condvar::new(),
        cache_root,
        queue_depth,
        prev: Mutex::new(active.reg.snapshot()),
        reg: active.reg.clone(),
        status: active.status.clone(),
    });
    *daemon_slot.lock().unwrap() = Some(daemon.clone());
    for w in 0..workers {
        let d = daemon.clone();
        let _ = std::thread::Builder::new()
            .name(format!("serve-worker-{w}"))
            .spawn(move || d.work());
    }
    let _ = crate::log_stdout(&format!(
        "serve: {workers} workers, queue depth {queue_depth} per tenant, \
         cache root {root}\n",
        root = daemon
            .cache_root
            .as_deref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "(none)".to_string()),
    ));

    // Serve until killed. The listener lives in `active`; dropping it
    // would stop the daemon, so this loop owns it for the process
    // lifetime.
    let _active = active;
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
