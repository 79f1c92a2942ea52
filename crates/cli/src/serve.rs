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
use crate::telemetry::{Observer, TelemetryOpts};
use crate::{fail, flag_value, positionals, positive, usage_error};
use api::{ApiCall, ApiRequest, ApiResponse, ConfigFile};
use bgp_config::{parse_config, ConfigAst};
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
    tele: Observer,
}

impl Daemon {
    /// Bump the serve counter `name` by one.
    fn count(&self, name: &str) {
        self.tele.reg.counter_labeled(name).add(1);
    }

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
        self.count(&format!("serve.calls.{}", call.name()));
        self.count(&format!("serve.tenant.{tenant}.calls"));
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
                self.count("serve.rounds.rejected");
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
        self.count(&format!("serve.tenant.{tenant}.rounds"));
        self.tele
            .seal(baseline, outcome.passed, outcome.elapsed, None);
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
        self.count("serve.requests");
        let req = match ApiRequest::from_json(&String::from_utf8_lossy(body)) {
            Ok(r) => r,
            Err(e) => {
                self.count("serve.requests.bad");
                return (400, ApiResponse::failure(e));
            }
        };
        if matches!(req.call, ApiCall::Health) {
            return (200, self.health());
        }
        match self.enqueue(&req.tenant, req.call) {
            Err(()) => {
                self.count("serve.requests.throttled");
                self.count(&format!("serve.tenant.{}.throttled", req.tenant));
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
    let own = ["--cache-root", "--workers", "--queue-depth", "--max-conns"];
    let value_flags = [&own[..], &TelemetryOpts::FLAGS].concat();
    if let Err(e) = positionals("serve", args, &value_flags, &[], 0) {
        return usage_error(&e);
    }
    let tele_opts = match TelemetryOpts::parse(args) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    if tele_opts.listen.is_none() {
        return usage_error("serve needs --listen <addr> (use 127.0.0.1:0 for an ephemeral port)");
    }
    let cache_root = flag_value(args, "--cache-root").map(PathBuf::from);
    let positive_or = |flag, default| positive(args, flag).map(|n| n.unwrap_or(default));
    let (workers, queue_depth, max_conns) = match (
        positive_or("--workers", DEFAULT_WORKERS),
        positive_or("--queue-depth", DEFAULT_QUEUE_DEPTH),
        positive_or("--max-conns", obs::http::DEFAULT_MAX_CONNS),
    ) {
        (Ok(w), Ok(q), Ok(m)) => (w, q, m),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => return usage_error(&e),
    };

    // The daemon is built on the brought-up registry first, so the
    // listener's API handler points at it from the first request on.
    let tele = match tele_opts.bring_up("serve") {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };
    let daemon = Arc::new(Daemon {
        tenants: Mutex::new(HashMap::new()),
        queue: Mutex::new(QueueState::default()),
        wake: Condvar::new(),
        cache_root,
        queue_depth,
        tele,
    });
    let api = daemon.clone();
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
        let (code, resp) = api.handle(&req.body);
        Some(obs::http::Response::json(code, &resp.to_value()))
    });
    let _server = match daemon.tele.listen(Some(handler), max_conns) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
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

    // Serve until killed. Dropping `_server` would stop the listener,
    // so this loop keeps it for the process lifetime.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
