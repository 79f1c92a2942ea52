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
//! by an [`api::ApiResponse`] whose reports are [`api::PropertyReport`]
//! documents collected from the rows `verify --json` streams — one
//! field order, no drift. The existing telemetry endpoints
//! (`/metrics`, `/healthz`, `/trace`) share the listener.
//!
//! ## Concurrency
//!
//! Every call runs on its HTTP connection's thread, under its tenant's
//! lock: one tenant's engines see one writer at a time, while tenants
//! proceed in parallel and never wait on one another. `--max-conns`
//! is the one bound on concurrent calls.
//!
//! A call that panics poisons its tenant's lock, and the engines it
//! held may be half-advanced. The next call drops that session and
//! answers [`STATE_LOST`] until a `SubmitConfigs` replaces it; other
//! tenants never notice.

use crate::session::{round_line, Session};
use crate::spec::Spec;
use crate::telemetry::{Observer, TelemetryOpts};
use crate::{fail, flag_value, positionals, positive, usage_error};
use api::{ApiCall, ApiRequest, ApiResponse, ConfigFile};
use bgp_config::{parse_config, ConfigAst};
use serde::{Serialize, Sink};
use serde_json::Value;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The answer to a call for a tenant that has no session.
const NO_BASELINE: &str = "no configuration submitted for this tenant";

/// The answer to a call for a tenant whose lock a panicked call
/// poisoned, until a `SubmitConfigs` replaces its session.
const STATE_LOST: &str = "tenant state lost in a failed call; resubmit";

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

struct Daemon {
    /// Only a `SubmitConfigs` whose spec and configs parse adds an
    /// entry, so a name a client merely invents leaves no state.
    tenants: Mutex<HashMap<String, Arc<Mutex<Tenant>>>>,
    cache_root: Option<PathBuf>,
    tele: Observer,
}

impl Daemon {
    /// Bump the serve counter `name` by one.
    fn count(&self, name: &str) {
        self.tele.reg.counter_labeled(name).add(1);
    }

    /// The tenant table. Its critical sections only look up and insert
    /// cells, so a panic elsewhere leaves it consistent and its poison
    /// is ignored.
    fn table(&self) -> MutexGuard<'_, HashMap<String, Arc<Mutex<Tenant>>>> {
        self.tenants.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run one call against its tenant, holding the tenant's lock for
    /// the whole call.
    fn execute(&self, tenant: &str, call: ApiCall) -> Answer {
        self.count(&format!("serve.calls.{}", call.name()));
        if let ApiCall::SubmitConfigs { configs, spec } = call {
            return self.submit(tenant, &configs, spec);
        }
        let Some(cell) = self.table().get(tenant).cloned() else {
            return Answer::failure(NO_BASELINE);
        };
        self.count(&format!("serve.tenant.{tenant}.calls"));
        let mut guard = match cell.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                // The poison stays until a submit clears it, so every
                // call until then says why the tenant has no session.
                poisoned.into_inner().session = None;
                return Answer::failure(STATE_LOST);
            }
        };
        let t = &mut *guard;
        // A tenant whose baseline submit is still starting has no
        // session yet.
        let Some(session) = t.session.as_mut() else {
            return Answer::failure(NO_BASELINE);
        };
        let round = match call {
            ApiCall::SubmitDelta { configs } => match parse_config_files(&configs) {
                Ok(asts) => session.round(asts, false),
                Err(e) => return Answer::failure(e),
            },
            ApiCall::Verify => {
                let asts = session.current.clone();
                session.round(asts, true)
            }
            ApiCall::QueryCores { property } => {
                let cores: Vec<Value> = t
                    .reports
                    .iter()
                    .filter(|r| property.as_deref().is_none_or(|p| p == r.property))
                    .map(|r| {
                        Value::Object(vec![
                            ("property".to_string(), Value::Str(r.property.clone())),
                            ("cores".to_string(), serde_json::to_value(&r.cores)),
                        ])
                    })
                    .collect();
                if cores.is_empty() && property.is_some() {
                    return Answer::failure(format!(
                        "unknown property {:?}",
                        property.unwrap_or_default()
                    ));
                }
                return Answer::of(&ApiResponse::success(Value::Object(vec![(
                    "cores".to_string(),
                    Value::Array(cores),
                )])));
            }
            ApiCall::GetReport => return Answer::report(t),
            ApiCall::SubmitConfigs { .. } | ApiCall::Health => {
                unreachable!("submits return above and Health is answered in `handle`")
            }
        };
        self.finish_round(tenant, t, round, false)
    }

    /// Establish (or replace) the tenant's session and verify it as the
    /// baseline round. The spec and configs are checked before the
    /// tenant is created.
    fn submit(&self, tenant: &str, configs: &[ConfigFile], spec: Value) -> Answer {
        let spec: Spec = match serde_json::from_value(spec) {
            Ok(s) => s,
            Err(e) => return Answer::failure(format!("bad spec: {e}")),
        };
        let asts = match parse_config_files(configs) {
            Ok(a) => a,
            Err(e) => return Answer::failure(e),
        };
        let cell = self.table().entry(tenant.to_string()).or_default().clone();
        self.count(&format!("serve.tenant.{tenant}.calls"));
        // A submit replaces whatever session a panicked call left.
        let mut t = cell.lock().unwrap_or_else(|poisoned| {
            cell.clear_poison();
            poisoned.into_inner()
        });
        // A (re-)submit replaces the whole session; with a cache root
        // the new session starts from the tenant's spilled passes — the
        // warm-restart path.
        let cache = self.cache_root.as_ref().map(|r| r.join(tenant));
        let mut session = Session::new(&format!("serve[{tenant}]"), spec, cache);
        let round = session.round(asts, true);
        t.session = Some(session);
        self.finish_round(tenant, &mut t, round, true)
    }

    /// Seal a verification round: spill caches, store the artifacts,
    /// count it (both globally and per tenant) and render the response.
    fn finish_round(
        &self,
        tenant: &str,
        t: &mut Tenant,
        round: Result<crate::session::RoundOutcome, String>,
        baseline: bool,
    ) -> Answer {
        let outcome = match round {
            Ok(o) => o,
            Err(e) => {
                // The session keeps its previous accepted state; the
                // stored report stays the last good round's.
                self.count("serve.rounds.rejected");
                return Answer::failure(e);
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
        Answer::report(t)
    }

    /// The daemon-level health answer (no tenant).
    fn health(&self) -> ApiResponse {
        // Cloned out first: a tenant busy in a round must not hold the
        // table, and with it every other tenant's call, behind Health.
        let tenants: Vec<(String, Arc<Mutex<Tenant>>)> = self
            .table()
            .iter()
            .map(|(name, cell)| (name.clone(), cell.clone()))
            .collect();
        let list: Vec<Value> = tenants
            .into_iter()
            .map(|(name, cell)| {
                // A round that panicked left these two fields as its
                // previous round set them, so a poisoned lock still
                // reads a valid answer.
                let t = cell.lock().unwrap_or_else(PoisonError::into_inner);
                Value::Object(vec![
                    ("tenant".to_string(), Value::Str(name)),
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

    /// The HTTP entry point: parse the envelope, then answer Health
    /// or run the tenant's call. Returns the status and the body.
    fn handle(&self, body: &[u8]) -> (u16, String) {
        self.count("serve.requests");
        let req = match ApiRequest::from_json(&String::from_utf8_lossy(body)) {
            Ok(r) => r,
            Err(e) => {
                self.count("serve.requests.bad");
                return (400, Answer::failure(e).body);
            }
        };
        if matches!(req.call, ApiCall::Health) {
            return (200, Answer::of(&self.health()).body);
        }
        let answer = self.execute(&req.tenant, req.call);
        (if answer.ok { 200 } else { 422 }, answer.body)
    }
}

/// A call's answer as the wire carries it: whether it succeeded, and
/// the envelope's text.
struct Answer {
    ok: bool,
    body: String,
}

impl Answer {
    /// The text of `resp`, as every JSON endpoint writes it.
    fn of<R: Serialize>(resp: &ApiResponse<R>) -> Answer {
        Answer {
            ok: resp.ok,
            body: serde_json::to_string_pretty(resp).unwrap_or_default(),
        }
    }

    fn failure(error: impl Into<String>) -> Answer {
        Answer::of(&ApiResponse::failure(error))
    }

    /// A success whose result is the tenant's last-round document (the
    /// GetReport / round-reply body), streamed from the tenant under
    /// its lock.
    fn report(t: &Tenant) -> Answer {
        Answer::of(&ApiResponse::success(ReportDoc(t)))
    }
}

/// A tenant's last-round document: round, verdict, round line and the
/// property reports.
struct ReportDoc<'t>(&'t Tenant);

impl Serialize for ReportDoc<'_> {
    fn stream<S: Sink>(&self, out: &mut S) {
        let t = self.0;
        out.begin_object();
        out.field("round", &t.rounds);
        out.field("passed", &t.passed);
        out.field("line", &t.line);
        out.field("reports", &t.reports);
        out.end_object();
    }
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
    let own = ["--cache-root", "--max-conns"];
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
    let max_conns = match positive(args, "--max-conns") {
        Ok(m) => m.unwrap_or(obs::http::DEFAULT_MAX_CONNS),
        Err(e) => return usage_error(&e),
    };

    // The daemon is built on the brought-up registry first, so the
    // listener's API handler points at it from the first request on.
    let tele = match tele_opts.bring_up("serve") {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };
    let daemon = Arc::new(Daemon {
        tenants: Mutex::new(HashMap::new()),
        cache_root,
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
                &ApiResponse::failure("use POST /api/v1"),
            ));
        }
        let (code, body) = api.handle(&req.body);
        Some(obs::http::Response {
            code,
            content_type: "application/json",
            body,
        })
    });
    let _server = match daemon.tele.listen(Some(handler), max_conns) {
        Ok(s) => s,
        Err(e) => return fail(&e),
    };
    let _ = crate::log_stdout(&format!(
        "serve: at most {max_conns} connections, cache root {root}\n",
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A daemon that does not listen; its flight recorder dumps into a
    /// scratch directory when a test panics on purpose.
    fn daemon() -> Daemon {
        let dir = std::env::temp_dir().join(format!("lightyear-serve-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let opts = TelemetryOpts {
            listen: None,
            metrics_json: None,
            events_jsonl: None,
            flight_json: dir.join("flight.json"),
            stale_after: None,
        };
        Daemon {
            tenants: Mutex::default(),
            cache_root: None,
            tele: opts.bring_up("serve").unwrap(),
        }
    }

    fn call(d: &Daemon, call: ApiCall) -> (u16, ApiResponse) {
        let body = serde_json::to_string(&ApiRequest::new("t", call)).unwrap();
        let (code, text) = d.handle(body.as_bytes());
        let doc: Value = serde_json::from_str(&text).unwrap();
        (code, ApiResponse::from_value(&doc).unwrap())
    }

    fn submit() -> ApiCall {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/configs");
        let read = |name: &str| std::fs::read_to_string(format!("{dir}/{name}")).unwrap();
        ApiCall::SubmitConfigs {
            configs: ["r1.cfg", "r2.cfg"]
                .map(|name| ConfigFile {
                    name: name.to_string(),
                    text: read(name),
                })
                .to_vec(),
            spec: serde_json::from_str(&read("spec.json")).unwrap(),
        }
    }

    #[test]
    fn a_panicked_call_costs_its_tenant_the_session_until_a_resubmit() {
        let d = daemon();
        let (code, resp) = call(&d, submit());
        assert_eq!(code, 200, "{:?}", resp.error);
        // A call that panics while it holds the tenant's lock.
        let cell = d.table().get("t").cloned().unwrap();
        let held = std::thread::spawn(move || {
            let _tenant = cell.lock().unwrap();
            panic!("a call panicked mid-round");
        });
        assert!(held.join().is_err());

        for _ in 0..2 {
            let (code, resp) = call(&d, ApiCall::Verify);
            assert_eq!(code, 422);
            assert_eq!(resp.error.as_deref(), Some(STATE_LOST));
        }
        // Health still reads the tenant, and the daemon keeps serving.
        assert_eq!(call(&d, ApiCall::Health).0, 200);
        let (code, resp) = call(&d, submit());
        assert_eq!(code, 200, "{:?}", resp.error);
        let (code, resp) = call(&d, ApiCall::Verify);
        assert_eq!(code, 200, "{:?}", resp.error);
        assert_eq!(resp.result["passed"], Value::Bool(true));
    }
}
