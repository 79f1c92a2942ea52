//! End-to-end tests of `lightyear serve`: spawn the daemon, drive the
//! typed `POST /api/v1` protocol over raw TCP, and check tenant
//! isolation, fairness under flood, concurrent calls for one tenant,
//! and warm restart.

use serde_json::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_lightyear")
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("lightyear-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

// ---------------------------------------------------------------- daemon

/// A running `lightyear serve` child: announced address, captured
/// stdout, killed on drop.
struct Daemon {
    child: Child,
    addr: String,
    stdout: Arc<Mutex<String>>,
}

impl Daemon {
    fn start(extra: &[&str]) -> Daemon {
        let mut child = Command::new(bin())
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let out = child.stdout.take().unwrap();
        let stdout = Arc::new(Mutex::new(String::new()));
        let sink = stdout.clone();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(out).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.strip_prefix("serve: listening on http://") {
                    let _ = tx.send(addr.to_string());
                }
                let mut s = sink.lock().unwrap();
                s.push_str(&line);
                s.push('\n');
            }
        });
        let addr = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("daemon did not announce its listener");
        Daemon {
            child,
            addr,
            stdout,
        }
    }

    /// One `POST /api/v1` round-trip: `(http_status, response_body)`.
    fn post(&self, req: &Value) -> (u16, Value) {
        post_to(&self.addr, req)
    }

    fn stdout(&self) -> String {
        self.stdout.lock().unwrap().clone()
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// One `POST /api/v1` round-trip against `addr`.
fn post_to(addr: &str, req: &Value) -> (u16, Value) {
    post_body(addr, &serde_json::to_string(req).unwrap())
}

/// [`post_to`] with the request body given as text (not necessarily a
/// well-formed request).
fn post_body(addr: &str, body: &str) -> (u16, Value) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream
        .write_all(
            format!(
                "POST /api/v1 HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    let code = text
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    let payload = text.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    let v =
        serde_json::from_str(payload).unwrap_or_else(|e| panic!("bad response body ({e}): {text}"));
    (code, v)
}

// ------------------------------------------------------------- requests

fn req(tenant: &str, call: Value) -> Value {
    serde_json::json!({ "api_version": 1u64, "tenant": tenant, "call": call })
}

fn file_values(files: &[(String, String)]) -> Vec<Value> {
    files
        .iter()
        .map(|(name, text)| serde_json::json!({ "name": name, "text": text }))
        .collect()
}

fn submit(tenant: &str, files: &[(String, String)], spec: &Value) -> Value {
    let body = serde_json::json!({ "configs": file_values(files), "spec": spec.clone() });
    req(tenant, serde_json::json!({ "SubmitConfigs": body }))
}

fn delta(tenant: &str, files: &[(String, String)]) -> Value {
    let body = serde_json::json!({ "configs": file_values(files) });
    req(tenant, serde_json::json!({ "SubmitDelta": body }))
}

fn verify(tenant: &str) -> Value {
    req(tenant, Value::Str("Verify".to_string()))
}

fn get_report(tenant: &str) -> Value {
    req(tenant, Value::Str("GetReport".to_string()))
}

fn health() -> Value {
    req("", Value::Str("Health".to_string()))
}

/// A tenant's round count from a Health response (0 when absent).
fn health_rounds(resp: &Value, tenant: &str) -> u64 {
    resp["result"]["tenants"]
        .as_array()
        .into_iter()
        .flatten()
        .find(|t| t["tenant"].as_str() == Some(tenant))
        .and_then(|t| t["rounds"].as_u64())
        .unwrap_or(0)
}

// ------------------------------------------------------------- networks

const R1: &str = "\
hostname R1
route-map FROM-ISP1 permit 10
 set community 100:1 additive
router bgp 65000
 neighbor 10.0.0.1 remote-as 100
 neighbor 10.0.0.1 description ISP1
 neighbor 10.0.0.1 route-map FROM-ISP1 in
 neighbor 10.0.12.2 remote-as 65000
 neighbor 10.0.12.2 description R2
";

const R2: &str = "\
hostname R2
ip community-list standard TRANSIT permit 100:1
route-map TO-ISP2 deny 10
 match community TRANSIT
route-map TO-ISP2 permit 20
route-map FROM-ISP2 permit 10
 set community none
router bgp 65000
 neighbor 10.0.0.2 remote-as 200
 neighbor 10.0.0.2 description ISP2
 neighbor 10.0.0.2 route-map FROM-ISP2 in
 neighbor 10.0.0.2 route-map TO-ISP2 out
 neighbor 10.0.12.1 remote-as 65000
 neighbor 10.0.12.1 description R1
";

const SPEC: &str = r#"{
  "ghosts": [
    { "name": "FromISP1",
      "set_true_on_import": ["ISP1 -> R1"],
      "set_false_on_import": ["ISP2 -> R2"] }
  ],
  "safety": [
    { "name": "no-transit",
      "location": "R2 -> ISP2",
      "property": { "Not": { "Ghost": "FromISP1" } },
      "invariant_default": { "Or": [ { "Not": { "Ghost": "FromISP1" } },
                                     { "HasCommunity": 6553601 } ] },
      "invariant_overrides": {
        "R2 -> ISP2": { "Not": { "Ghost": "FromISP1" } } } }
  ]
}"#;

fn small_files(r1: &str) -> Vec<(String, String)> {
    vec![
        ("r1.cfg".to_string(), r1.to_string()),
        ("r2.cfg".to_string(), R2.to_string()),
    ]
}

fn small_spec() -> Value {
    serde_json::from_str(SPEC).unwrap()
}

/// A semantically-edited r1 (adds a local-preference action): dirties
/// the R1 neighborhood, still verifies.
fn r1_edited() -> String {
    R1.replace(
        " set community 100:1 additive\n",
        " set community 100:1 additive\n set local-preference 99\n",
    )
}

/// The pinned WAN (same parameters as the golden test's scenario).
fn wan_files() -> Vec<(String, String)> {
    let params = netgen::wan::WanParams {
        regions: 2,
        routers_per_region: 2,
        edge_routers: 4,
        peers_per_edge: 2,
        seed: 0,
    };
    netgen::wan::configs(&params)
        .iter()
        .map(|ast| {
            (
                format!("{}.cfg", ast.hostname),
                bgp_config::print_config(ast),
            )
        })
        .collect()
}

/// Safety-only passing spec for the WAN (the serve engine, like
/// `watch`, drives safety properties).
fn wan_spec() -> Value {
    use lightyear::pred::RoutePred;
    let peer_edges: Vec<String> = (0..4)
        .flat_map(|m| (0..2).map(move |p| format!("PEER{m}-{p} -> EDGE{m}")))
        .collect();
    let dc_edges = vec!["DC0 -> R0-1".to_string(), "DC1 -> R1-1".to_string()];
    let from_peer = RoutePred::ghost("FromPeer");
    let no_reused = from_peer.clone().implies(
        RoutePred::prefix_in(vec![bgp_model::PrefixRange::orlonger(
            netgen::wan::reused_prefix(),
        )])
        .not(),
    );
    let tagged = from_peer.implies(RoutePred::has_community(netgen::wan::peer_comm()));
    serde_json::json!({
        "ghosts": vec![serde_json::json!({
            "name": "FromPeer",
            "set_true_on_import": peer_edges,
            "set_false_on_import": dc_edges,
        })],
        "safety": vec![
            serde_json::json!({
                "name": "no-reused-from-peers",
                "location": "R0-0",
                "property": no_reused,
                "invariant_default": no_reused,
            }),
            serde_json::json!({
                "name": "peer-tagged",
                "location": "R1-0",
                "property": tagged,
                "invariant_default": tagged,
            }),
        ],
    })
}

// ----------------------------------------------------------------- tests

/// Drive one tenant's full scripted sequence (baseline + two deltas)
/// and return its final report document.
fn run_small_sequence(d: &Daemon, tenant: &str) -> Value {
    let (code, resp) = d.post(&submit(tenant, &small_files(R1), &small_spec()));
    assert_eq!(code, 200, "{tenant} submit: {resp:?}");
    assert_eq!(resp["ok"], true, "{tenant} submit: {resp:?}");
    let (code, resp) = d.post(&delta(tenant, &small_files(&r1_edited())));
    assert_eq!(code, 200, "{tenant} delta1: {resp:?}");
    let (code, resp) = d.post(&delta(tenant, &small_files(R1)));
    assert_eq!(code, 200, "{tenant} delta2: {resp:?}");
    assert_eq!(resp["ok"], true);
    let (code, report) = d.post(&get_report(tenant));
    assert_eq!(code, 200);
    report
}

#[test]
fn multi_tenant_interleaved_matches_fresh_runs_and_stays_fair() {
    let daemon = Daemon::start(&[]);

    // Tenant C: the WAN, then a flood of full verifies from threads.
    let (code, resp) = daemon.post(&submit("c", &wan_files(), &wan_spec()));
    assert_eq!(code, 200, "c submit: {resp:?}");
    assert_eq!(resp["ok"], true, "c submit: {resp:?}");
    assert_eq!(resp["result"]["passed"], true, "c submit: {resp:?}");

    // Tenants A and B: interleaved baselines while C is about to flood.
    let (code, resp) = daemon.post(&submit("a", &small_files(R1), &small_spec()));
    assert_eq!(code, 200, "a submit: {resp:?}");
    let (code, _) = daemon.post(&submit("b", &small_files(R1), &small_spec()));
    assert_eq!(code, 200);

    // Start the flood: 6 threads x 12 sequential verifies.
    const FLOOD: u64 = 72;
    let addr = daemon.addr.clone();
    let flood: Vec<_> = (0..6)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                for _ in 0..12 {
                    let (code, resp) = post_to(&addr, &verify("c"));
                    assert_eq!(code, 200, "flood: {resp:?}");
                }
            })
        })
        .collect();

    // Interleaved deltas for A and B while C floods. Each call runs on
    // its own connection under its own tenant's lock, so C's flood
    // cannot queue them: each must come back long before C's flood
    // drains.
    let (code, a1) = daemon.post(&delta("a", &small_files(&r1_edited())));
    assert_eq!(code, 200, "a delta1 under flood: {a1:?}");
    let (code, _) = daemon.post(&delta("b", &small_files(&r1_edited())));
    assert_eq!(code, 200);
    let (_, h) = daemon.post(&health());
    let c_done_mid = health_rounds(&h, "c");
    let (code, _) = daemon.post(&delta("a", &small_files(R1)));
    assert_eq!(code, 200);
    let (code, _) = daemon.post(&delta("b", &small_files(R1)));
    assert_eq!(code, 200);
    assert!(
        c_done_mid < FLOOD,
        "fairness: tenant deltas must not wait out the whole flood \
         (c had already finished {c_done_mid}/{FLOOD})"
    );
    for t in flood {
        t.join().unwrap();
    }

    let (_, a_report) = daemon.post(&get_report("a"));
    let (_, b_report) = daemon.post(&get_report("b"));

    // Byte-identity: a fresh daemon, one tenant at a time, same
    // scripted sequence -> byte-identical report documents.
    let fresh = Daemon::start(&[]);
    let a_fresh = run_small_sequence(&fresh, "a-solo");
    let b_fresh = run_small_sequence(&fresh, "b-solo");
    for (label, interleaved, solo) in [("a", &a_report, &a_fresh), ("b", &b_report, &b_fresh)] {
        assert_eq!(
            serde_json::to_string(&interleaved["result"]["reports"]).unwrap(),
            serde_json::to_string(&solo["result"]["reports"]).unwrap(),
            "tenant {label}: interleaved multi-tenant report must be \
             byte-identical to a fresh single-tenant run"
        );
        assert_eq!(interleaved["result"]["round"], solo["result"]["round"]);
        assert_eq!(interleaved["result"]["passed"], solo["result"]["passed"]);
    }

    // QueryCores: per-property core documents for the WAN tenant.
    let by_name = serde_json::json!({ "property": "no-reused-from-peers" });
    let (code, cores) = daemon.post(&req("c", serde_json::json!({ "QueryCores": by_name })));
    assert_eq!(code, 200, "{cores:?}");
    let entries = cores["result"]["cores"].as_array().unwrap();
    assert_eq!(entries.len(), 1, "{cores:?}");
    assert_eq!(entries[0]["property"], "no-reused-from-peers");
    // Unknown property names are typed errors, not empty results.
    let unknown = serde_json::json!({ "property": "no-such-property" });
    let (code, resp) = daemon.post(&req("c", serde_json::json!({ "QueryCores": unknown })));
    assert_eq!(code, 422, "{resp:?}");
    assert_eq!(resp["ok"], false);
}

#[test]
fn concurrent_verifies_for_one_tenant_all_answer_alike() {
    let daemon = Daemon::start(&[]);
    let (code, resp) = daemon.post(&submit("t", &wan_files(), &wan_spec()));
    assert_eq!(code, 200, "{resp:?}");
    let (_, h) = daemon.post(&health());
    let before = health_rounds(&h, "t");

    // 8 verifies at once: the tenant's lock runs them one at a time,
    // and every one answers with the same reports.
    const BURST: u64 = 8;
    let barrier = Arc::new(std::sync::Barrier::new(BURST as usize));
    let handles: Vec<_> = (0..BURST)
        .map(|_| {
            let (addr, barrier) = (daemon.addr.clone(), barrier.clone());
            std::thread::spawn(move || {
                barrier.wait();
                post_to(&addr, &verify("t"))
            })
        })
        .collect();
    let answers: Vec<(u16, Value)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let reports: Vec<String> = answers
        .iter()
        .map(|(code, resp)| {
            assert_eq!(*code, 200, "{resp:?}");
            assert_eq!(resp["ok"], true, "{resp:?}");
            serde_json::to_string(&resp["result"]["reports"]).unwrap()
        })
        .collect();
    assert!(
        reports.iter().all(|r| *r == reports[0]),
        "concurrent verifies of one tenant must report byte-identically"
    );
    let (_, h) = daemon.post(&health());
    assert_eq!(health_rounds(&h, "t"), before + BURST, "{h:?}");
}

#[test]
fn warm_restart_reports_dirty_zero() {
    let cache = tmpdir("serve-warm");
    let cache_arg = cache.to_str().unwrap();

    let mut daemon = Daemon::start(&["--cache-root", cache_arg]);
    let (code, resp) = daemon.post(&submit("w", &wan_files(), &wan_spec()));
    assert_eq!(code, 200, "{resp:?}");
    assert_eq!(resp["ok"], true, "{resp:?}");
    let cold_line = resp["result"]["line"].as_str().unwrap().to_string();
    assert!(cold_line.contains("dirty"), "{cold_line}");
    // Kill hard: the spill happened at round end, not at shutdown.
    daemon.kill();

    let daemon = Daemon::start(&["--cache-root", cache_arg]);
    let (code, resp) = daemon.post(&submit("w", &wan_files(), &wan_spec()));
    assert_eq!(code, 200, "{resp:?}");
    assert_eq!(resp["ok"], true, "{resp:?}");
    let warm_line = resp["result"]["line"].as_str().unwrap().to_string();
    assert!(
        warm_line.contains("dirty 0/"),
        "a warm-restarted full round must re-solve nothing: {warm_line}"
    );
    assert!(
        daemon.stdout().contains("cache: loaded"),
        "daemon must announce the reloaded cache:\n{}",
        daemon.stdout()
    );
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn protocol_errors_are_typed() {
    let daemon = Daemon::start(&[]);

    // Version mismatch.
    let (code, resp) = daemon.post(&serde_json::json!({
        "api_version": 2u64, "tenant": "t", "call": "GetReport"
    }));
    assert_eq!(code, 400, "{resp:?}");
    assert!(
        resp["error"]
            .as_str()
            .unwrap()
            .contains("unsupported api_version 2"),
        "{resp:?}"
    );

    // Tenant names that could escape the cache root are refused.
    let (code, resp) = daemon.post(&serde_json::json!({
        "api_version": 1u64, "tenant": "../evil", "call": "GetReport"
    }));
    assert_eq!(code, 400, "{resp:?}");

    // Calls against a tenant with no submitted configuration are
    // refused, and leave no tenant entry and no per-tenant counter.
    let all = serde_json::json!({ "property": Value::Null });
    let cores = serde_json::json!({ "QueryCores": all });
    for call in [
        verify("ghost-tenant"),
        delta("ghost-tenant", &small_files(R1)),
        req("ghost-tenant", cores),
        get_report("ghost-tenant"),
    ] {
        let (code, resp) = daemon.post(&call);
        assert_eq!(code, 422, "{resp:?}");
        assert_eq!(resp["ok"], false);
    }
    let (_, resp) = daemon.post(&health());
    assert_eq!(resp["result"]["tenants"], serde_json::json!([]), "{resp:?}");

    // Health works without a tenant and lists api_version 1.
    let (code, resp) = daemon.post(&health());
    assert_eq!(code, 200, "{resp:?}");
    assert_eq!(resp["result"]["status"], "ok");
    assert_eq!(resp["result"]["api_version"].as_u64(), Some(1));

    // The telemetry endpoints share the listener.
    let mut stream = TcpStream::connect(&daemon.addr).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    let mut stream = TcpStream::connect(&daemon.addr).unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    assert!(text.contains("serve.calls.Verify"), "{text}");
    assert!(!text.contains("ghost-tenant"), "{text}");
}

#[test]
fn deeply_nested_body_is_a_400_and_the_daemon_lives_on() {
    // The listener accepts bodies up to 8 MB and hands them to the JSON
    // parser as they are. Nesting past the parser's limit must come
    // back as a typed 400 — on a multi-tenant daemon, a stack overflow
    // would take every tenant down with the one bad request.
    let daemon = Daemon::start(&[]);
    for body in ["[".repeat(400_000), "{\"call\":".repeat(200_000)] {
        let (code, resp) = post_body(&daemon.addr, &body);
        assert_eq!(code, 400, "{resp:?}");
        assert_eq!(resp["ok"], false);
        let error = resp["error"].as_str().unwrap();
        assert!(
            error.contains("bad JSON: recursion limit exceeded at byte"),
            "{error}"
        );
    }
    // Nesting at the limit is an ordinary (here: malformed) request.
    let (code, resp) = post_body(&daemon.addr, &("[".repeat(128) + &"]".repeat(128)));
    assert_eq!(code, 400, "{resp:?}");
    assert!(
        resp["error"].as_str().unwrap().contains("api_version"),
        "{resp:?}"
    );
    // Still serving.
    let (code, resp) = daemon.post(&health());
    assert_eq!(code, 200, "{resp:?}");
    assert_eq!(resp["result"]["status"], "ok");
}

#[test]
fn deeply_grouped_as_path_pattern_is_an_error_and_other_tenants_answer() {
    // A config's AS-path pattern is compiled on the connection thread;
    // a parser recursing once per `(` once overflowed its stack and
    // aborted the whole daemon.
    let daemon = Daemon::start(&[]);
    let (code, resp) = daemon.post(&submit("good", &small_files(R1), &small_spec()));
    assert_eq!(code, 200, "{resp:?}");
    let deep = "(".repeat(15_000) + "100" + &")".repeat(15_000);
    let r1 = format!("{R1}ip as-path access-list DEEP permit {deep}\n");
    let (code, resp) = daemon.post(&submit("bad", &small_files(&r1), &small_spec()));
    assert_ne!(code, 200, "{resp:.200?}");
    assert_eq!(resp["ok"], false);
    let error = resp["error"].as_str().unwrap();
    assert!(
        error.contains("groups nested deeper than 128"),
        "{error:.200}"
    );
    let (code, resp) = daemon.post(&verify("good"));
    assert_eq!(code, 200, "{resp:?}");
    assert_eq!(resp["ok"], true);
}

#[test]
fn closed_stdout_leaves_every_tenant_serving() {
    // A supervisor reads the listening line to learn the port, then
    // stops reading (`serve … | head -n1`). The per-round log line then
    // meets a closed pipe; that must not panic a call under a tenant's
    // lock, drop the reply, or wedge the tenant.
    let mut child = Command::new(bin())
        .args(["serve", "--listen", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let out = child.stdout.take().unwrap();
    let mut stderr = child.stderr.take().unwrap();
    // Killed on drop, also when an assertion below fails.
    let mut daemon = Daemon {
        child,
        addr: String::new(),
        stdout: Arc::default(),
    };
    daemon.addr = BufReader::new(out)
        .lines()
        .find_map(|l| {
            l.unwrap()
                .strip_prefix("serve: listening on http://")
                .map(str::to_string)
        })
        .expect("daemon did not announce its listener");
    // The reader is dropped: stdout has no reader from now on.
    for round in 0..2u64 {
        let (code, resp) = daemon.post(&submit("t", &small_files(R1), &small_spec()));
        assert_eq!(code, 200, "round {round} submit: {resp:?}");
        assert_eq!(resp["ok"], true, "{resp:?}");
        let (code, resp) = daemon.post(&delta("t", &small_files(&r1_edited())));
        assert_eq!(code, 200, "round {round} delta: {resp:?}");
        assert_eq!(
            resp["result"]["round"].as_u64(),
            Some(round + 1),
            "{resp:?}"
        );
        let (code, resp) = daemon.post(&get_report("t"));
        assert_eq!(code, 200, "round {round} report: {resp:?}");
        assert_eq!(resp["result"]["passed"], true, "{resp:?}");
    }
    daemon.kill();
    let mut text = String::new();
    stderr.read_to_string(&mut text).unwrap();
    assert!(!text.contains("panicked"), "{text}");
}

#[test]
fn template_spec_rounds_report_liveness() {
    // A tenant round binds the whole spec like `verify`: the template's
    // liveness property is decided every round and reported beside the
    // safety property, and a violation fails the round.
    let tpl = Command::new(bin()).arg("spec-template").output().unwrap();
    let spec: Value = serde_json::from_slice(&tpl.stdout).unwrap();
    // R1 with the customer-prefix deny the template's liveness needs.
    let r1_cust = R1.replace(
        "route-map FROM-ISP1 permit 10\n",
        "ip prefix-list CUST seq 5 permit 203.0.113.0/24 le 32\n\
         route-map FROM-ISP1 deny 5\n match ip address prefix-list CUST\n\
         route-map FROM-ISP1 permit 10\n",
    );
    let daemon = Daemon::start(&[]);
    for (tenant, r1, passed) in [("cust", r1_cust.as_str(), true), ("plain", R1, false)] {
        let (code, resp) = daemon.post(&submit(tenant, &small_files(r1), &spec));
        assert_eq!(code, 200, "{tenant}: {resp:?}");
        assert_eq!(resp["result"]["passed"], passed, "{tenant}: {resp:?}");
        let reports = resp["result"]["reports"].as_array().unwrap();
        let kinds: Vec<(String, Option<&str>, bool)> = reports
            .iter()
            .map(|r| {
                let name = r["property"].as_str().unwrap().to_string();
                (name, r["kind"].as_str(), r["passed"].as_bool().unwrap())
            })
            .collect();
        assert_eq!(
            kinds,
            [
                ("no-transit".to_string(), None, true),
                ("customer-liveness".to_string(), Some("liveness"), passed),
            ],
            "{tenant}: {resp:?}"
        );
        let live = &reports[1];
        assert!(live.get("total_seconds").is_none(), "{live:?}");
        // Passing liveness checks carry their unsat cores, as in `verify`.
        assert!(!live["cores"].as_array().unwrap().is_empty(), "{live:?}");
    }
}

#[test]
fn get_report_documents_equal_verify_json_entries() {
    // The same configs and spec through the two sources of a report
    // entry: `verify --json` streams rows from its summaries, a tenant
    // round stores owned documents built from the same rows. Safety
    // passes with cores; the template's liveness property fails on
    // `examples/` (R1 lacks the customer-prefix deny), so failures are
    // compared too.
    let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/configs");
    let dir = tmpdir("agree");
    let tpl = Command::new(bin()).arg("spec-template").output().unwrap();
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, &tpl.stdout).unwrap();
    let out = Command::new(bin())
        .args(["verify", "--json", "--configs", examples, "--spec"])
        .arg(&spec_path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let mut entries: Vec<Value> = serde_json::from_slice(&out.stdout).unwrap();
    let telemetry = entries.pop().unwrap();
    assert!(telemetry.get("timings").is_some(), "{telemetry:?}");
    for e in &mut entries {
        let Value::Object(fields) = e else {
            panic!("{e:?}")
        };
        fields.retain(|(k, _)| {
            !["solver_calls", "total_seconds", "solve_seconds"].contains(&k.as_str())
        });
    }
    assert_eq!(entries.len(), 2, "{entries:?}");
    assert!(!entries[0]["cores"].as_array().unwrap().is_empty());
    assert!(!entries[1]["failures"].as_array().unwrap().is_empty());

    let files: Vec<(String, String)> = ["r1.cfg", "r2.cfg"]
        .iter()
        .map(|name| {
            let text = std::fs::read_to_string(format!("{examples}/{name}")).unwrap();
            (name.to_string(), text)
        })
        .collect();
    let spec: Value = serde_json::from_slice(&tpl.stdout).unwrap();
    let daemon = Daemon::start(&[]);
    let (code, resp) = daemon.post(&submit("agree", &files, &spec));
    assert_eq!(code, 200, "{resp:?}");
    let (code, resp) = daemon.post(&get_report("agree"));
    assert_eq!(code, 200, "{resp:?}");
    assert_eq!(resp["result"]["reports"], Value::Array(entries));
    let _ = std::fs::remove_dir_all(&dir);
}
