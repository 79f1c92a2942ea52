//! End-to-end contract for the live telemetry endpoint: the `/metrics`
//! server must stay coherent while a parallel verification is actively
//! mutating the registry underneath it.
//!
//! * N scraper threads hammer `GET /metrics` while an 8-router WAN is
//!   verified with `--jobs 2` across several rounds; every response
//!   must be well-formed JSON, and within each scraper's time-ordered
//!   sequence both the round count and every counter must be monotone
//!   (the registry never loses or un-counts an update).
//! * After the last round, one final scrape must equal the
//!   `--metrics-json` status file byte for byte — the regression
//!   contract that the endpoint and the file render the same state
//!   through the same code path.
//! * `/healthz` and `/trace` stay serviceable on the same listener.

use lightyear::engine::{RunMode, Verifier};
use netgen::wan::{self, WanParams};
use obs::http::{self, Status};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Raw-socket GET against the live server: `(status code, body)`.
fn get(addr: &str, path: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut buf = String::new();
    s.read_to_string(&mut buf).expect("read response");
    let code = buf
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status code");
    let body = buf.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (code, body)
}

/// All `"counters"` entries of a scraped `/metrics` body, plus the
/// round count, for the monotonicity sweep.
fn counters_of(body: &str) -> (u64, Vec<(String, u64)>) {
    let v: serde_json::Value = serde_json::from_str(body).expect("scrape is well-formed JSON");
    let top = v.as_object().expect("scrape is an object");
    let field = |obj: &serde_json::Value, name: &str| obj.get(name).cloned();
    let rounds = field(&v, "rounds")
        .and_then(|r| r.as_u64())
        .expect("rounds");
    assert!(top.iter().any(|(k, _)| k == "ok"), "scrape carries ok");
    let metrics = field(&v, "metrics").expect("metrics key");
    let counters = field(&metrics, "counters").expect("counters key");
    let pairs = counters
        .as_object()
        .expect("counters is an object")
        .iter()
        .map(|(k, v)| (k.clone(), v.as_u64().expect("counter is a u64")))
        .collect();
    (rounds, pairs)
}

#[test]
fn concurrent_scrapes_stay_coherent_during_a_parallel_verify() {
    let s = wan::build(&WanParams {
        regions: 2,
        routers_per_region: 2,
        edge_routers: 4,
        peers_per_edge: 2,
        ..WanParams::default()
    });
    let (_, q) = s.peering_predicates().into_iter().next().unwrap();
    let (props, inv) = s.peering_property_inputs(&q);

    let reg = obs::install();
    let status = Status::new(None);
    let server = http::serve("127.0.0.1:0", reg.clone(), status.clone()).expect("bind");
    let addr = server.addr().to_string();

    const SCRAPERS: usize = 4;
    const ROUNDS: usize = 3;
    let scraped: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SCRAPERS)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut bodies = Vec::new();
                    let deadline = Instant::now() + Duration::from_secs(30);
                    // Keep scraping until the main thread reports all
                    // rounds done, so scrapes overlap live mutation.
                    loop {
                        let (code, body) = get(&addr, "/metrics");
                        assert_eq!(code, 200);
                        let done = counters_of(&body).0 >= ROUNDS as u64;
                        bodies.push(body);
                        if done || Instant::now() > deadline {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    bodies
                })
            })
            .collect();

        for _ in 0..ROUNDS {
            let t = Instant::now();
            let v = Verifier::new(&s.network.topology, &s.network.policy)
                .with_ghost(s.from_peer_ghost())
                .with_mode(RunMode::Parallel)
                .with_jobs(2);
            let passed = v.verify_safety_multi(&props, &inv).all_passed();
            assert!(passed);
            status.note_round(passed, t.elapsed(), &reg);
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every scraper saw a monotone history: rounds never step back, and
    // no counter ever shrinks between consecutive scrapes.
    for bodies in &scraped {
        assert!(!bodies.is_empty());
        let mut last_rounds = 0u64;
        let mut last: Vec<(String, u64)> = Vec::new();
        for body in bodies {
            let (rounds, counters) = counters_of(body);
            assert!(rounds >= last_rounds, "round count went backwards");
            last_rounds = rounds;
            for (name, value) in &counters {
                if let Some((_, before)) = last.iter().find(|(n, _)| n == name) {
                    assert!(
                        value >= before,
                        "counter {name} shrank between scrapes: {before} -> {value}"
                    );
                }
            }
            last = counters;
        }
        assert_eq!(last_rounds, ROUNDS as u64, "scraper saw the final round");
    }

    // With the registry quiescent, one final scrape and the status file
    // must agree byte for byte — both render through `status_body`.
    let (code, final_scrape) = get(&addr, "/metrics");
    assert_eq!(code, 200);
    let path =
        std::env::temp_dir().join(format!("lightyear-telemetry-{}.json", std::process::id()));
    http::write_status_file(&path, &status, &reg).expect("write status file");
    let file = std::fs::read_to_string(&path).expect("read status file");
    std::fs::remove_file(&path).ok();
    assert_eq!(
        final_scrape, file,
        "/metrics scrape and --metrics-json file disagree"
    );

    // The same listener keeps /healthz and /trace serviceable.
    let (code, health) = get(&addr, "/healthz");
    assert_eq!(code, 200, "healthy after {ROUNDS} passing rounds");
    let health: serde_json::Value = serde_json::from_str(&health).expect("healthz JSON");
    assert_eq!(
        health.get("rounds").and_then(|v| v.as_u64()),
        Some(ROUNDS as u64)
    );
    let (code, trace) = get(&addr, "/trace?last=64");
    assert_eq!(code, 200);
    let trace: serde_json::Value = serde_json::from_str(&trace).expect("trace JSON");
    let events = trace.get("traceEvents").expect("traceEvents key");
    assert!(
        !events.as_array().expect("traceEvents array").is_empty(),
        "a parallel verify leaves spans in the trace ring"
    );

    drop(server);
    obs::uninstall();
}
