//! End-to-end contracts for the `obs` observability layer.
//!
//! * Counter and histogram exactness under real contention: a property
//!   test spins N threads each recording M events and demands the
//!   registry's counter total is exactly N*M*delta, and its histogram
//!   count N*M and duration sum exact — no lost updates, no
//!   double-counts.
//! * The Chrome trace export of a REAL verification: an 8-router WAN
//!   verified on the orchestrator with the sink installed must produce
//!   a `trace_event` JSON that round-trips through serde_json, carries
//!   at least one span per worker thread, and is strictly nested within
//!   every thread (a child span never outlives its parent — the
//!   invariant that makes the trace readable in Perfetto).

use lightyear::engine::{RunMode, Verifier};
use netgen::wan::{self, WanParams};
use proptest::prelude::*;
use std::collections::BTreeMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn n_workers_times_m_events_merge_exactly(
        threads in 1usize..8,
        events in 1usize..300,
        delta in 1u64..5,
    ) {
        // A private registry, not the global sink: the test must be
        // safe to run concurrently with the trace test below.
        let reg = obs::Registry::new();
        std::thread::scope(|s| {
            for _ in 0..threads {
                let reg = &reg;
                s.spawn(move || {
                    for _ in 0..events {
                        reg.counter("prop.merge").add(delta);
                        reg.histogram("prop.merge").record_ns(delta * 1_000);
                    }
                });
            }
        });
        let n = (threads * events) as u64;
        prop_assert_eq!(reg.counter("prop.merge").value(), n * delta);
        let hist = reg.histogram("prop.merge").snapshot();
        prop_assert_eq!(hist.count, n);
        prop_assert_eq!(hist.sum_ns, n * delta * 1_000);
    }
}

fn eight_router_scenario() -> wan::Scenario {
    let params = WanParams {
        regions: 2,
        routers_per_region: 2,
        edge_routers: 4,
        peers_per_edge: 2,
        ..WanParams::default()
    };
    let s = wan::build(&params);
    assert_eq!(s.params.num_routers(), 8);
    s
}

/// `(ts, dur, name)` per event, grouped by thread id.
fn events_by_tid(trace: &serde_json::Value) -> BTreeMap<u64, Vec<(f64, f64, String)>> {
    let top = trace.as_object().expect("trace is an object");
    let (_, events) = top
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .expect("traceEvents key");
    let mut by_tid: BTreeMap<u64, Vec<(f64, f64, String)>> = BTreeMap::new();
    for e in events.as_array().expect("traceEvents is an array") {
        let obj = e.as_object().expect("event is an object");
        let field = |name: &str| obj.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        assert_eq!(field("ph").and_then(|v| v.as_str()), Some("X"));
        assert!(field("pid").and_then(|v| v.as_u64()).is_some());
        let tid = field("tid").and_then(|v| v.as_u64()).expect("tid");
        let ts = field("ts").and_then(|v| v.as_f64()).expect("ts");
        let dur = field("dur").and_then(|v| v.as_f64()).expect("dur");
        let name = field("name")
            .and_then(|v| v.as_str())
            .expect("name")
            .to_string();
        assert!(dur > 0.0, "complete events carry a positive duration");
        by_tid.entry(tid).or_default().push((ts, dur, name));
    }
    by_tid
}

#[test]
fn chrome_trace_of_a_real_verify_round_trips_and_nests() {
    let s = eight_router_scenario();
    let (_, q) = s.peering_predicates().into_iter().next().unwrap();
    let (props, inv) = s.peering_property_inputs(&q);

    let reg = obs::install();
    let verifier = Verifier::new(&s.network.topology, &s.network.policy)
        .with_ghost(s.from_peer_ghost())
        .with_mode(RunMode::Parallel)
        .with_jobs(2);
    assert!(verifier.verify_safety_multi(&props, &inv).all_passed());
    let trace = reg.chrome_trace();
    obs::uninstall();

    // Round-trip: the export serializes and re-parses through
    // serde_json without loss of the fields a trace viewer needs.
    let text = serde_json::to_string(&trace).expect("trace serializes");
    let parsed: serde_json::Value = serde_json::from_str(&text).expect("trace re-parses");
    let by_tid = events_by_tid(&parsed);

    // >= 1 span per worker thread, and exactly one "worker" span on
    // each thread that has one.
    let mut worker_tids = Vec::new();
    for (tid, spans) in &by_tid {
        let workers = spans.iter().filter(|(_, _, n)| n == "worker").count();
        if workers > 0 {
            assert_eq!(workers, 1, "one worker span per worker thread (tid {tid})");
            worker_tids.push(*tid);
        }
    }
    assert_eq!(worker_tids.len(), 2, "a --jobs 2 run shows both workers");

    // Strict nesting per thread: sort by (start, -duration) and sweep
    // with an end-time stack; every span must close inside its parent.
    // The exporter floors durations at 1ns-as-µs, so allow that much
    // slack at the boundary.
    const EPS: f64 = 0.01;
    for (tid, spans) in by_tid {
        let mut spans = spans;
        spans.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap()
                .then(b.1.partial_cmp(&a.1).unwrap())
        });
        let mut stack: Vec<f64> = Vec::new();
        for (ts, dur, name) in spans {
            while let Some(&end) = stack.last() {
                if ts >= end - EPS {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&end) = stack.last() {
                assert!(
                    ts + dur <= end + EPS,
                    "span {name:?} on tid {tid} escapes its parent ({} > {end})",
                    ts + dur
                );
            }
            stack.push(ts + dur);
        }
    }

    // The spans a profile reader keys on are all present.
    let all: Vec<String> = parsed
        .as_object()
        .unwrap()
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .and_then(|(_, v)| v.as_array())
        .unwrap()
        .iter()
        .filter_map(|e| {
            e.as_object()
                .unwrap()
                .iter()
                .find(|(k, _)| k == "name")
                .and_then(|(_, v)| v.as_str())
                .map(str::to_string)
        })
        .collect();
    for expected in ["run_checks", "solve_group", "worker"] {
        assert!(
            all.iter().any(|n| n == expected),
            "trace lacks a {expected:?} span"
        );
    }
}
