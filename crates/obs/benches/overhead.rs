//! The `obs` layer's two overhead gates, on a 50-router WAN.
//!
//! `obs-disabled-overhead-50r`: with no sink installed, every instrumentation point in the pipeline
//! must cost one relaxed atomic load and a branch — the gate asserts
//! the aggregate cost stays under 3% of the 50-router incremental
//! verify wall time.
//!
//! "This binary minus its instrumentation" cannot be measured directly
//! post-merge, so the bound is computed analytically from quantities
//! this binary CAN measure:
//!
//! * the exact number of instrumentation calls the workload makes — one
//!   run with a sink installed; every counter/gauge/histogram/span
//!   entry point bumps `Registry::calls()`;
//! * the disabled per-call cost — a tight loop over `obs::add` with no
//!   sink (the disabled fast path is the same early-return across all
//!   entry points);
//! * the median disabled wall time of the workload itself.
//!
//! overhead% = calls x per-call / wall. The estimate is conservative:
//! it prices every call at the measured loop cost even though the real
//! run amortizes the load's cache line across far colder surrounding
//! work.
//!
//! `obs-idle-listener-50r`: a bound but unscraped listener must cost
//! under 1% of the same verify's wall.
//!
//! Run with `cargo bench -p obs --bench overhead`; `BENCH_JSON=FILE`
//! appends one JSON line per gate to FILE.

use lightyear::engine::Verifier;
use netgen::wan::{self, WanParams};
use std::io::Write;
use std::time::{Duration, Instant};

/// The 50-router WAN both gates time: 6 regions of 6 routers plus 14
/// edge routers, 2 peers each.
const WAN: WanParams = WanParams {
    regions: 6,
    routers_per_region: 6,
    edge_routers: 14,
    peers_per_edge: 2,
    seed: 0,
};

/// Timed runs behind the disabled-overhead gate's median wall.
const OBS_RUNS: usize = 5;

/// Interleaved listen / no-listen pairs behind the idle-listener gate.
/// A run is under a millisecond, so 1% is a few microseconds: with 5
/// pairs one preempted run tripped the gate about one time in three on
/// a 2-core box; 31 pairs hold the medians steady.
const LISTEN_PAIRS: usize = 31;

/// Median of a sample: it rides out one-off scheduler hiccups better
/// than a mean on CI boxes.
fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

/// Record a ceiling gate: print it, append it to the `BENCH_JSON` file
/// (CI's `BENCH_obs.json` artifact), and panic when `value` exceeds
/// `ceiling`, so `cargo bench` — and with it the CI job — fails.
fn record_gate_max(name: &str, value: f64, ceiling: f64) {
    let pass = value <= ceiling;
    println!(
        "gate {name}: {value:.4} (ceiling {ceiling:.4}) -> {}",
        if pass { "pass" } else { "FAIL" }
    );
    // The record never fails a gate: no file, or one that cannot be
    // opened, is skipped.
    if let Some(path) = std::env::var_os("BENCH_JSON").filter(|p| !p.is_empty()) {
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            let _ = writeln!(
                f,
                "{{\"gate\":\"{name}\",\"value\":{value:.4},\"ceiling\":{ceiling:.4},\"pass\":{pass}}}"
            );
        }
    }
    assert!(
        pass,
        "bench gate {name}: {value:.4} exceeds the {ceiling:.4} ceiling"
    );
}

fn main() {
    let s = wan::build(&WAN);
    let topo = &s.network.topology;
    let (name, q) = s.peering_predicates().into_iter().next().unwrap();
    let (props, inv) = s.peering_property_inputs(&q);
    let label = format!("{name}/{}r", s.params.num_routers());
    let run = || {
        let v = Verifier::new(topo, &s.network.policy).with_ghost(s.from_peer_ghost());
        assert!(v.verify_safety_multi(&props, &inv).all_passed());
    };

    assert!(obs::sink().is_none(), "bench must start with no sink");
    let reg = obs::install();
    run(); // warm-up, outside the counted run

    // Exact instrumentation-call count for one run of the workload.
    let calls_before = reg.calls();
    run();
    let calls = reg.calls() - calls_before;
    obs::uninstall();
    assert!(calls > 0, "the instrumented pipeline must count its calls");

    // Disabled per-call cost, then the analytic gate.
    let walls: Vec<Duration> = (0..OBS_RUNS)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed()
        })
        .collect();
    let wall = median(walls);

    const LOOP: u64 = 10_000_000;
    let t = Instant::now();
    for i in 0..LOOP {
        obs::add("obs.bench.disabled", std::hint::black_box(i));
    }
    let per_call = t.elapsed().as_secs_f64() / LOOP as f64;

    let overhead_pct = calls as f64 * per_call / wall.as_secs_f64() * 100.0;
    println!(
        "obs disabled overhead {label}: {calls} instrumentation calls x {:.2}ns \
         = {overhead_pct:.4}% of {wall:?} (ceiling 3%)",
        per_call * 1e9,
    );
    record_gate_max("obs-disabled-overhead-50r", overhead_pct, 3.0);

    // Idle-listener gate: a bound-but-unscraped telemetry endpoint
    // (`watch --listen` with nobody polling) must not move the verify
    // wall — its accept loop blocks in the kernel. Both arms run with
    // the sink installed, so this isolates the *listener's* marginal
    // cost; reps interleave listen/no-listen and compare medians to
    // ride out scheduler drift, and negative noise clamps to zero.
    let reg = obs::install();
    run(); // warm-up, outside both arms
    let mut with_listener: Vec<Duration> = Vec::with_capacity(LISTEN_PAIRS);
    let mut without: Vec<Duration> = Vec::with_capacity(LISTEN_PAIRS);
    for _ in 0..LISTEN_PAIRS {
        let status = obs::http::Status::new(None);
        let server =
            obs::http::serve("127.0.0.1:0", reg.clone(), status).expect("bind 127.0.0.1:0");
        let t = Instant::now();
        run();
        with_listener.push(t.elapsed());
        drop(server);
        let t = Instant::now();
        run();
        without.push(t.elapsed());
    }
    obs::uninstall();
    let (m_listen, m_base) = (median(with_listener), median(without));
    let idle_pct =
        ((m_listen.as_secs_f64() - m_base.as_secs_f64()) / m_base.as_secs_f64() * 100.0).max(0.0);
    println!(
        "obs idle listener {label}: {m_listen:?} with listener vs {m_base:?} without \
         = {idle_pct:.4}% (ceiling 1%)"
    );
    record_gate_max("obs-idle-listener-50r", idle_pct, 1.0);
}
