//! The run pipeline against the reference oracle on the synthetic cloud
//! WAN: one peering property suite verified three ways —
//!
//! * `fresh` — the reference oracle: one fresh `TermPool` + bit-blast +
//!   `SatSolver` per check (the seed behavior);
//! * `incremental` — the pipeline on one worker: identical structures
//!   solved once, checks grouped by encoding base, each group solved on
//!   one persistent `IncrementalSession` via activation-literal
//!   assumption queries, learnt clauses carried across checks;
//! * `incremental+cache` — the pipeline against a pre-warmed cross-run
//!   result cache (the warm re-verification path).
//!
//! Outcomes are asserted byte-identical before timing starts.
//!
//! Sized at an 8-router and a 50-router WAN; scale further with
//! `WAN_REGIONS` / `WAN_ROUTERS` / `WAN_EDGES` / `WAN_PEERS`.

use bench::{env_usize, median, record_gate};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lightyear::engine::{CheckCache, RunMode, Verifier};
use netgen::wan::{self, WanParams};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn small_params() -> WanParams {
    WanParams {
        regions: env_usize("WAN_REGIONS", 2),
        routers_per_region: env_usize("WAN_ROUTERS", 2),
        edge_routers: env_usize("WAN_EDGES", 4),
        peers_per_edge: env_usize("WAN_PEERS", 2),
        ..WanParams::default()
    }
}

fn large_params() -> WanParams {
    WanParams {
        regions: 6,
        routers_per_region: 6,
        edge_routers: 14,
        peers_per_edge: 2,
        ..WanParams::default()
    }
}

fn bench_scenario(c: &mut Criterion, s: &wan::Scenario, acceptance: bool) {
    let topo = &s.network.topology;
    let (name, q) = s.peering_predicates().into_iter().next().unwrap();
    let (props, inv) = s.peering_property_inputs(&q);
    let label = format!("{name}/{}r", s.params.num_routers());

    // Outcome parity gate: the ablation only means something if the
    // engines agree byte-for-byte.
    let fresh_report = Verifier::new(topo, &s.network.policy)
        .with_ghost(s.from_peer_ghost())
        .verify_safety_reference(&props, &inv);
    let inc_report = Verifier::new(topo, &s.network.policy)
        .with_ghost(s.from_peer_ghost())
        .verify_safety_multi(&props, &inv);
    assert!(fresh_report.all_passed());
    assert_eq!(fresh_report.to_string(), inc_report.to_string());
    assert_eq!(
        fresh_report.format_failures(topo),
        inc_report.format_failures(topo)
    );

    let mut g = c.benchmark_group("wan-incremental");
    g.sample_size(10);

    g.bench_with_input(BenchmarkId::new("fresh", &label), &s, |b, s| {
        b.iter(|| {
            let v = Verifier::new(topo, &s.network.policy).with_ghost(s.from_peer_ghost());
            assert!(v.verify_safety_reference(&props, &inv).all_passed());
        })
    });

    g.bench_with_input(BenchmarkId::new("incremental", &label), &s, |b, s| {
        b.iter(|| {
            let v = Verifier::new(topo, &s.network.policy).with_ghost(s.from_peer_ghost());
            assert!(v.verify_safety_multi(&props, &inv).all_passed());
        })
    });

    let cache = Arc::new(CheckCache::new());
    // Warm pass outside the timing loop.
    let warm = Verifier::new(topo, &s.network.policy)
        .with_ghost(s.from_peer_ghost())
        .with_mode(RunMode::Parallel)
        .with_cache(cache.clone());
    assert!(warm.verify_safety_multi(&props, &inv).all_passed());
    g.bench_with_input(BenchmarkId::new("incremental+cache", &label), &s, |b, s| {
        b.iter(|| {
            let v = Verifier::new(topo, &s.network.policy)
                .with_ghost(s.from_peer_ghost())
                .with_mode(RunMode::Parallel)
                .with_cache(cache.clone());
            let report = v.verify_safety_multi(&props, &inv);
            assert!(report.all_passed());
            assert_eq!(report.exec.executed, 0, "warm cache must answer everything");
        })
    });
    g.finish();

    if !acceptance {
        return;
    }
    // Acceptance gate (ISSUE 2, asserted in-bench since ISSUE 4's CI
    // bench-gate job): the pipeline on one worker >= 2x over the
    // reference oracle's fresh per-check solving on the 50-router WAN.
    let reps = 5usize;
    let fresh_times: Vec<Duration> = (0..reps)
        .map(|_| {
            let v = Verifier::new(topo, &s.network.policy).with_ghost(s.from_peer_ghost());
            let t = Instant::now();
            assert!(v.verify_safety_reference(&props, &inv).all_passed());
            t.elapsed()
        })
        .collect();
    let inc_times: Vec<Duration> = (0..reps)
        .map(|_| {
            let v = Verifier::new(topo, &s.network.policy).with_ghost(s.from_peer_ghost());
            let t = Instant::now();
            assert!(v.verify_safety_multi(&props, &inv).all_passed());
            t.elapsed()
        })
        .collect();
    let (fresh_med, inc_med) = (median(fresh_times), median(inc_times));
    let ratio = fresh_med.as_secs_f64() / inc_med.as_secs_f64();
    println!(
        "acceptance {label}: fresh {fresh_med:?} vs incremental {inc_med:?} ({ratio:.1}x, need >= 2x)"
    );
    record_gate("incremental-50r", ratio, 2.0);
}

fn bench_incremental(c: &mut Criterion) {
    bench_scenario(c, &wan::build(&small_params()), false);
    bench_scenario(c, &wan::build(&large_params()), true);
}

criterion_group!(benches, bench_incremental);
criterion_main!(benches);
