//! Fresh vs warm-daemon re-verification under single-router edits.
//!
//! The workload the delta subsystem exists for: a long-lived verifier
//! has proved the WAN once; an operator edits one router's route map;
//! how fast is the re-check?
//!
//! * `fresh` — a full pipeline verification of the edited
//!   network from scratch (what `lightyear verify` does per run);
//! * `warm-reverify` — a `ReverifyEngine` round: the semantic diff names
//!   the edited router, fingerprints confirm the dirty neighborhood, the
//!   one dirty check re-solves on the thread's recycled session and
//!   everything else is answered from the carried result cache.
//!
//! Each warm iteration applies a *distinct* edit (monotonically rising
//! local-pref), so every round genuinely re-solves — no round is
//! answered purely from cache. Reports are asserted
//! byte-identical to the fresh engine before timing starts, and the
//! acceptance gate (warm ≥ 5x faster than fresh on the 50-router WAN,
//! dirty set ≤ the edited neighborhood) is asserted at the end.

use bench::{env_usize, median, record_gate};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use delta::diff_configs;
use lightyear::engine::Verifier;
use lightyear::reverify::ReverifyEngine;
use netgen::edits;
use netgen::wan::{self, WanParams};
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

/// The paper-scale WAN: 6 regions x 6 routers + 14 edges = 50 routers.
fn large_params() -> WanParams {
    WanParams {
        regions: 6,
        routers_per_region: 6,
        edge_routers: 14,
        peers_per_edge: 2,
        ..WanParams::default()
    }
}

/// A bank of single-router edit variants (distinct local-pref values on
/// EDGE0's first peer import), pre-lowered outside any timing loop.
struct Variant {
    scenario: wan::Scenario,
    changed: Vec<String>,
}

fn variants(params: &WanParams, n: u32) -> Vec<Variant> {
    let base = wan::configs(params);
    (0..n)
        .map(|i| {
            let mut cfgs = base.clone();
            edits::set_local_pref(&mut cfgs, "EDGE0", "FROM-PEER0", 101 + i).unwrap();
            let changed = diff_configs(&base, &cfgs).changed_routers();
            Variant {
                scenario: wan::build_from_configs(params, cfgs),
                changed,
            }
        })
        .collect()
}

fn bench_scenario(c: &mut Criterion, params: &WanParams, acceptance: bool) {
    let base = wan::build(params);
    let label = format!("{}r", params.num_routers());
    let (_, q) = base.peering_predicates().into_iter().next().unwrap();

    // Enough pre-built variants that no timed iteration ever repeats an
    // edit (criterion shim: warmup + sample_size iterations per bench).
    let bank = variants(params, 40);
    let suite = |s: &wan::Scenario| s.peering_property_inputs(&q);

    // Parity gate before timing: a warm round over an edit must render
    // byte-identically to the fresh engine on the same network.
    {
        let mut engine = ReverifyEngine::new();
        let (props, inv) = suite(&base);
        let v = Verifier::new(&base.network.topology, &base.network.policy)
            .with_ghost(base.from_peer_ghost());
        engine.reverify(&v, &props, &inv, None);
        let s = &bank[0].scenario;
        let (props, inv) = suite(s);
        let v =
            Verifier::new(&s.network.topology, &s.network.policy).with_ghost(s.from_peer_ghost());
        let (warm, stats) = engine.reverify(&v, &props, &inv, Some(&bank[0].changed));
        let fresh = v.verify_safety_multi(&props, &inv);
        assert_eq!(fresh.to_string(), warm.to_string());
        assert!(
            stats.dirty > 0 && stats.dirty <= stats.candidates,
            "{stats:?}"
        );
        assert!(stats.candidates < stats.total, "{stats:?}");
    }

    let mut g = c.benchmark_group("wan-reverify");
    g.sample_size(10);

    g.bench_with_input(BenchmarkId::new("fresh", &label), &bank, |b, bank| {
        let mut i = 0usize;
        b.iter(|| {
            let s = &bank[i % bank.len()].scenario;
            i += 1;
            let (props, inv) = suite(s);
            let v = Verifier::new(&s.network.topology, &s.network.policy)
                .with_ghost(s.from_peer_ghost());
            assert!(v.verify_safety_multi(&props, &inv).all_passed());
        })
    });

    // Warm daemon: base round outside the loop; each iteration is one
    // delta round over a distinct edit.
    let mut engine = ReverifyEngine::new();
    {
        let (props, inv) = suite(&base);
        let v = Verifier::new(&base.network.topology, &base.network.policy)
            .with_ghost(base.from_peer_ghost());
        engine.reverify(&v, &props, &inv, None);
    }
    g.bench_with_input(
        BenchmarkId::new("warm-reverify", &label),
        &bank,
        |b, bank| {
            let mut i = 1usize; // variant 0 consumed by the parity gate shape
            b.iter(|| {
                let var = &bank[i % bank.len()];
                i += 1;
                let s = &var.scenario;
                let (props, inv) = suite(s);
                let v = Verifier::new(&s.network.topology, &s.network.policy)
                    .with_ghost(s.from_peer_ghost());
                let (report, stats) = engine.reverify(&v, &props, &inv, Some(&var.changed));
                assert!(report.all_passed());
                assert!(stats.dirty > 0, "every round must really re-solve");
            })
        },
    );
    g.finish();

    if !acceptance {
        return;
    }
    // Acceptance gate (ISSUE 3): on the 50-router WAN a warm re-verify
    // round after a single-router route-map edit is >= 5x faster than a
    // fresh pipeline run, re-solving only the dirty neighborhood.
    let reps = 5usize;
    let fresh_times: Vec<Duration> = (0..reps)
        .map(|r| {
            let s = &bank[r % bank.len()].scenario;
            let (props, inv) = suite(s);
            let v = Verifier::new(&s.network.topology, &s.network.policy)
                .with_ghost(s.from_peer_ghost());
            let t = Instant::now();
            assert!(v.verify_safety_multi(&props, &inv).all_passed());
            t.elapsed()
        })
        .collect();
    let warm_times: Vec<Duration> = (0..reps)
        .map(|r| {
            // Variants 20.. were never posed to the engine: a variant the
            // warm loop already solved would now be answered dirty-0 from
            // the conjunct-core cache (its rest fingerprint recurs), and
            // the gate must time rounds that really re-solve.
            let var = &bank[(20 + r) % bank.len()];
            let s = &var.scenario;
            let (props, inv) = suite(s);
            let v = Verifier::new(&s.network.topology, &s.network.policy)
                .with_ghost(s.from_peer_ghost());
            let t = Instant::now();
            let (report, stats) = engine.reverify(&v, &props, &inv, Some(&var.changed));
            let dt = t.elapsed();
            assert!(report.all_passed());
            assert!(stats.dirty > 0 && stats.dirty <= stats.candidates);
            dt
        })
        .collect();
    let (fresh_med, warm_med) = (median(fresh_times), median(warm_times));
    let ratio = fresh_med.as_secs_f64() / warm_med.as_secs_f64();
    println!(
        "acceptance {label}: fresh {fresh_med:?} vs warm {warm_med:?} ({ratio:.1}x, need >= 5x)"
    );
    record_gate("reverify-warm-50r", ratio, 5.0);
}

fn bench_reverify(c: &mut Criterion) {
    bench_scenario(c, &small_params(), false);
    bench_scenario(c, &large_params(), true);
}

criterion_group!(benches, bench_reverify);
criterion_main!(benches);
