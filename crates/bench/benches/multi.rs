//! Cross-property shared-encoding verification on the synthetic cloud
//! WAN: several peering-policy property suites verified two ways —
//!
//! * `per-property` — one pipeline run per suite, the
//!   PR-2 state of the art: within a suite each edge's transfer relation
//!   is encoded once, but every suite re-encodes every edge again;
//! * `cross-property` — `Verifier::verify_safety_batch`: ONE run over
//!   all suites, so checks from different suites that share an edge are
//!   solved as warm assumption queries on a single persistent session
//!   and each edge is encoded exactly once for the whole batch.
//!
//! Per-suite reports are asserted byte-identical before timing starts,
//! and the acceptance gate (cross-property ≥ 1.5x over per-property
//! grouped solving on the 50-router WAN with ≥ 3 properties) is asserted
//! at the end — in-bench and, via `BENCH_JSON`, in the CI `bench-gate`
//! job.
//!
//! Sized at an 8-router and a 50-router WAN; scale further with
//! `WAN_REGIONS` / `WAN_ROUTERS` / `WAN_EDGES` / `WAN_PEERS` /
//! `MULTI_PROPS`.

use bench::{env_usize, median, record_gate};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lightyear::invariants::NetworkInvariants;
use lightyear::safety::SafetyProperty;
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

/// The property suites of the run: the first `MULTI_PROPS` (default 4,
/// min 3) §6.1 peering predicates, each resolved into its own per-router
/// property set and invariant assignment — distinct suites over the same
/// network, the workload `verify_safety_batch` exists for. With exactly
/// 3 properties the theoretical ceiling of the gate ratio on this WAN is
/// ≈1.5x (solve time is not shareable, only encoding is), so the default
/// runs one property above the minimum for CI headroom.
fn suites(s: &wan::Scenario) -> Vec<(Vec<SafetyProperty>, NetworkInvariants)> {
    let n = env_usize("MULTI_PROPS", 4).max(3);
    s.peering_predicates()
        .into_iter()
        .take(n)
        .map(|(_, q)| s.peering_property_inputs(&q))
        .collect()
}

fn as_refs(
    owned: &[(Vec<SafetyProperty>, NetworkInvariants)],
) -> Vec<(&[SafetyProperty], &NetworkInvariants)> {
    owned.iter().map(|(p, i)| (p.as_slice(), i)).collect()
}

fn verifier<'a>(s: &'a wan::Scenario) -> lightyear::Verifier<'a> {
    lightyear::Verifier::new(&s.network.topology, &s.network.policy).with_ghost(s.from_peer_ghost())
}

fn bench_scenario(c: &mut Criterion, s: &wan::Scenario, acceptance: bool) {
    let topo = &s.network.topology;
    let label = format!("{}r", s.params.num_routers());
    let owned = suites(s);
    let refs = as_refs(&owned);

    // Parity gate before timing: every suite of the batch must render
    // byte-identically to its standalone grouped run, and the batch must
    // really have shared sessions across suites (warm assumption solves).
    {
        let multi = verifier(s).verify_safety_batch(&refs);
        assert!(multi.all_passed());
        assert!(multi.exec.assumption_solves > 0, "{:?}", multi.exec);
        for ((props, inv), got) in owned.iter().zip(&multi.reports) {
            let solo = verifier(s).verify_safety_multi(props, inv);
            assert_eq!(solo.to_string(), got.to_string());
            assert_eq!(solo.format_failures(topo), got.format_failures(topo));
        }
    }

    let mut g = c.benchmark_group("wan-multi");
    g.sample_size(10);

    g.bench_with_input(BenchmarkId::new("per-property", &label), &s, |b, s| {
        b.iter(|| {
            for (props, inv) in &owned {
                assert!(verifier(s).verify_safety_multi(props, inv).all_passed());
            }
        })
    });

    g.bench_with_input(BenchmarkId::new("cross-property", &label), &s, |b, s| {
        b.iter(|| {
            assert!(verifier(s).verify_safety_batch(&refs).all_passed());
        })
    });
    g.finish();

    if !acceptance {
        return;
    }
    // Acceptance gate (ISSUE 4): on the 50-router WAN with >= 3
    // properties, one cross-property batch beats per-property grouped
    // solving by >= 1.5x — the win of encoding every edge once for the
    // whole spec instead of once per property.
    let reps = 5usize;
    let per_prop: Vec<Duration> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for (props, inv) in &owned {
                assert!(verifier(s).verify_safety_multi(props, inv).all_passed());
            }
            t.elapsed()
        })
        .collect();
    let cross: Vec<Duration> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            assert!(verifier(s).verify_safety_batch(&refs).all_passed());
            t.elapsed()
        })
        .collect();
    let (per_med, cross_med) = (median(per_prop), median(cross));
    let ratio = per_med.as_secs_f64() / cross_med.as_secs_f64();
    println!(
        "acceptance {label}: per-property {per_med:?} vs cross-property {cross_med:?} \
         ({ratio:.1}x, need >= 1.5x, {} properties)",
        owned.len()
    );
    record_gate("multi-cross-property-50r", ratio, 1.5);
}

fn bench_multi(c: &mut Criterion) {
    bench_scenario(c, &wan::build(&small_params()), false);
    bench_scenario(c, &wan::build(&large_params()), true);
}

criterion_group!(benches, bench_multi);
criterion_main!(benches);
