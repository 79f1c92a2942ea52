//! Orchestrator ablation on the synthetic cloud WAN: the same peering
//! property verified three ways —
//!
//! * `naive` — the reference oracle (every check is its own solver
//!   call on a fresh instance, in order);
//! * `dedup` — the pipeline on the pool (the Figure 3b/3d attack: WAN
//!   peerings share route-map templates, so thousands of checks
//!   collapse to a handful of solver calls);
//! * `cached` — dedup plus a pre-warmed cross-run result cache (the
//!   incremental re-verification path: nothing to solve).
//!
//! Scale with `WAN_REGIONS` / `WAN_ROUTERS` / `WAN_EDGES` / `WAN_PEERS`.

use bench::env_usize;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lightyear::engine::{CheckCache, RunMode, Verifier};
use netgen::wan::{self, WanParams};
use std::sync::Arc;

fn params() -> WanParams {
    WanParams {
        regions: env_usize("WAN_REGIONS", 2),
        routers_per_region: env_usize("WAN_ROUTERS", 2),
        edge_routers: env_usize("WAN_EDGES", 4),
        peers_per_edge: env_usize("WAN_PEERS", 4),
        ..WanParams::default()
    }
}

fn bench_orchestrated(c: &mut Criterion) {
    let s = wan::build(&params());
    let topo = &s.network.topology;
    let (name, q) = s.peering_predicates().into_iter().next().unwrap();
    let (props, inv) = s.peering_property_inputs(&q);
    let label = format!("{name}/{}r", s.params.num_routers());

    let mut g = c.benchmark_group("wan-orchestrated");
    g.sample_size(10);

    g.bench_with_input(BenchmarkId::new("naive", &label), &s, |b, s| {
        b.iter(|| {
            let v = Verifier::new(topo, &s.network.policy).with_ghost(s.from_peer_ghost());
            assert!(v.verify_safety_reference(&props, &inv).all_passed());
        })
    });

    g.bench_with_input(BenchmarkId::new("dedup", &label), &s, |b, s| {
        b.iter(|| {
            let v = Verifier::new(topo, &s.network.policy)
                .with_ghost(s.from_peer_ghost())
                .with_mode(RunMode::Parallel);
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
    g.bench_with_input(BenchmarkId::new("cached", &label), &s, |b, s| {
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
}

criterion_group!(benches, bench_orchestrated);
criterion_main!(benches);
