//! End-to-end check throughput benchmarks.
//!
//! * full-mesh no-transit verification at several sizes (the Figure-3d
//!   curve as a criterion bench);
//! * the reference oracle vs the pipeline on one worker and on every
//!   core (ablation D3);
//! * full vs incremental re-verification.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lightyear::engine::{RunMode, Verifier};
use netgen::{fullmesh, wan};

fn bench_fullmesh(c: &mut Criterion) {
    let mut g = c.benchmark_group("verify/fullmesh");
    g.sample_size(10);
    for n in [4usize, 8] {
        let s = fullmesh::build(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &s, |b, s| {
            b.iter(|| {
                let v = Verifier::new(&s.network.topology, &s.network.policy)
                    .with_ghost(s.ghost.clone());
                let report = v.verify_safety(&s.property, &s.invariants);
                assert!(report.all_passed());
            })
        });
    }
    g.finish();
}

fn bench_parallel(c: &mut Criterion) {
    let mut g = c.benchmark_group("verify/run-mode");
    g.sample_size(10);
    let s = wan::build(&wan::WanParams {
        regions: 3,
        routers_per_region: 3,
        edge_routers: 4,
        peers_per_edge: 3,
        ..wan::WanParams::default()
    });
    let (name, q) = s.peering_predicates().into_iter().next().unwrap();
    let (props, inv) = s.peering_property_inputs(&q);
    g.bench_function(
        BenchmarkId::from_parameter(format!("{name}-Reference")),
        |b| {
            b.iter(|| {
                let v = Verifier::new(&s.network.topology, &s.network.policy)
                    .with_ghost(s.from_peer_ghost());
                assert!(v.verify_safety_reference(&props, &inv).all_passed());
            })
        },
    );
    for mode in [RunMode::Sequential, RunMode::Parallel] {
        let label = format!("{name}-{mode:?}");
        g.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                let v = Verifier::new(&s.network.topology, &s.network.policy)
                    .with_ghost(s.from_peer_ghost())
                    .with_mode(mode);
                let report = v.verify_safety_multi(&props, &inv);
                assert!(report.all_passed());
            })
        });
    }
    g.finish();
}

fn bench_incremental(c: &mut Criterion) {
    let mut g = c.benchmark_group("verify/incremental");
    g.sample_size(10);
    let s = fullmesh::build(8);
    let changed = s.network.topology.node_by_name("R0").unwrap();
    g.bench_function("full", |b| {
        b.iter(|| {
            let v =
                Verifier::new(&s.network.topology, &s.network.policy).with_ghost(s.ghost.clone());
            let report = v.verify_safety(&s.property, &s.invariants);
            assert!(report.all_passed());
        })
    });
    g.bench_function("incremental-one-node", |b| {
        b.iter(|| {
            let v =
                Verifier::new(&s.network.topology, &s.network.policy).with_ghost(s.ghost.clone());
            let report = v.verify_safety_incremental(&s.property, &s.invariants, &[changed]);
            assert!(report.all_passed());
        })
    });
    g.finish();
}

criterion_group!(benches, bench_fullmesh, bench_parallel, bench_incremental);
criterion_main!(benches);
