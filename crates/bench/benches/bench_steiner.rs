//! Performance of online Steiner leasing: request-serving throughput as
//! the network and request stream grow.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use leasing_bench::drive;
use leasing_core::lease::LeaseStructure;
use leasing_core::rng::seeded;
use leasing_graph::generators::connected_erdos_renyi;
use rand::RngExt;
use std::hint::black_box;
use steiner_leasing::instance::{PairRequest, SteinerInstance};
use steiner_leasing::online::SteinerLeasingOnline;

fn instance(n: usize, requests: usize) -> SteinerInstance {
    let mut rng = seeded(7);
    let g = connected_erdos_renyi(&mut rng, n, 0.1, 1.0..4.0);
    let structure = LeaseStructure::geometric(3, 2, 4, 1.0, 0.6);
    let mut reqs = Vec::with_capacity(requests);
    let mut t = 0u64;
    for _ in 0..requests {
        t += rng.random_range(0..3u64);
        let u = rng.random_range(0..n);
        let mut v = rng.random_range(0..n);
        if v == u {
            v = (v + 1) % n;
        }
        reqs.push(PairRequest::new(t, u, v));
    }
    SteinerInstance::new(g, structure, reqs).unwrap()
}

fn bench_steiner_online(c: &mut Criterion) {
    let mut group = c.benchmark_group("steiner_online");
    for &(n, m) in &[(20usize, 50usize), (50, 100), (100, 200)] {
        let inst = instance(n, m);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_r{m}")),
            &inst,
            |b, inst| {
                b.iter(|| {
                    let alg = drive(
                        SteinerLeasingOnline::new(inst),
                        &inst.structure,
                        inst.requests(),
                    );
                    black_box(alg.cost())
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_steiner_online);
criterion_main!(benches);
