//! Performance of the Chapter 3 set-multicover-leasing machinery: the
//! randomized online algorithm and the density-greedy offline baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use leasing_bench::drive;
use leasing_core::lease::{LeaseStructure, LeaseType};
use leasing_core::rng::seeded;
use leasing_workloads::set_systems::{random_system, zipf_arrivals};
use set_cover_leasing::instance::SmclInstance;
use set_cover_leasing::offline;
use set_cover_leasing::online::SmclOnline;
use std::hint::black_box;

fn structure() -> LeaseStructure {
    LeaseStructure::new(vec![LeaseType::new(4, 1.0), LeaseType::new(32, 4.0)]).unwrap()
}

fn make_instance(n: usize) -> SmclInstance {
    let mut rng = seeded(42 + n as u64);
    let system = random_system(&mut rng, n, n / 2, 4);
    let arrivals = zipf_arrivals(&mut rng, &system, n, 128, 1.1, 2);
    SmclInstance::uniform(system, structure(), arrivals).unwrap()
}

fn bench_online(c: &mut Criterion) {
    let mut group = c.benchmark_group("smcl_online");
    for n in [20usize, 60, 180] {
        let inst = make_instance(n);
        group.bench_with_input(BenchmarkId::new("randomized", n), &inst, |b, inst| {
            b.iter(|| {
                let alg = drive(SmclOnline::new(inst, 9), &inst.structure, inst.requests());
                black_box(alg.cost())
            })
        });
    }
    group.finish();
}

fn bench_offline(c: &mut Criterion) {
    let mut group = c.benchmark_group("smcl_offline");
    for n in [20usize, 60] {
        let inst = make_instance(n);
        group.bench_with_input(BenchmarkId::new("greedy", n), &inst, |b, inst| {
            b.iter(|| black_box(offline::greedy(inst).0))
        });
        group.bench_with_input(BenchmarkId::new("lp_bound", n), &inst, |b, inst| {
            b.iter(|| black_box(offline::lp_lower_bound(inst)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_online, bench_offline);
criterion_main!(benches);
