//! Performance of the parking-permit algorithms (§2.2) as the horizon
//! grows: deterministic primal-dual, randomized rounding and the two
//! offline DPs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use leasing_bench::drive;
use leasing_core::lease::LeaseStructure;
use leasing_core::rng::seeded;
use leasing_workloads::rainy_days;
use parking_permit::det::DeterministicPrimalDual;
use parking_permit::offline;
use parking_permit::rand_alg::RandomizedPermit;
use std::hint::black_box;

fn structure() -> LeaseStructure {
    LeaseStructure::geometric(4, 1, 4, 1.0, 0.6)
}

fn bench_online(c: &mut Criterion) {
    let s = structure();
    let mut group = c.benchmark_group("parking_online");
    for horizon in [256u64, 1024, 4096] {
        let days = rainy_days(&mut seeded(1), horizon, 0.3).expect("valid parameters");
        group.bench_with_input(
            BenchmarkId::new("deterministic", horizon),
            &days,
            |b, days| {
                b.iter(|| {
                    let alg = DeterministicPrimalDual::new(s.clone());
                    black_box(drive(alg, &s, days.iter().map(|&d| (d, ()))).cost())
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("randomized", horizon), &days, |b, days| {
            b.iter(|| {
                let mut rng = seeded(7);
                let alg = RandomizedPermit::new(s.clone(), &mut rng);
                black_box(drive(alg, &s, days.iter().map(|&d| (d, ()))).cost())
            })
        });
    }
    group.finish();
}

fn bench_offline(c: &mut Criterion) {
    let s = structure();
    let mut group = c.benchmark_group("parking_offline");
    for horizon in [256u64, 1024, 4096] {
        let days = rainy_days(&mut seeded(2), horizon, 0.3).expect("valid parameters");
        group.bench_with_input(BenchmarkId::new("dp_general", horizon), &days, |b, days| {
            b.iter(|| black_box(offline::optimal_cost_general(&s, days)))
        });
        group.bench_with_input(
            BenchmarkId::new("dp_interval", horizon),
            &days,
            |b, days| b.iter(|| black_box(offline::optimal_cost_interval_model(&s, days))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_online, bench_offline);
criterion_main!(benches);
