//! Performance of the Chapter 4 facility-leasing algorithms: the §4.3
//! primal-dual algorithm vs the greedy baseline, per arrival pattern.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use facility_leasing::baselines::GreedyLease;
use facility_leasing::nagarajan_williamson::NagarajanWilliamson;
use facility_leasing::online::PrimalDualFacility;
use facility_leasing::series::ArrivalPattern;
use leasing_bench::drive;
use leasing_core::lease::{LeaseStructure, LeaseType};
use leasing_core::rng::seeded;
use leasing_workloads::facilities::facility_instance;
use std::hint::black_box;

fn structure() -> LeaseStructure {
    LeaseStructure::new(vec![LeaseType::new(4, 2.0), LeaseType::new(16, 6.0)]).unwrap()
}

fn bench_primal_dual(c: &mut Criterion) {
    let mut group = c.benchmark_group("facility_primal_dual");
    group.sample_size(10);
    for (name, pattern, steps) in [
        ("constant", ArrivalPattern::Constant(2), 8usize),
        ("exponential", ArrivalPattern::Exponential, 6),
    ] {
        let inst = facility_instance(&mut seeded(5), 4, structure(), pattern, steps, 40.0);
        group.bench_with_input(BenchmarkId::new("pd", name), &inst, |b, inst| {
            b.iter(|| {
                let alg = drive(
                    PrimalDualFacility::new(inst),
                    inst.structure(),
                    inst.requests(),
                );
                black_box(alg.cost())
            })
        });
        group.bench_with_input(BenchmarkId::new("greedy", name), &inst, |b, inst| {
            b.iter(|| {
                let mut alg = GreedyLease::new(inst);
                black_box(alg.run())
            })
        });
        group.bench_with_input(BenchmarkId::new("nw", name), &inst, |b, inst| {
            b.iter(|| {
                let alg = drive(
                    NagarajanWilliamson::new(inst),
                    inst.structure(),
                    inst.requests(),
                );
                black_box(alg.cost())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_primal_dual);
criterion_main!(benches);
