//! Criterion benches for the online covering core (experiment E28).
//!
//! * `covering_engine/serve` — engine throughput as the candidate density
//!   grows (the fractional loop dominates; loops scale with cost · log d).
//! * `smcl_abstraction/specialized` — the Chapter 3 algorithm, which
//!   steps through the same engine, on zipf set-multicover instances.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use leasing_bench::drive;
use leasing_core::engine::{Books, Ledger};
use leasing_core::framework::Triple;
use leasing_core::lease::{LeaseStructure, LeaseType};
use leasing_core::rng::seeded;
use leasing_workloads::set_systems::{random_system, zipf_arrivals};
use online_covering::CoveringEngine;
use set_cover_leasing::instance::SmclInstance;
use set_cover_leasing::online::SmclOnline;
use std::hint::black_box;

fn lease_structure(k: usize) -> LeaseStructure {
    let types = (0..k)
        .map(|i| LeaseType::new(4u64 << (2 * i), (1.5f64).powi(i as i32 + 1)))
        .collect();
    LeaseStructure::new(types).expect("increasing lengths")
}

fn bench_engine_serve(c: &mut Criterion) {
    let mut group = c.benchmark_group("covering_engine");
    let structure = LeaseStructure::new(vec![LeaseType::new(1, 1.0)]).expect("one type");
    for density in [2usize, 8, 32] {
        group.bench_with_input(
            BenchmarkId::new("serve", density),
            &density,
            |b, &density| {
                b.iter(|| {
                    let mut ledger = Ledger::new(structure.clone());
                    let mut engine = CoveringEngine::new(8, 42);
                    for j in 0..64usize {
                        let candidates: Vec<(Triple, f64)> = (0..density)
                            .map(|i| (Triple::new((j + i) % 96, 0, i as u64), 1.0 + (i % 4) as f64))
                            .collect();
                        engine.serve(0, black_box(&candidates), &mut Books::new(&mut ledger));
                    }
                    black_box(ledger.total_cost())
                });
            },
        );
    }
    group.finish();
}

fn bench_smcl_abstraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("smcl_abstraction");
    for n in [32usize, 128] {
        let mut rng = seeded(77 + n as u64);
        let system = random_system(&mut rng, n, n / 2, 4);
        let arr = zipf_arrivals(&mut rng, &system, n, 256, 1.1, 2);
        let inst = SmclInstance::uniform(system, lease_structure(3), arr).expect("feasible");
        group.bench_with_input(BenchmarkId::new("specialized", n), &inst, |b, inst| {
            b.iter(|| {
                let alg = drive(SmclOnline::new(inst, 11), &inst.structure, inst.requests());
                black_box(alg.cost())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine_serve, bench_smcl_abstraction);
criterion_main!(benches);
