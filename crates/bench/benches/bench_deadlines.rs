//! Performance of the Chapter 5 algorithms: the OLD primal-dual and the
//! randomized SCLD algorithm.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use leasing_bench::drive;
use leasing_core::lease::{LeaseStructure, LeaseType};
use leasing_core::rng::seeded;
use leasing_deadlines::old::{OldInstance, OldPrimalDual};
use leasing_deadlines::scld::{ScldArrival, ScldInstance, ScldOnline};
use leasing_deadlines::windows::{WindowClient, WindowInstance, WindowPrimalDual};
use leasing_workloads::arrivals::old_clients;
use leasing_workloads::set_systems::random_system;
use rand::RngExt;
use std::hint::black_box;

fn structure() -> LeaseStructure {
    LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(16, 3.0)]).unwrap()
}

fn bench_old(c: &mut Criterion) {
    let mut group = c.benchmark_group("old_primal_dual");
    for horizon in [256u64, 1024, 4096] {
        let clients = old_clients(&mut seeded(3), horizon, 0.3, 8).expect("valid parameters");
        let inst = OldInstance::new(structure(), clients).unwrap();
        group.bench_with_input(BenchmarkId::new("serve_all", horizon), &inst, |b, inst| {
            b.iter(|| {
                let alg = drive(OldPrimalDual::new(inst), &inst.structure, inst.requests());
                black_box(alg.cost())
            })
        });
    }
    group.finish();
}

fn bench_windows(c: &mut Criterion) {
    let mut group = c.benchmark_group("window_primal_dual");
    for horizon in [256u64, 1024] {
        let mut rng = seeded(9);
        let mut clients: Vec<WindowClient> = Vec::new();
        for t in 0..horizon {
            if rng.random::<f64>() >= 0.3 {
                continue;
            }
            if rng.random::<f64>() < 0.5 {
                clients.push(WindowClient::periodic(t, 7, 3));
            } else {
                clients.push(WindowClient::interval(t, rng.random_range(0..8)));
            }
        }
        let inst = WindowInstance::new(structure(), clients).unwrap();
        group.bench_with_input(BenchmarkId::new("serve_all", horizon), &inst, |b, inst| {
            b.iter(|| {
                let alg = drive(
                    WindowPrimalDual::new(inst),
                    &inst.structure,
                    inst.requests(),
                );
                black_box(alg.cost())
            })
        });
    }
    group.finish();
}

fn bench_scld(c: &mut Criterion) {
    let mut group = c.benchmark_group("scld_online");
    for n in [20usize, 60] {
        let mut rng = seeded(11);
        let system = random_system(&mut rng, n, n / 2, 4);
        let mut arrivals = Vec::new();
        for t in 0..128u64 {
            if rng.random::<f64>() < 0.4 {
                arrivals.push(ScldArrival::new(
                    t,
                    rng.random_range(0..n),
                    rng.random_range(0..8),
                ));
            }
        }
        let inst = ScldInstance::uniform(system, structure(), arrivals).unwrap();
        group.bench_with_input(BenchmarkId::new("randomized", n), &inst, |b, inst| {
            b.iter(|| {
                let alg = drive(ScldOnline::new(inst, 2), &inst.structure, inst.requests());
                black_box(alg.cost())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_old, bench_windows, bench_scld);
criterion_main!(benches);
