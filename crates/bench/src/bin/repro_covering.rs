//! Experiment E28: the online primal-dual covering core (§2.1,
//! Buchbinder–Naor) behind the thesis' randomized algorithms certifies
//! their competitive ratio online.
//!
//! * **E28b (certificate tightness)** — the online weak-duality lower bound
//!   of Algorithm 2 (parking permit) and Algorithms 3/4 (SMCL) vs the exact
//!   optimum: how much of the measured ratio the certificate can vouch for
//!   without any ILP solve.
//! * **E28c (Lemma 3.1 shape)** — the dual scaling factor
//!   `max_i L_i / c_i` grows like `O(log d)` in the candidate density `d`,
//!   which is exactly the increment bound behind Lemma 3.1 / Lemma 5.5.

use leasing_bench::{drive, table};
use leasing_core::lease::{LeaseStructure, LeaseType};
use leasing_core::rng::seeded;
use leasing_workloads::rainy_days;
use leasing_workloads::set_systems::{random_system, zipf_arrivals};
use parking_permit::offline;
use parking_permit::rand_alg::RandomizedPermit;
use set_cover_leasing::instance::SmclInstance;
use set_cover_leasing::offline as sc_offline;
use set_cover_leasing::online::SmclOnline;

const SEED: u64 = 28281;

fn permit_structure(k: usize) -> LeaseStructure {
    let types = (0..k)
        .map(|i| LeaseType::new(1u64 << (2 * i), (2.5f64).powi(i as i32)))
        .collect();
    LeaseStructure::new(types).expect("increasing lengths")
}

fn lease_structure(k: usize) -> LeaseStructure {
    let types = (0..k)
        .map(|i| LeaseType::new(4u64 << (2 * i), (1.5f64).powi(i as i32 + 1)))
        .collect();
    LeaseStructure::new(types).expect("increasing lengths")
}

fn main() {
    println!("== E28b: online certificate vs exact optimum (parking permit) ==");
    println!("cert = dual_sum/scale lower-bounds Opt online; columns compare the");
    println!("ratio the certificate *proves* (cost/cert) with the true ratio (cost/Opt)\n");
    table::header(&["K", "cost/Opt", "cost/cert", "cert/Opt"], 12);
    for k in [1usize, 2, 3, 4, 5] {
        let s = permit_structure(k);
        let mut true_ratio = 0.0;
        let mut certified_ratio = 0.0;
        let mut tightness = 0.0;
        let trials = 20u64;
        for seed in 0..trials {
            let mut rng = seeded(SEED ^ (seed * 101 + k as u64));
            let days = rainy_days(&mut rng, 128, 0.35).expect("valid parameters");
            if days.is_empty() {
                continue;
            }
            let opt = offline::optimal_cost_interval_model(&s, &days);
            let alg = drive(
                RandomizedPermit::new(s.clone(), &mut rng),
                &s,
                days.iter().map(|&t| (t, ())),
            );
            let cost = alg.cost();
            let cert = alg.algorithm().certificate();
            true_ratio += cost / opt;
            certified_ratio += cost / cert.lower_bound.max(1e-12);
            tightness += cert.lower_bound / opt;
        }
        let n = trials as f64;
        table::row(
            &[
                table::i(k),
                table::f(true_ratio / n),
                table::f(certified_ratio / n),
                table::f(tightness / n),
            ],
            12,
        );
    }

    println!("\n== E28b': online certificate vs ILP optimum (SMCL) ==");
    table::header(&["n", "cost/Opt", "cost/cert", "cert/Opt"], 12);
    for n in [12usize, 24, 48] {
        let mut true_ratio = 0.0;
        let mut certified_ratio = 0.0;
        let mut tightness = 0.0;
        let mut count = 0.0;
        for seed in 0..5u64 {
            let mut rng = seeded(SEED ^ (seed * 31 + n as u64));
            let system = random_system(&mut rng, n, n / 2, 4);
            let arr = zipf_arrivals(&mut rng, &system, n, 64, 1.1, 2);
            let inst = SmclInstance::uniform(system, lease_structure(2), arr).expect("feasible");
            let Some(opt) = sc_offline::optimal_cost(&inst, 30_000) else {
                continue;
            };
            if opt <= 0.0 {
                continue;
            }
            let alg = drive(
                SmclOnline::new(&inst, seed),
                &inst.structure,
                inst.requests(),
            );
            let cost = alg.cost();
            let cert = alg.algorithm().certificate();
            true_ratio += cost / opt;
            certified_ratio += cost / cert.lower_bound.max(1e-12);
            tightness += cert.lower_bound / opt;
            count += 1.0;
        }
        table::row(
            &[
                table::i(n),
                table::f(true_ratio / count),
                table::f(certified_ratio / count),
                table::f(tightness / count),
            ],
            12,
        );
    }

    println!("\n== E28c: dual scale grows like O(log d) in candidate density ==");
    println!("(the quantitative core of Lemma 3.1 / Lemma 5.5)\n");
    table::header(&["delta", "K", "d=deltaK", "scale", "ln d"], 10);
    for (delta, k) in [(2usize, 1usize), (2, 2), (4, 2), (4, 4), (8, 4), (16, 4)] {
        let mut scale = 0.0;
        let trials = 5u64;
        for seed in 0..trials {
            let mut rng = seeded(SEED ^ (seed * 17 + (delta * 100 + k) as u64));
            let system = random_system(&mut rng, 48, 24, delta);
            let arr = zipf_arrivals(&mut rng, &system, 48, 64, 1.1, 1);
            let inst = SmclInstance::uniform(system, lease_structure(k), arr).expect("feasible");
            let alg = drive(
                SmclOnline::new(&inst, seed),
                &inst.structure,
                inst.requests(),
            );
            scale += alg.algorithm().certificate().scale;
        }
        let d = delta * k;
        table::row(
            &[
                table::i(delta),
                table::i(k),
                table::i(d),
                table::f(scale / trials as f64),
                table::f((d as f64).ln()),
            ],
            10,
        );
    }
    println!("\n(seed base: {SEED}; all tables bit-reproducible)");
}
