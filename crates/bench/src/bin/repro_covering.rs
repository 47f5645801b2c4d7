//! Experiment E28: the generic online primal-dual covering engine (§2.1,
//! Buchbinder–Naor) reproduces the thesis' randomized algorithms exactly and
//! certifies its own competitive ratio online.
//!
//! * **E28a (unification)** — the `online-covering` adapters are bit-exact
//!   re-derivations of Algorithm 2 (parking permit), Algorithms 3/4 (SMCL)
//!   and Algorithm 5 (SCLD): identical integral cost under identical seeds.
//! * **E28b (certificate tightness)** — the engine's online weak-duality
//!   lower bound vs the exact optimum: how much of the measured ratio the
//!   certificate can vouch for without any ILP solve.
//! * **E28c (Lemma 3.1 shape)** — the dual scaling factor
//!   `max_i L_i / c_i` grows like `O(log d)` in the candidate density `d`,
//!   which is exactly the increment bound behind Lemma 3.1 / Lemma 5.5.
//! * **E28d (deterministic unification)** — the deterministic dual-ascent
//!   engine re-derives Algorithm 1 (Theorem 2.7) and the §5.3 OLD
//!   algorithm, again bit-exactly.

use leasing_bench::{drive, table};
use leasing_core::engine::Driver;
use leasing_core::lease::{LeaseStructure, LeaseType};
use leasing_core::rng::seeded;
use leasing_deadlines::old::{OldClient, OldInstance, OldPrimalDual};
use leasing_deadlines::scld::{ScldArrival, ScldInstance, ScldOnline};
use leasing_workloads::rainy_days;
use leasing_workloads::set_systems::{random_system, zipf_arrivals};
use online_covering::{
    GenericDeterministicPermit, GenericOld, GenericParkingPermit, GenericScld, GenericSmcl,
};
use parking_permit::det::DeterministicPrimalDual;
use parking_permit::offline;
use parking_permit::rand_alg::RandomizedPermit;
use rand::RngExt;
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
    println!("== E28a: adapters are bit-exact re-derivations (unification) ==");
    println!("columns: specialized cost, generic cost (must agree to the last bit)\n");
    table::header(&["algorithm", "specialized", "generic", "equal"], 14);

    // Parking permit, 10 seeds.
    {
        let s = permit_structure(3);
        let mut all_equal = true;
        let mut spec_total = 0.0;
        let mut gen_total = 0.0;
        for seed in 0..10u64 {
            let mut rng = seeded(SEED ^ seed);
            let days = rainy_days(&mut rng, 96, 0.4).expect("valid parameters");
            let tau = seeded(seed + 1).random::<f64>().max(1e-6);
            let mut spec = Driver::new(RandomizedPermit::with_threshold(s.clone(), tau), s.clone());
            let mut gen = GenericParkingPermit::with_threshold(s.clone(), tau);
            spec.submit_batch(days.iter().map(|&t| (t, ())))
                .expect("sorted demand days");
            for &t in &days {
                gen.serve_demand(t);
            }
            let (a, b) = (spec.cost(), gen.total_cost());
            all_equal &= a.to_bits() == b.to_bits();
            spec_total += a;
            gen_total += b;
        }
        table::row(
            &[
                "permit/Alg2".to_string(),
                table::f(spec_total),
                table::f(gen_total),
                table::i(all_equal),
            ],
            14,
        );
    }

    // SMCL, 10 seeds.
    {
        let mut all_equal = true;
        let mut spec_total = 0.0;
        let mut gen_total = 0.0;
        for seed in 0..10u64 {
            let mut rng = seeded(SEED ^ (seed * 7 + 1));
            let system = random_system(&mut rng, 24, 12, 4);
            let arr = zipf_arrivals(&mut rng, &system, 24, 64, 1.1, 2);
            let inst = SmclInstance::uniform(system, lease_structure(2), arr).expect("feasible");
            let spec = drive(
                SmclOnline::new(&inst, seed),
                &inst.structure,
                inst.requests(),
            );
            let mut gen = GenericSmcl::new(&inst, seed);
            let (a, b) = (spec.cost(), gen.run());
            all_equal &= a.to_bits() == b.to_bits();
            spec_total += a;
            gen_total += b;
        }
        table::row(
            &[
                "smcl/Alg3+4".to_string(),
                table::f(spec_total),
                table::f(gen_total),
                table::i(all_equal),
            ],
            14,
        );
    }

    // SCLD, 10 seeds.
    {
        let mut all_equal = true;
        let mut spec_total = 0.0;
        let mut gen_total = 0.0;
        for seed in 0..10u64 {
            let mut rng = seeded(SEED ^ (seed * 13 + 2));
            let system = random_system(&mut rng, 24, 12, 4);
            let mut arrivals: Vec<ScldArrival> = Vec::new();
            let mut t = 0u64;
            for _ in 0..24 {
                t += rng.random_range(0..4u64);
                let e = rng.random_range(0..24usize);
                let slack = rng.random_range(0..12u64);
                arrivals.push(ScldArrival::new(t, e, slack));
            }
            let inst =
                ScldInstance::uniform(system, lease_structure(2), arrivals).expect("feasible");
            let spec = drive(
                ScldOnline::new(&inst, seed),
                &inst.structure,
                inst.requests(),
            );
            let mut gen = GenericScld::new(&inst, seed);
            let (a, b) = (spec.cost(), gen.run());
            all_equal &= a.to_bits() == b.to_bits();
            spec_total += a;
            gen_total += b;
        }
        table::row(
            &[
                "scld/Alg5".to_string(),
                table::f(spec_total),
                table::f(gen_total),
                table::i(all_equal),
            ],
            14,
        );
    }

    // Deterministic adapters (E28d).
    {
        let s = permit_structure(3);
        let mut all_equal = true;
        let mut spec_total = 0.0;
        let mut gen_total = 0.0;
        for seed in 0..10u64 {
            let mut rng = seeded(SEED ^ (seed * 5 + 3));
            let days = rainy_days(&mut rng, 96, 0.4).expect("valid parameters");
            let mut spec = Driver::new(DeterministicPrimalDual::new(s.clone()), s.clone());
            let mut gen = GenericDeterministicPermit::new(s.clone());
            spec.submit_batch(days.iter().map(|&t| (t, ())))
                .expect("sorted demand days");
            for &t in &days {
                gen.serve_demand(t);
            }
            let (a, b) = (spec.cost(), gen.total_cost());
            all_equal &= a.to_bits() == b.to_bits();
            spec_total += a;
            gen_total += b;
        }
        table::row(
            &[
                "permit/Alg1".to_string(),
                table::f(spec_total),
                table::f(gen_total),
                table::i(all_equal),
            ],
            14,
        );
    }
    {
        let s = permit_structure(3);
        let mut all_equal = true;
        let mut spec_total = 0.0;
        let mut gen_total = 0.0;
        for seed in 0..10u64 {
            let mut rng = seeded(SEED ^ (seed * 11 + 4));
            let mut t = 0u64;
            let clients: Vec<OldClient> = (0..32)
                .map(|_| {
                    t += rng.random_range(0..5u64);
                    OldClient::new(t, rng.random_range(0..10u64))
                })
                .collect();
            let inst = OldInstance::new(s.clone(), clients).expect("sorted clients");
            let spec = drive(OldPrimalDual::new(&inst), &inst.structure, inst.requests());
            let mut gen = GenericOld::new(&inst);
            let (a, b) = (spec.cost(), gen.run());
            all_equal &= a.to_bits() == b.to_bits();
            spec_total += a;
            gen_total += b;
        }
        table::row(
            &[
                "old/§5.3".to_string(),
                table::f(spec_total),
                table::f(gen_total),
                table::i(all_equal),
            ],
            14,
        );
    }

    println!("\n== E28b: online certificate vs exact optimum (parking permit) ==");
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
            let mut alg = GenericParkingPermit::new(s.clone(), &mut rng);
            for &t in &days {
                alg.serve_demand(t);
            }
            let cost = alg.total_cost();
            let cert = alg.certificate();
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
            let mut alg = GenericSmcl::new(&inst, seed);
            let cost = alg.run();
            let cert = alg.certificate();
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
            let mut alg = GenericSmcl::new(&inst, seed);
            alg.run();
            scale += alg.certificate().scale;
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
