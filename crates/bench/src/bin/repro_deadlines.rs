//! Experiments E11–E13: leasing with deadlines (thesis Chapter 5).
//!
//! * E11 (Theorem 5.3): uniform OLD stays `O(K)`; non-uniform OLD grows
//!   with `d_max/l_min`.
//! * E12 (Proposition 5.4, Figure 5.3): the tight example forces
//!   `Ω(d_max/l_min)` exactly.
//! * E13 (Theorem 5.7): SCLD ratio sweeps, with the Step-2 ablation showing
//!   the mirror purchase is what makes intersecting clients free.

use leasing_bench::{drive, table};
use leasing_core::harness::RatioStats;
use leasing_core::lease::{LeaseStructure, LeaseType};
use leasing_core::rng::seeded;
use leasing_deadlines::offline;
use leasing_deadlines::old::{OldInstance, OldPrimalDual};
use leasing_deadlines::scld::{ScldArrival, ScldInstance, ScldOnline};
use leasing_deadlines::tight::{tight_example, tight_example_optimum};
use leasing_workloads::arrivals::{old_clients, uniform_old_clients};
use leasing_workloads::set_systems::random_system;

const SEED: u64 = 55001;

fn structure(k: usize) -> LeaseStructure {
    let types: Vec<LeaseType> = (0..k)
        .map(|i| LeaseType::new(2u64 << (2 * i), (2.2f64).powi(i as i32)))
        .collect();
    LeaseStructure::new(types).expect("increasing lengths")
}

fn main() {
    println!("== E11a: uniform OLD, ratio vs K (Theorem 5.3: O(K)) ==\n");
    table::header(&["K", "slack", "mean", "max", "2K ref"], 10);
    for k in [1usize, 2, 3, 4] {
        let s = structure(k);
        let mut stats = RatioStats::new();
        for t in 0..6u64 {
            let mut rng = seeded(SEED + t * 13 + k as u64);
            let clients = uniform_old_clients(&mut rng, 256, 0.3, 4).expect("valid parameters");
            if clients.is_empty() {
                continue;
            }
            let inst = OldInstance::new(s.clone(), clients).expect("sorted");
            let opt = offline::old_optimal_cost(&inst, 50_000)
                .unwrap_or_else(|| offline::old_lp_lower_bound(&inst));
            if opt <= 0.0 {
                continue;
            }
            let alg = drive(OldPrimalDual::new(&inst), &inst.structure, inst.requests());
            stats.push(alg.cost() / opt);
        }
        table::row(
            &[
                table::i(k),
                table::i(4),
                table::f(stats.mean()),
                table::f(stats.max()),
                table::f(2.0 * k as f64),
            ],
            10,
        );
    }

    println!(
        "\n== E11b: non-uniform OLD, ratio vs d_max/l_min (Theorem 5.3: O(K + d_max/l_min)) ==\n"
    );
    let s = structure(2); // l_min = 2
    table::header(&["d_max", "d/l_min", "mean", "max", "K+d/l ref"], 10);
    for d_max in [0u64, 4, 16, 64] {
        let mut stats = RatioStats::new();
        for t in 0..6u64 {
            let mut rng = seeded(SEED ^ (t * 7 + d_max));
            let clients = old_clients(&mut rng, 256, 0.3, d_max).expect("valid parameters");
            if clients.is_empty() {
                continue;
            }
            let inst = OldInstance::new(s.clone(), clients).expect("sorted");
            let opt = offline::old_optimal_cost(&inst, 50_000)
                .unwrap_or_else(|| offline::old_lp_lower_bound(&inst));
            if opt <= 0.0 {
                continue;
            }
            let alg = drive(OldPrimalDual::new(&inst), &inst.structure, inst.requests());
            stats.push(alg.cost() / opt);
        }
        let ratio_ref = 2.0 + d_max as f64 / s.l_min() as f64;
        table::row(
            &[
                table::i(d_max),
                table::f(d_max as f64 / s.l_min() as f64),
                table::f(stats.mean()),
                table::f(stats.max()),
                table::f(ratio_ref),
            ],
            10,
        );
    }

    println!("\n== E12: the Figure 5.3 tight example (Proposition 5.4) ==\n");
    table::header(&["d_max", "l_min", "alg", "opt", "ratio", "d/l"], 10);
    for d_max in [8u64, 16, 32, 64, 128] {
        let l_min = 2;
        let inst = tight_example(d_max, l_min, 0.01);
        let alg = drive(OldPrimalDual::new(&inst), &inst.structure, inst.requests());
        let cost = alg.cost();
        let opt = tight_example_optimum(0.01);
        table::row(
            &[
                table::i(d_max),
                table::i(l_min),
                table::f(cost),
                table::f(opt),
                table::f(cost / opt),
                table::f(d_max as f64 / l_min as f64),
            ],
            10,
        );
    }
    println!("\n(paper: ratio grows as Θ(d_max/l_min) — the 'ratio' and 'd/l' columns track)");

    println!("\n== E13: SCLD ratio vs l_max and d_max (Theorem 5.7) ==\n");
    table::header(&["l_max", "d_max", "mean", "max", "ref"], 10);
    for (k, d_max) in [(2usize, 0u64), (2, 8), (3, 0), (3, 8)] {
        let s = structure(k);
        let mut stats = RatioStats::new();
        for t in 0..5u64 {
            let mut rng = seeded(SEED ^ (t * 3 + k as u64 * 17 + d_max));
            let system = random_system(&mut rng, 30, 15, 4);
            let mut arrivals = Vec::new();
            use rand::RngExt;
            for time in 0..64u64 {
                if rng.random::<f64>() < 0.4 {
                    let e = rng.random_range(0..30usize);
                    let slack = if d_max == 0 {
                        0
                    } else {
                        rng.random_range(0..=d_max)
                    };
                    arrivals.push(ScldArrival::new(time, e, slack));
                }
            }
            let inst = ScldInstance::uniform(system, s.clone(), arrivals).expect("valid");
            if inst.arrivals.is_empty() {
                continue;
            }
            let opt = offline::scld_optimal_cost(&inst, 30_000)
                .unwrap_or_else(|| offline::scld_lp_lower_bound(&inst));
            if opt <= 0.0 {
                continue;
            }
            let alg = drive(
                ScldOnline::new(&inst, SEED + t),
                &inst.structure,
                inst.requests(),
            );
            stats.push(alg.cost() / opt);
        }
        let l_max = s.l_max();
        let reference = ((15.0 * (k as f64 + d_max as f64 / s.l_min() as f64)) + 1.0).log2()
            * ((l_max as f64) + 1.0).log2();
        table::row(
            &[
                table::i(l_max),
                table::i(d_max),
                table::f(stats.mean()),
                table::f(stats.max()),
                table::f(reference),
            ],
            10,
        );
    }
    println!("\n(reference: log2(m(K + d_max/l_min)) * log2(l_max), the Theorem 5.7 rate)");
}
