//! Experiment E29: the offline primal-dual facility-leasing baseline
//! (§4.1 — the Nagarajan–Williamson 3-approximation the thesis cites).
//!
//! * **E29a** — approximation quality: primal-dual cost vs the exact ILP
//!   optimum and vs the per-instance certified factor `cost/Σα` (valid by
//!   weak duality even when the ILP is out of reach). The Jain–Vazirani
//!   argument predicts a factor ≤ 3; witness re-openings (the
//!   leasing-specific fallback) are counted separately.
//! * **E29b** — offline vs online: the same instances served by the
//!   Chapter 4 online algorithm. The gap is the empirical "price of leasing
//!   online" for facility leasing.

use facility_leasing::offline;
use facility_leasing::offline_primal_dual::{self, is_feasible};
use facility_leasing::online::PrimalDualFacility;
use facility_leasing::series::ArrivalPattern;
use leasing_bench::{drive, table};
use leasing_core::lease::{LeaseStructure, LeaseType};
use leasing_core::rng::seeded;
use leasing_workloads::facilities::facility_instance;

const SEED: u64 = 29291;

fn structure() -> LeaseStructure {
    LeaseStructure::new(vec![LeaseType::new(4, 2.0), LeaseType::new(16, 6.0)]).unwrap()
}

fn main() {
    println!("== E29a: offline primal-dual vs ILP optimum (3-approximation, §4.1) ==");
    println!("columns: cost/Opt (true factor), cost/Σα (certified factor), reopen%\n");
    table::header(&["m", "steps", "cost/Opt", "certified", "reopen%"], 11);
    for (m, steps) in [(2usize, 4usize), (3, 6), (4, 8), (5, 10)] {
        let trials = 10u64;
        let mut true_factor = 0.0;
        let mut certified = 0.0;
        let mut reopen = 0usize;
        let mut count = 0.0;
        for t in 0..trials {
            let mut rng = seeded(SEED ^ (t * 97 + (m * 13 + steps) as u64));
            let inst = facility_instance(
                &mut rng,
                m,
                structure(),
                ArrivalPattern::Constant(2),
                steps,
                20.0,
            );
            let sol = offline_primal_dual::solve(&inst);
            assert!(
                is_feasible(&inst, &sol),
                "offline PD produced an infeasible solution"
            );
            reopen += sol.witness_reopenings;
            certified += sol.certified_factor();
            let Some(opt) = offline::optimal_cost(&inst, 60_000) else {
                continue;
            };
            if opt <= 0.0 {
                continue;
            }
            true_factor += sol.total_cost() / opt;
            count += 1.0;
        }
        table::row(
            &[
                table::i(m),
                table::i(steps),
                table::f(true_factor / count),
                table::f(certified / trials as f64),
                table::f(100.0 * reopen as f64 / trials as f64),
            ],
            11,
        );
    }

    println!("\n== E29b: offline primal-dual vs the Chapter 4 online algorithm ==");
    println!("(the empirical price of leasing online for facility leasing)\n");
    table::header(&["pattern", "offline", "online", "online/offline"], 15);
    for (name, pattern) in [
        ("constant", ArrivalPattern::Constant(2)),
        ("exponential", ArrivalPattern::Exponential),
        ("halving", ArrivalPattern::Halving(8)),
    ] {
        let trials = 8u64;
        let mut off = 0.0;
        let mut on = 0.0;
        for t in 0..trials {
            let mut rng = seeded(SEED ^ (t * 1009 + name.len() as u64));
            let inst = facility_instance(&mut rng, 4, structure(), pattern, 8, 20.0);
            off += offline_primal_dual::solve(&inst).total_cost();
            let alg = drive(
                PrimalDualFacility::new(&inst),
                inst.structure(),
                inst.requests(),
            );
            on += alg.cost();
        }
        table::row(
            &[
                name.to_string(),
                table::f(off),
                table::f(on),
                table::f(on / off),
            ],
            15,
        );
    }
    println!("\n(seed base: {SEED}; all tables bit-reproducible)");
}
