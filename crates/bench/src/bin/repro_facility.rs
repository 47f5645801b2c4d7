//! Experiments E9–E10: facility leasing (thesis Chapter 4).
//!
//! * E9 (Theorem 4.5 + Corollaries 4.6/4.7): the primal-dual ratio under
//!   the four arrival patterns, against the `4(3+K)·H_{l_max}` bound; the
//!   greedy lease-or-connect baseline for contrast; sweep of `l_max`.
//! * E10 (Equation 4.3): the `H_q` value of each pattern — logarithmic for
//!   the "natural" patterns, linear for the exponential one.

use facility_leasing::baselines::GreedyLease;
use facility_leasing::offline;
use facility_leasing::online::PrimalDualFacility;
use facility_leasing::series::{h_series, harmonic, ArrivalPattern};
use leasing_bench::{drive, table};
use leasing_core::harness::RatioStats;
use leasing_core::lease::{LeaseStructure, LeaseType};
use leasing_core::rng::seeded;
use leasing_workloads::facilities::facility_instance;

const SEED: u64 = 44001;

fn structure_for(l_max_exp: u32) -> LeaseStructure {
    // Lease lengths 4, ..., 4^e with gamma-style costs.
    let types: Vec<LeaseType> = (1..=l_max_exp)
        .map(|i| LeaseType::new(4u64.pow(i), 2.0 * (2.0f64).powi(i as i32 - 1)))
        .collect();
    LeaseStructure::new(types).expect("increasing lengths")
}

fn main() {
    println!("== E10: H_q per arrival pattern (Equation 4.3) ==\n");
    let q = 16;
    table::header(&["pattern", "H_16", "harmonic", "q/2"], 14);
    let patterns = [
        ArrivalPattern::Constant(3),
        ArrivalPattern::Halving(1 << 14),
        ArrivalPattern::Polynomial(2),
        ArrivalPattern::Exponential,
    ];
    for p in patterns {
        let h = h_series(&p.batch_sizes(q));
        table::row(
            &[
                p.name().to_string(),
                table::f(h),
                table::f(harmonic(q)),
                table::f(q as f64 / 2.0),
            ],
            14,
        );
    }
    println!("\n(paper: constant/non-increasing/polynomial are O(log q); exponential is Θ(q))");

    println!("\n== E9: facility leasing ratio per arrival pattern (Theorem 4.5) ==");
    println!("opt reference: exact ILP when solvable, else LP lower bound\n");
    let structure = structure_for(2); // lengths 4, 16; K = 2
    let k = structure.num_types() as f64;
    table::header(
        &["pattern", "pd mean", "pd max", "greedy", "bound", "H_lmax"],
        12,
    );
    // Same four regimes as E10, but with a small halving start so the exact
    // baselines stay tractable (Halving(1<<14) would mean ~32k clients).
    let measured_patterns = [
        ArrivalPattern::Constant(3),
        ArrivalPattern::Halving(32),
        ArrivalPattern::Polynomial(2),
        ArrivalPattern::Exponential,
    ];
    for p in measured_patterns {
        let steps = 6usize;
        let mut pd_stats = RatioStats::new();
        let mut greedy_stats = RatioStats::new();
        let mut h_val = 0.0;
        for t in 0..4u64 {
            let mut rng = seeded(SEED + t * 977);
            let inst = facility_instance(&mut rng, 4, structure.clone(), p, steps, 40.0);
            h_val = h_series(&inst.batch_sizes());
            let opt = offline::optimal_cost(&inst, 20_000)
                .unwrap_or_else(|| offline::lp_lower_bound(&inst));
            if opt <= 0.0 {
                continue;
            }
            let alg = drive(
                PrimalDualFacility::new(&inst),
                inst.structure(),
                inst.requests(),
            );
            pd_stats.push(alg.cost() / opt);
            let mut greedy = GreedyLease::new(&inst);
            greedy_stats.push(greedy.run() / opt);
        }
        let bound = 4.0 * (3.0 + k) * h_val;
        table::row(
            &[
                p.name().to_string(),
                table::f(pd_stats.mean()),
                table::f(pd_stats.max()),
                table::f(greedy_stats.mean()),
                table::f(bound),
                table::f(h_val),
            ],
            12,
        );
    }

    println!("\n-- sweep l_max (constant arrivals, K grows with l_max) --");
    table::header(&["l_max", "K", "pd mean", "bound 4(3+K)H"], 12);
    for e in [1u32, 2, 3] {
        let structure = structure_for(e);
        let k = structure.num_types() as f64;
        let mut pd_stats = RatioStats::new();
        let mut h_val = 0.0;
        for t in 0..4u64 {
            let mut rng = seeded(SEED ^ (t + e as u64 * 997));
            let inst = facility_instance(
                &mut rng,
                4,
                structure.clone(),
                ArrivalPattern::Constant(2),
                8,
                40.0,
            );
            h_val = h_series(&inst.batch_sizes());
            let opt = offline::optimal_cost(&inst, 20_000)
                .unwrap_or_else(|| offline::lp_lower_bound(&inst));
            if opt <= 0.0 {
                continue;
            }
            let alg = drive(
                PrimalDualFacility::new(&inst),
                inst.structure(),
                inst.requests(),
            );
            pd_stats.push(alg.cost() / opt);
        }
        table::row(
            &[
                table::i(structure.l_max()),
                table::i(structure.num_types()),
                table::f(pd_stats.mean()),
                table::f(4.0 * (3.0 + k) * h_val),
            ],
            12,
        );
    }
    println!("\n(expected shape: measured ratios far below the worst-case bound; exponential");
    println!(" arrivals give the largest ratios, matching the Corollary 4.6/4.7 split)");
}
