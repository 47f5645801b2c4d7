//! Experiment E21: the §5.6 extensions of the deadline model — multi-day
//! demands and weighted demands with lease capacities.
//!
//! * E21a: multi-day online vs the exact ILP as the required duration
//!   grows (the ILP exploits deadline flexibility to overlap blocks).
//! * E21b: weighted first-fit vs the copy-expanded ILP as capacity
//!   tightens.

use leasing_bench::{drive, table};
use leasing_core::harness::RatioStats;
use leasing_core::lease::LeaseStructure;
use leasing_core::rng::seeded;
use leasing_deadlines::capacitated::{
    BuyRule, CapacitatedOldInstance, FirstFitOnline, WeightedDemand,
};
use leasing_deadlines::multi_day::{self, MultiDayClient, MultiDayInstance, MultiDayOnline};
use rand::RngExt;

const SEED: u64 = 21001;

fn main() {
    let structure = LeaseStructure::geometric(2, 2, 4, 1.0, 0.6);

    println!("== E21a: multi-day demands — online vs exact ILP (seed {SEED}) ==\n");
    table::header(
        &[
            "duration",
            "opt mean",
            "onl mean",
            "ratio mean",
            "ratio max",
        ],
        11,
    );
    for duration in 1u64..=3 {
        let mut stats = RatioStats::new();
        let mut opt_sum = 0.0;
        let mut onl_sum = 0.0;
        let mut counted = 0;
        for trial in 0..6u64 {
            let mut rng = seeded(SEED + 17 * trial);
            let mut clients = Vec::new();
            let mut t = 0u64;
            for _ in 0..4 {
                t += rng.random_range(0..5u64);
                let slack = duration - 1 + rng.random_range(0..4u64);
                clients.push(MultiDayClient::new(t, slack, duration));
            }
            let inst = MultiDayInstance::new(structure.clone(), clients).unwrap();
            let Some(opt) = multi_day::optimal_cost(&inst, 400_000) else {
                continue;
            };
            let online = drive(MultiDayOnline::new(&inst), &inst.structure, inst.requests()).cost();
            stats.push(online / opt);
            opt_sum += opt;
            onl_sum += online;
            counted += 1;
        }
        table::row(
            &[
                table::i(duration),
                table::f(opt_sum / counted as f64),
                table::f(onl_sum / counted as f64),
                table::f(stats.mean()),
                table::f(stats.max()),
            ],
            11,
        );
    }
    println!("\nExpect ratios to stay moderate; both costs grow with the duration.\n");

    println!("== E21b: weighted demands and lease capacities — first-fit vs ILP ==\n");
    table::header(
        &["capacity", "opt mean", "ff mean", "ratio", "rule winner"],
        12,
    );
    for &cap in &[1.0f64, 2.0, 4.0] {
        let mut opt_sum = 0.0;
        let mut cheap_sum = 0.0;
        let mut rate_sum = 0.0;
        let mut counted = 0;
        for trial in 0..6u64 {
            let mut rng = seeded(SEED * 3 + trial);
            let mut demands = Vec::new();
            let mut t = 0u64;
            for _ in 0..3 {
                t += rng.random_range(0..3u64);
                demands.push(WeightedDemand::new(
                    t,
                    rng.random_range(0..3),
                    0.3 + 0.6 * rng.random::<f64>(),
                ));
            }
            let inst = CapacitatedOldInstance::new(structure.clone(), cap, demands).unwrap();
            let Some(opt) = leasing_deadlines::capacitated::optimal_cost(&inst, 3, 400_000) else {
                continue;
            };
            let cheap = drive(
                FirstFitOnline::new(&inst),
                &inst.structure,
                inst.requests(BuyRule::Cheapest),
            )
            .cost();
            let rate = drive(
                FirstFitOnline::new(&inst),
                &inst.structure,
                inst.requests(BuyRule::BestRate),
            )
            .cost();
            opt_sum += opt;
            cheap_sum += cheap;
            rate_sum += rate;
            counted += 1;
        }
        let winner = if rate_sum < cheap_sum {
            "best-rate"
        } else {
            "cheapest"
        };
        table::row(
            &[
                table::f(cap),
                table::f(opt_sum / counted as f64),
                table::f(cheap_sum / counted as f64),
                table::f(cheap_sum / opt_sum),
                winner.into(),
            ],
            12,
        );
    }
    println!("\nExpect the optimum to fall as capacity loosens (copies shared).");
}
