//! Experiment E14: time independence of the Chapter 5 thresholds
//! (Corollary 5.8).
//!
//! SetCoverLeasing solved two ways on the *same* growing instances:
//!
//! * the Chapter 3 algorithm, whose thresholds use `2⌈log₂(n+1)⌉` uniforms
//!   (ratio `O(log(mK) log n)` — grows with the horizon), and
//! * the Chapter 5 SCLD algorithm with `d_max = 0`, whose thresholds use
//!   `2⌈log₂(l_max)⌉` uniforms (ratio `O(log(mK) log l_max)` — flat in `n`).
//!
//! As `n` (and the horizon) grow with `l_max` fixed, the Chapter 3 rounding
//! buys more and more redundant leases per candidate while the Chapter 5
//! variant stays put.

use leasing_bench::{drive, table};
use leasing_core::harness::RatioStats;
use leasing_core::lease::{LeaseStructure, LeaseType};
use leasing_core::rng::seeded;
use leasing_deadlines::scld::{ScldArrival, ScldInstance, ScldOnline};
use leasing_workloads::set_systems::random_system;
use rand::RngExt;
use set_cover_leasing::instance::{Arrival, SmclInstance};
use set_cover_leasing::offline;
use set_cover_leasing::online::SmclOnline;

const SEED: u64 = 66001;

fn main() {
    println!("== E14: SetCoverLeasing — Ch.3 (log n thresholds) vs Ch.5 (log l_max thresholds) ==");
    println!("l_max fixed at 16; universe and horizon grow together (Corollary 5.8)\n");
    let structure =
        LeaseStructure::new(vec![LeaseType::new(4, 1.0), LeaseType::new(16, 3.0)]).expect("valid");

    table::header(
        &["n", "horizon", "ch3 mean", "ch5 mean", "ch3 q", "ch5 q"],
        10,
    );
    for &(n, horizon) in &[(10usize, 32u64), (20, 64), (40, 128), (80, 256), (160, 512)] {
        let mut ch3 = RatioStats::new();
        let mut ch5 = RatioStats::new();
        let mut q3 = 0;
        let q5 = leasing_core::rng::threshold_count(structure.l_max());
        for t in 0..5u64 {
            let mut rng = seeded(SEED + t * 101 + n as u64);
            let system = random_system(&mut rng, n, (n / 2).max(2), 4);
            // One demand per element spread over the horizon, one arrival per
            // time step to keep instances comparable.
            let mut times: Vec<u64> = (0..n as u64).map(|i| i * horizon / n as u64).collect();
            times.sort_unstable();
            let mut smcl_arrivals = Vec::new();
            let mut scld_arrivals = Vec::new();
            for (i, &time) in times.iter().enumerate() {
                let e = if rng.random::<f64>() < 0.5 {
                    i % n
                } else {
                    rng.random_range(0..n)
                };
                smcl_arrivals.push(Arrival::new(time, e, 1));
                scld_arrivals.push(ScldArrival::new(time, e, 0));
            }
            let smcl = SmclInstance::uniform(system.clone(), structure.clone(), smcl_arrivals)
                .expect("valid");
            let scld =
                ScldInstance::uniform(system, structure.clone(), scld_arrivals).expect("valid");
            let opt = offline::optimal_cost(&smcl, 30_000)
                .unwrap_or_else(|| offline::lp_lower_bound(&smcl));
            if opt <= 0.0 {
                continue;
            }
            q3 = leasing_core::rng::threshold_count(n as u64);
            let a3 = drive(
                SmclOnline::new(&smcl, SEED + t),
                &smcl.structure,
                smcl.requests(),
            );
            ch3.push(a3.cost() / opt);
            let a5 = drive(
                ScldOnline::new(&scld, SEED + t),
                &scld.structure,
                scld.requests(),
            );
            ch5.push(a5.cost() / opt);
        }
        table::row(
            &[
                table::i(n),
                table::i(horizon),
                table::f(ch3.mean()),
                table::f(ch5.mean()),
                table::i(q3),
                table::i(q5),
            ],
            10,
        );
    }
    println!("\n(expected shape: 'ch3 mean' drifts upward with n; 'ch5 mean' stays flat —");
    println!(" the Corollary 5.8 removal of the log n factor)");
}
