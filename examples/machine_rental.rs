//! Capacitated machine renting: the scheduling view of capacitated
//! facility leasing (thesis §4.5 — "machines are rented rather than
//! bought").
//!
//! ```text
//! cargo run --release --example machine_rental
//! ```
//!
//! Jobs arrive in batches and are placed on rented machines with bounded
//! jobs-per-step capacity; the greedy online scheduler is compared against
//! the exact capacitated ILP.

use online_resource_leasing::capacitated::offline;
use online_resource_leasing::capacitated::online::{CapacitatedGreedy, LeaseChoice};
use online_resource_leasing::capacitated::scheduling::{to_capacitated, JobBatch, Machine};
use online_resource_leasing::core::engine::{Driver, DriverError};
use online_resource_leasing::core::lease::LeaseStructure;
use online_resource_leasing::core::rng::seeded;
use rand::RngExt;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = 4004u64;
    let mut rng = seeded(seed);

    // Rental terms shared by all machines: 2 days at 1x, 8 days at 2.5x.
    let terms = LeaseStructure::geometric(2, 2, 4, 1.0, 0.66);

    // Three machines: a cheap single-job box, a mid-range duo and a big
    // quad-capacity server.
    let machines = vec![
        Machine {
            rental_costs: vec![1.0, 2.5],
            capacity: 1,
        },
        Machine {
            rental_costs: vec![1.6, 4.0],
            capacity: 2,
        },
        Machine {
            rental_costs: vec![2.8, 7.0],
            capacity: 4,
        },
    ];

    // Job batches over two weeks; affinity = data-transfer cost per machine.
    let mut jobs = Vec::new();
    let mut t = 0u64;
    for _ in 0..6 {
        t += 1 + rng.random_range(0..3u64);
        let n = 1 + rng.random_range(0..3);
        let affinity: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..3).map(|_| rng.random::<f64>() * 0.8).collect())
            .collect();
        jobs.push(JobBatch { time: t, affinity });
    }
    let instance = to_capacitated(&machines, terms, &jobs)?;
    println!(
        "{} jobs in {} batches over {} machines (seed {seed})",
        instance.base.num_clients(),
        instance.base.batches().len(),
        instance.base.num_facilities()
    );

    let greedy_cost = |choice| -> Result<f64, DriverError> {
        let greedy = CapacitatedGreedy::new(&instance, choice);
        let mut driver = Driver::new(greedy, instance.base.structure().clone());
        driver.submit_batch(instance.base.requests())?;
        Ok(driver.cost())
    };
    let myopic = greedy_cost(LeaseChoice::CheapestTotal)?;
    let invest = greedy_cost(LeaseChoice::BestRate)?;
    println!("greedy (cheapest rental now): {myopic:>7.2}");
    println!("greedy (best daily rate):     {invest:>7.2}");

    match offline::optimal_cost(&instance, 500_000) {
        Some(opt) => {
            println!("exact ILP optimum:            {opt:>7.2}");
            println!(
                "online/opt: {:.2} (cheapest), {:.2} (best-rate)",
                myopic / opt,
                invest / opt
            );
        }
        None => println!("ILP node budget exhausted (instance too large)"),
    }
    Ok(())
}
