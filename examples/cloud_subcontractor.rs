//! The cloud-subcontractor scenario of thesis §1.3 / Chapter 4.
//!
//! ```text
//! cargo run --release --example cloud_subcontractor
//! ```
//!
//! A subcontractor leases machines from cloud providers (facilities) to
//! serve client requests arriving over time; connection cost is the
//! client-provider latency (distance). The §4.3 primal-dual algorithm
//! decides online when to lease which provider and for how long, and is
//! compared against the greedy lease-or-connect heuristic and the offline
//! optimum.

use online_resource_leasing::core::engine::{Driver, CATEGORY_CONNECTION, CATEGORY_LEASE};
use online_resource_leasing::core::lease::{LeaseStructure, LeaseType};
use online_resource_leasing::core::rng::seeded;
use online_resource_leasing::facility::baselines::GreedyLease;
use online_resource_leasing::facility::metric::Point;
use online_resource_leasing::facility::offline;
use online_resource_leasing::facility::online::PrimalDualFacility;
use online_resource_leasing::facility::FacilityInstance;
use rand::RngExt;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Four providers at fixed data-centre locations; lease a machine for a
    // day (2.0) or a week (8.0).
    let providers = vec![
        Point::new(0.0, 0.0),
        Point::new(30.0, 5.0),
        Point::new(10.0, 25.0),
        Point::new(28.0, 28.0),
    ];
    let leases = LeaseStructure::new(vec![LeaseType::new(1, 2.0), LeaseType::new(8, 8.0)])?;

    // Clients phone in over 16 days, clustered near the providers.
    let mut rng = seeded(2015);
    let mut batches = Vec::new();
    for day in 0..16u64 {
        let mut pts = Vec::new();
        for _ in 0..(1 + rng.random_range(0..3usize)) {
            let centre = providers[rng.random_range(0..providers.len())];
            pts.push(Point::new(
                centre.x + rng.random::<f64>() * 6.0 - 3.0,
                centre.y + rng.random::<f64>() * 6.0 - 3.0,
            ));
        }
        batches.push((day, pts));
    }
    let instance = FacilityInstance::euclidean(providers, leases, batches)?;
    println!(
        "{} clients over 16 days, {} providers, K = {} lease types",
        instance.num_clients(),
        instance.num_facilities(),
        instance.structure().num_types()
    );

    let mut driver = Driver::new(
        PrimalDualFacility::new(&instance),
        instance.structure().clone(),
    );
    driver.submit_batch(instance.requests())?;
    let pd_cost = driver.cost();
    println!(
        "primal-dual online:  total {:>7.2} (leases {:>6.2}, connections {:>6.2}, {} leases bought)",
        pd_cost,
        driver.ledger().category_cost(CATEGORY_LEASE),
        driver.ledger().category_cost(CATEGORY_CONNECTION),
        driver.ledger().leases_bought()
    );

    let mut greedy = GreedyLease::new(&instance);
    let greedy_cost = greedy.run();
    println!("greedy baseline:     total {greedy_cost:>7.2}");

    match offline::optimal_cost(&instance, 200_000) {
        Some(opt) => {
            println!("offline optimum:     total {opt:>7.2}");
            println!(
                "ratios: primal-dual {:.2}, greedy {:.2}",
                pd_cost / opt,
                greedy_cost / opt
            );
        }
        None => {
            let lb = offline::lp_lower_bound(&instance);
            println!("LP lower bound:      total {lb:>7.2}");
            println!(
                "ratio upper bounds: primal-dual {:.2}, greedy {:.2}",
                pd_cost / lb,
                greedy_cost / lb
            );
        }
    }
    Ok(())
}
