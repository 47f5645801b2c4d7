//! The file-server scenario opening thesis Chapter 3.
//!
//! ```text
//! cargo run --release --example file_server_multicover
//! ```
//!
//! Files live on several servers; users request a file and — for redundancy
//! — want it served from `p` *different* active servers. Activating
//! (leasing) a server for longer is cheaper per day. The Chapter 3
//! randomized online algorithm decides which servers to activate, when and
//! for how long.

use online_resource_leasing::core::engine::Driver;
use online_resource_leasing::core::lease::{LeaseStructure, LeaseType};
use online_resource_leasing::core::rng::seeded;
use online_resource_leasing::set_cover::instance::{Arrival, SmclInstance};
use online_resource_leasing::set_cover::offline;
use online_resource_leasing::set_cover::online::{is_feasible_cover, SmclOnline};
use online_resource_leasing::workloads::set_systems::{random_system, zipf_arrivals};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 40 files spread across 16 servers; every file is mirrored on at most
    // 4 servers.
    let mut rng = seeded(333);
    let catalogue = random_system(&mut rng, 40, 16, 4);
    println!(
        "{} files on {} servers (δ = {}, Δ = {})",
        catalogue.num_elements(),
        catalogue.num_sets(),
        catalogue.delta(),
        catalogue.max_set_size()
    );

    // Servers can be activated for 4 days (1.0) or 32 days (4.0).
    let leases = LeaseStructure::new(vec![LeaseType::new(4, 1.0), LeaseType::new(32, 4.0)])?;

    // 60 user requests over 64 days, Zipf-popular files, redundancy 1-2.
    let requests: Vec<Arrival> = zipf_arrivals(&mut rng, &catalogue, 60, 64, 1.2, 2);
    let instance = SmclInstance::uniform(catalogue, leases, requests)?;

    let mut driver = Driver::new(SmclOnline::new(&instance, 2015), instance.structure.clone());
    driver.submit_batch(instance.requests())?;
    let (ledger, cost) = (driver.ledger(), driver.cost());
    assert!(is_feasible_cover(&instance, |t| ledger.owns(t)));
    println!(
        "online cost {cost:.2} ({} server-leases; {} rounding fallbacks)",
        ledger.leases_bought(),
        driver.algorithm().stats().fallbacks
    );

    let (greedy_cost, _) = offline::greedy(&instance);
    println!("offline greedy (hindsight) cost {greedy_cost:.2}");
    match offline::optimal_cost(&instance, 100_000) {
        Some(opt) => println!("offline optimum {opt:.2}; online ratio {:.2}", cost / opt),
        None => {
            let lb = offline::lp_lower_bound(&instance);
            println!("LP lower bound {lb:.2}; online ratio <= {:.2}", cost / lb);
        }
    }
    Ok(())
}
