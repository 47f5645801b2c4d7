//! The travel-agency scenario opening thesis Chapter 5.
//!
//! ```text
//! cargo run --release --example tour_agency_deadlines
//! ```
//!
//! Tourists want to join a guided tour before they leave town: tourist
//! `(t, d)` can attend on any day of `[t, t+d]`. Guides are hired (leased)
//! for blocks of days, longer blocks cheaper per day. The §5.3 primal-dual
//! algorithm decides when to run tours; the Figure 5.3 tight example shows
//! why procrastination can hurt.

use online_resource_leasing::core::engine::Driver;
use online_resource_leasing::core::lease::{LeaseStructure, LeaseType};
use online_resource_leasing::core::rng::seeded;
use online_resource_leasing::deadlines::offline;
use online_resource_leasing::deadlines::old::{OldInstance, OldPrimalDual};
use online_resource_leasing::deadlines::tight::{tight_example, tight_example_optimum};
use online_resource_leasing::workloads::arrivals::old_clients;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Guides: one day for 1.0, a 16-day engagement for 4.0.
    let contracts = LeaseStructure::new(vec![LeaseType::new(1, 1.0), LeaseType::new(16, 4.0)])?;

    // A season of tourists with up to a week of flexibility.
    let mut rng = seeded(99);
    let tourists = old_clients(&mut rng, 128, 0.4, 7).expect("valid parameters");
    println!(
        "{} tourists over 128 days, slack up to 7 days",
        tourists.len()
    );
    let instance = OldInstance::new(contracts, tourists)?;

    let mut driver = Driver::new(OldPrimalDual::new(&instance), instance.structure.clone());
    driver.submit_batch(instance.requests())?;
    let cost = driver.cost();
    println!(
        "online cost {cost:.2} ({} guide contracts)",
        driver.ledger().leases_bought()
    );
    match offline::old_optimal_cost(&instance, 200_000) {
        Some(opt) => println!("offline optimum {opt:.2}; ratio {:.2}", cost / opt),
        None => {
            let lb = offline::old_lp_lower_bound(&instance);
            println!("LP lower bound {lb:.2}; ratio <= {:.2}", cost / lb);
        }
    }

    // The adversarial procrastination trap (Figure 5.3).
    println!("\n-- Figure 5.3 tight example (d_max = 64, l_min = 2) --");
    let trap = tight_example(64, 2, 0.01);
    let mut driver = Driver::new(OldPrimalDual::new(&trap), trap.structure.clone());
    driver.submit_batch(trap.requests())?;
    let trap_cost = driver.cost();
    let trap_opt = tight_example_optimum(0.01);
    println!(
        "online pays {trap_cost:.2}, hindsight pays {trap_opt:.2} -> ratio {:.1} ≈ d_max/l_min = {}",
        trap_cost / trap_opt,
        64 / 2
    );
    Ok(())
}
