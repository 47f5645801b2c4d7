//! "Any Tuesday works for me" — service windows with specific allowed days
//! (the §5.6 outlook model).
//!
//! ```text
//! cargo run --release --example flexible_windows
//! ```
//!
//! Chapter 5's travel agency hires tour guides by the block. Some tourists
//! can join any day before they leave (the OLD model); others are only free
//! on particular days — "any Tuesday in the next three weeks". The
//! `deadlines::windows` model takes an explicit set of allowed days per
//! client; its primal-dual algorithm decides which days to run tours on and
//! how long to engage each guide.

use online_resource_leasing::core::engine::Driver;
use online_resource_leasing::core::lease::{LeaseStructure, LeaseType};
use online_resource_leasing::core::rng::seeded;
use online_resource_leasing::deadlines::windows::{
    window_lp_lower_bound, window_optimal_cost, WindowClient, WindowInstance, WindowPrimalDual,
};
use rand::RngExt;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Guide contracts: 2 days for 1.0 or 16 days for 3.0.
    let contracts = LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(16, 3.0)])?;

    // A mixed season over ~9 weeks: weekend-only visitors, Tuesday
    // regulars, and fully flexible tourists.
    let mut rng = seeded(7);
    let mut tourists = Vec::new();
    for day in 0u64..63 {
        if rng.random_bool(0.12) {
            let style = rng.random_range(0..3u8);
            let t = match style {
                // Only free on the next three same-weekdays.
                0 => WindowClient::periodic(day, 7, 3),
                // Two specific days: tomorrow or the end of the fortnight.
                1 => WindowClient::specific(day, vec![day + 1, day + 14])?,
                // Fully flexible for a week (the OLD special case).
                _ => WindowClient::interval(day, 6),
            };
            tourists.push(t);
        }
    }
    println!(
        "{} tourists with mixed flexibility over 63 days",
        tourists.len()
    );

    let instance = WindowInstance::new(contracts, tourists)?;
    let mut driver = Driver::new(WindowPrimalDual::new(&instance), instance.structure.clone());
    driver.submit_batch(instance.requests())?;
    let (alg, cost) = (driver.algorithm(), driver.cost());
    println!(
        "online cost {cost:.2} with {} guide contracts; dual certificate {:.2}",
        driver.ledger().leases_bought(),
        alg.dual_value(),
    );

    match window_optimal_cost(&instance, 200_000) {
        Some(opt) => println!("hindsight optimum {opt:.2}; ratio {:.2}", cost / opt),
        None => {
            let lb = window_lp_lower_bound(&instance);
            println!("LP lower bound {lb:.2}; ratio <= {:.2}", cost / lb);
        }
    }

    // The flexibility pays: the same arrivals forced to be served on the
    // spot (single-day windows) cost strictly more in hindsight.
    let rigid = WindowInstance::new(
        instance.structure.clone(),
        instance
            .clients
            .iter()
            .map(|c| WindowClient::interval(c.arrival, 0))
            .collect(),
    )?;
    if let (Some(flex), Some(stiff)) = (
        window_optimal_cost(&instance, 200_000),
        window_optimal_cost(&rigid, 200_000),
    ) {
        println!(
            "\nvalue of flexibility: optimum {flex:.2} with day choices vs {stiff:.2} without \
             ({:.0}% saved)",
            100.0 * (1.0 - flex / stiff)
        );
    }
    Ok(())
}
