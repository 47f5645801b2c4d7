//! Certified online leasing: serve demands online *and* prove, live, how
//! far from optimal the spending could possibly be.
//!
//! ```text
//! cargo run --release --example certified_leasing
//! ```
//!
//! A subcontractor leases network nodes (Chapter 3's scenario) without
//! knowing future requests. Competitive analysis promises
//! `O(log(δK) log n)` in the worst case — but a customer asking "how badly
//! are we doing *on this workload*?" deserves a per-run answer, not a
//! worst-case one. The covering engine behind the Chapter 3 algorithm
//! provides it: its fractional phase builds a feasible dual solution as a
//! by-product, and weak duality (Theorem 2.3) turns that into a certified
//! lower bound on what *any* omniscient competitor would have to pay. No
//! LP solver, no hindsight — the bound is available at every moment of
//! the run.
//!
//! The example replays a month of requests, printing the spend, the
//! certificate and the certified ratio after every week, then cross-checks
//! the final certificate against the exact ILP optimum.

use online_resource_leasing::core::engine::Driver;
use online_resource_leasing::core::lease::{LeaseStructure, LeaseType};
use online_resource_leasing::core::rng::seeded;
use online_resource_leasing::set_cover::instance::SmclInstance;
use online_resource_leasing::set_cover::offline;
use online_resource_leasing::set_cover::online::SmclOnline;
use online_resource_leasing::workloads::set_systems::{random_system, zipf_arrivals};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 20 services, 10 server groups (each group can host some services),
    // leases of 4 days (1 EUR) or 16 days (3 EUR).
    let mut rng = seeded(42);
    let system = random_system(&mut rng, 20, 10, 4);
    let structure = LeaseStructure::new(vec![LeaseType::new(4, 1.0), LeaseType::new(16, 3.0)])?;
    let arrivals = zipf_arrivals(&mut rng, &system, 40, 28, 1.2, 2);
    let instance = SmclInstance::uniform(system, structure, arrivals)
        .expect("generated arrivals are coverable");

    println!("certified online leasing — one month of service requests\n");
    println!(
        "{:>6} | {:>10} | {:>12} | {:>15}",
        "day", "spend", "certificate", "certified ratio"
    );
    println!("{}", "-".repeat(52));

    let mut alg = Driver::new(SmclOnline::new(&instance, 7), instance.structure.clone());
    for week_end in [7u64, 14, 21, 28] {
        let week_start = week_end - 7;
        alg.submit_batch(
            instance
                .requests()
                .filter(|&(t, _)| (week_start..week_end).contains(&t)),
        )?;
        let cert = alg.algorithm().certificate();
        let ratio = if cert.lower_bound > 0.0 {
            alg.cost() / cert.lower_bound
        } else {
            1.0
        };
        println!(
            "{:>6} | {:>10.2} | {:>12.2} | {:>15.2}",
            week_end,
            alg.cost(),
            cert.lower_bound,
            ratio
        );
    }

    // Hindsight check: the certificate must stand below the true optimum.
    let cert = alg.algorithm().certificate();
    match offline::optimal_cost(&instance, 100_000) {
        Some(opt) => {
            println!("\nexact offline optimum (ILP):    {opt:.2}");
            println!("final certificate:              {:.2}", cert.lower_bound);
            println!("true ratio:                     {:.2}", alg.cost() / opt);
            println!(
                "certified ratio (no hindsight): {:.2}",
                alg.cost() / cert.lower_bound
            );
            assert!(
                cert.lower_bound <= opt + 1e-9,
                "certificates never exceed the optimum"
            );
        }
        None => {
            let lp = offline::lp_lower_bound(&instance);
            println!(
                "\nILP out of budget; LP bound: {lp:.2} (certificate {:.2})",
                cert.lower_bound
            );
        }
    }
    println!("\nThe certificate is computed online, from the dual of the fractional");
    println!("phase alone — the spend/certificate gap is a *proven* bound on regret.");
    Ok(())
}
