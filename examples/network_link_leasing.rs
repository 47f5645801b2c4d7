//! Steiner tree leasing: a service provider leases network links to keep
//! communicating customer pairs connected (the thesis' Chapter 1 network
//! narrative, formalized as Meyerson's SteinerTreeLeasing).
//!
//! ```text
//! cargo run --release --example network_link_leasing
//! ```
//!
//! A random ISP-like topology serves pair requests with the deterministic
//! and randomized online algorithms, compared against the route-then-lease
//! offline heuristic and the naive per-request baseline.

use online_resource_leasing::core::engine::Driver;
use online_resource_leasing::core::lease::LeaseStructure;
use online_resource_leasing::core::rng::seeded;
use online_resource_leasing::graph::generators::connected_erdos_renyi;
use online_resource_leasing::steiner::instance::{PairRequest, SteinerInstance};
use online_resource_leasing::steiner::offline::{buy_per_request, route_then_lease};
use online_resource_leasing::steiner::online::{RandomizedSteinerLeasing, SteinerLeasingOnline};
use rand::RngExt;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = 2015u64;
    let mut rng = seeded(seed);

    // A 30-node network; link weights are monthly base prices in kEUR.
    let network = connected_erdos_renyi(&mut rng, 30, 0.15, 1.0..4.0);
    println!(
        "network: {} nodes, {} links (seed {seed})",
        network.num_nodes(),
        network.num_edges()
    );

    // Lease a link for 2 days at 1x its weight, 8 days at 2.5x, 32 days at 6x.
    let leases = LeaseStructure::geometric(3, 2, 4, 1.0, 0.65);

    // 120 pair requests over ~60 days; customers mostly re-request the same
    // few routes (sustained traffic), which is where leasing pays off.
    let mut requests = Vec::new();
    let mut t = 0u64;
    for i in 0..120 {
        if i % 2 == 0 {
            t += rng.random_range(0..2u64);
        }
        let (u, v) = if !requests.is_empty() && rng.random::<f64>() < 0.85 {
            let prev: &PairRequest = &requests[rng.random_range(0..requests.len())];
            (prev.u, prev.v)
        } else {
            let u = rng.random_range(0..30);
            let v = (u + 1 + rng.random_range(0..29usize)) % 30;
            (u, v)
        };
        requests.push(PairRequest::new(t, u, v));
    }
    let instance = SteinerInstance::new(network, leases, requests)?;

    let mut det = Driver::new(
        SteinerLeasingOnline::new(&instance),
        instance.structure.clone(),
    );
    det.submit_batch(instance.requests())?;
    let det_cost = det.cost();
    let mut rng2 = seeded(seed ^ 0xFFFF);
    let randomized = RandomizedSteinerLeasing::new(&instance, &mut rng2);
    let mut rand = Driver::new(randomized, instance.structure.clone());
    rand.submit_batch(instance.requests())?;
    let rand_cost = rand.cost();
    let offline = route_then_lease(&instance);
    let naive = buy_per_request(&instance);

    println!("offline route-then-lease: {:>8.2} kEUR", offline.cost);
    println!(
        "deterministic online:     {:>8.2} kEUR  (x{:.2} offline)",
        det_cost,
        det_cost / offline.cost
    );
    println!(
        "randomized online:        {:>8.2} kEUR  (x{:.2} offline)",
        rand_cost,
        rand_cost / offline.cost
    );
    println!(
        "naive per-request buying: {:>8.2} kEUR  (x{:.2} offline — never lease like this)",
        naive.cost,
        naive.cost / offline.cost
    );
    Ok(())
}
