//! Property tests for Steiner tree leasing: feasibility under every seed
//! and topology, baseline ordering, and reuse economics.

use leasing_core::engine::Driver;
use leasing_core::lease::{LeaseStructure, LeaseType};
use leasing_core::rng::seeded;
use leasing_graph::generators::connected_erdos_renyi;
use proptest::prelude::*;
use rand::RngExt;
use steiner_leasing::instance::{PairRequest, SteinerInstance};
use steiner_leasing::offline::{buy_per_request, route_then_lease};
use steiner_leasing::online::{
    is_feasible, solution_cost, RandomizedSteinerLeasing, SteinerLeasingOnline,
};

fn structure() -> LeaseStructure {
    LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(8, 3.0)]).unwrap()
}

fn random_instance(seed: u64, n: usize, requests: usize) -> SteinerInstance {
    let mut rng = seeded(seed);
    let g = connected_erdos_renyi(&mut rng, n, 0.3, 1.0..4.0);
    let mut reqs = Vec::with_capacity(requests);
    let mut t = 0u64;
    for _ in 0..requests {
        t += rng.random_range(0..4u64);
        let u = rng.random_range(0..n);
        let v = (u + 1 + rng.random_range(0..n - 1)) % n;
        reqs.push(PairRequest::new(t, u, v));
    }
    SteinerInstance::new(g, structure(), reqs).expect("valid by construction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The deterministic online solution always connects every request at
    /// its arrival time.
    #[test]
    fn deterministic_online_is_always_feasible(seed in 0u64..400, n in 2usize..10) {
        let inst = random_instance(seed, n, 6);
        let mut alg = Driver::new(SteinerLeasingOnline::new(&inst), inst.structure.clone());
        alg.submit_batch(inst.requests()).unwrap();
        let cost = alg.cost();
        prop_assert!(cost >= 0.0);
        for req in &inst.requests {
            // Each request must be connected through active edges.
            let g = &inst.graph;
            let sp = leasing_graph::paths::dijkstra_with(g, req.u, |e| {
                if alg.ledger().covered(e, req.time) { 0.0 } else { f64::INFINITY }
            });
            prop_assert!(sp.is_reachable(req.v));
        }
    }

    /// The randomized online solution is feasible for every rounding seed.
    #[test]
    fn randomized_online_is_always_feasible(seed in 0u64..200, rng_seed in 0u64..20) {
        let inst = random_instance(seed, 6, 5);
        let mut rng = seeded(rng_seed);
        let mut alg = Driver::new(
            RandomizedSteinerLeasing::new(&inst, &mut rng),
            inst.structure.clone(),
        );
        alg.submit_batch(inst.requests()).unwrap();
        for req in &inst.requests {
            let g = &inst.graph;
            let sp = leasing_graph::paths::dijkstra_with(g, req.u, |e| {
                if alg.ledger().covered(e, req.time) { 0.0 } else { f64::INFINITY }
            });
            prop_assert!(sp.is_reachable(req.v));
        }
    }

    /// Offline solutions are feasible and their cost accounting matches
    /// the instance's scaled prices.
    #[test]
    fn offline_solutions_are_feasible_and_priced(seed in 0u64..200) {
        let inst = random_instance(seed, 7, 6);
        for sol in [route_then_lease(&inst), buy_per_request(&inst)] {
            prop_assert!(is_feasible(&inst, |t| sol.owns(t)));
            let priced: f64 = solution_cost(&inst, &sol.purchases);
            prop_assert!((priced - sol.cost).abs() < 1e-6,
                "cost field {} vs priced {}", sol.cost, priced);
        }
    }

    /// Removing purchases from a feasible solution eventually breaks
    /// feasibility (the checker is not vacuous).
    #[test]
    fn feasibility_checker_detects_missing_leases(seed in 0u64..100) {
        let inst = random_instance(seed, 5, 4);
        let sol = route_then_lease(&inst);
        prop_assert!(is_feasible(&inst, |t| sol.owns(t)));
        if !sol.purchases.is_empty() && !inst.requests.is_empty() {
            prop_assert!(!is_feasible(&inst, |_| false));
        }
    }
}
