//! Property tests for capacitated facility leasing: greedy feasibility
//! under both lease rules and ILP ordering on random instances.

use capacitated_facility::instance::CapacitatedInstance;
use capacitated_facility::offline;
use capacitated_facility::online::{is_feasible_assignment, CapacitatedGreedy, LeaseChoice};
use facility_leasing::instance::FacilityInstance;
use facility_leasing::metric::Point;
use leasing_core::engine::{Driver, CATEGORY_CONNECTION, CATEGORY_LEASE};
use leasing_core::lease::{LeaseStructure, LeaseType};
use leasing_core::rng::seeded;
use proptest::prelude::*;
use rand::RngExt;

fn structure() -> LeaseStructure {
    LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(8, 3.0)]).unwrap()
}

fn random_instance(seed: u64, facilities: usize, cap: usize) -> CapacitatedInstance {
    let mut rng = seeded(seed);
    let sites: Vec<Point> = (0..facilities)
        .map(|_| Point::new(rng.random(), rng.random()))
        .collect();
    let mut batches = Vec::new();
    let mut t = 0u64;
    let max_batch = facilities * cap;
    for _ in 0..4 {
        t += 1 + rng.random_range(0..3u64);
        let n = 1 + rng.random_range(0..max_batch);
        batches.push((
            t,
            (0..n)
                .map(|_| Point::new(rng.random(), rng.random()))
                .collect::<Vec<_>>(),
        ));
    }
    let base = FacilityInstance::euclidean(sites, structure(), batches).unwrap();
    CapacitatedInstance::uniform(base, cap).expect("batches fit total capacity")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The greedy never violates capacity, never strands a client, and
    /// pays for every lease it uses — for both lease-choice rules.
    #[test]
    fn greedy_is_always_feasible(seed in 0u64..400, cap in 1usize..4) {
        let inst = random_instance(seed, 3, cap);
        for choice in [LeaseChoice::CheapestTotal, LeaseChoice::BestRate] {
            let mut driver = Driver::new(
                CapacitatedGreedy::new(&inst, choice),
                inst.base.structure().clone(),
            );
            driver.submit_batch(inst.base.requests()).unwrap();
            let cost = driver.cost();
            prop_assert!(cost > 0.0);
            let ledger = driver.ledger();
            prop_assert!(
                is_feasible_assignment(&inst, |t| ledger.owns(t), driver.algorithm().assignments()),
                "{choice:?} infeasible");
            // Connection + leasing split sums to the total.
            let split = ledger.category_cost(CATEGORY_LEASE) + ledger.category_cost(CATEGORY_CONNECTION);
            prop_assert!((split - cost).abs() < 1e-9);
        }
    }

    /// The LP relaxation never exceeds the ILP optimum, which the greedy
    /// never beats.
    #[test]
    fn lp_ilp_greedy_ordering(seed in 0u64..100) {
        let inst = random_instance(seed, 2, 1);
        if inst.base.num_clients() > 4 {
            return Ok(()); // keep the ILP tractable
        }
        let lp = offline::lp_lower_bound(&inst);
        let Some(ilp) = offline::optimal_cost(&inst, 300_000) else {
            return Ok(());
        };
        prop_assert!(lp <= ilp + 1e-6, "LP {lp} above ILP {ilp}");
        let mut greedy = Driver::new(
            CapacitatedGreedy::new(&inst, LeaseChoice::CheapestTotal),
            inst.base.structure().clone(),
        );
        greedy.submit_batch(inst.base.requests()).unwrap();
        let greedy = greedy.cost();
        prop_assert!(greedy >= ilp - 1e-6, "greedy {greedy} below ILP {ilp}");
    }
}
