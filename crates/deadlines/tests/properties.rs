//! Property tests for the deadline models: OLD primal-dual feasibility and
//! guarantee, SCLD feasibility, and the capacitated first-fit invariants.

use leasing_core::engine::{Driver, LeasingAlgorithm, Ledger};
use leasing_core::lease::{LeaseStructure, LeaseType};
use leasing_core::rng::seeded;
use leasing_core::time::TimeStep;
use leasing_deadlines::capacitated::{
    is_feasible as cap_feasible, BuyRule, CapacitatedOldInstance, FirstFitOnline, WeightedDemand,
};
use leasing_deadlines::offline;
use leasing_deadlines::old::{is_feasible as old_feasible, OldClient, OldInstance, OldPrimalDual};
use leasing_deadlines::scld::{ScldArrival, ScldInstance, ScldOnline};
use leasing_deadlines::windows::{
    is_feasible as win_feasible, window_optimal_cost, WindowClient, WindowInstance,
    WindowPrimalDual,
};
use proptest::prelude::*;
use rand::RngExt;
use set_cover_leasing::system::SetSystem;

fn structure() -> LeaseStructure {
    LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(8, 3.0)]).unwrap()
}

/// Serves `requests` through a fresh driver over `structure`, returning the
/// algorithm and the ledger its driver recorded.
fn run<A: LeasingAlgorithm>(
    alg: A,
    structure: &LeaseStructure,
    requests: impl IntoIterator<Item = (TimeStep, A::Request)>,
) -> (A, Ledger) {
    let mut driver = Driver::new(alg, structure.clone());
    driver.submit_batch(requests).unwrap();
    driver.into_parts()
}

fn random_clients(seed: u64, count: usize, max_slack: u64) -> Vec<OldClient> {
    let mut rng = seeded(seed);
    let mut out = Vec::with_capacity(count);
    let mut t = 0u64;
    for _ in 0..count {
        t += rng.random_range(0..4u64);
        out.push(OldClient::new(t, rng.random_range(0..max_slack)));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The OLD primal-dual always serves every client, and its dual value
    /// lower-bounds the ILP optimum (weak duality end to end).
    #[test]
    fn old_primal_dual_is_feasible_with_valid_dual(seed in 0u64..300) {
        let clients = random_clients(seed, 6, 5);
        let inst = OldInstance::new(structure(), clients).unwrap();
        let (alg, ledger) = run(OldPrimalDual::new(&inst), &inst.structure, inst.requests());
        let cost = ledger.total_cost();
        prop_assert!(old_feasible(&inst, |t| ledger.owns(t)));
        let Some(opt) = offline::old_optimal_cost(&inst, 300_000) else {
            return Ok(());
        };
        prop_assert!(alg.dual_value() <= opt + 1e-6,
            "dual {} above opt {}", alg.dual_value(), opt);
        prop_assert!(cost >= opt - 1e-6, "online {cost} below opt {opt}");
    }

    /// Theorem 5.3: on *uniform* instances the primal-dual is at most
    /// 2K-competitive (the K bound with the Step-2 doubling).
    #[test]
    fn old_uniform_ratio_within_2k(seed in 0u64..200) {
        let mut rng = seeded(seed);
        let mut clients = Vec::new();
        let mut t = 0u64;
        let slack = rng.random_range(0..4u64);
        for _ in 0..5 {
            t += rng.random_range(0..4u64);
            clients.push(OldClient::new(t, slack)); // uniform slack
        }
        let inst = OldInstance::new(structure(), clients).unwrap();
        let cost = run(OldPrimalDual::new(&inst), &inst.structure, inst.requests()).1.total_cost();
        let Some(opt) = offline::old_optimal_cost(&inst, 300_000) else {
            return Ok(());
        };
        let k = inst.structure.num_types() as f64;
        prop_assert!(cost <= 2.0 * k * opt + 1e-6,
            "uniform OLD {cost} above 2K·opt {}", 2.0 * k * opt);
    }

    /// The SCLD randomized algorithm covers every arrival, for any seed.
    #[test]
    fn scld_online_is_always_feasible(seed in 0u64..200, alg_seed in 0u64..20) {
        let mut rng = seeded(seed);
        let system = SetSystem::new(
            4,
            vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![0, 3]],
        ).unwrap();
        let mut arrivals = Vec::new();
        let mut t = 0u64;
        for _ in 0..6 {
            t += rng.random_range(0..3u64);
            arrivals.push(ScldArrival::new(t, rng.random_range(0..4), rng.random_range(0..4)));
        }
        let inst = ScldInstance::uniform(system, structure(), arrivals).unwrap();
        let mut driver = Driver::new(ScldOnline::new(&inst, alg_seed), inst.structure.clone());
        driver.submit_batch(inst.requests()).unwrap();
        prop_assert!(driver.cost() > 0.0);
        let ledger = driver.ledger();
        prop_assert!(leasing_deadlines::scld::is_feasible(&inst, |t| ledger.owns(t)));
    }

    /// The service-window primal-dual serves every client, stays above the
    /// optimum, keeps a dual value below it (weak duality), and never buys
    /// more than 2K leases per client.
    #[test]
    fn window_primal_dual_is_feasible_with_valid_dual(seed in 0u64..300) {
        let mut rng = seeded(seed);
        let mut clients = Vec::new();
        let mut t = 0u64;
        for _ in 0..6 {
            t += rng.random_range(0..4u64);
            // Random day sets: between 1 and 4 days inside a span of <= 12.
            let count = 1 + rng.random_range(0..4usize);
            let mut days: Vec<u64> = (0..count)
                .map(|_| t + rng.random_range(0..13u64))
                .collect();
            days.sort_unstable();
            days.dedup();
            clients.push(WindowClient::specific(t, days).unwrap());
        }
        let inst = WindowInstance::new(structure(), clients).unwrap();
        let (alg, ledger) = run(WindowPrimalDual::new(&inst), &inst.structure, inst.requests());
        let cost = ledger.total_cost();
        prop_assert!(win_feasible(&inst, |t| ledger.owns(t)));
        let k = inst.structure.num_types();
        prop_assert!(ledger.leases_bought() <= 2 * k * inst.clients.len(),
            "more than 2K purchases per client");
        let Some(opt) = window_optimal_cost(&inst, 300_000) else {
            return Ok(());
        };
        prop_assert!(cost >= opt - 1e-6, "online {cost} below opt {opt}");
        prop_assert!(alg.dual_value() <= opt + 1e-6,
            "dual {} above opt {opt}", alg.dual_value());
    }

    /// On full-interval day sets the service-window model *is* OLD: the two
    /// exact ILPs price every instance identically.
    #[test]
    fn window_ilp_collapses_to_old_ilp_on_intervals(seed in 0u64..200) {
        let clients = random_clients(seed, 5, 4);
        let o_inst = OldInstance::new(structure(), clients.clone()).unwrap();
        let w_inst = WindowInstance::new(
            structure(),
            clients.iter().map(|c| WindowClient::interval(c.arrival, c.slack)).collect(),
        ).unwrap();
        let (Some(o), Some(w)) = (
            offline::old_optimal_cost(&o_inst, 300_000),
            window_optimal_cost(&w_inst, 300_000),
        ) else {
            return Ok(());
        };
        prop_assert!((o - w).abs() < 1e-6, "old {o} vs window {w}");
    }

    /// The capacitated first-fit never overloads a copy and never strands a
    /// demand, under both buy rules.
    #[test]
    fn first_fit_is_always_feasible(seed in 0u64..300) {
        let mut rng = seeded(seed);
        let mut demands = Vec::new();
        let mut t = 0u64;
        for _ in 0..8 {
            t += rng.random_range(0..3u64);
            demands.push(WeightedDemand::new(
                t,
                rng.random_range(0..4),
                0.1 + 0.9 * rng.random::<f64>(),
            ));
        }
        let inst = CapacitatedOldInstance::new(structure(), 1.0, demands).unwrap();
        for rule in [BuyRule::Cheapest, BuyRule::BestRate] {
            let (alg, ledger) = run(FirstFitOnline::new(&inst), &inst.structure, inst.requests(rule));
            let cost = ledger.total_cost();
            prop_assert!(cost > 0.0);
            prop_assert!(cap_feasible(&inst, &alg.purchases(), alg.assignments()),
                "rule {rule:?} produced an infeasible packing");
        }
    }
}
