//! Cross-crate integration tests for the outlook extensions: capacitated
//! facility leasing, multi-day/weighted deadlines, and stochastic policies.

use online_resource_leasing::capacitated::instance::CapacitatedInstance;
use online_resource_leasing::capacitated::offline as cap_offline;
use online_resource_leasing::capacitated::online::{CapacitatedGreedy, LeaseChoice};
use online_resource_leasing::core::engine::{Driver, LeasingAlgorithm};
use online_resource_leasing::core::lease::{LeaseStructure, LeaseType};
use online_resource_leasing::core::rng::seeded;
use online_resource_leasing::core::time::TimeStep;
use online_resource_leasing::deadlines::capacitated::{
    BuyRule, CapacitatedOldInstance, FirstFitOnline, WeightedDemand,
};
use online_resource_leasing::deadlines::multi_day::{MultiDayClient, MultiDayInstance};
use online_resource_leasing::deadlines::offline as dl_offline;
use online_resource_leasing::deadlines::old::{OldClient, OldInstance};
use online_resource_leasing::facility::instance::FacilityInstance;
use online_resource_leasing::facility::metric::Point;
use online_resource_leasing::facility::offline as fac_offline;
use online_resource_leasing::parking_permit::det::DeterministicPrimalDual;
use online_resource_leasing::parking_permit::offline as pp_offline;
use online_resource_leasing::stochastic::demand::{Bernoulli, DemandProcess, MarkovModulated};
use online_resource_leasing::stochastic::policies::RateThreshold;
use online_resource_leasing::stochastic::prices::{optimal_cost_priced, PricePath};
use rand::RngExt;

/// Serves `requests` through a fresh [`Driver`] over `structure`.
fn drive<A: LeasingAlgorithm>(
    algorithm: A,
    structure: &LeaseStructure,
    requests: impl IntoIterator<Item = (TimeStep, A::Request)>,
) -> Driver<A> {
    let mut driver = Driver::new(algorithm, structure.clone());
    driver.submit_batch(requests).unwrap();
    driver
}

fn structure() -> LeaseStructure {
    LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(8, 3.0)]).unwrap()
}

/// Capacity can only raise the optimum: the capacitated ILP is monotone in
/// the capacity bound, and the uncapacitated ILP is its limit.
#[test]
fn capacity_monotonicity_of_the_optimum() {
    let facilities = vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0)];
    let batches: Vec<(u64, Vec<Point>)> = vec![
        (
            0,
            vec![
                Point::new(0.0, 0.0),
                Point::new(0.1, 0.0),
                Point::new(0.2, 0.0),
            ],
        ),
        (3, vec![Point::new(0.0, 0.1)]),
    ];
    let base = FacilityInstance::euclidean(facilities, structure(), batches).unwrap();
    let plain = fac_offline::optimal_cost(&base, 400_000).expect("small instance");
    let mut last = f64::INFINITY;
    // The first batch has 3 clients over 2 facilities, so capacity >= 2 is
    // needed for structural feasibility.
    for cap in [2usize, 3, 4] {
        let inst = CapacitatedInstance::uniform(base.clone(), cap).unwrap();
        let opt = cap_offline::optimal_cost(&inst, 400_000).expect("small instance");
        assert!(
            opt <= last + 1e-6,
            "cap {cap}: opt {opt} must not exceed {last}"
        );
        assert!(opt >= plain - 1e-6, "capacitated opt below uncapacitated");
        last = opt;
    }
    // Large capacity reaches the uncapacitated optimum.
    let loose = CapacitatedInstance::uniform(base, 100).unwrap();
    let loose_opt = cap_offline::optimal_cost(&loose, 400_000).unwrap();
    assert!((loose_opt - plain).abs() < 1e-6);
}

/// Both greedy lease rules stay feasible and above the ILP on random
/// capacitated instances.
#[test]
fn capacitated_greedy_is_sound_on_random_instances() {
    let mut rng = seeded(77);
    for trial in 0..4u64 {
        let facilities = vec![
            Point::new(rng.random(), rng.random()),
            Point::new(rng.random(), rng.random()),
        ];
        let mut batches = Vec::new();
        let mut t = 0u64;
        for _ in 0..3 {
            t += 1 + rng.random_range(0..3u64);
            let n = 1 + rng.random_range(0..2);
            batches.push((
                t,
                (0..n)
                    .map(|_| Point::new(rng.random(), rng.random()))
                    .collect::<Vec<_>>(),
            ));
        }
        let base = FacilityInstance::euclidean(facilities, structure(), batches).unwrap();
        let inst = CapacitatedInstance::uniform(base, 1).unwrap();
        let opt = cap_offline::optimal_cost(&inst, 400_000).expect("small instance");
        for choice in [LeaseChoice::CheapestTotal, LeaseChoice::BestRate] {
            let cost = drive(
                CapacitatedGreedy::new(&inst, choice),
                inst.base.structure(),
                inst.base.requests(),
            )
            .cost();
            assert!(
                cost >= opt - 1e-6,
                "trial {trial} {choice:?}: {cost} < {opt}"
            );
        }
    }
}

/// Multi-day ILP is monotone in the duration: stretching every client's
/// required block can only raise the optimum.
#[test]
fn multi_day_duration_monotonicity() {
    let mut rng = seeded(88);
    for _ in 0..4 {
        let mut arrivals: Vec<u64> = Vec::new();
        let mut t = 0u64;
        for _ in 0..4 {
            t += rng.random_range(0..4u64);
            arrivals.push(t);
        }
        let mut last = 0.0f64;
        for duration in [1u64, 2, 3] {
            let clients: Vec<MultiDayClient> = arrivals
                .iter()
                .map(|&a| MultiDayClient::new(a, duration + 2, duration))
                .collect();
            let inst = MultiDayInstance::new(structure(), clients).unwrap();
            let opt = online_resource_leasing::deadlines::multi_day::optimal_cost(&inst, 400_000)
                .expect("small instance");
            assert!(
                opt >= last - 1e-6,
                "duration {duration}: opt {opt} must not drop below {last}"
            );
            last = opt;
        }
    }
}

/// Weighted first-fit under huge capacity behaves like plain OLD served at
/// arrival: single-demand days cost one short lease each when isolated.
#[test]
fn weighted_first_fit_collapses_at_large_capacity() {
    // Light demands far apart: each buys exactly one short lease.
    let demands = vec![
        WeightedDemand::new(0, 0, 0.1),
        WeightedDemand::new(10, 0, 0.1),
    ];
    let inst = CapacitatedOldInstance::new(structure(), 1000.0, demands).unwrap();
    let alg = drive(
        FirstFitOnline::new(&inst),
        &inst.structure,
        inst.requests(BuyRule::Cheapest),
    );
    let cost = alg.cost();
    assert!((cost - 2.0).abs() < 1e-9, "cost {cost}");
}

/// The OLD primal-dual cost upper-bounds its own ILP on the same weighted
/// instance stripped of weights (sanity bridge between the two models).
#[test]
fn weighted_and_unweighted_old_optima_are_ordered() {
    let mut rng = seeded(99);
    for _ in 0..4 {
        let mut demands = Vec::new();
        let mut t = 0u64;
        for _ in 0..3 {
            t += rng.random_range(0..3u64);
            demands.push(WeightedDemand::new(t, rng.random_range(0..3), 0.9));
        }
        let cap_inst = CapacitatedOldInstance::new(structure(), 1.0, demands.clone()).unwrap();
        let cap_opt =
            online_resource_leasing::deadlines::capacitated::optimal_cost(&cap_inst, 3, 400_000)
                .expect("small instance");
        // The unweighted OLD relaxation (capacity ∞) can only be cheaper.
        let clients: Vec<OldClient> = demands
            .iter()
            .map(|d| OldClient::new(d.arrival, d.slack))
            .collect();
        let old_inst = OldInstance::new(structure(), clients).unwrap();
        let old_opt = dl_offline::old_optimal_cost(&old_inst, 400_000).unwrap();
        assert!(
            old_opt <= cap_opt + 1e-6,
            "uncapacitated {old_opt} must not exceed capacitated {cap_opt}"
        );
    }
}

/// Rate-informed policies cannot beat the clairvoyant DP, and the
/// worst-case primal-dual stays within its K guarantee, on every demand
/// process.
#[test]
fn stochastic_policies_respect_offline_bounds() {
    let s = structure();
    let processes: Vec<Vec<u64>> = vec![
        Bernoulli::new(128, 0.5).sample(&mut seeded(1)),
        MarkovModulated::new(128, 0.85, 0.1).sample(&mut seeded(2)),
    ];
    for days in processes {
        if days.is_empty() {
            continue;
        }
        let opt = pp_offline::optimal_cost_interval_model(&s, &days);
        let requests = || days.iter().map(|&t| (t, ()));
        let informed = drive(RateThreshold::new(s.clone(), 0.5), &s, requests());
        let worst_case = drive(DeterministicPrimalDual::new(s.clone()), &s, requests());
        assert!(informed.cost() >= opt - 1e-6);
        assert!(worst_case.cost() >= opt - 1e-6);
        assert!(
            worst_case.cost() <= s.num_types() as f64 * opt + 1e-6,
            "Theorem 2.7 bound must hold on stochastic inputs too"
        );
    }
}

/// The priced DP under a flat path equals the plain interval DP — the two
/// clairvoyant baselines agree where their models coincide.
#[test]
fn priced_and_plain_dp_agree_on_flat_paths() {
    let s = {
        // Power-of-two nested structure required by the priced DP.
        LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(8, 3.0)]).unwrap()
    };
    let mut rng = seeded(123);
    for _ in 0..6 {
        let days: Vec<u64> = (0..64).filter(|_| rng.random::<f64>() < 0.3).collect();
        let priced = optimal_cost_priced(&s, &PricePath::flat(64), &days);
        let plain = pp_offline::optimal_cost_interval_model(&s, &days);
        assert!((priced - plain).abs() < 1e-9);
    }
}
