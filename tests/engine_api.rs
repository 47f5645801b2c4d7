//! API-equivalence tests for the unified engine surface: for every problem
//! crate, the type-erased [`EngineHandle`] and the generic
//! [`LeasingAlgorithm`]/[`Driver`] path must produce **bit-identical**
//! costs and decision traces — both flow through the same core step, so
//! any divergence is a handle-plumbing bug. `tests/driver_goldens.rs`
//! additionally pins each family's driven ledger to committed bytes.

use online_resource_leasing::core::engine::{Driver, DriverError, EngineHandle, Ledger};
use online_resource_leasing::core::lease::{LeaseStructure, LeaseType};
use online_resource_leasing::core::rng::seeded;
use proptest::prelude::*;
use rand::RngExt;

fn structure() -> LeaseStructure {
    LeaseStructure::new(vec![
        LeaseType::new(1, 1.0),
        LeaseType::new(4, 2.5),
        LeaseType::new(16, 6.0),
    ])
    .unwrap()
}

fn demand_days(seed: u64, horizon: u64, density: f64) -> Vec<u64> {
    let mut rng = seeded(seed);
    (0..horizon)
        .filter(|_| rng.random::<f64>() < density)
        .collect()
}

/// Asserts the two ledgers agree bit-for-bit on cost and trace.
fn assert_equivalent(handle: &Ledger, driver: &Ledger) {
    assert_eq!(
        handle.total_cost().to_bits(),
        driver.total_cost().to_bits(),
        "costs must be bit-identical: {} vs {}",
        handle.total_cost(),
        driver.total_cost()
    );
    assert_eq!(
        handle.decisions(),
        driver.decisions(),
        "decision traces must match"
    );
    assert_eq!(handle.leases_bought(), driver.leases_bought());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn deterministic_permit_paths_are_bit_identical(seed in 0u64..400, density in 0.1f64..0.9) {
        use online_resource_leasing::parking_permit::det::DeterministicPrimalDual;
        let days = demand_days(seed, 64, density);
        let mut handle = EngineHandle::new(DeterministicPrimalDual::new(structure()), structure());
        for &t in &days {
            handle.submit(t, ()).unwrap();
        }
        let mut driver = Driver::new(DeterministicPrimalDual::new(structure()), structure());
        driver.submit_batch(days.iter().map(|&t| (t, ()))).unwrap();
        assert_equivalent(handle.ledger(), driver.ledger());
        prop_assert_eq!(handle.cost().to_bits(), driver.cost().to_bits());
    }

    #[test]
    fn randomized_permit_paths_are_bit_identical(seed in 0u64..300, tau in 0.01f64..1.0) {
        use online_resource_leasing::parking_permit::rand_alg::RandomizedPermit;
        let days = demand_days(seed, 48, 0.4);
        let mut handle =
            EngineHandle::new(RandomizedPermit::with_threshold(structure(), tau), structure());
        for &t in &days {
            handle.submit(t, ()).unwrap();
        }
        let mut driver =
            Driver::new(RandomizedPermit::with_threshold(structure(), tau), structure());
        driver.submit_batch(days.iter().map(|&t| (t, ()))).unwrap();
        assert_equivalent(handle.ledger(), driver.ledger());
    }

    #[test]
    fn set_cover_paths_are_bit_identical(seed in 0u64..200) {
        use online_resource_leasing::set_cover::instance::{Arrival, SmclInstance};
        use online_resource_leasing::set_cover::online::SmclOnline;
        use online_resource_leasing::set_cover::system::SetSystem;
        let system = SetSystem::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]).unwrap();
        let mut rng = seeded(seed);
        let mut arrivals = Vec::new();
        let mut t = 0u64;
        for _ in 0..6 {
            t += rng.random_range(0..5u64);
            arrivals.push(Arrival::new(t, rng.random_range(0..3usize), 1 + rng.random_range(0..2usize)));
        }
        let inst = SmclInstance::uniform(system, structure(), arrivals).unwrap();
        let mut handle = EngineHandle::new(SmclOnline::new(&inst, seed), structure());
        handle.submit_batch(inst.requests()).unwrap();
        let mut driver = Driver::new(SmclOnline::new(&inst, seed), structure());
        driver.submit_batch(inst.requests()).unwrap();
        assert_equivalent(handle.ledger(), driver.ledger());
    }

    #[test]
    fn facility_paths_are_bit_identical(seed in 0u64..150) {
        use online_resource_leasing::facility::instance::FacilityInstance;
        use online_resource_leasing::facility::metric::Point;
        use online_resource_leasing::facility::online::PrimalDualFacility;
        let mut rng = seeded(seed);
        let facilities = vec![
            Point::new(rng.random::<f64>() * 10.0, rng.random::<f64>() * 10.0),
            Point::new(rng.random::<f64>() * 10.0, rng.random::<f64>() * 10.0),
        ];
        let mut batches = Vec::new();
        let mut t = 0u64;
        for _ in 0..3 {
            t += 1 + rng.random_range(0..4u64);
            let n = 1 + rng.random_range(0..2usize);
            let clients: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.random::<f64>() * 10.0, rng.random::<f64>() * 10.0))
                .collect();
            batches.push((t, clients));
        }
        let inst = FacilityInstance::euclidean(facilities, structure(), batches).unwrap();
        let mut handle = EngineHandle::new(PrimalDualFacility::new(&inst), structure());
        handle.submit_batch(inst.requests()).unwrap();
        let mut driver = Driver::new(PrimalDualFacility::new(&inst), structure());
        driver.submit_batch(inst.requests()).unwrap();
        assert_equivalent(handle.ledger(), driver.ledger());
    }

    #[test]
    fn steiner_paths_are_bit_identical(seed in 0u64..150) {
        use online_resource_leasing::graph::graph::Graph;
        use online_resource_leasing::steiner::instance::{PairRequest, SteinerInstance};
        use online_resource_leasing::steiner::online::SteinerLeasingOnline;
        let g = Graph::new(
            4,
            vec![(0, 1, 1.0), (1, 3, 1.0), (0, 2, 1.0), (2, 3, 10.0), (1, 2, 2.0)],
        )
        .unwrap();
        let mut rng = seeded(seed);
        let mut requests = Vec::new();
        let mut t = 0u64;
        for _ in 0..4 {
            t += rng.random_range(0..6u64);
            let u = rng.random_range(0..4usize);
            let v = (u + 1 + rng.random_range(0..3usize)) % 4;
            requests.push(PairRequest::new(t, u, v));
        }
        let inst = SteinerInstance::new(g, structure(), requests).unwrap();
        let mut handle = EngineHandle::new(SteinerLeasingOnline::new(&inst), structure());
        handle.submit_batch(inst.requests()).unwrap();
        let mut driver = Driver::new(SteinerLeasingOnline::new(&inst), structure());
        driver.submit_batch(inst.requests()).unwrap();
        assert_equivalent(handle.ledger(), driver.ledger());
    }

    #[test]
    fn vertex_cover_paths_are_bit_identical(seed in 0u64..150) {
        use online_resource_leasing::graph::graph::Graph;
        use online_resource_leasing::graph_cover::vertex_cover::VcPrimalDual;
        use online_resource_leasing::graph_cover::vertex_cover::VcLeasingInstance;
        let g = Graph::new(4, vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)]).unwrap();
        let mut rng = seeded(seed);
        let mut arrivals = Vec::new();
        let mut t = 0u64;
        for _ in 0..6 {
            t += rng.random_range(0..4u64);
            arrivals.push((t, rng.random_range(0..4usize)));
        }
        let inst = VcLeasingInstance::unweighted(g, structure(), arrivals).unwrap();
        let mut handle = EngineHandle::new(VcPrimalDual::new(&inst), structure());
        handle.submit_batch(inst.requests()).unwrap();
        let mut driver = Driver::new(VcPrimalDual::new(&inst), structure());
        driver.submit_batch(inst.requests()).unwrap();
        assert_equivalent(handle.ledger(), driver.ledger());
    }

    #[test]
    fn capacitated_paths_are_bit_identical(seed in 0u64..150) {
        use online_resource_leasing::capacitated::instance::CapacitatedInstance;
        use online_resource_leasing::capacitated::online::{CapacitatedGreedy, LeaseChoice};
        use online_resource_leasing::facility::instance::FacilityInstance;
        use online_resource_leasing::facility::metric::Point;
        let mut rng = seeded(seed);
        let facilities = vec![Point::new(0.0, 0.0), Point::new(5.0, 0.0)];
        let mut batches = Vec::new();
        let mut t = 0u64;
        for _ in 0..3 {
            t += 1 + rng.random_range(0..3u64);
            let n = 1 + rng.random_range(0..2usize);
            let clients: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.random::<f64>() * 5.0, rng.random::<f64>()))
                .collect();
            batches.push((t, clients));
        }
        let base = FacilityInstance::euclidean(facilities, structure(), batches).unwrap();
        let inst = CapacitatedInstance::uniform(base, 2).unwrap();
        for choice in [LeaseChoice::CheapestTotal, LeaseChoice::BestRate] {
            let mut handle = EngineHandle::new(CapacitatedGreedy::new(&inst, choice), structure());
            handle.submit_batch(inst.base.requests()).unwrap();
            let mut driver = Driver::new(CapacitatedGreedy::new(&inst, choice), structure());
            driver.submit_batch(inst.base.requests()).unwrap();
            assert_equivalent(handle.ledger(), driver.ledger());
        }
    }

    #[test]
    fn deadlines_paths_are_bit_identical(seed in 0u64..200) {
        use online_resource_leasing::deadlines::old::{OldClient, OldInstance, OldPrimalDual};
        let mut rng = seeded(seed);
        let mut clients = Vec::new();
        let mut t = 0u64;
        for _ in 0..6 {
            t += rng.random_range(0..5u64);
            clients.push(OldClient::new(t, rng.random_range(0..6u64)));
        }
        let inst = OldInstance::new(structure(), clients).unwrap();
        let mut handle = EngineHandle::new(OldPrimalDual::new(&inst), structure());
        handle.submit_batch(inst.requests()).unwrap();
        let mut driver = Driver::new(OldPrimalDual::new(&inst), structure());
        driver.submit_batch(inst.requests()).unwrap();
        assert_equivalent(handle.ledger(), driver.ledger());
    }

    #[test]
    fn stochastic_policy_paths_are_bit_identical(seed in 0u64..200, p in 0.05f64..0.95) {
        use online_resource_leasing::stochastic::policies::{EmpiricalRate, RateThreshold};
        let days = demand_days(seed, 64, p);
        let mut handle = EngineHandle::new(RateThreshold::new(structure(), p), structure());
        for &t in &days {
            handle.submit(t, ()).unwrap();
        }
        let mut driver = Driver::new(RateThreshold::new(structure(), p), structure());
        driver.submit_batch(days.iter().map(|&t| (t, ()))).unwrap();
        assert_equivalent(handle.ledger(), driver.ledger());

        let mut handle = EngineHandle::new(EmpiricalRate::new(structure()), structure());
        for &t in &days {
            handle.submit(t, ()).unwrap();
        }
        let mut driver = Driver::new(EmpiricalRate::new(structure()), structure());
        driver.submit_batch(days.iter().map(|&t| (t, ()))).unwrap();
        assert_equivalent(handle.ledger(), driver.ledger());
    }

    #[test]
    fn distributed_paths_are_bit_identical(seed in 0u64..60) {
        use online_resource_leasing::distributed::DistributedFacilityLeasing;
        let mut rng = seeded(seed);
        let prices = vec![1.0 + rng.random::<f64>(), 1.0 + rng.random::<f64>()];
        let distances = vec![
            vec![0.1, 0.2, 4.0, 5.0],
            vec![4.0, 5.0, 0.1, 0.2],
        ];
        let build = || {
            DistributedFacilityLeasing::new(
                prices.clone(),
                distances.clone(),
                structure(),
                0.5,
                seed,
            )
            .unwrap()
        };
        let batches: Vec<(u64, Vec<usize>)> =
            vec![(0, vec![0, 2]), (2, vec![1]), (17, vec![3])];
        let mut handle = EngineHandle::new(build(), structure());
        handle
            .submit_batch(batches.iter().map(|(t, c)| (*t, c.clone())))
            .unwrap();
        let mut driver = Driver::new(build(), structure());
        driver
            .submit_batch(batches.iter().map(|(t, c)| (*t, c.clone())))
            .unwrap();
        assert_equivalent(handle.ledger(), driver.ledger());
    }
}

#[test]
fn driver_rejects_time_travel_across_any_algorithm() {
    use online_resource_leasing::parking_permit::det::DeterministicPrimalDual;
    let mut driver = Driver::new(DeterministicPrimalDual::new(structure()), structure());
    driver.submit(9, ()).unwrap();
    let err = driver.submit(2, ()).unwrap_err();
    assert_eq!(
        err,
        DriverError::TimeTravel {
            previous: 9,
            attempted: 2
        }
    );
    assert_eq!(driver.requests(), 1);
}

#[test]
fn reports_are_uniform_across_problem_crates() {
    use online_resource_leasing::deadlines::old::{OldInstance, OldPrimalDual};
    use online_resource_leasing::parking_permit::det::DeterministicPrimalDual;
    use online_resource_leasing::parking_permit::offline;

    let days = demand_days(5, 64, 0.4);
    let mut permit = Driver::new(DeterministicPrimalDual::new(structure()), structure());
    permit.submit_batch(days.iter().map(|&t| (t, ()))).unwrap();
    let opt = offline::optimal_cost_interval_model(&structure(), &days);
    let report = permit.report(opt);
    assert!(report.ratio() >= 1.0 - 1e-9);
    assert!(report.ratio() <= structure().num_types() as f64 + 1e-6);
    assert_eq!(report.requests, days.len());
    assert!(report.decisions >= report.leases_bought);

    let inst = OldInstance::new(structure(), vec![]).unwrap();
    let mut old = Driver::new(OldPrimalDual::new(&inst), structure());
    old.submit_batch([(0u64, 2u64), (9, 0)]).unwrap();
    let report = old.report(old.cost());
    assert!((report.ratio() - 1.0).abs() < 1e-9);
    // Both reports expose the same machine-readable shape.
    assert!(report.to_json().contains("\"cost_by_category\""));
}

#[test]
fn driver_ledger_serializes_and_round_trips() {
    use online_resource_leasing::parking_permit::det::DeterministicPrimalDual;
    let days = demand_days(11, 48, 0.5);
    let mut driver = Driver::new(DeterministicPrimalDual::new(structure()), structure());
    driver.submit_batch(days.iter().map(|&t| (t, ()))).unwrap();
    let json = driver.ledger().to_json();
    let back = Ledger::from_json(&json).unwrap();
    assert_eq!(back.decisions(), driver.ledger().decisions());
    assert_eq!(back.total_cost().to_bits(), driver.cost().to_bits());
}
