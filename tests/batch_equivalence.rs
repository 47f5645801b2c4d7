//! Batch-equivalence pins for the columnar path: for every problem crate,
//! `Driver::submit_columns` (one `submit_at` call per equal-time run) and
//! the iterator-driven `Driver::submit_batch` must be **observationally
//! identical** to a loop of single `Driver::submit` calls — bit-identical
//! decision traces (`Ledger::to_json`), engine statistics
//! (`EngineStats::to_json`) and snapshot payloads (`Driver::snapshot`),
//! driven through an [`EngineHandle`]. Every path shares the one serve
//! loop, so any divergence is a batching bug: a double expiry
//! advancement, a dropped request, or a reordered f64 accumulation.

use online_resource_leasing::core::engine::{DriverError, EngineHandle, LeasingAlgorithm};
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

/// Sorted demand days with equal-time duplicates: roughly every third
/// drawn day arrives twice (a batch of simultaneous demands), so each run
/// exercises the equal-time-run collapsing inside the columnar path.
fn days_with_duplicates(seed: u64, horizon: u64, density: f64) -> Vec<u64> {
    let mut rng = seeded(seed);
    (0..horizon)
        .filter(|_| rng.random::<f64>() < density)
        .flat_map(|t| std::iter::repeat_n(t, if t % 3 == 0 { 2 } else { 1 }))
        .collect()
}

/// Runs `requests` through the three submission paths on fresh algorithm
/// instances and asserts byte-identical ledgers, stats and snapshots.
fn assert_batched_paths_match<'p, R, A>(make: impl Fn() -> A, requests: &[(u64, R)])
where
    R: Clone,
    A: LeasingAlgorithm<Request = R> + 'p,
{
    let mut by_loop = EngineHandle::new(make(), structure());
    for (time, request) in requests {
        by_loop
            .submit(*time, request.clone())
            .expect("monotone request sequence");
    }

    let mut by_batch = EngineHandle::new(make(), structure());
    by_batch
        .submit_batch(requests.iter().map(|(t, r)| (*t, r.clone())))
        .expect("monotone request sequence");

    let mut by_columns = EngineHandle::new(make(), structure());
    let times: Vec<u64> = requests.iter().map(|(t, _)| *t).collect();
    by_columns
        .submit_columns(&times, requests.iter().map(|(_, r)| r.clone()))
        .expect("monotone request sequence");

    let ledger = by_loop.ledger().to_json();
    assert_eq!(ledger, by_batch.ledger().to_json(), "submit_batch ledger");
    assert_eq!(
        ledger,
        by_columns.ledger().to_json(),
        "submit_columns ledger"
    );

    let stats = by_loop.stats().to_json();
    assert_eq!(stats, by_batch.stats().to_json(), "submit_batch stats");
    assert_eq!(stats, by_columns.stats().to_json(), "submit_columns stats");

    let snapshot = by_loop.snapshot();
    assert_eq!(snapshot, by_batch.snapshot(), "submit_batch snapshot");
    assert_eq!(snapshot, by_columns.snapshot(), "submit_columns snapshot");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn det_permit_batches_are_bit_identical(seed in 0u64..400, density in 0.1f64..0.9) {
        use online_resource_leasing::parking_permit::det::DeterministicPrimalDual;
        let requests: Vec<(u64, ())> = days_with_duplicates(seed, 64, density)
            .into_iter()
            .map(|t| (t, ()))
            .collect();
        assert_batched_paths_match(|| DeterministicPrimalDual::new(structure()), &requests);
    }

    #[test]
    fn randomized_permit_batches_are_bit_identical(seed in 0u64..300, tau in 0.01f64..1.0) {
        use online_resource_leasing::parking_permit::rand_alg::RandomizedPermit;
        let requests: Vec<(u64, ())> = days_with_duplicates(seed, 48, 0.4)
            .into_iter()
            .map(|t| (t, ()))
            .collect();
        assert_batched_paths_match(|| RandomizedPermit::with_threshold(structure(), tau), &requests);
    }

    #[test]
    fn set_cover_batches_are_bit_identical(seed in 0u64..200) {
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
        let inst = SmclInstance::uniform(system, structure(), arrivals.clone()).unwrap();
        let requests: Vec<(u64, (usize, usize))> = arrivals
            .iter()
            .map(|a| (a.time, (a.element, a.multiplicity)))
            .collect();
        assert_batched_paths_match(|| SmclOnline::new(&inst, seed), &requests);
    }

    #[test]
    fn facility_batches_are_bit_identical(seed in 0u64..150) {
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
        let requests: Vec<(u64, Vec<usize>)> = inst
            .batches()
            .iter()
            .map(|b| (b.time, b.clients.clone()))
            .collect();
        assert_batched_paths_match(|| PrimalDualFacility::new(&inst), &requests);
    }

    #[test]
    fn steiner_batches_are_bit_identical(seed in 0u64..150) {
        use online_resource_leasing::graph::graph::Graph;
        use online_resource_leasing::steiner::instance::{PairRequest, SteinerInstance};
        use online_resource_leasing::steiner::online::SteinerLeasingOnline;
        let g = Graph::new(
            4,
            vec![(0, 1, 1.0), (1, 3, 1.0), (0, 2, 1.0), (2, 3, 10.0), (1, 2, 2.0)],
        )
        .unwrap();
        let mut rng = seeded(seed);
        let mut pairs = Vec::new();
        let mut t = 0u64;
        for _ in 0..4 {
            t += rng.random_range(0..6u64);
            let u = rng.random_range(0..4usize);
            let v = (u + 1 + rng.random_range(0..3usize)) % 4;
            pairs.push(PairRequest::new(t, u, v));
        }
        let inst = SteinerInstance::new(g, structure(), pairs.clone()).unwrap();
        let requests: Vec<(u64, (usize, usize))> =
            pairs.iter().map(|r| (r.time, (r.u, r.v))).collect();
        assert_batched_paths_match(|| SteinerLeasingOnline::new(&inst), &requests);
    }

    #[test]
    fn vertex_cover_batches_are_bit_identical(seed in 0u64..150) {
        use online_resource_leasing::graph::graph::Graph;
        use online_resource_leasing::graph_cover::vertex_cover::{VcLeasingInstance, VcPrimalDual};
        let g = Graph::new(4, vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)]).unwrap();
        let mut rng = seeded(seed);
        let mut arrivals = Vec::new();
        let mut t = 0u64;
        for _ in 0..6 {
            t += rng.random_range(0..4u64);
            arrivals.push((t, rng.random_range(0..4usize)));
        }
        let inst = VcLeasingInstance::unweighted(g, structure(), arrivals.clone()).unwrap();
        assert_batched_paths_match(|| VcPrimalDual::new(&inst), &arrivals);
    }

    #[test]
    fn capacitated_batches_are_bit_identical(seed in 0u64..150) {
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
        let requests: Vec<(u64, Vec<usize>)> = inst
            .base
            .batches()
            .iter()
            .map(|b| (b.time, b.clients.clone()))
            .collect();
        for choice in [LeaseChoice::CheapestTotal, LeaseChoice::BestRate] {
            assert_batched_paths_match(|| CapacitatedGreedy::new(&inst, choice), &requests);
        }
    }

    #[test]
    fn deadlines_batches_are_bit_identical(seed in 0u64..200) {
        use online_resource_leasing::deadlines::old::{OldClient, OldInstance, OldPrimalDual};
        let mut rng = seeded(seed);
        let mut clients = Vec::new();
        let mut t = 0u64;
        for _ in 0..6 {
            t += rng.random_range(0..5u64);
            clients.push(OldClient::new(t, rng.random_range(0..6u64)));
        }
        let inst = OldInstance::new(structure(), clients.clone()).unwrap();
        let requests: Vec<(u64, u64)> =
            clients.iter().map(|c| (c.arrival, c.slack)).collect();
        assert_batched_paths_match(|| OldPrimalDual::new(&inst), &requests);
    }

    #[test]
    fn stochastic_batches_are_bit_identical(seed in 0u64..200, p in 0.05f64..0.95) {
        use online_resource_leasing::stochastic::policies::{EmpiricalRate, RateThreshold};
        let requests: Vec<(u64, ())> = days_with_duplicates(seed, 64, p)
            .into_iter()
            .map(|t| (t, ()))
            .collect();
        assert_batched_paths_match(|| RateThreshold::new(structure(), p), &requests);
        assert_batched_paths_match(|| EmpiricalRate::new(structure()), &requests);
    }

    #[test]
    fn distributed_batches_are_bit_identical(seed in 0u64..60) {
        use online_resource_leasing::distributed::DistributedFacilityLeasing;
        let mut rng = seeded(seed);
        let prices = vec![1.0 + rng.random::<f64>(), 1.0 + rng.random::<f64>()];
        let distances = vec![vec![0.1, 0.2, 4.0, 5.0], vec![4.0, 5.0, 0.1, 0.2]];
        let requests: Vec<(u64, Vec<usize>)> =
            vec![(0, vec![0, 2]), (2, vec![1]), (17, vec![3])];
        assert_batched_paths_match(
            || {
                DistributedFacilityLeasing::new(
                    prices.clone(),
                    distances.clone(),
                    structure(),
                    0.5,
                    seed,
                )
                .unwrap()
            },
            &requests,
        );
    }
}

/// Expiry boundaries are where a batched path could double-process or skip
/// an expiry sweep: demands landing exactly at window ends (multiples of
/// the 4- and 16-step lease lengths), with equal-time duplicates at the
/// boundary itself.
#[test]
fn expiry_boundary_batches_are_bit_identical() {
    use online_resource_leasing::parking_permit::det::DeterministicPrimalDual;
    let requests: Vec<(u64, ())> = [0, 0, 1, 3, 4, 4, 4, 15, 16, 16, 17, 31, 32, 32, 48]
        .into_iter()
        .map(|t| (t, ()))
        .collect();
    assert_batched_paths_match(|| DeterministicPrimalDual::new(structure()), &requests);
}

/// A monotonicity violation mid-columns serves exactly the valid prefix —
/// the same ledger a loop of submits leaves behind when it hits the error.
#[test]
fn columns_with_a_violation_match_the_loop_prefix() {
    use online_resource_leasing::parking_permit::det::DeterministicPrimalDual;

    let times = [2u64, 5, 5, 9, 4, 11];
    let mut by_loop = EngineHandle::new(DeterministicPrimalDual::new(structure()), structure());
    let mut loop_error = None;
    for &t in &times {
        if let Err(error) = by_loop.submit(t, ()) {
            loop_error = Some(error);
            break;
        }
    }

    let mut by_columns = EngineHandle::new(DeterministicPrimalDual::new(structure()), structure());
    let columns_error = by_columns
        .submit_columns(&times, std::iter::repeat(()))
        .unwrap_err();

    assert_eq!(
        loop_error,
        Some(DriverError::TimeTravel {
            previous: 9,
            attempted: 4
        })
    );
    assert_eq!(loop_error, Some(columns_error));
    assert_eq!(by_loop.ledger().to_json(), by_columns.ledger().to_json());
    assert_eq!(by_loop.stats().to_json(), by_columns.stats().to_json());
    assert_eq!(by_loop.snapshot(), by_columns.snapshot());
}
