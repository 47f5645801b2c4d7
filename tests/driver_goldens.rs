//! Ledger goldens for every online algorithm driven through [`Driver`].
//!
//! Each family serves two fixed seeded instances, and the final
//! `Ledger::to_json()` (decision trace, cost accumulation order, per-element
//! statistics) must match the committed file under `tests/golden/` byte for
//! byte. The goldens pin behaviour across refactors of the algorithm crates:
//! a change that moves one purchase, reorders two, or perturbs one f64 sum
//! fails here.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test driver_goldens` only
//! after a deliberate behaviour change.

use online_resource_leasing::core::engine::{Driver, LeasingAlgorithm};
use online_resource_leasing::core::lease::{LeaseStructure, LeaseType};
use online_resource_leasing::core::rng::seeded;
use online_resource_leasing::core::time::TimeStep;
use rand::RngExt;
use std::path::PathBuf;

const SEEDS: [u64; 2] = [3, 17];

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

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(format!("{name}.json"))
}

/// Drives `requests` through a fresh [`Driver`] and compares the final
/// ledger with the committed golden `name` (rewritten under
/// `UPDATE_GOLDEN=1`).
fn assert_golden<A: LeasingAlgorithm>(
    name: &str,
    algorithm: A,
    structure: LeaseStructure,
    requests: impl IntoIterator<Item = (TimeStep, A::Request)>,
) {
    let mut driver = Driver::new(algorithm, structure);
    driver.submit_batch(requests).unwrap();
    let text = driver.ledger().to_json();
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); run with UPDATE_GOLDEN=1"));
    assert!(
        text == golden,
        "{name}: the driven ledger drifted from its committed golden"
    );
}

#[test]
fn deterministic_permit_matches_golden() {
    use online_resource_leasing::parking_permit::det::DeterministicPrimalDual;
    for seed in SEEDS {
        let days = demand_days(seed, 96, 0.4);
        assert_golden(
            &format!("permit-det-{seed}"),
            DeterministicPrimalDual::new(structure()),
            structure(),
            days.iter().map(|&t| (t, ())),
        );
    }
}

#[test]
fn randomized_permit_matches_golden() {
    use online_resource_leasing::parking_permit::rand_alg::RandomizedPermit;
    for seed in SEEDS {
        let days = demand_days(seed, 96, 0.4);
        assert_golden(
            &format!("permit-rand-{seed}"),
            RandomizedPermit::new(structure(), &mut seeded(seed + 1)),
            structure(),
            days.iter().map(|&t| (t, ())),
        );
    }
}

#[test]
fn stochastic_policies_match_golden() {
    use online_resource_leasing::stochastic::policies::{EmpiricalRate, RateThreshold};
    for seed in SEEDS {
        let days = demand_days(seed, 96, 0.3);
        assert_golden(
            &format!("rate-threshold-{seed}"),
            RateThreshold::new(structure(), 0.3),
            structure(),
            days.iter().map(|&t| (t, ())),
        );
        assert_golden(
            &format!("empirical-rate-{seed}"),
            EmpiricalRate::new(structure()),
            structure(),
            days.iter().map(|&t| (t, ())),
        );
    }
}

#[test]
fn switch_combiner_matches_golden() {
    use online_resource_leasing::parking_permit::det::DeterministicPrimalDual;
    use online_resource_leasing::stochastic::policies::{RateThreshold, SwitchCombiner};
    for seed in SEEDS {
        // A wrong rate makes the prediction policy lose the lead mid-run.
        let days = demand_days(seed, 128, 0.6);
        let combiner = SwitchCombiner::new(
            structure(),
            RateThreshold::new(structure(), 0.02),
            DeterministicPrimalDual::new(structure()),
        );
        assert_golden(
            &format!("switch-combiner-{seed}"),
            combiner,
            structure(),
            days.iter().map(|&t| (t, ())),
        );
    }
}

#[test]
fn price_aware_permit_matches_golden() {
    use online_resource_leasing::stochastic::prices::{PriceAwarePermit, PricePath};
    for seed in SEEDS {
        let days = demand_days(seed, 96, 0.4);
        let prices = PricePath::sample(&mut seeded(seed), 96, 0.3, 0.5, 2.0);
        assert_golden(
            &format!("price-aware-{seed}"),
            PriceAwarePermit::new(structure(), &prices),
            structure(),
            days.iter().map(|&t| (t, ())),
        );
    }
}

#[test]
fn set_cover_matches_golden() {
    use online_resource_leasing::set_cover::instance::{Arrival, SmclInstance};
    use online_resource_leasing::set_cover::online::SmclOnline;
    use online_resource_leasing::set_cover::system::SetSystem;
    for seed in SEEDS {
        let system = SetSystem::new(
            4,
            vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![0, 3], vec![0, 2]],
        )
        .unwrap();
        let mut rng = seeded(seed);
        let mut arrivals = Vec::new();
        let mut t = 0u64;
        for _ in 0..12 {
            t += rng.random_range(0..4u64);
            arrivals.push(Arrival::new(
                t,
                rng.random_range(0..4usize),
                1 + rng.random_range(0..2usize),
            ));
        }
        let inst = SmclInstance::uniform(system, structure(), arrivals).unwrap();
        assert_golden(
            &format!("set-cover-{seed}"),
            SmclOnline::new(&inst, seed),
            structure(),
            inst.arrivals
                .iter()
                .map(|a| (a.time, (a.element, a.multiplicity))),
        );
    }
}

#[test]
fn set_cover_repetitions_match_golden() {
    use online_resource_leasing::set_cover::repetitions::{
        buy_forever_structure, repetition_instance, RepetitionsOnline,
    };
    use online_resource_leasing::set_cover::system::SetSystem;
    for seed in SEEDS {
        let system = SetSystem::new(
            4,
            vec![
                vec![0, 1, 2],
                vec![1, 2, 3],
                vec![0, 3],
                vec![0, 2],
                vec![1, 3],
            ],
        )
        .unwrap();
        let mut rng = seeded(seed);
        let mut arrivals = Vec::new();
        let mut uses = [0usize; 4];
        let mut t = 0u64;
        for _ in 0..8 {
            t += rng.random_range(0..3u64);
            let e = rng.random_range(0..4usize);
            // Each element belongs to at least two sets.
            if uses[e] < 2 {
                uses[e] += 1;
                arrivals.push((t, e));
            }
        }
        let costs = [1.0, 1.5, 0.8, 1.2, 2.0];
        let inst = repetition_instance(system, &costs, arrivals.clone()).unwrap();
        assert_golden(
            &format!("set-cover-repetitions-{seed}"),
            RepetitionsOnline::new(&inst, seed),
            buy_forever_structure(1.0),
            arrivals,
        );
    }
}

#[test]
fn vertex_cover_matches_golden() {
    use online_resource_leasing::graph::graph::Graph;
    use online_resource_leasing::graph_cover::vertex_cover::{VcLeasingInstance, VcPrimalDual};
    for seed in SEEDS {
        let g = Graph::new(
            5,
            vec![
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 4, 1.0),
                (0, 4, 1.0),
                (1, 3, 1.0),
            ],
        )
        .unwrap();
        let mut rng = seeded(seed);
        let mut arrivals = Vec::new();
        let mut t = 0u64;
        for _ in 0..12 {
            t += rng.random_range(0..4u64);
            arrivals.push((t, rng.random_range(0..6usize)));
        }
        let inst = VcLeasingInstance::unweighted(g, structure(), arrivals.clone()).unwrap();
        assert_golden(
            &format!("vertex-cover-{seed}"),
            VcPrimalDual::new(&inst),
            structure(),
            arrivals,
        );
    }
}

fn facility_instance(seed: u64) -> online_resource_leasing::facility::instance::FacilityInstance {
    use online_resource_leasing::facility::instance::FacilityInstance;
    use online_resource_leasing::facility::metric::Point;
    let mut rng = seeded(seed);
    let facilities = vec![
        Point::new(rng.random::<f64>() * 10.0, rng.random::<f64>() * 10.0),
        Point::new(rng.random::<f64>() * 10.0, rng.random::<f64>() * 10.0),
        Point::new(rng.random::<f64>() * 10.0, rng.random::<f64>() * 10.0),
    ];
    let mut batches = Vec::new();
    let mut t = 0u64;
    for _ in 0..6 {
        t += 1 + rng.random_range(0..4u64);
        let n = 1 + rng.random_range(0..3usize);
        let clients: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.random::<f64>() * 10.0, rng.random::<f64>() * 10.0))
            .collect();
        batches.push((t, clients));
    }
    FacilityInstance::euclidean(facilities, structure(), batches).unwrap()
}

#[test]
fn facility_algorithms_match_golden() {
    use online_resource_leasing::facility::nagarajan_williamson::NagarajanWilliamson;
    use online_resource_leasing::facility::online::PrimalDualFacility;
    use online_resource_leasing::facility::randomized::RandomizedFacility;
    for seed in SEEDS {
        let inst = facility_instance(seed);
        let batches = || inst.batches().iter().map(|b| (b.time, b.clients.clone()));
        assert_golden(
            &format!("facility-pd-{seed}"),
            PrimalDualFacility::new(&inst),
            structure(),
            batches(),
        );
        assert_golden(
            &format!("facility-nw-{seed}"),
            NagarajanWilliamson::new(&inst),
            structure(),
            batches(),
        );
        assert_golden(
            &format!("facility-rand-{seed}"),
            RandomizedFacility::new(&inst, &mut seeded(seed + 1)),
            structure(),
            batches(),
        );
    }
}

#[test]
fn capacitated_matches_golden() {
    use online_resource_leasing::capacitated::instance::CapacitatedInstance;
    use online_resource_leasing::capacitated::online::{CapacitatedGreedy, LeaseChoice};
    for seed in SEEDS {
        let inst = CapacitatedInstance::uniform(facility_instance(seed), 2).unwrap();
        for (tag, choice) in [
            ("cheapest", LeaseChoice::CheapestTotal),
            ("rate", LeaseChoice::BestRate),
        ] {
            assert_golden(
                &format!("capacitated-{tag}-{seed}"),
                CapacitatedGreedy::new(&inst, choice),
                structure(),
                inst.base
                    .batches()
                    .iter()
                    .map(|b| (b.time, b.clients.clone())),
            );
        }
    }
}

#[test]
fn steiner_matches_golden() {
    use online_resource_leasing::graph::graph::Graph;
    use online_resource_leasing::steiner::instance::{PairRequest, SteinerInstance};
    use online_resource_leasing::steiner::online::{
        RandomizedSteinerLeasing, SteinerLeasingOnline,
    };
    for seed in SEEDS {
        let g = Graph::new(
            5,
            vec![
                (0, 1, 1.0),
                (1, 3, 1.5),
                (0, 2, 1.0),
                (2, 3, 10.0),
                (1, 2, 2.0),
                (3, 4, 0.5),
            ],
        )
        .unwrap();
        let mut rng = seeded(seed);
        let mut requests = Vec::new();
        let mut t = 0u64;
        for _ in 0..10 {
            t += rng.random_range(0..6u64);
            let u = rng.random_range(0..5usize);
            let v = (u + 1 + rng.random_range(0..4usize)) % 5;
            requests.push(PairRequest::new(t, u, v));
        }
        let inst = SteinerInstance::new(g, structure(), requests).unwrap();
        assert_golden(
            &format!("steiner-{seed}"),
            SteinerLeasingOnline::new(&inst),
            structure(),
            inst.requests.iter().map(|r| (r.time, (r.u, r.v))),
        );
        assert_golden(
            &format!("steiner-rand-{seed}"),
            RandomizedSteinerLeasing::new(&inst, &mut seeded(seed + 1)),
            structure(),
            inst.requests.iter().map(|r| (r.time, (r.u, r.v))),
        );
    }
}

#[test]
fn deadline_algorithms_match_golden() {
    use online_resource_leasing::deadlines::capacitated::{
        BuyRule, CapacitatedOldInstance, FirstFitOnline, WeightedDemand,
    };
    use online_resource_leasing::deadlines::multi_day::{
        MultiDayClient, MultiDayInstance, MultiDayOnline,
    };
    use online_resource_leasing::deadlines::old::{OldClient, OldInstance, OldPrimalDual};
    use online_resource_leasing::deadlines::windows::{
        WindowClient, WindowInstance, WindowPrimalDual,
    };
    for seed in SEEDS {
        let mut rng = seeded(seed);
        let mut arrivals = Vec::new();
        let mut t = 0u64;
        for _ in 0..10 {
            t += rng.random_range(0..5u64);
            arrivals.push((t, rng.random_range(0..7u64)));
        }

        let old = OldInstance::new(
            structure(),
            arrivals
                .iter()
                .map(|&(a, d)| OldClient::new(a, d))
                .collect(),
        )
        .unwrap();
        assert_golden(
            &format!("old-{seed}"),
            OldPrimalDual::new(&old),
            structure(),
            old.clients.iter().map(|c| (c.arrival, c.slack)),
        );

        let windows = WindowInstance::new(
            structure(),
            arrivals
                .iter()
                .enumerate()
                .map(|(i, &(a, d))| match i % 3 {
                    0 => WindowClient::interval(a, d),
                    1 => WindowClient::periodic(a, d + 1, 3),
                    _ => WindowClient::specific(a, vec![a + 1, a + d + 2]).unwrap(),
                })
                .collect(),
        )
        .unwrap();
        assert_golden(
            &format!("windows-{seed}"),
            WindowPrimalDual::new(&windows),
            structure(),
            windows.clients.iter().map(|c| (c.arrival, c.clone())),
        );

        let multi = MultiDayInstance::new(
            structure(),
            arrivals
                .iter()
                .map(|&(a, d)| MultiDayClient::new(a, d, 1 + d / 2))
                .collect(),
        )
        .unwrap();
        assert_golden(
            &format!("multi-day-{seed}"),
            MultiDayOnline::new(&multi),
            structure(),
            multi
                .clients
                .iter()
                .map(|c| (c.arrival, (c.slack, c.duration))),
        );

        let weighted = CapacitatedOldInstance::new(
            structure(),
            2.0,
            arrivals
                .iter()
                .enumerate()
                .map(|(i, &(a, d))| WeightedDemand::new(a, d, 0.5 + (i % 3) as f64 * 0.5))
                .collect(),
        )
        .unwrap();
        for (tag, rule) in [("cheapest", BuyRule::Cheapest), ("rate", BuyRule::BestRate)] {
            assert_golden(
                &format!("first-fit-{tag}-{seed}"),
                FirstFitOnline::new(&weighted),
                structure(),
                weighted
                    .demands
                    .iter()
                    .map(|d| (d.arrival, (d.slack, d.weight, rule))),
            );
        }
    }
}

#[test]
fn scld_matches_golden() {
    use online_resource_leasing::deadlines::scld::{ScldArrival, ScldInstance, ScldOnline};
    use online_resource_leasing::set_cover::system::SetSystem;
    for seed in SEEDS {
        let system = SetSystem::new(
            4,
            vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![0, 3], vec![0, 2]],
        )
        .unwrap();
        let mut rng = seeded(seed);
        let mut arrivals = Vec::new();
        let mut t = 0u64;
        for _ in 0..10 {
            t += rng.random_range(0..4u64);
            arrivals.push(ScldArrival::new(
                t,
                rng.random_range(0..4usize),
                rng.random_range(0..6u64),
            ));
        }
        let inst = ScldInstance::uniform(system, structure(), arrivals).unwrap();
        assert_golden(
            &format!("scld-{seed}"),
            ScldOnline::new(&inst, seed),
            structure(),
            inst.arrivals.iter().map(|a| (a.time, (a.slack, a.element))),
        );
    }
}

#[test]
fn distributed_matches_golden() {
    use online_resource_leasing::distributed::DistributedFacilityLeasing;
    for seed in SEEDS {
        let mut rng = seeded(seed);
        let prices = vec![1.0 + rng.random::<f64>(), 1.0 + rng.random::<f64>()];
        let distances = vec![vec![0.1, 0.2, 4.0, 5.0], vec![4.0, 5.0, 0.1, 0.2]];
        let alg =
            DistributedFacilityLeasing::new(prices, distances, structure(), 0.5, seed).unwrap();
        assert_golden(
            &format!("distributed-{seed}"),
            alg,
            structure(),
            [
                (0u64, vec![0, 2]),
                (2, vec![1]),
                (5, vec![0, 3]),
                (17, vec![3]),
            ],
        );
    }
}
