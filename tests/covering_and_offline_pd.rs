//! Cross-crate integration tests for the online dual certificates of the
//! randomized algorithms (the `online-covering` core), the offline facility
//! primal-dual baseline and the distributed phase-1 bidding.
//!
//! These complement the per-crate unit tests with workload-scale instances
//! and cross-checks that need several crates at once (exact DP/ILP optima,
//! LP lower bounds).

use leasing_core::engine::{Driver, LeasingAlgorithm};
use leasing_core::lease::{LeaseStructure, LeaseType};
use leasing_core::rng::seeded;
use leasing_core::time::TimeStep;
use leasing_workloads::set_systems::{random_system, zipf_arrivals};
use online_resource_leasing::deadlines::scld::{ScldArrival, ScldInstance, ScldOnline};
use online_resource_leasing::facility::instance::FacilityInstance;
use online_resource_leasing::facility::metric::Point;
use online_resource_leasing::facility::{offline as fac_offline, offline_primal_dual};
use online_resource_leasing::parking_permit::offline as ppp_offline;
use online_resource_leasing::parking_permit::rand_alg::RandomizedPermit;
use online_resource_leasing::set_cover::instance::SmclInstance;
use online_resource_leasing::set_cover::offline as sc_offline;
use online_resource_leasing::set_cover::online::SmclOnline;
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

fn permits() -> LeaseStructure {
    LeaseStructure::new(vec![
        LeaseType::new(1, 1.0),
        LeaseType::new(4, 3.0),
        LeaseType::new(16, 8.0),
    ])
    .expect("valid structure")
}

fn sets_structure() -> LeaseStructure {
    LeaseStructure::new(vec![LeaseType::new(4, 1.0), LeaseType::new(16, 3.0)])
        .expect("valid structure")
}

/// The online dual certificate never exceeds the exact optimum, across all
/// three problem families that step through the covering core.
#[test]
fn certificates_are_sound_across_problem_families() {
    // Parking permit: exact DP optimum.
    let mut rng = seeded(4100);
    let days: Vec<u64> = (0..200u64).filter(|_| rng.random::<f64>() < 0.3).collect();
    let permit = drive(
        RandomizedPermit::with_threshold(permits(), 0.37),
        &permits(),
        days.iter().map(|&t| (t, ())),
    );
    let opt = ppp_offline::optimal_cost_interval_model(&permits(), &days);
    let cert = permit.algorithm().certificate();
    assert!(
        cert.lower_bound <= opt + 1e-9,
        "permit: {} > {opt}",
        cert.lower_bound
    );
    assert!(cert.lower_bound > 0.0);

    // SMCL: exact ILP (small instance).
    let mut rng = seeded(4101);
    let system = random_system(&mut rng, 16, 8, 3);
    let arrivals = zipf_arrivals(&mut rng, &system, 16, 64, 1.1, 2);
    let inst = SmclInstance::uniform(system, sets_structure(), arrivals).expect("feasible");
    let smcl = drive(SmclOnline::new(&inst, 9), &inst.structure, inst.requests());
    let opt = sc_offline::optimal_cost(&inst, 50_000)
        .unwrap_or_else(|| sc_offline::lp_lower_bound(&inst));
    let cert = smcl.algorithm().certificate();
    assert!(
        cert.lower_bound <= opt + 1e-9,
        "smcl: {} > {opt}",
        cert.lower_bound
    );

    // SCLD: certificate below the algorithm's own cost and non-negative
    // (the served layers' LP has no small exact solver; soundness against
    // the LP is covered by the unit tests of the fractional module).
    let mut rng = seeded(4102);
    let system = random_system(&mut rng, 16, 8, 3);
    let mut t = 0u64;
    let arrivals: Vec<ScldArrival> = (0..16)
        .map(|_| {
            t += rng.random_range(0..3u64);
            ScldArrival::new(t, rng.random_range(0..16usize), rng.random_range(0..8u64))
        })
        .collect();
    let inst = ScldInstance::uniform(system, sets_structure(), arrivals).expect("feasible");
    let scld = drive(ScldOnline::new(&inst, 9), &inst.structure, inst.requests());
    let cost = scld.cost();
    let cert = scld.algorithm().certificate();
    assert!(cert.lower_bound <= cost + 1e-9);
    assert!(cert.lower_bound >= 0.0);
}

/// Certified ratios (cost / certificate) upper-bound true ratios
/// (cost / Opt) — the property that makes the certificate useful when the
/// ILP is out of reach.
#[test]
fn certified_ratio_dominates_true_ratio() {
    for trial in 0..4u64 {
        let mut rng = seeded(4200 + trial);
        let system = random_system(&mut rng, 20, 10, 4);
        let arrivals = zipf_arrivals(&mut rng, &system, 20, 64, 1.1, 2);
        let inst = SmclInstance::uniform(system, sets_structure(), arrivals).expect("feasible");
        let Some(opt) = sc_offline::optimal_cost(&inst, 50_000) else {
            continue;
        };
        let alg = drive(
            SmclOnline::new(&inst, trial),
            &inst.structure,
            inst.requests(),
        );
        let cost = alg.cost();
        let cert = alg.algorithm().certificate();
        let true_ratio = cost / opt;
        let certified = cost / cert.lower_bound.max(1e-12);
        assert!(
            certified + 1e-9 >= true_ratio,
            "trial {trial}: certified {certified} < true {true_ratio}"
        );
    }
}

/// The offline facility primal-dual is feasible, certified, and within the
/// factor-3 envelope of the exact ILP on mixed-batch instances.
#[test]
fn offline_primal_dual_respects_three_approximation_envelope() {
    let structure = LeaseStructure::new(vec![LeaseType::new(4, 2.0), LeaseType::new(16, 6.0)])
        .expect("valid structure");
    for trial in 0..5u64 {
        let mut rng = seeded(4300 + trial);
        let facilities: Vec<Point> = (0..3)
            .map(|_| Point::new(rng.random::<f64>() * 15.0, rng.random::<f64>() * 15.0))
            .collect();
        let batches: Vec<(u64, Vec<Point>)> = (0..4u64)
            .map(|t| {
                let pts = (0..2)
                    .map(|_| Point::new(rng.random::<f64>() * 15.0, rng.random::<f64>() * 15.0))
                    .collect();
                (t * 3, pts)
            })
            .collect();
        let inst = FacilityInstance::euclidean(facilities, structure.clone(), batches)
            .expect("valid instance");
        let sol = offline_primal_dual::solve(&inst);
        assert!(
            offline_primal_dual::is_feasible(&inst, &sol),
            "trial {trial}"
        );
        assert!(
            sol.dual_sum <= fac_offline::lp_lower_bound(&inst) + 1e-6,
            "trial {trial}: weak duality violated"
        );
        if let Some(opt) = fac_offline::optimal_cost(&inst, 60_000) {
            assert!(
                sol.total_cost() <= 3.0 * opt + 1e-6,
                "trial {trial}: {} > 3x{opt}",
                sol.total_cost()
            );
        }
    }
}

/// The fully distributed per-step pipeline tracks the exact centralized
/// primal-dual within the discretization's accuracy envelope.
#[test]
fn distributed_pipeline_tracks_centralized_offline_pd() {
    use online_resource_leasing::distributed::bidding::{distributed_step, BiddingInstance};
    for trial in 0..4u64 {
        let mut rng = seeded(4400 + trial);
        let m = 3usize;
        let c = 8usize;
        let facilities: Vec<Point> = (0..m)
            .map(|_| Point::new(rng.random::<f64>() * 10.0, rng.random::<f64>() * 10.0))
            .collect();
        let clients: Vec<Point> = (0..c)
            .map(|_| Point::new(rng.random::<f64>() * 10.0, rng.random::<f64>() * 10.0))
            .collect();
        let distances: Vec<Vec<f64>> = facilities
            .iter()
            .map(|f| clients.iter().map(|cl| f.distance(cl)).collect())
            .collect();
        let bid_inst = BiddingInstance::new(vec![4.0; m], distances).expect("valid");
        let structure = LeaseStructure::new(vec![LeaseType::new(1, 4.0)]).expect("single type");
        let fac_inst = FacilityInstance::euclidean(facilities, structure, vec![(0, clients)])
            .expect("valid instance");

        let exact = offline_primal_dual::solve(&fac_inst);
        let step = distributed_step(&bid_inst, 0.05, trial);
        // Both are ~3-approximations of the same optimum; the distributed
        // one additionally pays the ε discretization. A generous envelope
        // catches structural regressions without flaking on randomness.
        assert!(
            step.total_cost <= 3.5 * exact.total_cost() + 1e-6,
            "trial {trial}: distributed {} vs exact PD {}",
            step.total_cost,
            exact.total_cost()
        );
        assert!(step.bidding.stats.terminated);
    }
}
