//! Cross-crate integration tests: every leasing problem in the thesis
//! collapses to a simpler one under the right parameters, and the
//! implementations must respect those collapses.

use online_resource_leasing::core::engine::{Driver, LeasingAlgorithm};
use online_resource_leasing::core::lease::{LeaseStructure, LeaseType};
use online_resource_leasing::core::rng::seeded;
use online_resource_leasing::core::time::TimeStep;
use online_resource_leasing::deadlines::offline as dl_offline;
use online_resource_leasing::deadlines::old::{OldClient, OldInstance, OldPrimalDual};
use online_resource_leasing::deadlines::scld::{ScldArrival, ScldInstance};
use online_resource_leasing::parking_permit::det::DeterministicPrimalDual;
use online_resource_leasing::parking_permit::offline as pp_offline;
use online_resource_leasing::set_cover::instance::{Arrival, SmclInstance};
use online_resource_leasing::set_cover::offline as sc_offline;
use online_resource_leasing::set_cover::system::SetSystem;
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
    LeaseStructure::new(vec![
        LeaseType::new(2, 1.0),
        LeaseType::new(8, 3.0),
        LeaseType::new(32, 8.0),
    ])
    .unwrap()
}

/// OLD with zero slack *is* the parking permit problem: the primal-dual of
/// Chapter 5 must pay exactly what the primal-dual of Chapter 2 pays.
#[test]
fn old_with_zero_slack_equals_parking_permit() {
    let mut rng = seeded(1001);
    for trial in 0..10u64 {
        let days: Vec<u64> = (0..64).filter(|_| rng.random::<f64>() < 0.3).collect();
        if days.is_empty() {
            continue;
        }
        let permit = drive(
            DeterministicPrimalDual::new(structure()),
            &structure(),
            days.iter().map(|&t| (t, ())),
        );
        let clients: Vec<OldClient> = days.iter().map(|&t| OldClient::new(t, 0)).collect();
        let old_inst = OldInstance::new(structure(), clients).unwrap();
        let old = drive(
            OldPrimalDual::new(&old_inst),
            &old_inst.structure,
            old_inst.requests(),
        );
        let old_cost = old.cost();
        assert!(
            (old_cost - permit.cost()).abs() < 1e-9,
            "trial {trial}: OLD {} vs permit {}",
            old_cost,
            permit.cost()
        );
    }
}

/// The OLD ILP with zero slack must agree with the parking-permit interval
/// DP — two independent exact solvers for the same problem.
#[test]
fn old_ilp_with_zero_slack_matches_permit_dp() {
    let mut rng = seeded(2002);
    for _ in 0..6 {
        let days: Vec<u64> = (0..32).filter(|_| rng.random::<f64>() < 0.4).collect();
        if days.is_empty() {
            continue;
        }
        let clients: Vec<OldClient> = days.iter().map(|&t| OldClient::new(t, 0)).collect();
        let inst = OldInstance::new(structure(), clients).unwrap();
        let ilp = dl_offline::old_optimal_cost(&inst, 400_000).expect("small instance");
        let dp = pp_offline::optimal_cost_interval_model(&structure(), &days);
        assert!((ilp - dp).abs() < 1e-6, "ILP {ilp} vs DP {dp}");
    }
}

/// SCLD with zero slack is set cover leasing; its ILP must agree with the
/// set-multicover ILP at multiplicity 1 on the same arrivals.
#[test]
fn scld_ilp_with_zero_slack_matches_smcl_ilp() {
    let system = SetSystem::new(4, vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![0, 3]]).unwrap();
    let mut rng = seeded(3003);
    for _ in 0..4 {
        let mut scld_arrivals = Vec::new();
        let mut smcl_arrivals = Vec::new();
        let mut t = 0u64;
        for _ in 0..6 {
            t += rng.random_range(0..4u64);
            let e = rng.random_range(0..4);
            scld_arrivals.push(ScldArrival::new(t, e, 0));
            smcl_arrivals.push(Arrival::new(t, e, 1));
        }
        let scld = ScldInstance::uniform(system.clone(), structure(), scld_arrivals).unwrap();
        let smcl = SmclInstance::uniform(system.clone(), structure(), smcl_arrivals).unwrap();
        let scld_opt = dl_offline::scld_optimal_cost(&scld, 400_000).expect("small instance");
        let smcl_opt = sc_offline::optimal_cost(&smcl, 400_000).expect("small instance");
        assert!(
            (scld_opt - smcl_opt).abs() < 1e-6,
            "SCLD {scld_opt} vs SMCL {smcl_opt}"
        );
    }
}

/// A single-element universe with a single set turns set cover leasing into
/// the parking permit problem.
#[test]
fn set_cover_leasing_on_one_set_is_parking_permit() {
    let system = SetSystem::new(1, vec![vec![0]]).unwrap();
    let mut rng = seeded(4004);
    let days: Vec<u64> = (0..48).filter(|_| rng.random::<f64>() < 0.35).collect();
    let arrivals: Vec<Arrival> = days.iter().map(|&t| Arrival::new(t, 0, 1)).collect();
    let inst = SmclInstance::uniform(system, structure(), arrivals).unwrap();
    let sc_opt = sc_offline::optimal_cost(&inst, 400_000).expect("small instance");
    let pp_opt = pp_offline::optimal_cost_interval_model(&structure(), &days);
    assert!((sc_opt - pp_opt).abs() < 1e-6, "SC {sc_opt} vs PP {pp_opt}");
}

/// Slack can only help: the OLD optimum is monotonically non-increasing in
/// the clients' slack.
#[test]
fn slack_never_raises_the_old_optimum() {
    let mut rng = seeded(5005);
    for _ in 0..6 {
        let mut arrivals: Vec<u64> = (0..24).filter(|_| rng.random::<f64>() < 0.4).collect();
        if arrivals.is_empty() {
            arrivals.push(0);
        }
        let tight_clients: Vec<OldClient> =
            arrivals.iter().map(|&t| OldClient::new(t, 0)).collect();
        let slack_clients: Vec<OldClient> =
            arrivals.iter().map(|&t| OldClient::new(t, 6)).collect();
        let tight = OldInstance::new(structure(), tight_clients).unwrap();
        let slack = OldInstance::new(structure(), slack_clients).unwrap();
        let tight_opt = dl_offline::old_optimal_cost(&tight, 400_000).unwrap();
        let slack_opt = dl_offline::old_optimal_cost(&slack, 400_000).unwrap();
        assert!(
            slack_opt <= tight_opt + 1e-6,
            "slack {slack_opt} must not exceed tight {tight_opt}"
        );
    }
}

/// More lease types can only help the optimum: adding a type never raises
/// the parking-permit DP value.
#[test]
fn extra_lease_types_never_raise_the_optimum() {
    let small = LeaseStructure::new(vec![LeaseType::new(2, 1.0)]).unwrap();
    let big = structure();
    let mut rng = seeded(6006);
    for _ in 0..10 {
        let days: Vec<u64> = (0..64).filter(|_| rng.random::<f64>() < 0.5).collect();
        if days.is_empty() {
            continue;
        }
        let opt_small = pp_offline::optimal_cost_interval_model(&small, &days);
        let opt_big = pp_offline::optimal_cost_interval_model(&big, &days);
        assert!(opt_big <= opt_small + 1e-9);
    }
}
