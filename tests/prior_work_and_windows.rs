//! Cross-crate integration tests for the prior-work facility-leasing
//! baseline (§4.1), the service-window model (§5.6 outlook), and the §3.5
//! lower-bound drivers.

use online_resource_leasing::core::engine::{Driver, LeasingAlgorithm};
use online_resource_leasing::core::lease::{LeaseStructure, LeaseType};
use online_resource_leasing::core::rng::seeded;
use online_resource_leasing::core::time::TimeStep;
use online_resource_leasing::deadlines::offline as dl_offline;
use online_resource_leasing::deadlines::old::{OldClient, OldInstance, OldPrimalDual};
use online_resource_leasing::deadlines::windows::{
    window_optimal_cost, WindowClient, WindowInstance, WindowPrimalDual,
};
use online_resource_leasing::facility::nagarajan_williamson::NagarajanWilliamson;
use online_resource_leasing::facility::offline as fac_offline;
use online_resource_leasing::facility::online::PrimalDualFacility;
use online_resource_leasing::facility::series::ArrivalPattern;
use online_resource_leasing::parking_permit::offline as pp_offline;
use online_resource_leasing::set_cover::lower_bounds::{
    drive_halving_adversary, drive_ppp_embedding,
};
use online_resource_leasing::set_cover::offline as sc_offline;
use online_resource_leasing::workloads::facilities::facility_instance;
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

fn lease_structure() -> LeaseStructure {
    LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(16, 3.0)]).unwrap()
}

/// Both facility-leasing algorithms (prior work and thesis) bound the same
/// optimum on the same instances; neither undercuts the exact ILP.
#[test]
fn prior_work_and_thesis_agree_on_feasible_costs() {
    let structure =
        LeaseStructure::new(vec![LeaseType::new(4, 2.0), LeaseType::new(16, 6.0)]).unwrap();
    for seed in 0..5u64 {
        let mut rng = seeded(seed);
        let inst = facility_instance(
            &mut rng,
            3,
            structure.clone(),
            ArrivalPattern::Constant(2),
            6,
            30.0,
        );
        let opt = fac_offline::optimal_cost(&inst, 100_000)
            .unwrap_or_else(|| fac_offline::lp_lower_bound(&inst));
        let thesis = drive(
            PrimalDualFacility::new(&inst),
            inst.structure(),
            inst.requests(),
        )
        .cost();
        let prior = drive(
            NagarajanWilliamson::new(&inst),
            inst.structure(),
            inst.requests(),
        )
        .cost();
        assert!(
            thesis >= opt - 1e-6,
            "thesis {thesis} below opt {opt} (seed {seed})"
        );
        assert!(
            prior >= opt - 1e-6,
            "prior {prior} below opt {opt} (seed {seed})"
        );
    }
}

/// The service-window model collapses to OLD on full intervals — online
/// costs and exact optima agree instance by instance.
#[test]
fn window_model_collapses_to_old_on_intervals() {
    for seed in 0..8u64 {
        let mut rng = seeded(seed);
        let mut arrivals = Vec::new();
        let mut t = 0u64;
        for _ in 0..6 {
            t += rng.random_range(0..4u64);
            arrivals.push((t, rng.random_range(0..5u64)));
        }
        let o_inst = OldInstance::new(
            lease_structure(),
            arrivals
                .iter()
                .map(|&(a, d)| OldClient::new(a, d))
                .collect(),
        )
        .unwrap();
        let w_inst = WindowInstance::new(
            lease_structure(),
            arrivals
                .iter()
                .map(|&(a, d)| WindowClient::interval(a, d))
                .collect(),
        )
        .unwrap();
        let o_opt = dl_offline::old_optimal_cost(&o_inst, 200_000).unwrap();
        let w_opt = window_optimal_cost(&w_inst, 200_000).unwrap();
        assert!(
            (o_opt - w_opt).abs() < 1e-9,
            "optima diverge at seed {seed}"
        );
        // Both online algorithms serve everything and stay above opt.
        let o_cost = drive(
            OldPrimalDual::new(&o_inst),
            &o_inst.structure,
            o_inst.requests(),
        )
        .cost();
        let w_cost = drive(
            WindowPrimalDual::new(&w_inst),
            &w_inst.structure,
            w_inst.requests(),
        )
        .cost();
        assert!(o_cost >= o_opt - 1e-9);
        assert!(w_cost >= w_opt - 1e-9);
    }
}

/// Single-day windows make the model the parking permit problem: the exact
/// window ILP agrees with the parking-permit interval-model DP.
#[test]
fn window_model_collapses_to_parking_permit_on_single_days() {
    let structure = lease_structure();
    let days: Vec<u64> = vec![0, 1, 5, 9, 20, 21];
    let w_inst = WindowInstance::new(
        structure.clone(),
        days.iter().map(|&d| WindowClient::interval(d, 0)).collect(),
    )
    .unwrap();
    let w_opt = window_optimal_cost(&w_inst, 200_000).unwrap();
    let dp = pp_offline::optimal_cost_interval_model(&structure, &days);
    assert!(
        (w_opt - dp).abs() < 1e-9,
        "window ILP {w_opt} vs permit DP {dp}"
    );
}

/// The PPP-embedding driver reproduces parking-permit hardness inside the
/// set-cover crate: the hindsight optimum of the driven trace equals the
/// parking-permit DP on the same demand days.
#[test]
fn ppp_embedding_optimum_matches_permit_dp() {
    let structure = lease_structure();
    let (template, outcome) = drive_ppp_embedding(&structure, 40, 5);
    let days: Vec<u64> = outcome.arrivals.iter().map(|a| a.time).collect();
    let cost = outcome.algorithm_cost;
    let inst = outcome.into_instance(&template);
    let ilp = sc_offline::optimal_cost(&inst, 200_000).unwrap();
    let dp = pp_offline::optimal_cost_interval_model(&structure, &days);
    assert!(
        (ilp - dp).abs() < 1e-9,
        "Figure 3.2 ILP {ilp} vs permit DP {dp}"
    );
    assert!(cost >= ilp - 1e-9);
}

/// The halving adversary's forced gap grows with the family size while the
/// hindsight optimum stays at one set per window.
#[test]
fn halving_gap_grows_with_m() {
    let structure =
        LeaseStructure::new(vec![LeaseType::new(4, 1.0), LeaseType::new(16, 2.5)]).unwrap();
    let ratio_for = |m: usize| {
        let (template, outcome) = drive_halving_adversary(m, &structure, 3, 17);
        let cost = outcome.algorithm_cost;
        let inst = outcome.into_instance(&template);
        let opt = sc_offline::optimal_cost(&inst, 200_000).unwrap();
        cost / opt
    };
    let r2 = ratio_for(2);
    let r8 = ratio_for(8);
    assert!(r8 > r2, "m = 8 ratio {r8} must exceed m = 2 ratio {r2}");
}
