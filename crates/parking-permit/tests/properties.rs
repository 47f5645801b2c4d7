//! Property tests for the parking permit problem: the Theorem 2.7
//! guarantee on arbitrary demand sequences, feasibility of the randomized
//! algorithm under any threshold, and DP/ILP agreement.

use leasing_core::engine::Driver;
use leasing_core::lease::LeaseStructure;
use leasing_core::rng::seeded;
use parking_permit::det::DeterministicPrimalDual;
use parking_permit::rand_alg::RandomizedPermit;
use parking_permit::{ilp, offline, PermitInstance, PERMIT_ELEMENT};
use proptest::prelude::*;

fn structure() -> LeaseStructure {
    LeaseStructure::new(vec![
        leasing_core::lease::LeaseType::new(1, 1.0),
        leasing_core::lease::LeaseType::new(4, 2.5),
        leasing_core::lease::LeaseType::new(16, 6.0),
    ])
    .unwrap()
}

fn demand_days(seed: u64, horizon: u64, density: f64) -> Vec<u64> {
    use rand::RngExt;
    let mut rng = seeded(seed);
    (0..horizon)
        .filter(|_| rng.random::<f64>() < density)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Theorem 2.7 end to end: primal ≤ K·dual ≤ K·Opt on every sequence.
    #[test]
    fn deterministic_is_k_competitive(seed in 0u64..500, density in 0.05f64..0.95) {
        let s = structure();
        let days = demand_days(seed, 96, density);
        if days.is_empty() {
            return Ok(());
        }
        let mut driver = Driver::new(DeterministicPrimalDual::new(s.clone()), s.clone());
        for &t in &days {
            driver.submit(t, ()).unwrap();
            prop_assert!(driver.ledger().covered(PERMIT_ELEMENT, t));
        }
        let alg = driver.algorithm();
        let opt = offline::optimal_cost_interval_model(&s, &days);
        let k = s.num_types() as f64;
        prop_assert!(alg.dual_value() <= opt + 1e-6);
        prop_assert!(driver.cost() <= k * alg.dual_value() + 1e-6);
        prop_assert!(driver.cost() <= k * opt + 1e-6);
    }

    /// The randomized algorithm is feasible for *every* threshold value
    /// (the rounding never leaves a demand uncovered).
    #[test]
    fn randomized_is_feasible_for_any_threshold(
        seed in 0u64..300, tau in 0.001f64..1.0
    ) {
        let s = structure();
        let days = demand_days(seed, 64, 0.4);
        let mut driver = Driver::new(RandomizedPermit::with_threshold(s.clone(), tau), s);
        for &t in &days {
            driver.submit(t, ()).unwrap();
            prop_assert!(
                driver.ledger().covered(PERMIT_ELEMENT, t),
                "threshold {tau} left day {t} uncovered"
            );
        }
        // The integer cost is never below the fractional mass it rounds.
        prop_assert!(driver.cost() >= 0.0);
    }

    /// The interval DP and the literal Figure 2.2 ILP agree exactly.
    #[test]
    fn dp_and_ilp_agree(seed in 0u64..150, density in 0.1f64..0.7) {
        let s = structure();
        let days = demand_days(seed, 48, density);
        if days.is_empty() {
            return Ok(());
        }
        let dp = offline::optimal_cost_interval_model(&s, &days);
        let inst = PermitInstance::new(s, days);
        let ilp_opt = ilp::optimal_cost_ilp(&inst);
        prop_assert!((dp - ilp_opt).abs() < 1e-6, "DP {dp} vs ILP {ilp_opt}");
        let lp = ilp::lp_lower_bound(&inst);
        prop_assert!(lp <= ilp_opt + 1e-6);
    }

    /// Adding demand days never cheapens the optimum (monotonicity of Opt).
    #[test]
    fn optimum_is_monotone_in_demands(seed in 0u64..200) {
        let s = structure();
        let days = demand_days(seed, 64, 0.5);
        if days.len() < 2 {
            return Ok(());
        }
        let half = &days[..days.len() / 2];
        let opt_half = offline::optimal_cost_interval_model(&s, half);
        let opt_full = offline::optimal_cost_interval_model(&s, &days);
        prop_assert!(opt_full >= opt_half - 1e-9);
    }
}
