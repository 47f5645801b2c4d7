//! The tight example of Proposition 5.4 (Figure 5.3).
//!
//! Two lease types — a short one of length `l_min` and cost 1, and a long
//! one of length `2^⌈log₂ d_max⌉` and cost `1 + ε` — plus a far-deadline
//! client `(0, d_max)` followed by back-to-back short-window clients force
//! the §5.3 algorithm to buy `⌊d_max/l_min⌋` short leases while the optimum
//! buys the single long lease. This exhibits the `Ω(d_max/l_min)` term of
//! Theorem 5.3.

use crate::old::{OldClient, OldInstance};
use leasing_core::lease::{LeaseStructure, LeaseType};

/// Builds the Figure 5.3 instance for the given `d_max`, `l_min` and `ε`.
///
/// # Panics
///
/// Panics unless `l_min >= 1`, `d_max >= 2 * l_min` and `epsilon > 0`.
pub fn tight_example(d_max: u64, l_min: u64, epsilon: f64) -> OldInstance {
    assert!(l_min >= 1, "l_min must be positive");
    assert!(
        d_max >= 2 * l_min,
        "need d_max >= 2*l_min for a non-trivial example"
    );
    assert!(epsilon > 0.0, "epsilon must be positive");
    let long_len = d_max.next_power_of_two().max(2 * l_min);
    let structure = LeaseStructure::new(vec![
        LeaseType::new(l_min, 1.0),
        LeaseType::new(long_len, 1.0 + epsilon),
    ])
    .expect("two increasing lease types are valid");

    let mut clients = vec![OldClient::new(0, d_max)];
    for i in 2..=(d_max / l_min) {
        clients.push(OldClient::new((i - 1) * l_min, l_min));
    }
    OldInstance::new(structure, clients).expect("clients are generated in arrival order")
}

/// The optimum of the tight example: the single long lease, `1 + ε`.
pub fn tight_example_optimum(epsilon: f64) -> f64 {
    1.0 + epsilon
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline;
    use crate::old::{is_feasible, OldPrimalDual};
    use leasing_core::engine::Driver;

    /// Serves every client of `inst`, returning the driven algorithm.
    fn run(inst: &OldInstance) -> Driver<OldPrimalDual<'_>> {
        let mut driver = Driver::new(OldPrimalDual::new(inst), inst.structure.clone());
        driver.submit_batch(inst.requests()).unwrap();
        driver
    }

    #[test]
    fn algorithm_pays_theta_dmax_over_lmin() {
        let d_max = 32;
        let l_min = 2;
        let inst = tight_example(d_max, l_min, 0.01);
        let driver = run(&inst);
        let cost = driver.cost();
        assert!(is_feasible(&inst, |t| driver.ledger().owns(t)));
        let opt = tight_example_optimum(0.01);
        let ratio = cost / opt;
        let lower = (d_max / l_min) as f64 / 2.0;
        assert!(
            ratio >= lower,
            "ratio {ratio} should be at least {lower} (Ω(d_max/l_min))"
        );
    }

    #[test]
    fn declared_optimum_matches_ilp() {
        let inst = tight_example(16, 2, 0.01);
        let opt = offline::old_optimal_cost(&inst, 200_000).unwrap();
        assert!(
            (opt - tight_example_optimum(0.01)).abs() < 1e-6,
            "opt {opt}"
        );
    }

    #[test]
    fn ratio_grows_linearly_in_dmax_over_lmin() {
        let mut ratios = Vec::new();
        for d_max in [8u64, 16, 32, 64] {
            let inst = tight_example(d_max, 2, 0.01);
            let cost = run(&inst).cost();
            ratios.push(cost / tight_example_optimum(0.01));
        }
        // Doubling d_max should (roughly) double the ratio.
        assert!(
            ratios[3] > 1.5 * ratios[1],
            "ratios {ratios:?} should grow linearly"
        );
    }

    #[test]
    #[should_panic(expected = "d_max >= 2*l_min")]
    fn degenerate_parameters_are_rejected() {
        let _ = tight_example(2, 2, 0.1);
    }
}
