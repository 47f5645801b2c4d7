//! Lower-bound constructions of §2.2.
//!
//! * [`run_adaptive_adversary`] — the Theorem 2.8 adversary: it feeds a
//!   demand on every day the running algorithm leaves uncovered. Against the
//!   cost structure `c_k = 2^k`, `l_k = (2K)^k`
//!   ([`LeaseStructure::meyerson_adversarial`]) it forces every deterministic
//!   algorithm to pay `Ω(K)` times the optimum.
//! * [`RandomizedLowerBoundInstance`] — the Theorem 2.9 oblivious instance:
//!   recursively, the `i`-th subinterval of an active interval is active
//!   with probability `(1/2)^{i-1}`, and active bottom-level intervals carry
//!   one demand. Against it every online algorithm pays `Ω(log K)` in
//!   expectation.

use crate::PERMIT_ELEMENT;
use leasing_core::engine::{Driver, LeasingAlgorithm};
use leasing_core::lease::LeaseStructure;
use leasing_core::time::TimeStep;
use rand::{Rng, RngExt};

/// Runs the permit algorithm in `driver` against the adaptive adversary of
/// Theorem 2.8 over `[0, horizon)`: whenever the driver's ledger does not
/// cover the current day, a demand is issued there.
///
/// Returns the demand days the adversary issued (which an offline optimum
/// can then be computed on). A driver whose clock is already past `0`
/// rejects the earlier days; the adversary then issues demands only from
/// the clock onwards.
pub fn run_adaptive_adversary<A: LeasingAlgorithm<Request = ()>>(
    driver: &mut Driver<A>,
    horizon: TimeStep,
) -> Vec<TimeStep> {
    let mut demands = Vec::new();
    for t in 0..horizon {
        if !driver.ledger().covered(PERMIT_ELEMENT, t) && driver.submit(t, ()).is_ok() {
            demands.push(t);
        }
    }
    demands
}

/// The oblivious randomized instance of Theorem 2.9.
///
/// Built over a *nested* lease structure (each length divides the next). The
/// top-level interval `[0, l_max)` is active; an active interval of type `k`
/// splits into `l_k / l_{k-1}` subintervals of type `k-1`, the `i`-th of
/// which (0-based) is active with probability `2^{-i}` — so the first
/// subinterval is always active. Active type-0 (bottom) intervals carry one
/// demand on their first day.
#[derive(Clone, Debug)]
pub struct RandomizedLowerBoundInstance {
    structure: LeaseStructure,
}

impl RandomizedLowerBoundInstance {
    /// Creates the generator for `structure`.
    ///
    /// # Panics
    ///
    /// Panics if consecutive lease lengths do not divide each other.
    pub fn new(structure: LeaseStructure) -> Self {
        for w in structure.types().windows(2) {
            assert!(
                w[1].length % w[0].length == 0,
                "the Theorem 2.9 instance requires nested lease lengths"
            );
        }
        RandomizedLowerBoundInstance { structure }
    }

    /// The lease structure the instance is built over.
    pub fn structure(&self) -> &LeaseStructure {
        &self.structure
    }

    /// Samples one demand sequence.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<TimeStep> {
        let mut demands = Vec::new();
        let top = self.structure.num_types() - 1;
        self.expand(rng, top, 0, &mut demands);
        demands.sort_unstable();
        demands
    }

    fn expand<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        k: usize,
        start: TimeStep,
        out: &mut Vec<TimeStep>,
    ) {
        if k == 0 {
            out.push(start);
            return;
        }
        let len = self.structure.length(k);
        let child_len = self.structure.length(k - 1);
        let children = len / child_len;
        for i in 0..children {
            // i-th subinterval (0-based) is active with probability 2^{-i};
            // the first is always active.
            let active = i == 0 || rng.random::<f64>() < 0.5f64.powi(i as i32);
            if active {
                self.expand(rng, k - 1, start + i * child_len, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::det::DeterministicPrimalDual;
    use crate::offline;
    use crate::rand_alg::RandomizedPermit;
    use leasing_core::harness::CompetitiveOutcome;
    use leasing_core::lease::LeaseType;
    use leasing_core::rng::seeded;

    #[test]
    fn adversary_only_issues_uncovered_days() {
        let s = LeaseStructure::meyerson_adversarial(2);
        let mut driver = Driver::new(DeterministicPrimalDual::new(s.clone()), s.clone());
        let horizon = s.l_max();
        let demands = run_adaptive_adversary(&mut driver, horizon);
        assert!(!demands.is_empty());
        // After the run every demand day is covered.
        for &d in &demands {
            assert!(driver.ledger().covered(PERMIT_ELEMENT, d));
        }
        // Demands are strictly increasing.
        assert!(demands.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn adversary_forces_ratio_growing_with_k() {
        // The measured ratio against the adaptive adversary should grow
        // (roughly linearly) with K — the heart of Theorem 2.8.
        let mut ratios = Vec::new();
        for k in 1..=4usize {
            let s = LeaseStructure::meyerson_adversarial(k);
            let mut driver = Driver::new(DeterministicPrimalDual::new(s.clone()), s.clone());
            let demands = run_adaptive_adversary(&mut driver, s.l_max());
            let opt = offline::optimal_cost_interval_model(&s, &demands);
            let outcome = CompetitiveOutcome::new(driver.cost(), opt);
            ratios.push(outcome.ratio());
        }
        // Monotone growth (allowing small numeric slack) and a K=4 ratio
        // substantially above the K=1 ratio.
        assert!(
            ratios[3] > ratios[0] * 1.5,
            "ratios {ratios:?} should grow with K"
        );
    }

    #[test]
    fn lower_bound_instance_is_reproducible_and_nested() {
        let s = LeaseStructure::meyerson_adversarial(3);
        let gen = RandomizedLowerBoundInstance::new(s.clone());
        let a = gen.sample(&mut seeded(9));
        let b = gen.sample(&mut seeded(9));
        assert_eq!(a, b);
        // All demands live inside the top-level interval.
        assert!(a.iter().all(|&d| d < s.l_max()));
        // The first bottom-level interval is always active: demand at day 0.
        assert_eq!(a[0], 0);
    }

    #[test]
    #[should_panic(expected = "nested")]
    fn lower_bound_instance_rejects_non_nested() {
        let s = LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(5, 2.0)]).unwrap();
        let _ = RandomizedLowerBoundInstance::new(s);
    }

    #[test]
    fn randomized_ratio_is_bounded_on_oblivious_lower_bound_instance() {
        // Randomization helps only against *oblivious* adversaries
        // (Theorem 2.9); on the recursive lower-bound distribution the
        // expected randomized ratio is O(log K), so for K = 3 it must stay
        // far below a broken implementation's blow-up. The full O(K) vs
        // O(log K) comparison is experiment E3.
        let s = LeaseStructure::meyerson_adversarial(3);
        let gen = RandomizedLowerBoundInstance::new(s.clone());
        let trials = 15;
        let mut ratio_sum = 0.0;
        for seed in 0..trials {
            let mut rng = seeded(seed);
            let demands = gen.sample(&mut rng);
            let opt = offline::optimal_cost_interval_model(&s, &demands);
            let mut driver = Driver::new(RandomizedPermit::new(s.clone(), &mut rng), s.clone());
            driver
                .submit_batch(demands.iter().map(|&d| (d, ())))
                .unwrap();
            ratio_sum += driver.cost() / opt;
        }
        let mean = ratio_sum / trials as f64;
        assert!(
            mean < 2.0 * s.num_types() as f64,
            "mean randomized ratio {mean}"
        );
        assert!(mean >= 1.0 - 1e-9, "ratios cannot beat the optimum");
    }
}
