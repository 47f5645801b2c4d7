//! The deterministic primal-dual algorithm (thesis Algorithm 1).
//!
//! When an uncovered demand arrives at day `t'`, its dual variable `y_{t'}`
//! is raised until the dual constraint of some candidate lease becomes
//! tight; every tight candidate is then bought. In the interval model
//! exactly `K` candidate leases cover any day, which caps the primal cost at
//! `K` times the dual value and yields the `O(K)` competitive ratio of
//! Theorem 2.7.

use crate::PERMIT_ELEMENT;
use leasing_core::engine::{Books, LeasingAlgorithm, CATEGORY_LEASE};
use leasing_core::framework::Triple;
use leasing_core::interval::dual_step;
use leasing_core::lease::LeaseStructure;
use leasing_core::time::TimeStep;

/// Deterministic primal-dual parking-permit algorithm over aligned
/// (interval-model) leases.
///
/// Coverage and ownership are queried from the ledger's coverage index
/// ([`Ledger::covered`]/[`Ledger::owns`]) — the algorithm keeps no private
/// active-lease table.
#[derive(Clone, Debug)]
pub struct DeterministicPrimalDual {
    structure: LeaseStructure,
    /// Accumulated dual contribution `Σ y` of the *current* aligned
    /// window per lease type: `(window start, Σ y)`. The candidates of
    /// day `t` are exactly the aligned windows containing `t`, and a
    /// window the clock has left never becomes a candidate again, so only
    /// `K` live accumulators are ever needed — the per-lease map the
    /// algorithm used to keep was write-only beyond the current windows.
    /// Stale entries (start ≠ the current aligned start) read as zero.
    contributions: Vec<(TimeStep, f64)>,
    /// Total dual value Σ y raised so far (a lower bound on the interval
    /// model optimum by weak duality — used by tests and experiments).
    dual_value: f64,
}

impl DeterministicPrimalDual {
    /// Creates the algorithm for the given permit structure.
    ///
    /// The structure is used with *aligned* starts (a type-`k` lease starts
    /// only at multiples of `l_k`), i.e. in the interval model of Definition
    /// 2.5. Lengths need not be powers of two; alignment alone guarantees
    /// the "exactly `K` candidates per day" property the analysis needs.
    pub fn new(structure: LeaseStructure) -> Self {
        // Sentinel start: no aligned window starts at `u64::MAX`.
        let contributions = vec![(TimeStep::MAX, 0.0); structure.num_types()];
        DeterministicPrimalDual {
            structure,
            contributions,
            dual_value: 0.0,
        }
    }

    /// Core primal-dual step for a demand on `element` at `t`: the shared
    /// [`dual_step`] over the `K` live accumulators, buying every tight
    /// candidate the books do not already own at this permit's own prices.
    /// A composite algorithm (Steiner leasing's per-edge permits) runs one
    /// permit per element over its shared books.
    pub fn serve_element(&mut self, t: TimeStep, element: usize, books: &mut Books<'_>) {
        if books.covered(element, t) {
            return;
        }
        let structure = &self.structure;
        self.dual_value += dual_step(structure, &mut self.contributions, t, |k, start| {
            let triple = Triple::new(element, k, start);
            if !books.owns(triple) {
                books.buy_priced(t, triple, structure.cost(k), CATEGORY_LEASE);
            }
        });
        debug_assert!(
            books.covered(element, t),
            "primal-dual step must cover the demand"
        );
    }

    /// The permit structure this algorithm leases from.
    pub fn structure(&self) -> &LeaseStructure {
        &self.structure
    }

    /// Total dual value `Σ_t y_t` raised so far. By weak duality this is a
    /// lower bound on the cost of an optimal interval-model solution.
    pub fn dual_value(&self) -> f64 {
        self.dual_value
    }
}

impl LeasingAlgorithm for DeterministicPrimalDual {
    type Request = ();

    fn on_request(&mut self, time: TimeStep, _request: (), mut books: Books<'_>) {
        self.serve_element(time, PERMIT_ELEMENT, &mut books);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline;
    use leasing_core::engine::Driver;
    use leasing_core::lease::{Lease, LeaseType};
    use leasing_core::rng::seeded;
    use rand::RngExt;

    fn two_type() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(1, 1.0), LeaseType::new(4, 3.0)]).unwrap()
    }

    /// Serves `days` through a fresh driver over `s`.
    fn driven(s: &LeaseStructure, days: &[u64]) -> Driver<DeterministicPrimalDual> {
        let mut driver = Driver::new(DeterministicPrimalDual::new(s.clone()), s.clone());
        driver.submit_batch(days.iter().map(|&t| (t, ()))).unwrap();
        driver
    }

    #[test]
    fn single_demand_buys_cheapest_tight_candidate() {
        let driver = driven(&two_type(), &[5]);
        let alg = driver.algorithm();
        // y = 1 makes the day lease tight first; only it is bought.
        let bought: Vec<Option<Lease>> = driver
            .ledger()
            .decisions()
            .iter()
            .map(|d| d.lease)
            .collect();
        assert_eq!(bought, vec![Some(Lease::new(0, 5))]);
        assert!((driver.cost() - 1.0).abs() < 1e-9);
        assert!((alg.dual_value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_demands_in_same_window_trigger_longer_lease() {
        // Days 0..3 all live in the aligned window [0,4) of the long lease.
        let driver = driven(&two_type(), &[0, 1, 2, 3]);
        // Day 0: y=1, buy day lease (long gets 1). Day 1: y=1, buy day lease
        // (long gets 2). Day 2: y=1 makes long tight as well -> buy day + long.
        // Day 3: covered by the long lease, no purchase.
        assert!(driver.ledger().covered(PERMIT_ELEMENT, 3));
        let bought_types: Vec<usize> = driver
            .ledger()
            .decisions()
            .iter()
            .filter_map(|d| d.lease)
            .map(|l| l.type_index)
            .collect();
        assert_eq!(bought_types, vec![0, 0, 0, 1]);
        assert!((driver.cost() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn covered_demand_is_free() {
        let mut driver = driven(&two_type(), &[0]);
        let cost = driver.cost();
        driver.submit(0, ()).unwrap();
        assert_eq!(driver.cost(), cost);
    }

    #[test]
    fn dual_value_lower_bounds_interval_optimum() {
        let s = LeaseStructure::new(vec![
            LeaseType::new(1, 1.0),
            LeaseType::new(4, 2.5),
            LeaseType::new(16, 6.0),
        ])
        .unwrap();
        let mut rng = seeded(99);
        for _ in 0..20 {
            let demands: Vec<u64> = {
                let mut d: Vec<u64> = (0..48).filter(|_| rng.random::<f64>() < 0.4).collect();
                if d.is_empty() {
                    d.push(0);
                }
                d
            };
            let driver = driven(&s, &demands);
            let alg = driver.algorithm();
            let opt = offline::optimal_cost_interval_model(&s, &demands);
            assert!(
                alg.dual_value() <= opt + 1e-6,
                "dual {} must lower-bound opt {}",
                alg.dual_value(),
                opt
            );
            // Theorem 2.7: primal <= K * dual.
            assert!(
                driver.cost() <= s.num_types() as f64 * alg.dual_value() + 1e-6,
                "primal {} vs K*dual {}",
                driver.cost(),
                s.num_types() as f64 * alg.dual_value()
            );
        }
    }

    #[test]
    fn competitive_ratio_at_most_k_on_random_instances() {
        let s = LeaseStructure::new(vec![
            LeaseType::new(1, 1.0),
            LeaseType::new(8, 4.0),
            LeaseType::new(64, 16.0),
        ])
        .unwrap();
        let k = s.num_types() as f64;
        let mut rng = seeded(7);
        for trial in 0..25 {
            let p = 0.1 + 0.8 * rng.random::<f64>();
            let demands: Vec<u64> = (0..128).filter(|_| rng.random::<f64>() < p).collect();
            if demands.is_empty() {
                continue;
            }
            let driver = driven(&s, &demands);
            let opt = offline::optimal_cost_interval_model(&s, &demands);
            assert!(
                driver.cost() <= k * opt + 1e-6,
                "trial {trial}: alg {} opt {opt}",
                driver.cost()
            );
        }
    }

    #[test]
    fn online_algorithm_trait_delegates() {
        let mut driver = Driver::new(DeterministicPrimalDual::new(two_type()), two_type());
        driver.submit_batch(vec![(0, ()), (1, ())]).unwrap();
        let cost = driver.cost();
        assert!(cost > 0.0);
    }
}
