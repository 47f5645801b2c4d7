//! The randomized parking-permit algorithm (thesis Algorithm 2, §2.2.3).
//!
//! The algorithm maintains a *fractional* solution (one fraction per aligned
//! lease) that it grows multiplicatively whenever an arriving demand is
//! fractionally uncovered, and converts it online into an integral solution
//! with a single random threshold `τ ~ U[0,1]`: at each demand it buys the
//! candidate type at which the suffix sums of the fractions cross `τ`.
//! Expected competitive ratio: `O(log K)` — optimal by Theorem 2.9.
//!
//! Both phases are the shared covering core's: [`grow`] and
//! [`suffix_crossing`] from `online-covering`.

use crate::PERMIT_ELEMENT;
use leasing_core::engine::{Books, LeasingAlgorithm, CATEGORY_LEASE};
use leasing_core::framework::Triple;
use leasing_core::interval::aligned_start;
use leasing_core::lease::{Lease, LeaseStructure};
use leasing_core::time::TimeStep;
use online_covering::{grow, suffix_crossing, DualCertificate};
use rand::{Rng, RngExt};

/// Randomized fractional + threshold-rounding parking-permit algorithm.
///
/// Coverage and ownership are queried from the ledger's coverage index
/// ([`Ledger::covered`]/[`Ledger::owns`]) — the algorithm keeps no private
/// active-lease table.
///
/// [`Ledger::covered`]: leasing_core::engine::Ledger::covered
/// [`Ledger::owns`]: leasing_core::engine::Ledger::owns
#[derive(Clone, Debug)]
pub struct RandomizedPermit {
    structure: LeaseStructure,
    /// K live slots, one per lease type — the det-permit K-accumulator
    /// trick: slot `k` holds the type-`k` candidate lease currently being
    /// grown, starting at `starts[k]`, with fraction `fractions[k]` and
    /// dual load `loads[k]`. Under the monotone arrival order only the
    /// candidate covering the present demand is ever read, so when type
    /// `k`'s window slides the slot resets to a fresh zero fraction — K
    /// slots total instead of one entry per aligned lease ever touched.
    starts: Vec<TimeStep>,
    fractions: Vec<f64>,
    loads: Vec<f64>,
    /// `costs[k] = c_k`, the slice [`grow`] prices the slots with.
    costs: Vec<f64>,
    /// The single uniform threshold `τ` drawn up front.
    tau: f64,
    /// Total fractional cost `Σ c_k · f_k` accumulated (for the Lemma-style
    /// instrumentation: fractional cost ≤ O(log K)·Opt).
    fractional_cost: f64,
    /// Dual objective `Σ y` (one unit per increment loop).
    dual_sum: f64,
    /// Running `max L / c` over every slot window so far.
    max_load_ratio: f64,
}

impl RandomizedPermit {
    /// Creates the algorithm, drawing its threshold from `rng`.
    pub fn new<R: Rng + ?Sized>(structure: LeaseStructure, rng: &mut R) -> Self {
        let tau = rng.random::<f64>();
        RandomizedPermit::with_threshold(structure, tau)
    }

    /// Creates the algorithm with an explicit threshold (used by tests to
    /// make the rounding deterministic).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < tau <= 1.0`.
    pub fn with_threshold(structure: LeaseStructure, tau: f64) -> Self {
        assert!(tau > 0.0 && tau <= 1.0, "threshold must lie in (0, 1]");
        let k = structure.num_types();
        RandomizedPermit {
            starts: vec![TimeStep::MAX; k],
            fractions: vec![0.0; k],
            loads: vec![0.0; k],
            costs: structure.types().iter().map(|t| t.cost).collect(),
            structure,
            tau,
            fractional_cost: 0.0,
            dual_sum: 0.0,
            max_load_ratio: 0.0,
        }
    }

    /// Core fractional-growth + threshold-rounding step for a demand on
    /// `element` at `t`, buying the rounded candidate into the books at
    /// this permit's own prices (see
    /// [`DeterministicPrimalDual::serve_element`](crate::det::DeterministicPrimalDual::serve_element)).
    pub fn serve_element(&mut self, t: TimeStep, element: usize, books: &mut Books<'_>) {
        // Slide every slot whose window moved: a fresh window starts from
        // fraction and load zero.
        for (k, ((start, f), load)) in self
            .starts
            .iter_mut()
            .zip(&mut self.fractions)
            .zip(&mut self.loads)
            .enumerate()
        {
            let aligned = aligned_start(t, self.structure.length(k));
            if *start != aligned {
                *start = aligned;
                *f = 0.0;
                *load = 0.0;
            }
        }

        // (i) Fractional phase: grow fractions until they sum to >= 1.
        let loops = grow(&mut self.fractions, &self.costs, &mut self.fractional_cost);
        if loops > 0 {
            self.dual_sum += loops as f64;
            for (load, &c) in self.loads.iter_mut().zip(&self.costs) {
                *load += loops as f64;
                self.max_load_ratio = self.max_load_ratio.max(*load / c);
            }
        }

        // (ii) Integral phase: buy the candidate type at which the suffix
        // sums of the fractions cross τ (types scanned from longest to
        // shortest, as in the paper's Σ_{i=k..K}). Σ f >= 1 >= τ
        // guarantees a crossing; fall back to the shortest type against
        // numerical loss.
        let k = suffix_crossing(&self.fractions, self.tau).unwrap_or(0);
        let lease = Lease::new(k, self.starts.get(k).copied().unwrap_or(t));
        let triple = Triple::new(element, lease.type_index, lease.start);
        if !books.owns(triple) {
            books.buy_priced(t, triple, lease.cost(&self.structure), CATEGORY_LEASE);
        }
        debug_assert!(books.covered(element, t));
    }

    /// The permit structure this algorithm leases from.
    pub fn structure(&self) -> &LeaseStructure {
        &self.structure
    }

    /// Accumulated fractional cost `Σ c · f` (grows by at most 2 per
    /// while-loop iteration; see the proof of claim (i) in §2.2.3).
    pub fn fractional_cost(&self) -> f64 {
        self.fractional_cost
    }

    /// The online weak-duality certificate: a lower bound on the offline
    /// optimum of the demands served so far.
    pub fn certificate(&self) -> DualCertificate {
        DualCertificate::new(self.dual_sum, self.max_load_ratio)
    }
}

impl LeasingAlgorithm for RandomizedPermit {
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
    use leasing_core::lease::LeaseType;
    use leasing_core::rng::seeded;

    fn structure() -> LeaseStructure {
        LeaseStructure::new(vec![
            LeaseType::new(1, 1.0),
            LeaseType::new(4, 3.0),
            LeaseType::new(16, 8.0),
        ])
        .unwrap()
    }

    fn driver(alg: RandomizedPermit) -> Driver<RandomizedPermit> {
        Driver::new(alg, structure())
    }

    #[test]
    fn every_demand_ends_up_covered() {
        let mut rng = seeded(1);
        let mut alg = driver(RandomizedPermit::new(structure(), &mut rng));
        for t in [0u64, 1, 5, 6, 7, 20, 40, 41] {
            alg.submit(t, ()).unwrap();
            assert!(alg.ledger().covered(PERMIT_ELEMENT, t));
        }
        assert!(alg.cost() > 0.0);
    }

    #[test]
    fn threshold_one_buys_longest_viable_type() {
        // τ = 1 requires the full suffix sum, so the crossing happens at the
        // shortest type only after all fractions are accumulated; with a
        // fresh instance the crossing index is the first type whose suffix
        // reaches 1, i.e. scanning from the longest type downward.
        let mut alg = driver(RandomizedPermit::with_threshold(structure(), 1.0));
        alg.submit(0, ()).unwrap();
        assert_eq!(alg.ledger().leases_bought(), 1);
        assert!(alg.ledger().covered(PERMIT_ELEMENT, 0));
    }

    #[test]
    fn tiny_threshold_prefers_long_leases() {
        // τ -> 0 crosses at the longest type with non-zero fraction.
        let mut alg = driver(RandomizedPermit::with_threshold(
            structure(),
            1e-12_f64.max(0.001),
        ));
        alg.submit(0, ()).unwrap();
        assert_eq!(
            alg.ledger().decisions()[0].lease.map(|l| l.type_index),
            Some(2)
        );
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn zero_threshold_is_rejected() {
        let _ = RandomizedPermit::with_threshold(structure(), 0.0);
    }

    #[test]
    fn fractional_cost_grows_by_at_most_two_per_loop() {
        let mut alg = driver(RandomizedPermit::with_threshold(structure(), 0.5));
        alg.submit(0, ()).unwrap();
        let after_first = alg.algorithm().fractional_cost();
        // Each while-loop iteration adds Σ f + 1 < 2 to the fractional cost.
        // The number of iterations for a fresh day is bounded; just sanity
        // check the invariant indirectly: fractional cost is positive, finite.
        assert!(after_first > 0.0 && after_first.is_finite());
        // Serving the same day again adds nothing (sum already >= 1).
        alg.submit(0, ()).unwrap();
        assert!((alg.algorithm().fractional_cost() - after_first).abs() < 1e-12);
    }

    #[test]
    fn expected_cost_is_reasonable_against_optimum() {
        // Average over seeds; the expected ratio should be well below the
        // deterministic worst case K on a bursty instance.
        let s = structure();
        let demands: Vec<u64> = (0..16).chain(48..52).collect();
        let opt = offline::optimal_cost_interval_model(&s, &demands);
        assert!(opt > 0.0);
        let trials = 200;
        let mut total = 0.0;
        for seed in 0..trials {
            let mut rng = seeded(seed);
            let mut alg = driver(RandomizedPermit::new(s.clone(), &mut rng));
            alg.submit_batch(demands.iter().map(|&t| (t, ()))).unwrap();
            total += alg.cost();
        }
        let mean = total / trials as f64;
        let ratio = mean / opt;
        // O(log K) with K = 3: expect single digits; assert a generous cap
        // that a broken implementation (e.g. re-buying per demand) would blow.
        assert!(ratio < 6.0, "mean ratio {ratio}");
    }

    #[test]
    fn certificate_lower_bounds_exact_optimum() {
        // The DP optimum is available for the parking permit problem — the
        // certificate must stay below it.
        let s = structure();
        let demands: Vec<u64> = (0..16).chain(40..44).collect();
        let opt = offline::optimal_cost_interval_model(&s, &demands);
        let mut alg = driver(RandomizedPermit::with_threshold(s, 0.5));
        alg.submit_batch(demands.iter().map(|&t| (t, ()))).unwrap();
        let cert = alg.algorithm().certificate();
        assert!(
            cert.lower_bound <= opt + 1e-9,
            "certificate {} exceeds DP optimum {opt}",
            cert.lower_bound
        );
        assert!(cert.lower_bound > 0.0);
    }

    #[test]
    fn reproducible_under_fixed_seed() {
        let s = structure();
        let run = |seed: u64| {
            let mut rng = seeded(seed);
            let mut alg = driver(RandomizedPermit::new(s.clone(), &mut rng));
            alg.submit_batch([0u64, 3, 9, 27].map(|t| (t, ()))).unwrap();
            (alg.cost(), alg.ledger().decisions().to_vec())
        };
        assert_eq!(run(42), run(42));
    }
}
