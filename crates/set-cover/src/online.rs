//! The randomized online algorithm for set multicover leasing
//! (thesis Algorithms 3 and 4).
//!
//! For every arriving demand `(j, t)` with multiplicity `p`, the algorithm
//! runs `p` rounds of *i-Cover* (the layering of Figure 3.3): each round
//! grows the fractions of the still-usable candidate triples `(S, k, t')`
//! multiplicatively until they sum to one, rounds them against per-triple
//! random thresholds `µ = min` of `2⌈log(n+1)⌉` uniforms, and falls back to
//! buying the cheapest candidate if rounding left the layer uncovered —
//! one [`CoveringEngine::serve`] per round.
//!
//! Expected competitive ratio: `O(log(δK) · log n)` (Theorem 3.3).

use crate::instance::SmclInstance;
use leasing_core::engine::{Books, LeasingAlgorithm};
use leasing_core::framework::Triple;
use leasing_core::interval::aligned_start;
use leasing_core::rng::threshold_count;
use leasing_core::time::TimeStep;
use online_covering::{CoveringEngine, CoveringStats, DualCertificate};
use std::collections::HashSet;

/// The randomized online set-multicover-leasing algorithm.
///
/// Create with [`SmclOnline::new`] (thresholds `q = 2⌈log₂(n+1)⌉` as in
/// Theorem 3.3) or [`SmclOnline::with_threshold_count`] (used by the
/// Corollary 3.5 wrapper and the ablation experiments).
#[derive(Debug)]
pub struct SmclOnline<'a> {
    instance: &'a SmclInstance,
    engine: CoveringEngine,
}

impl<'a> SmclOnline<'a> {
    /// Creates the algorithm with the paper's threshold count
    /// `q = 2⌈log₂(n+1)⌉` and the given RNG seed.
    pub fn new(instance: &'a SmclInstance, seed: u64) -> Self {
        let q = threshold_count(instance.system.num_elements() as u64);
        SmclOnline::with_threshold_count(instance, seed, q)
    }

    /// Creates the algorithm with an explicit threshold count `q` (the
    /// number of independent uniforms whose minimum forms each `µ`).
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`.
    pub fn with_threshold_count(instance: &'a SmclInstance, seed: u64, q: u32) -> Self {
        SmclOnline {
            instance,
            engine: CoveringEngine::new(q, seed),
        }
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> CoveringStats {
        self.engine.stats()
    }

    /// The online weak-duality certificate: a lower bound on the offline
    /// optimum of the layers served so far.
    pub fn certificate(&self) -> DualCertificate {
        self.engine.certificate()
    }

    /// One round of *i-Cover* (Algorithm 3): covers `(element, t)` by one
    /// set not in `excluded`, recording purchases into `books`, and returns
    /// the chosen set id.
    ///
    /// # Panics
    ///
    /// Panics if every set containing the element is excluded.
    pub fn cover_once(
        &mut self,
        t: TimeStep,
        element: usize,
        excluded: &HashSet<usize>,
        books: &mut Books<'_>,
    ) -> usize {
        let candidates = self.candidates(t, element, excluded);
        assert!(
            !candidates.is_empty(),
            "no usable set contains element {element} (all excluded)"
        );
        self.engine.serve(t, &candidates, books).element
    }

    /// The priced candidate triples of `(element, t)`: for every containing
    /// set not excluded, the `K` aligned leases covering `t`.
    /// (`Triple.element` stores the *set* id — sets are the infrastructure
    /// being leased.)
    fn candidates(
        &self,
        t: TimeStep,
        element: usize,
        excluded: &HashSet<usize>,
    ) -> Vec<(Triple, f64)> {
        let mut out = Vec::new();
        for &s in self.instance.system.sets_containing(element) {
            if excluded.contains(&s) {
                continue;
            }
            for k in 0..self.instance.structure.num_types() {
                let start = aligned_start(t, self.instance.structure.length(k));
                out.push((Triple::new(s, k, start), self.instance.cost(s, k)));
            }
        }
        out
    }
}

impl<'a> LeasingAlgorithm for SmclOnline<'a> {
    /// `(element, multiplicity)` revealed at a time step.
    type Request = (usize, usize);

    fn on_request(&mut self, time: TimeStep, request: (usize, usize), mut books: Books<'_>) {
        let (element, multiplicity) = request;
        let mut used_sets: HashSet<usize> = HashSet::new();
        for _layer in 0..multiplicity {
            let covering = self.cover_once(time, element, &used_sets, &mut books);
            used_sets.insert(covering);
        }
    }
}

/// Verifies that the triples `owns` accepts cover every arrival of
/// `instance` with the demanded number of distinct sets — the feasibility
/// invariant of the problem definition (§3.2). Pass `|t| ledger.owns(t)`
/// to check an online run.
pub fn is_feasible_cover(instance: &SmclInstance, owns: impl Fn(Triple) -> bool) -> bool {
    instance.arrivals.iter().all(|a| {
        let mut covering_sets = HashSet::new();
        for &s in instance.system.sets_containing(a.element) {
            for k in 0..instance.structure.num_types() {
                let start = aligned_start(a.time, instance.structure.length(k));
                if owns(Triple::new(s, k, start)) {
                    covering_sets.insert(s);
                }
            }
        }
        covering_sets.len() >= a.multiplicity
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Arrival;
    use crate::system::SetSystem;
    use leasing_core::engine::{Driver, Ledger};
    use leasing_core::lease::{LeaseStructure, LeaseType};

    /// Serves every arrival of `inst` and returns the algorithm with its
    /// ledger.
    fn run<'a>(inst: &'a SmclInstance, seed: u64) -> (SmclOnline<'a>, Ledger) {
        let mut driver = Driver::new(SmclOnline::new(inst, seed), inst.structure.clone());
        driver.submit_batch(inst.requests()).unwrap();
        driver.into_parts()
    }

    fn lengths() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(4, 1.0), LeaseType::new(16, 3.0)]).unwrap()
    }

    fn triangle_system() -> SetSystem {
        SetSystem::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]).unwrap()
    }

    #[test]
    fn covers_every_arrival_with_required_multiplicity() {
        let arrivals = vec![
            Arrival::new(0, 0, 1),
            Arrival::new(1, 1, 2),
            Arrival::new(6, 2, 2),
            Arrival::new(20, 0, 2),
        ];
        let inst = SmclInstance::uniform(triangle_system(), lengths(), arrivals).unwrap();
        for seed in 0..10 {
            let (_, ledger) = run(&inst, seed);
            let cost = ledger.total_cost();
            assert!(cost > 0.0);
            assert!(
                is_feasible_cover(&inst, |t| ledger.owns(t)),
                "seed {seed} infeasible"
            );
        }
    }

    #[test]
    fn multiplicity_uses_distinct_sets() {
        let system = SetSystem::new(1, vec![vec![0], vec![0], vec![0]]).unwrap();
        let inst = SmclInstance::uniform(system, lengths(), vec![Arrival::new(0, 0, 3)]).unwrap();
        let (_, ledger) = run(&inst, 3);
        assert!(
            (0..3).all(|s| ledger.covered(s, 0)),
            "three distinct sets must hold leases"
        );
    }

    #[test]
    fn served_element_later_in_same_window_is_cheap() {
        // Second arrival of the same element inside the same lease windows
        // must not force new purchases when fractions already sum to >= 1
        // and an owned candidate still covers it.
        let inst = SmclInstance::uniform(
            triangle_system(),
            lengths(),
            vec![Arrival::new(0, 0, 1), Arrival::new(1, 0, 1)],
        )
        .unwrap();
        let (_, ledger) = run(&inst, 1);
        // At most one extra purchase can happen (rounding may buy the other
        // candidate); cost is bounded by two cheap leases + one long.
        assert!(ledger.total_cost() <= 2.0 * 3.0 + 2.0);
    }

    #[test]
    fn cover_once_panics_when_everything_excluded() {
        let system = SetSystem::new(1, vec![vec![0]]).unwrap();
        let inst = SmclInstance::uniform(system, lengths(), vec![]).unwrap();
        let mut alg = SmclOnline::new(&inst, 1);
        let mut ledger = Ledger::new(inst.structure.clone());
        let mut excluded = HashSet::new();
        excluded.insert(0usize);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            alg.cover_once(0, 0, &excluded, &mut Books::new(&mut ledger))
        }));
        assert!(result.is_err());
    }

    #[test]
    fn stats_track_a_finite_fractional_cost() {
        let inst = SmclInstance::uniform(
            triangle_system(),
            lengths(),
            vec![Arrival::new(0, 0, 2), Arrival::new(3, 1, 2)],
        )
        .unwrap();
        let (alg, _) = run(&inst, 5);
        let stats = alg.stats();
        assert!(stats.fractional_cost > 0.0 && stats.fractional_cost.is_finite());
        assert!(stats.increments > 0);
        // Each increment adds at most 2 to the fractional cost (Lemma 3.1
        // proof, fact 1).
        assert!(
            stats.fractional_cost <= 2.0 * stats.increments as f64 + 1e-9,
            "fractional {} vs 2*increments {}",
            stats.fractional_cost,
            2.0 * stats.increments as f64
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let inst = SmclInstance::uniform(
            triangle_system(),
            lengths(),
            vec![Arrival::new(0, 0, 2), Arrival::new(9, 2, 1)],
        )
        .unwrap();
        let cost = |seed| run(&inst, seed).1.total_cost();
        assert_eq!(cost(11).to_bits(), cost(11).to_bits());
    }

    #[test]
    fn solutions_are_feasible_multicovers() {
        let arrivals = vec![Arrival::new(0, 0, 2), Arrival::new(9, 2, 2)];
        let inst = SmclInstance::uniform(triangle_system(), lengths(), arrivals).unwrap();
        for seed in 0..8 {
            let (_, ledger) = run(&inst, seed);
            assert!(is_feasible_cover(&inst, |t| ledger.owns(t)), "seed {seed}");
        }
    }

    #[test]
    fn ledger_coverage_reflects_ownership_windows() {
        let inst = SmclInstance::uniform(triangle_system(), lengths(), vec![Arrival::new(0, 0, 1)])
            .unwrap();
        let (_, ledger) = run(&inst, 2);
        // Some set covering element 0 is active at time 0, and nothing
        // reaches past the longest window.
        assert!(ledger.covered(0, 0) || ledger.covered(2, 0));
        assert!(!(0..3).any(|s| ledger.covered(s, 16)));
    }
}
