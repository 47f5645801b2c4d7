//! **OnlineSetCoverWithRepetitions** (Corollary 3.5).
//!
//! Elements may arrive multiple times and each arrival must be covered by a
//! *different* set than all previous arrivals of the same element. The
//! thesis obtains an `O(log δ · log(δn))`-competitive algorithm — improving
//! the `O(log²(mn))` bound of Alon et al. — by running the Chapter 3
//! machinery with `K = 1`, `l_1 = ∞` and thresholds formed from
//! `2⌈log₂(δn+1)⌉` uniforms instead of `2⌈log₂(n+1)⌉`.

use crate::instance::{Arrival, InstanceError, SmclInstance};
use crate::online::SmclOnline;
use crate::system::SetSystem;
use leasing_core::engine::{Books, LeasingAlgorithm};
use leasing_core::lease::{LeaseStructure, LeaseType};
use leasing_core::rng::threshold_count;
use leasing_core::time::TimeStep;
use online_covering::CoveringStats;
use std::collections::{HashMap, HashSet};

/// A lease length long enough to act as "buy forever" without overflowing
/// window arithmetic.
pub const FOREVER: u64 = 1 << 60;

/// Builds the `K = 1, l_1 = ∞` lease structure that turns leasing into
/// buying (used by Corollaries 3.4 and 3.5).
pub fn buy_forever_structure(cost: f64) -> LeaseStructure {
    LeaseStructure::new(vec![LeaseType::new(FOREVER, cost)])
        .expect("single positive lease type is valid")
}

/// The repetition-aware online set cover algorithm of Corollary 3.5.
pub struct RepetitionsOnline<'a> {
    inner: SmclOnline<'a>,
    /// Sets already used for each element across *all* its past arrivals.
    used: HashMap<usize, HashSet<usize>>,
}

impl<'a> RepetitionsOnline<'a> {
    /// Creates the algorithm over a `K = 1` instance (as built by
    /// [`repetition_instance`]), drawing thresholds from `2⌈log₂(δn+1)⌉`
    /// uniforms.
    ///
    /// # Panics
    ///
    /// Panics if the instance has more than one lease type (repetitions are
    /// defined for the buy-forever setting).
    pub fn new(instance: &'a SmclInstance, seed: u64) -> Self {
        let delta = instance.system.delta() as u64;
        let n = instance.system.num_elements() as u64;
        RepetitionsOnline::with_threshold_count(
            instance,
            seed,
            threshold_count(delta.saturating_mul(n)),
        )
    }

    /// Creates the algorithm with an explicit threshold count `q` (the
    /// ablation against Chapter 3's plain `2⌈log₂(n+1)⌉` uniforms).
    ///
    /// # Panics
    ///
    /// Panics if the instance has more than one lease type or `q == 0`.
    pub fn with_threshold_count(instance: &'a SmclInstance, seed: u64, q: u32) -> Self {
        assert_eq!(
            instance.structure.num_types(),
            1,
            "OnlineSetCoverWithRepetitions is a K = 1 problem"
        );
        RepetitionsOnline {
            inner: SmclOnline::with_threshold_count(instance, seed, q),
            used: HashMap::new(),
        }
    }

    /// Instrumentation counters of the underlying *i-Cover* rounds.
    pub fn stats(&self) -> CoveringStats {
        self.inner.stats()
    }

    /// The distinct sets used for `element` so far.
    pub fn sets_used_for(&self, element: usize) -> usize {
        self.used.get(&element).map(HashSet::len).unwrap_or(0)
    }
}

impl<'a> LeasingAlgorithm for RepetitionsOnline<'a> {
    /// The arriving element id.
    type Request = usize;

    fn on_request(&mut self, time: TimeStep, element: usize, mut books: Books<'_>) {
        let excluded = self.used.entry(element).or_default().clone();
        let chosen = self.inner.cover_once(time, element, &excluded, &mut books);
        self.used.entry(element).or_default().insert(chosen);
    }
}

/// Builds a `K = 1, l = ∞` instance for the repetitions problem from a set
/// system, per-set costs and a timed arrival sequence (an element may appear
/// any number of times).
///
/// # Errors
///
/// Propagates [`InstanceError`] (e.g. an element arriving more often than it
/// has sets is rejected as an infeasible multiplicity once aggregated).
pub fn repetition_instance(
    system: SetSystem,
    set_costs: &[f64],
    arrivals: Vec<(TimeStep, usize)>,
) -> Result<SmclInstance, InstanceError> {
    // Validate repetition feasibility: element e may arrive at most
    // |sets containing e| times in total.
    let mut counts: HashMap<usize, usize> = HashMap::new();
    for &(_, e) in &arrivals {
        *counts.entry(e).or_insert(0) += 1;
    }
    for (&e, &c) in &counts {
        if !system.supports_multiplicity(e, c) {
            return Err(InstanceError::InfeasibleMultiplicity(Arrival::new(0, e, c)));
        }
    }
    let structure = buy_forever_structure(1.0);
    let smcl_arrivals: Vec<Arrival> = arrivals
        .into_iter()
        .map(|(t, e)| Arrival::new(t, e, 1))
        .collect();
    SmclInstance::with_set_factors(system, structure, set_costs, smcl_arrivals)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> SetSystem {
        SetSystem::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2], vec![0, 1, 2]]).unwrap()
    }

    #[test]
    fn each_arrival_uses_a_fresh_set() {
        let inst = repetition_instance(
            system(),
            &[1.0, 1.0, 1.0, 5.0],
            vec![(0, 0), (1, 0), (2, 0)],
        )
        .unwrap();
        let mut alg = leasing_core::engine::Driver::new(
            RepetitionsOnline::new(&inst, 7),
            inst.structure.clone(),
        );
        alg.submit_batch(inst.requests().map(|(t, (e, _))| (t, e)))
            .unwrap();
        assert_eq!(alg.algorithm().sets_used_for(0), 3);
        assert!(alg.cost() >= 3.0 - 1e-9, "three distinct sets cost >= 3");
    }

    #[test]
    fn infeasible_repetition_count_is_rejected() {
        // Element 0 is in 3 sets but arrives 4 times.
        let err = repetition_instance(
            SetSystem::new(1, vec![vec![0], vec![0], vec![0]]).unwrap(),
            &[1.0; 3],
            vec![(0, 0), (1, 0), (2, 0), (3, 0)],
        );
        assert!(matches!(err, Err(InstanceError::InfeasibleMultiplicity(_))));
    }

    #[test]
    fn driven_arrivals_track_usage_incrementally() {
        let inst = repetition_instance(system(), &[1.0; 4], vec![]).unwrap();
        let mut driver = leasing_core::engine::Driver::with_ledger(
            RepetitionsOnline::new(&inst, 3),
            leasing_core::engine::Ledger::new(inst.structure.clone()),
        );
        driver.submit(0, 1).unwrap();
        assert_eq!(driver.algorithm().sets_used_for(1), 1);
        driver.submit(5, 1).unwrap();
        assert_eq!(driver.algorithm().sets_used_for(1), 2);
        assert_eq!(driver.algorithm().sets_used_for(0), 0);
    }

    #[test]
    #[should_panic(expected = "K = 1")]
    fn multi_type_instances_are_rejected() {
        let structure =
            LeaseStructure::new(vec![LeaseType::new(4, 1.0), LeaseType::new(16, 2.0)]).unwrap();
        let inst = SmclInstance::uniform(system(), structure, vec![]).unwrap();
        let _ = RepetitionsOnline::new(&inst, 0);
    }
}
