//! Randomized OLD: the Algorithm 5 machinery applied to the single-resource
//! deadline model.
//!
//! OLD *is* SCLD over the degenerate set system with one element and one
//! set, so the §5.5 randomized algorithm (fractional growth + thresholds
//! from `2⌈log₂ l_max⌉` uniforms) runs on OLD unchanged. Theorem 5.7 with
//! `m = 1` gives an `O(log(K + d_max/l_min) · log l_max)` expected factor —
//! the deterministic Theorem 5.3 factor `Θ(K + d_max/l_min)` has its
//! *additive* `d_max/l_min` replaced by a logarithm. Experiment E26 sweeps
//! the Figure 5.3 tight example, where the deterministic algorithm provably
//! pays `Θ(d_max/l_min)`, to watch the separation.
//!
//! With `d_max = 0` the model collapses to the parking permit problem, but
//! this generic machinery does **not** recover Meyerson's `O(log K)`
//! bound there: the SCLD threshold rounding is built for `m` sets and
//! `2⌈log₂ l_max⌉` independent thresholds, and at `m = 1` it overbuys
//! where Meyerson's single-threshold coupling (§2.2.3) buys exactly one
//! permit per uncovered day — experiment E26b measures that gap. The win
//! from randomization is real on *deadline-stretched* instances (E26a),
//! not an automatic consequence of flipping coins.

use crate::old::OldInstance;
use crate::scld::{ScldArrival, ScldInstance, ScldOnline};
use leasing_core::engine::{Driver, Ledger};
use set_cover_leasing::system::SetSystem;

/// Re-expresses an OLD instance as the `m = n = 1` SCLD instance (one set
/// containing the one element; set costs are the lease-structure costs).
pub fn singleton_scld(instance: &OldInstance) -> ScldInstance {
    let system = SetSystem::new(1, vec![vec![0]]).expect("one set over one element");
    let arrivals: Vec<ScldArrival> = instance
        .clients
        .iter()
        .map(|c| ScldArrival::new(c.arrival, 0, c.slack))
        .collect();
    ScldInstance::uniform(system, instance.structure.clone(), arrivals)
        .expect("OLD clients are sorted and the element is coverable")
}

/// The outcome of one randomized-OLD run.
#[derive(Clone, Debug)]
pub struct RandomizedOldRun {
    /// Total cost paid.
    pub cost: f64,
    /// The run's ledger. Its element is the one set, which is also
    /// [`OLD_ELEMENT`](crate::old::OLD_ELEMENT), so `|t| ledger.owns(t)`
    /// answers [`is_feasible`](crate::old::is_feasible) directly.
    pub ledger: Ledger,
}

/// Runs the §5.5 randomized algorithm on an OLD instance with the given
/// seed and returns its cost and ledger.
///
/// ```
/// use leasing_core::lease::{LeaseStructure, LeaseType};
/// use leasing_deadlines::old::{is_feasible, OldClient, OldInstance};
/// use leasing_deadlines::randomized::randomized_old;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let structure = LeaseStructure::new(vec![
///     LeaseType::new(2, 1.0),
///     LeaseType::new(16, 3.0),
/// ])?;
/// let instance = OldInstance::new(structure, vec![
///     OldClient::new(0, 4),
///     OldClient::new(7, 2),
/// ])?;
/// let run = randomized_old(&instance, 42);
/// assert!(is_feasible(&instance, |t| run.ledger.owns(t)));
/// # Ok(())
/// # }
/// ```
pub fn randomized_old(instance: &OldInstance, seed: u64) -> RandomizedOldRun {
    let scld = singleton_scld(instance);
    let mut driver = Driver::new(ScldOnline::new(&scld, seed), scld.structure.clone());
    // Validated instances arrive in time order, so every arrival is served.
    let served = driver.submit_batch(scld.requests());
    debug_assert!(served.is_ok(), "sorted arrivals never travel back in time");
    let cost = driver.cost();
    let (_, ledger) = driver.into_parts();
    RandomizedOldRun { cost, ledger }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline;
    use crate::old::{is_feasible, OldClient, OldPrimalDual};
    use crate::tight::{tight_example, tight_example_optimum};
    use leasing_core::lease::{LeaseStructure, LeaseType};

    fn structure() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(16, 3.0)]).unwrap()
    }

    fn clients() -> Vec<OldClient> {
        vec![
            OldClient::new(0, 4),
            OldClient::new(3, 0),
            OldClient::new(9, 6),
            OldClient::new(30, 2),
        ]
    }

    #[test]
    fn singleton_scld_preserves_the_optimum() {
        let inst = OldInstance::new(structure(), clients()).unwrap();
        let scld = singleton_scld(&inst);
        let old_opt = offline::old_optimal_cost(&inst, 100_000).unwrap();
        let scld_opt = offline::scld_optimal_cost(&scld, 100_000).unwrap();
        assert!(
            (old_opt - scld_opt).abs() < 1e-9,
            "old {old_opt} vs scld {scld_opt}"
        );
    }

    #[test]
    fn randomized_old_is_feasible_for_many_seeds() {
        let inst = OldInstance::new(structure(), clients()).unwrap();
        let opt = offline::old_optimal_cost(&inst, 100_000).unwrap();
        for seed in 0..30u64 {
            let run = randomized_old(&inst, seed);
            assert!(is_feasible(&inst, |t| run.ledger.owns(t)), "seed {seed}");
            assert!(run.cost >= opt - 1e-9, "seed {seed}: cost below opt");
            let paid: f64 = run
                .ledger
                .decisions()
                .iter()
                .filter_map(|d| d.lease)
                .map(|l| l.cost(&inst.structure))
                .sum();
            assert!((paid - run.cost).abs() < 1e-9, "cost accounting");
        }
    }

    #[test]
    fn randomized_beats_deterministic_on_the_tight_example() {
        // Figure 5.3 forces the deterministic algorithm to ≈ d_max/l_min;
        // the randomized algorithm's expected factor is logarithmic there.
        let inst = tight_example(64, 2, 0.01);
        let mut det = Driver::new(OldPrimalDual::new(&inst), inst.structure.clone());
        det.submit_batch(inst.requests()).unwrap();
        let det = det.cost();
        let mean_rand = (0..20u64)
            .map(|s| randomized_old(&inst, s).cost)
            .sum::<f64>()
            / 20.0;
        let opt = tight_example_optimum(0.01);
        assert!(
            mean_rand / opt < det / opt,
            "randomized mean {mean_rand} should beat deterministic {det} (opt {opt})"
        );
    }

    #[test]
    fn empty_instance_costs_nothing() {
        let inst = OldInstance::new(structure(), vec![]).unwrap();
        let run = randomized_old(&inst, 1);
        assert_eq!(run.cost, 0.0);
        assert_eq!(run.ledger.leases_bought(), 0);
    }
}
