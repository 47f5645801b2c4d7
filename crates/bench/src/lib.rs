//! Experiment harness shared by the `repro_*` binaries and the Criterion
//! benchmarks. See each binary under `src/bin/` for the per-experiment
//! tables (E1-E15; each binary's module doc names its experiments).

pub mod gate;
pub mod table;

use leasing_core::engine::{Driver, LeasingAlgorithm};
use leasing_core::lease::LeaseStructure;
use leasing_core::time::TimeStep;

/// Serves `requests` through a fresh [`Driver`] over `structure` and returns
/// the driver, for its cost, ledger and algorithm.
///
/// # Panics
///
/// Panics if the requests are not in time order; every experiment instance
/// is validated sorted.
pub fn drive<A: LeasingAlgorithm>(
    algorithm: A,
    structure: &LeaseStructure,
    requests: impl IntoIterator<Item = (TimeStep, A::Request)>,
) -> Driver<A> {
    let mut driver = Driver::new(algorithm, structure.clone());
    let served = driver.submit_batch(requests);
    // lint:allow(panic: documented `# Panics` contract of the experiment harness — every repro instance is validated sorted)
    served.expect("instances arrive in time order");
    driver
}
