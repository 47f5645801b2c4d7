//! Meyerson's **Parking Permit Problem** (thesis §2.2) — the first and
//! simplest online leasing model, on which every later chapter builds.
//!
//! On each *rainy* day a demand arrives and must be covered by a valid
//! permit; permits come in `K` types of increasing duration and price. The
//! goal is to cover all demands at minimum total price without knowing the
//! future.
//!
//! This crate provides:
//!
//! * [`det`] — the deterministic primal-dual algorithm (Algorithm 1),
//!   `O(K)`-competitive (Theorem 2.7) and optimal among deterministic
//!   algorithms (Theorem 2.8),
//! * [`rand_alg`] — the randomized fractional + threshold-rounding algorithm
//!   (Algorithm 2), `O(log K)`-competitive (§2.2.3) and optimal among
//!   randomized algorithms (Theorem 2.9),
//! * [`offline`] — exact offline optima: a segment DP for the general model
//!   and a hierarchical DP for the aligned interval model,
//! * [`adversary`] — the adaptive adversary of the Theorem 2.8 lower bound
//!   and the recursive randomized instance of the Theorem 2.9 lower bound,
//! * [`ilp`] — the literal ILP encoding of Figure 2.2, solved with
//!   [`leasing_lp`] for cross-checking the DPs.
//!
//! # Example
//!
//! ```
//! use leasing_core::lease::{LeaseStructure, LeaseType};
//! use parking_permit::{det::DeterministicPrimalDual, offline, PermitOnline};
//!
//! # fn main() -> Result<(), leasing_core::lease::LeaseStructureError> {
//! let permits = LeaseStructure::new(vec![
//!     LeaseType::new(1, 1.0),
//!     LeaseType::new(4, 3.0),
//! ])?;
//! let mut alg = DeterministicPrimalDual::new(permits.clone());
//! for day in [0u64, 1, 2, 3] {
//!     alg.serve_demand(day);
//! }
//! // Four consecutive rainy days: the optimum is a single 4-day permit.
//! let opt = offline::optimal_cost_interval_model(&permits, &[0, 1, 2, 3]);
//! assert!((opt - 3.0).abs() < 1e-9);
//! assert!(alg.total_cost() <= 2.0 * opt * 2.0); // well within the O(K) bound
//! # Ok(())
//! # }
//! ```

pub mod adversary;
pub mod det;
pub mod ilp;
pub mod offline;
pub mod rand_alg;

use leasing_core::time::TimeStep;

/// The single infrastructure element of the parking permit problem (there
/// is one parking lot); its id in [`Triple`](leasing_core::framework::Triple)
/// decisions recorded by the permit algorithms.
pub const PERMIT_ELEMENT: usize = 0;

/// Access to the ordered purchase log of a permit algorithm — the hook
/// composite algorithms (e.g. Steiner leasing's per-edge permits) use to
/// mirror subroutine purchases into their own
/// [`Ledger`](leasing_core::engine::Ledger).
pub trait PurchaseLog {
    /// Leases bought so far, in purchase order.
    fn purchases(&self) -> &[leasing_core::lease::Lease];
}

/// Common interface of the online parking-permit algorithms, rich enough for
/// the adaptive adversary of Theorem 2.8 (which must observe coverage).
///
/// This is the legacy entry point kept for the adversary and the
/// prediction-policy combiners; new drivers should use
/// [`LeasingAlgorithm`](leasing_core::engine::LeasingAlgorithm) through a
/// [`Driver`](leasing_core::engine::Driver) instead.
pub trait PermitOnline {
    /// Serves a demand (a rainy day) at time `t`. Days must be served in
    /// non-decreasing order.
    fn serve_demand(&mut self, t: TimeStep);

    /// Whether the permits bought so far cover day `t`.
    fn is_covered(&self, t: TimeStep) -> bool;

    /// Total price paid so far.
    fn total_cost(&self) -> f64;
}

/// A complete problem instance: the permit structure plus the sorted list of
/// rainy days.
#[derive(Clone, Debug, PartialEq)]
pub struct PermitInstance {
    /// The `K` available permit types.
    pub structure: leasing_core::lease::LeaseStructure,
    /// Rainy days in increasing order (duplicates are allowed and ignored).
    pub demands: Vec<TimeStep>,
}

impl PermitInstance {
    /// Bundles a structure and demand days, sorting and deduplicating the
    /// days.
    pub fn new(structure: leasing_core::lease::LeaseStructure, mut demands: Vec<TimeStep>) -> Self {
        demands.sort_unstable();
        demands.dedup();
        PermitInstance { structure, demands }
    }

    /// Runs any [`PermitOnline`] algorithm over the instance and returns its
    /// final cost.
    pub fn run<A: PermitOnline>(&self, alg: &mut A) -> f64 {
        for &d in &self.demands {
            alg.serve_demand(d);
        }
        alg.total_cost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leasing_core::lease::{LeaseStructure, LeaseType};

    #[test]
    fn instance_sorts_and_dedups_demands() {
        let s = LeaseStructure::new(vec![LeaseType::new(1, 1.0)]).unwrap();
        let inst = PermitInstance::new(s, vec![5, 1, 5, 3]);
        assert_eq!(inst.demands, vec![1, 3, 5]);
    }
}
