//! Complete set-multicover-leasing problem instances.

use crate::system::SetSystem;
use leasing_core::lease::LeaseStructure;
use leasing_core::time::TimeStep;
use serde::{Deserialize, Serialize};

/// One demand: element `element` arrives at `time` and must be covered by
/// `multiplicity` different sets holding active leases at `time`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Arrival {
    /// Arrival time step `t`.
    pub time: TimeStep,
    /// Arriving element `j`.
    pub element: usize,
    /// Multicover requirement `p_{jt}` (`1` recovers plain set cover
    /// leasing).
    pub multiplicity: usize,
}

impl Arrival {
    /// Creates the demand `(time, element, multiplicity)`.
    pub fn new(time: TimeStep, element: usize, multiplicity: usize) -> Self {
        Arrival {
            time,
            element,
            multiplicity,
        }
    }
}

/// Why an [`SmclInstance`] failed validation.
#[derive(Clone, Debug, PartialEq)]
pub enum InstanceError {
    /// An arrival references an element outside the universe.
    UnknownElement(Arrival),
    /// An arrival demands more distinct sets than contain its element.
    InfeasibleMultiplicity(Arrival),
    /// Arrivals must be sorted by non-decreasing time.
    UnsortedArrivals(usize),
    /// The cost matrix shape must be `num_sets x num_types` with positive
    /// finite entries; the pair is `(set, lease type)`.
    BadCost(usize, usize),
}

impl std::fmt::Display for InstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceError::UnknownElement(a) => {
                write!(f, "arrival {a:?} references an unknown element")
            }
            InstanceError::InfeasibleMultiplicity(a) => write!(
                f,
                "arrival {a:?} demands more sets than contain the element"
            ),
            InstanceError::UnsortedArrivals(i) => {
                write!(f, "arrival {i} breaks the non-decreasing time order")
            }
            InstanceError::BadCost(s, k) => {
                write!(
                    f,
                    "cost of set {s} with lease type {k} is missing or invalid"
                )
            }
        }
    }
}

impl std::error::Error for InstanceError {}

/// A set-multicover-leasing instance: the set system, the lease durations,
/// the per-set per-type costs `c_{S,k}`, and the timed arrivals.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SmclInstance {
    /// The set system `(U, F)`.
    pub system: SetSystem,
    /// Lease durations; the `cost` field of each type serves as the
    /// *reference* cost used when a set has no custom cost.
    pub structure: LeaseStructure,
    /// `costs[s][k]` = cost of leasing set `s` with type `k`.
    pub costs: Vec<Vec<f64>>,
    /// Demands in non-decreasing time order.
    pub arrivals: Vec<Arrival>,
}

impl SmclInstance {
    /// Builds an instance with an explicit `num_sets x num_types` cost
    /// matrix.
    ///
    /// # Errors
    ///
    /// Returns an [`InstanceError`] if arrivals are unsorted, reference
    /// unknown elements, demand infeasible multiplicities, or the cost
    /// matrix has the wrong shape / invalid entries.
    pub fn new(
        system: SetSystem,
        structure: LeaseStructure,
        costs: Vec<Vec<f64>>,
        arrivals: Vec<Arrival>,
    ) -> Result<Self, InstanceError> {
        if costs.len() != system.num_sets() {
            return Err(InstanceError::BadCost(costs.len(), 0));
        }
        for (s, row) in costs.iter().enumerate() {
            if row.len() != structure.num_types() {
                return Err(InstanceError::BadCost(s, row.len()));
            }
            for (k, &c) in row.iter().enumerate() {
                if !c.is_finite() || c <= 0.0 {
                    return Err(InstanceError::BadCost(s, k));
                }
            }
        }
        for (i, a) in arrivals.iter().enumerate() {
            if a.element >= system.num_elements() {
                return Err(InstanceError::UnknownElement(*a));
            }
            if !system.supports_multiplicity(a.element, a.multiplicity) {
                return Err(InstanceError::InfeasibleMultiplicity(*a));
            }
            if i > 0 && arrivals[i - 1].time > a.time {
                return Err(InstanceError::UnsortedArrivals(i));
            }
        }
        Ok(SmclInstance {
            system,
            structure,
            costs,
            arrivals,
        })
    }

    /// Builds an instance where every set uses the structure's own costs
    /// (`c_{S,k} = c_k`).
    ///
    /// # Errors
    ///
    /// Same as [`SmclInstance::new`].
    pub fn uniform(
        system: SetSystem,
        structure: LeaseStructure,
        arrivals: Vec<Arrival>,
    ) -> Result<Self, InstanceError> {
        let row: Vec<f64> = structure.types().iter().map(|t| t.cost).collect();
        let costs = vec![row; system.num_sets()];
        SmclInstance::new(system, structure, costs, arrivals)
    }

    /// Builds an instance with product-form costs `c_{S,k} = factor_S · c_k`.
    ///
    /// # Errors
    ///
    /// Same as [`SmclInstance::new`]; additionally factors must be positive
    /// and one per set.
    pub fn with_set_factors(
        system: SetSystem,
        structure: LeaseStructure,
        factors: &[f64],
        arrivals: Vec<Arrival>,
    ) -> Result<Self, InstanceError> {
        if factors.len() != system.num_sets() {
            return Err(InstanceError::BadCost(factors.len(), 0));
        }
        let costs: Vec<Vec<f64>> = factors
            .iter()
            .map(|&f| structure.types().iter().map(|t| f * t.cost).collect())
            .collect();
        SmclInstance::new(system, structure, costs, arrivals)
    }

    /// Cost `c_{S,k}` of leasing set `s` with type `k`.
    ///
    /// # Panics
    ///
    /// Panics if `s`/`k` are out of range.
    pub fn cost(&self, s: usize, k: usize) -> f64 {
        self.costs[s][k]
    }

    /// Largest multiplicity demanded by any arrival (`p_max`, the number of
    /// layers in Figure 3.3).
    pub fn p_max(&self) -> usize {
        self.arrivals
            .iter()
            .map(|a| a.multiplicity)
            .max()
            .unwrap_or(0)
    }

    /// The arrivals as `(time, (element, multiplicity))` requests for a
    /// [`Driver`](leasing_core::engine::Driver) over
    /// [`SmclOnline`](crate::online::SmclOnline).
    pub fn requests(&self) -> impl Iterator<Item = (TimeStep, (usize, usize))> + '_ {
        self.arrivals
            .iter()
            .map(|a| (a.time, (a.element, a.multiplicity)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leasing_core::lease::LeaseType;

    fn system() -> SetSystem {
        SetSystem::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]).unwrap()
    }

    fn lengths() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(4, 1.0), LeaseType::new(16, 3.0)]).unwrap()
    }

    #[test]
    fn uniform_instance_uses_structure_costs() {
        let inst = SmclInstance::uniform(system(), lengths(), vec![]).unwrap();
        assert_eq!(inst.cost(0, 0), 1.0);
        assert_eq!(inst.cost(2, 1), 3.0);
    }

    #[test]
    fn set_factors_scale_costs() {
        let inst =
            SmclInstance::with_set_factors(system(), lengths(), &[1.0, 2.0, 0.5], vec![]).unwrap();
        assert_eq!(inst.cost(1, 0), 2.0);
        assert_eq!(inst.cost(2, 1), 1.5);
    }

    #[test]
    fn rejects_unknown_elements_and_bad_multiplicity() {
        let bad_elem = SmclInstance::uniform(system(), lengths(), vec![Arrival::new(0, 7, 1)]);
        assert!(matches!(bad_elem, Err(InstanceError::UnknownElement(_))));
        let bad_mult = SmclInstance::uniform(system(), lengths(), vec![Arrival::new(0, 0, 3)]);
        assert!(matches!(
            bad_mult,
            Err(InstanceError::InfeasibleMultiplicity(_))
        ));
    }

    #[test]
    fn rejects_unsorted_arrivals() {
        let arrivals = vec![Arrival::new(5, 0, 1), Arrival::new(3, 1, 1)];
        let err = SmclInstance::uniform(system(), lengths(), arrivals);
        assert_eq!(err, Err(InstanceError::UnsortedArrivals(1)));
    }

    #[test]
    fn rejects_malformed_cost_matrix() {
        let err = SmclInstance::new(system(), lengths(), vec![vec![1.0, 1.0]; 2], vec![]);
        assert!(matches!(err, Err(InstanceError::BadCost(2, 0))));
        let err2 = SmclInstance::new(
            system(),
            lengths(),
            vec![vec![1.0], vec![1.0, 2.0], vec![1.0, 2.0]],
            vec![],
        );
        assert!(matches!(err2, Err(InstanceError::BadCost(0, 1))));
    }

    #[test]
    fn p_max_reports_layer_count() {
        let arrivals = vec![Arrival::new(0, 0, 2), Arrival::new(1, 2, 1)];
        let inst = SmclInstance::uniform(system(), lengths(), arrivals).unwrap();
        assert_eq!(inst.p_max(), 2);
    }
}
