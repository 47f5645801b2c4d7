//! Reductions from graph covering leasing problems to set multicover
//! leasing.
//!
//! The Chapter 3 outlook names vertex cover and edge cover (and §2.3 names
//! dominating set) as covering problems whose leasing variants follow from
//! the framework. Each reduction below builds the corresponding
//! [`SmclInstance`], after which every Chapter 3 algorithm and baseline
//! applies verbatim:
//!
//! | problem | universe `U` | family `F` | `δ` |
//! |---|---|---|---|
//! | vertex cover leasing | edges | vertices (incident edges) | 2 |
//! | edge cover leasing | vertices | edges (their endpoints) | max degree |
//! | dominating set leasing | vertices | closed neighborhoods | max degree + 1 |

use leasing_core::lease::LeaseStructure;
use leasing_core::time::TimeStep;
use leasing_graph::graph::Graph;
use set_cover_leasing::instance::{Arrival, InstanceError, SmclInstance};
use set_cover_leasing::system::{SetSystem, SetSystemError};

/// Why a graph-covering reduction failed to build its [`SmclInstance`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ReductionError {
    /// The reduced set system is invalid (e.g. the graph has no vertices or
    /// edges to form a covering family from).
    System(SetSystemError),
    /// The reduced instance is invalid (unsorted arrivals, unknown
    /// elements, infeasible multiplicities, ...).
    Instance(InstanceError),
}

impl std::fmt::Display for ReductionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReductionError::System(e) => write!(f, "reduced set system is invalid: {e}"),
            ReductionError::Instance(e) => write!(f, "reduced instance is invalid: {e}"),
        }
    }
}

impl std::error::Error for ReductionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReductionError::System(e) => Some(e),
            ReductionError::Instance(e) => Some(e),
        }
    }
}

impl From<SetSystemError> for ReductionError {
    fn from(e: SetSystemError) -> Self {
        ReductionError::System(e)
    }
}

impl From<InstanceError> for ReductionError {
    fn from(e: InstanceError) -> Self {
        ReductionError::Instance(e)
    }
}

/// Vertex cover leasing: edges of `graph` arrive over time and must be
/// covered by leasing one of their endpoints. Arrivals are `(time, edge id)`
/// pairs in non-decreasing time order; `vertex_weights` scales the per-vertex
/// lease prices (pass `None` for uniform prices).
///
/// # Errors
///
/// Returns [`ReductionError`] if the graph yields no covering family or the
/// arrivals are unsorted or reference unknown edges (mapped to unknown
/// elements).
pub fn vertex_cover_instance(
    graph: &Graph,
    structure: LeaseStructure,
    arrivals: &[(TimeStep, usize)],
    vertex_weights: Option<&[f64]>,
) -> Result<SmclInstance, ReductionError> {
    let sets: Vec<Vec<usize>> = (0..graph.num_nodes())
        .map(|v| graph.neighbors(v).iter().map(|&(e, _)| e).collect())
        .collect();
    let system = SetSystem::new(graph.num_edges(), sets)?;
    let arrivals: Vec<Arrival> = arrivals
        .iter()
        .map(|&(t, e)| Arrival::new(t, e, 1))
        .collect();
    let instance = match vertex_weights {
        Some(w) => SmclInstance::with_set_factors(system, structure, w, arrivals)?,
        None => SmclInstance::uniform(system, structure, arrivals)?,
    };
    Ok(instance)
}

/// Edge cover leasing: vertices arrive over time and must be covered by
/// leasing an incident edge. Arrivals are `(time, vertex id)` pairs.
///
/// # Errors
///
/// Returns [`ReductionError`] if the graph has no edges or the arrivals are
/// unsorted or reference an isolated vertex (no incident edge can ever
/// cover it).
pub fn edge_cover_instance(
    graph: &Graph,
    structure: LeaseStructure,
    arrivals: &[(TimeStep, usize)],
    edge_weights_as_cost: bool,
) -> Result<SmclInstance, ReductionError> {
    let sets: Vec<Vec<usize>> = graph.edges().iter().map(|e| vec![e.u, e.v]).collect();
    let system = SetSystem::new(graph.num_nodes(), sets)?;
    let arrivals: Vec<Arrival> = arrivals
        .iter()
        .map(|&(t, v)| Arrival::new(t, v, 1))
        .collect();
    let instance = if edge_weights_as_cost {
        let factors: Vec<f64> = graph.edges().iter().map(|e| e.weight).collect();
        SmclInstance::with_set_factors(system, structure, &factors, arrivals)?
    } else {
        SmclInstance::uniform(system, structure, arrivals)?
    };
    Ok(instance)
}

/// Dominating set leasing: vertices arrive over time and must be covered by
/// leasing a vertex of their closed neighborhood. Arrivals are
/// `(time, vertex id)` pairs; `multiplicity > 1` demands coverage by that
/// many distinct dominators (the multicover variant).
///
/// # Errors
///
/// Returns [`ReductionError`] if the graph has no vertices or the arrivals
/// are unsorted or demand more dominators than a closed neighborhood
/// offers.
pub fn dominating_set_instance(
    graph: &Graph,
    structure: LeaseStructure,
    arrivals: &[(TimeStep, usize, usize)],
) -> Result<SmclInstance, ReductionError> {
    let sets: Vec<Vec<usize>> = (0..graph.num_nodes())
        .map(|v| {
            let mut nbhd: Vec<usize> = graph.neighbors(v).iter().map(|&(_, u)| u).collect();
            nbhd.push(v);
            nbhd
        })
        .collect();
    let system = SetSystem::new(graph.num_nodes(), sets)?;
    let arrivals: Vec<Arrival> = arrivals
        .iter()
        .map(|&(t, v, p)| Arrival::new(t, v, p))
        .collect();
    Ok(SmclInstance::uniform(system, structure, arrivals)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use leasing_core::engine::Driver;
    use leasing_core::lease::LeaseType;
    use set_cover_leasing::online::{is_feasible_cover, SmclOnline};

    fn structure() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(8, 3.0)]).unwrap()
    }

    fn star() -> Graph {
        // Hub 0 with spokes to 1, 2, 3.
        Graph::new(4, vec![(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)]).unwrap()
    }

    #[test]
    fn vertex_cover_reduction_has_delta_two() {
        let inst =
            vertex_cover_instance(&star(), structure(), &[(0, 0), (0, 1), (1, 2)], None).unwrap();
        assert_eq!(inst.system.delta(), 2);
        assert_eq!(inst.system.num_elements(), 3); // edges
        assert_eq!(inst.system.num_sets(), 4); // vertices
                                               // Hub vertex covers all edges.
        assert_eq!(inst.system.elements_of(0), &[0, 1, 2]);
    }

    #[test]
    fn vertex_cover_weights_scale_prices() {
        let w = [10.0, 1.0, 1.0, 1.0];
        let inst = vertex_cover_instance(&star(), structure(), &[(0, 0)], Some(&w)).unwrap();
        assert!((inst.cost(0, 0) - 10.0).abs() < 1e-12);
        assert!((inst.cost(1, 1) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn edge_cover_reduction_uses_endpoints() {
        let inst = edge_cover_instance(&star(), structure(), &[(0, 1), (0, 3)], false).unwrap();
        assert_eq!(inst.system.num_elements(), 4); // vertices
        assert_eq!(inst.system.num_sets(), 3); // edges
        assert_eq!(inst.system.elements_of(0), &[0, 1]);
        // δ of the reduction is the max degree (hub has 3 incident edges).
        assert_eq!(inst.system.delta(), 3);
    }

    #[test]
    fn edge_cover_rejects_isolated_arrivals() {
        let g = Graph::new(3, vec![(0, 1, 1.0)]).unwrap(); // node 2 isolated
        let err = edge_cover_instance(&g, structure(), &[(0, 2)], false);
        assert!(matches!(
            err,
            Err(ReductionError::Instance(
                InstanceError::InfeasibleMultiplicity(_)
            ))
        ));
    }

    #[test]
    fn dominating_set_reduction_uses_closed_neighborhoods() {
        let inst = dominating_set_instance(&star(), structure(), &[(0, 1, 1), (2, 0, 2)]).unwrap();
        // N[1] = {0, 1}; N[0] = everything.
        assert_eq!(inst.system.elements_of(1), &[0, 1]);
        assert_eq!(inst.system.elements_of(0), &[0, 1, 2, 3]);
        // δ = max degree + 1 (spoke vertices are dominated by themselves and
        // the hub).
        assert_eq!(inst.system.delta(), 4);
    }

    #[test]
    fn dominating_set_rejects_excess_multiplicity() {
        // A spoke has only 2 dominators; demanding 3 is infeasible.
        let err = dominating_set_instance(&star(), structure(), &[(0, 1, 3)]);
        assert!(matches!(
            err,
            Err(ReductionError::Instance(
                InstanceError::InfeasibleMultiplicity(_)
            ))
        ));
    }

    #[test]
    fn chapter3_algorithm_solves_the_reduced_instances() {
        for inst in [
            vertex_cover_instance(&star(), structure(), &[(0, 0), (1, 1), (5, 2)], None).unwrap(),
            edge_cover_instance(&star(), structure(), &[(0, 1), (2, 2)], true).unwrap(),
            dominating_set_instance(&star(), structure(), &[(0, 1, 1), (1, 2, 2)]).unwrap(),
        ] {
            let mut driver = Driver::new(SmclOnline::new(&inst, 42), inst.structure.clone());
            driver.submit_batch(inst.requests()).unwrap();
            let cost = driver.cost();
            assert!(cost > 0.0);
            assert!(is_feasible_cover(&inst, |t| driver.ledger().owns(t)));
        }
    }
}
