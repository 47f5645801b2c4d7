//! Steiner-tree-leasing problem instances.

use leasing_core::lease::{LeaseStructure, LeaseType};
use leasing_core::time::TimeStep;
use leasing_graph::graph::Graph;
use serde::{Deserialize, Serialize};

/// One connectivity demand: the pair `{u, v}` announces itself at `time` and
/// must be connected by leased edges at that time step.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PairRequest {
    /// Arrival time step.
    pub time: TimeStep,
    /// First terminal.
    pub u: usize,
    /// Second terminal.
    pub v: usize,
}

impl PairRequest {
    /// Creates the request `({u, v}, time)`.
    pub fn new(time: TimeStep, u: usize, v: usize) -> Self {
        PairRequest { time, u, v }
    }
}

/// Why a [`SteinerInstance`] failed validation.
#[derive(Clone, Debug, PartialEq)]
pub enum SteinerInstanceError {
    /// Request `usize` references a node outside the graph.
    NodeOutOfRange(usize),
    /// Request `usize` pairs a node with itself.
    DegeneratePair(usize),
    /// Request `usize` breaks the non-decreasing time order.
    UnsortedRequests(usize),
    /// The graph must be connected so every pair can be served.
    Disconnected,
}

impl std::fmt::Display for SteinerInstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SteinerInstanceError::NodeOutOfRange(i) => {
                write!(f, "request {i} references an out-of-range node")
            }
            SteinerInstanceError::DegeneratePair(i) => {
                write!(f, "request {i} pairs a node with itself")
            }
            SteinerInstanceError::UnsortedRequests(i) => {
                write!(f, "request {i} breaks the non-decreasing time order")
            }
            SteinerInstanceError::Disconnected => write!(f, "the graph is not connected"),
        }
    }
}

impl std::error::Error for SteinerInstanceError {}

/// A Steiner-tree-leasing instance.
///
/// The lease structure's costs act as *rate multipliers*: leasing edge `e`
/// with type `k` costs `w_e · c_k` and keeps `e` usable during
/// `[t, t + l_k)`. This is the edge-leasing model Meyerson introduced
/// alongside the parking permit problem (thesis §5.1): pairs of
/// communicating nodes announce themselves over time and must be connected
/// by leased edges when they do.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SteinerInstance {
    /// The network.
    pub graph: Graph,
    /// Lease durations and rate multipliers shared by all edges.
    pub structure: LeaseStructure,
    /// Connectivity demands in non-decreasing time order.
    pub requests: Vec<PairRequest>,
}

impl SteinerInstance {
    /// Validates and builds an instance.
    ///
    /// # Errors
    ///
    /// Returns a [`SteinerInstanceError`] if the graph is disconnected, a
    /// request references an unknown node or pairs a node with itself, or
    /// requests are not sorted by time.
    pub fn new(
        graph: Graph,
        structure: LeaseStructure,
        requests: Vec<PairRequest>,
    ) -> Result<Self, SteinerInstanceError> {
        if !graph.is_connected() {
            return Err(SteinerInstanceError::Disconnected);
        }
        for (i, r) in requests.iter().enumerate() {
            if r.u >= graph.num_nodes() || r.v >= graph.num_nodes() {
                return Err(SteinerInstanceError::NodeOutOfRange(i));
            }
            if r.u == r.v {
                return Err(SteinerInstanceError::DegeneratePair(i));
            }
            if i > 0 && requests[i - 1].time > r.time {
                return Err(SteinerInstanceError::UnsortedRequests(i));
            }
        }
        Ok(SteinerInstance {
            graph,
            structure,
            requests,
        })
    }

    /// The requests as `(time, (u, v))` pairs for a
    /// [`Driver`](leasing_core::engine::Driver) over an online algorithm.
    pub fn requests(&self) -> impl Iterator<Item = (TimeStep, (usize, usize))> + '_ {
        self.requests.iter().map(|r| (r.time, (r.u, r.v)))
    }

    /// Cost of leasing edge `e` with type `k`: `w_e · c_k`.
    ///
    /// # Panics
    ///
    /// Panics if `e` or `k` is out of range.
    pub fn lease_cost(&self, e: usize, k: usize) -> f64 {
        self.graph.edge(e).weight * self.structure.cost(k)
    }

    /// The per-edge permit structure of edge `e` (same lengths, costs scaled
    /// by `w_e`), for running a parking-permit subroutine on that edge.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn scaled_structure(&self, e: usize) -> LeaseStructure {
        let w = self.graph.edge(e).weight;
        let types: Vec<LeaseType> = self
            .structure
            .types()
            .iter()
            .map(|t| LeaseType::new(t.length, w * t.cost))
            .collect();
        LeaseStructure::new(types).expect("scaling by a positive weight preserves validity")
    }

    /// Cheapest single-lease rate, `min_k c_k` (the marginal routing price of
    /// an unleased edge of unit weight).
    pub fn cheapest_rate(&self) -> f64 {
        self.structure
            .types()
            .iter()
            .map(|t| t.cost)
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leasing_core::lease::LeaseType;

    fn structure() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(8, 3.0)]).unwrap()
    }

    fn path_graph() -> Graph {
        Graph::new(3, vec![(0, 1, 2.0), (1, 2, 3.0)]).unwrap()
    }

    #[test]
    fn accepts_a_valid_instance() {
        let inst = SteinerInstance::new(
            path_graph(),
            structure(),
            vec![PairRequest::new(0, 0, 2), PairRequest::new(4, 1, 2)],
        )
        .unwrap();
        assert_eq!(inst.requests.len(), 2);
    }

    #[test]
    fn lease_cost_scales_with_edge_weight() {
        let inst = SteinerInstance::new(path_graph(), structure(), vec![]).unwrap();
        assert!((inst.lease_cost(0, 0) - 2.0).abs() < 1e-12);
        assert!((inst.lease_cost(1, 1) - 9.0).abs() < 1e-12);
        let scaled = inst.scaled_structure(1);
        assert!((scaled.cost(0) - 3.0).abs() < 1e-12);
        assert_eq!(scaled.length(1), 8);
    }

    #[test]
    fn rejects_disconnected_graphs() {
        let g = Graph::new(4, vec![(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        let err = SteinerInstance::new(g, structure(), vec![]);
        assert_eq!(err, Err(SteinerInstanceError::Disconnected));
    }

    #[test]
    fn rejects_bad_requests() {
        let bad_node =
            SteinerInstance::new(path_graph(), structure(), vec![PairRequest::new(0, 0, 9)]);
        assert_eq!(bad_node, Err(SteinerInstanceError::NodeOutOfRange(0)));
        let degenerate =
            SteinerInstance::new(path_graph(), structure(), vec![PairRequest::new(0, 1, 1)]);
        assert_eq!(degenerate, Err(SteinerInstanceError::DegeneratePair(0)));
        let unsorted = SteinerInstance::new(
            path_graph(),
            structure(),
            vec![PairRequest::new(5, 0, 1), PairRequest::new(2, 0, 1)],
        );
        assert_eq!(unsorted, Err(SteinerInstanceError::UnsortedRequests(1)));
    }

    #[test]
    fn cheapest_rate_is_the_minimum_type_cost() {
        let inst = SteinerInstance::new(path_graph(), structure(), vec![]).unwrap();
        assert!((inst.cheapest_rate() - 1.0).abs() < 1e-12);
    }
}
