//! Direct deterministic primal-dual for **vertex cover leasing**.
//!
//! Edges arrive over time and must have an endpoint holding an active lease
//! at their arrival time. The algorithm mirrors the parking-permit
//! primal-dual (thesis Algorithm 1): an uncovered edge raises its dual
//! variable until a candidate `(endpoint, lease)` constraint becomes tight
//! and buys every tight candidate. Each dual variable is shared by at most
//! `2K` candidates (two endpoints × `K` aligned leases), so the primal cost
//! is at most `2K` times the dual value and the algorithm is
//! `2K`-competitive — a deterministic alternative to the randomized
//! `O(log(2K) log n)` bound obtained through the Chapter 3 reduction
//! (`δ = 2`).

use leasing_core::engine::{Books, LeasingAlgorithm, Ledger, CATEGORY_LEASE};
use leasing_core::framework::Triple;
use leasing_core::interval::candidates_covering;
use leasing_core::lease::{Lease, LeaseStructure};
use leasing_core::time::TimeStep;
use leasing_core::EPS;
use leasing_graph::graph::Graph;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Why a [`VcLeasingInstance`] failed validation.
#[derive(Clone, Debug, PartialEq)]
pub enum VcInstanceError {
    /// Arrival `usize` references an edge outside the graph.
    UnknownEdge(usize),
    /// Arrival `usize` breaks the non-decreasing time order.
    UnsortedArrivals(usize),
    /// Vertex weights must be one per vertex, positive and finite.
    BadWeights,
}

impl std::fmt::Display for VcInstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VcInstanceError::UnknownEdge(i) => {
                write!(f, "arrival {i} references an unknown edge")
            }
            VcInstanceError::UnsortedArrivals(i) => {
                write!(f, "arrival {i} breaks the non-decreasing time order")
            }
            VcInstanceError::BadWeights => {
                write!(
                    f,
                    "vertex weights must be one per vertex, positive and finite"
                )
            }
        }
    }
}

impl std::error::Error for VcInstanceError {}

/// A vertex-cover-leasing instance: a graph, a shared lease structure,
/// per-vertex price multipliers and timed edge arrivals.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct VcLeasingInstance {
    /// The graph whose edges arrive.
    pub graph: Graph,
    /// Lease durations and base prices.
    pub structure: LeaseStructure,
    /// Per-vertex price multipliers (`1.0` everywhere for the unweighted
    /// problem).
    pub vertex_weights: Vec<f64>,
    /// `(time, edge id)` arrivals in non-decreasing time order.
    pub arrivals: Vec<(TimeStep, usize)>,
}

impl VcLeasingInstance {
    /// Validates and builds an instance.
    ///
    /// # Errors
    ///
    /// Returns a [`VcInstanceError`] for unsorted arrivals, unknown edges,
    /// or malformed weights.
    pub fn new(
        graph: Graph,
        structure: LeaseStructure,
        vertex_weights: Vec<f64>,
        arrivals: Vec<(TimeStep, usize)>,
    ) -> Result<Self, VcInstanceError> {
        if vertex_weights.len() != graph.num_nodes()
            || vertex_weights.iter().any(|w| !w.is_finite() || *w <= 0.0)
        {
            return Err(VcInstanceError::BadWeights);
        }
        for (i, &(t, e)) in arrivals.iter().enumerate() {
            if e >= graph.num_edges() {
                return Err(VcInstanceError::UnknownEdge(i));
            }
            if i > 0 && arrivals[i - 1].0 > t {
                return Err(VcInstanceError::UnsortedArrivals(i));
            }
        }
        Ok(VcLeasingInstance {
            graph,
            structure,
            vertex_weights,
            arrivals,
        })
    }

    /// Unweighted instance (all vertex multipliers `1.0`).
    ///
    /// # Errors
    ///
    /// Same as [`VcLeasingInstance::new`].
    pub fn unweighted(
        graph: Graph,
        structure: LeaseStructure,
        arrivals: Vec<(TimeStep, usize)>,
    ) -> Result<Self, VcInstanceError> {
        let n = graph.num_nodes();
        VcLeasingInstance::new(graph, structure, vec![1.0; n], arrivals)
    }

    /// Price of leasing vertex `v` with type `k`: `w_v · c_k`.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `k` is out of range.
    pub fn lease_cost(&self, v: usize, k: usize) -> f64 {
        self.vertex_weights[v] * self.structure.cost(k)
    }

    /// The arrivals as `(time, edge)` requests for a
    /// [`Driver`](leasing_core::engine::Driver) over [`VcPrimalDual`].
    pub fn requests(&self) -> impl Iterator<Item = (TimeStep, usize)> + '_ {
        self.arrivals.iter().copied()
    }
}

/// The deterministic primal-dual algorithm for vertex cover leasing.
///
/// Coverage and ownership are queried from the ledger's coverage index
/// ([`Ledger::covered`]/[`Ledger::owns`]) — the algorithm keeps no private
/// active-lease table.
#[derive(Clone, Debug)]
pub struct VcPrimalDual<'a> {
    instance: &'a VcLeasingInstance,
    contributions: HashMap<(usize, Lease), f64>,
    dual_value: f64,
}

impl<'a> VcPrimalDual<'a> {
    /// Creates the algorithm for `instance`.
    pub fn new(instance: &'a VcLeasingInstance) -> Self {
        VcPrimalDual {
            instance,
            contributions: HashMap::new(),
            dual_value: 0.0,
        }
    }

    /// Whether edge `e` has a covered endpoint at `t` according to `ledger`.
    fn covered_in(instance: &VcLeasingInstance, ledger: &Ledger, e: usize, t: TimeStep) -> bool {
        let edge = instance.graph.edge(e);
        ledger.covered(edge.u, t) || ledger.covered(edge.v, t)
    }

    /// Core primal-dual step for one edge arrival, recording purchases into
    /// `books`.
    fn serve_with(&mut self, t: TimeStep, e: usize, books: &mut Books<'_>) {
        if Self::covered_in(self.instance, books, e, t) {
            return;
        }
        let edge = self.instance.graph.edge(e);
        let candidates: Vec<(usize, Lease)> = [edge.u, edge.v]
            .into_iter()
            .flat_map(|v| {
                candidates_covering(&self.instance.structure, t)
                    .into_iter()
                    .map(move |lease| (v, lease))
            })
            .collect();
        let delta = candidates
            .iter()
            .map(|&(v, lease)| {
                let used = self.contributions.get(&(v, lease)).copied().unwrap_or(0.0);
                (self.instance.lease_cost(v, lease.type_index) - used).max(0.0)
            })
            .fold(f64::INFINITY, f64::min);
        self.dual_value += delta;
        for (v, lease) in candidates {
            let entry = self.contributions.entry((v, lease)).or_insert(0.0);
            *entry += delta;
            let price = self.instance.lease_cost(v, lease.type_index);
            let triple = Triple::new(v, lease.type_index, lease.start);
            if *entry >= price - EPS && !books.owns(triple) {
                books.buy_priced(t, triple, price, CATEGORY_LEASE);
            }
        }
        debug_assert!(
            Self::covered_in(self.instance, books, e, t),
            "primal-dual step must cover the edge"
        );
    }

    /// Total dual value raised so far — by weak duality a lower bound on the
    /// interval-model optimum.
    pub fn dual_value(&self) -> f64 {
        self.dual_value
    }
}

impl<'a> LeasingAlgorithm for VcPrimalDual<'a> {
    /// The arriving edge id.
    type Request = usize;

    fn on_request(&mut self, time: TimeStep, edge: usize, mut books: Books<'_>) {
        self.serve_with(time, edge, &mut books);
    }
}

/// Whether every arrival of `instance` has an endpoint with an owned
/// interval-model lease covering its time; `owns` answers ownership of a
/// `(vertex, type, start)` triple (`|t| ledger.owns(t)` for an online run).
pub fn is_feasible(instance: &VcLeasingInstance, owns: impl Fn(Triple) -> bool) -> bool {
    instance.arrivals.iter().all(|&(t, e)| {
        let edge = instance.graph.edge(e);
        candidates_covering(&instance.structure, t)
            .into_iter()
            .any(|l| {
                owns(Triple::new(edge.u, l.type_index, l.start))
                    || owns(Triple::new(edge.v, l.type_index, l.start))
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduction::vertex_cover_instance;
    use leasing_core::engine::Driver;
    use leasing_core::lease::LeaseType;
    use leasing_core::rng::seeded;
    use leasing_graph::generators::connected_erdos_renyi;
    use proptest::prelude::*;
    use rand::RngExt;
    use set_cover_leasing::offline;

    fn structure() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(8, 3.0)]).unwrap()
    }

    fn path_instance(arrivals: Vec<(TimeStep, usize)>) -> VcLeasingInstance {
        let g = leasing_graph::graph::Graph::new(3, vec![(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        VcLeasingInstance::unweighted(g, structure(), arrivals).unwrap()
    }

    /// Serves every arrival of `inst` and returns the algorithm with its
    /// ledger.
    fn run(inst: &VcLeasingInstance) -> (VcPrimalDual<'_>, Ledger) {
        let mut driver = Driver::new(VcPrimalDual::new(inst), inst.structure.clone());
        driver.submit_batch(inst.requests()).unwrap();
        driver.into_parts()
    }

    #[test]
    fn single_edge_tightens_both_cheap_endpoint_leases() {
        // With equal endpoint prices both short-lease candidates become
        // tight at δ = 1 simultaneously, and Algorithm 1 semantics buys
        // every tight candidate.
        let inst = path_instance(vec![(0, 0)]);
        let (alg, ledger) = run(&inst);
        let cost = ledger.total_cost();
        assert!((cost - 2.0).abs() < 1e-9);
        assert_eq!(ledger.leases_bought(), 2);
        assert!(ledger
            .decisions()
            .iter()
            .all(|d| d.lease.is_some_and(|l| l.type_index == 0)));
        assert!((alg.dual_value() - 1.0).abs() < 1e-9);
        assert!(is_feasible(&inst, |t| ledger.owns(t)));
    }

    #[test]
    fn shared_vertex_covers_both_edges() {
        // Both edges of the path share vertex 1; after the first edge's dual
        // tightens vertex-1 candidates, the second edge can reuse them.
        let inst = path_instance(vec![(0, 0), (0, 1)]);
        let (_, ledger) = run(&inst);
        let cost = ledger.total_cost();
        assert!(is_feasible(&inst, |t| ledger.owns(t)));
        // Never worse than covering each edge separately.
        assert!(cost <= 2.0 + 1e-9, "cost {cost}");
    }

    #[test]
    fn covered_arrivals_are_free() {
        let inst = path_instance(vec![(0, 0), (1, 0)]);
        let mut driver = leasing_core::engine::Driver::with_ledger(
            VcPrimalDual::new(&inst),
            Ledger::new(inst.structure.clone()),
        );
        driver.submit(0, 0).unwrap();
        let cost = driver.ledger().total_cost();
        driver.submit(1, 0).unwrap();
        assert_eq!(driver.ledger().total_cost(), cost);
    }

    #[test]
    fn weighted_vertices_steer_purchases() {
        let g = leasing_graph::graph::Graph::new(2, vec![(0, 1, 1.0)]).unwrap();
        let inst = VcLeasingInstance::new(g, structure(), vec![100.0, 1.0], vec![(0, 0)]).unwrap();
        let (_, ledger) = run(&inst);
        let cost = ledger.total_cost();
        // The cheap endpoint must be bought, not the expensive one.
        assert!((cost - 1.0).abs() < 1e-9);
        assert!(ledger.decisions().iter().all(|d| d.element == 1));
        // Its single lease is the only cover: withholding it is infeasible.
        let bought = ledger.decisions()[0].triple().unwrap();
        assert!(is_feasible(&inst, |t| ledger.owns(t)));
        assert!(!is_feasible(&inst, |t| t != bought && ledger.owns(t)));
    }

    #[test]
    fn primal_is_at_most_2k_times_dual() {
        let mut rng = seeded(31);
        for _ in 0..10 {
            let g = connected_erdos_renyi(&mut rng, 8, 0.4, 1.0..2.0);
            let mut arrivals: Vec<(TimeStep, usize)> = Vec::new();
            let mut t = 0u64;
            for _ in 0..20 {
                t += rng.random_range(0..3u64);
                arrivals.push((t, rng.random_range(0..g.num_edges())));
            }
            let inst = VcLeasingInstance::unweighted(g, structure(), arrivals).unwrap();
            let (alg, ledger) = run(&inst);
            let cost = ledger.total_cost();
            let bound = 2.0 * inst.structure.num_types() as f64 * alg.dual_value();
            assert!(cost <= bound + 1e-6, "cost {cost} vs 2K·dual {bound}");
        }
    }

    #[test]
    fn dual_lower_bounds_the_reduced_ilp_optimum() {
        let mut rng = seeded(77);
        let g = connected_erdos_renyi(&mut rng, 5, 0.5, 1.0..2.0);
        let arrivals: Vec<(TimeStep, usize)> = (0..6u64)
            .map(|t| (t, rng.random_range(0..g.num_edges())))
            .collect();
        let inst = VcLeasingInstance::unweighted(g.clone(), structure(), arrivals.clone()).unwrap();
        let (alg, ledger) = run(&inst);
        let cost = ledger.total_cost();
        let reduced = vertex_cover_instance(&g, structure(), &arrivals, None).unwrap();
        let opt = offline::optimal_cost(&reduced, 200_000).expect("tiny instance solves");
        assert!(
            alg.dual_value() <= opt + 1e-6,
            "dual {} must lower-bound opt {opt}",
            alg.dual_value()
        );
        assert!(
            cost >= opt - 1e-6,
            "online cost {cost} cannot beat opt {opt}"
        );
    }

    proptest! {
        /// The primal-dual solution is always feasible and within 2K · Opt
        /// (via the dual lower bound) on random instances.
        #[test]
        fn primal_dual_is_feasible_and_2k_competitive(seed in 0u64..200) {
            let mut rng = seeded(seed);
            let g = connected_erdos_renyi(&mut rng, 6, 0.4, 1.0..2.0);
            let mut arrivals: Vec<(TimeStep, usize)> = Vec::new();
            let mut t = 0u64;
            for _ in 0..12 {
                t += rng.random_range(0..4u64);
                arrivals.push((t, rng.random_range(0..g.num_edges())));
            }
            let inst = VcLeasingInstance::unweighted(g, structure(), arrivals).unwrap();
            let (alg, ledger) = run(&inst);
            let cost = ledger.total_cost();
            prop_assert!(is_feasible(&inst, |t| ledger.owns(t)));
            let bound = 2.0 * inst.structure.num_types() as f64 * alg.dual_value();
            prop_assert!(cost <= bound + 1e-6);
        }
    }
}
