//! Online Steiner tree leasing.
//!
//! The algorithm composes the two ingredients Meyerson combined when he
//! introduced the problem (thesis §5.1): the *online greedy Steiner* routing
//! rule (route each arriving pair along the cheapest path, treating already
//! acquired edges as free) and a *parking-permit subroutine per edge* that
//! decides how long to lease an edge once the router uses it.
//!
//! * With the deterministic primal-dual permit per edge the composition is
//!   `O(log n · K)`-competitive,
//! * with the randomized permit per edge it is `O(log n · log K)` —
//!   Meyerson's headline bound for `SteinerTreeLeasing`.

use crate::instance::{PairRequest, SteinerInstance};
use leasing_core::engine::{Books, LeasingAlgorithm};
use leasing_core::framework::Triple;
use leasing_core::interval::candidates_covering;
use leasing_core::lease::Lease;
use leasing_core::time::TimeStep;
use leasing_graph::paths::dijkstra_with;
use parking_permit::det::DeterministicPrimalDual;
use parking_permit::rand_alg::RandomizedPermit;
use rand::Rng;

/// Counters exposed by the online algorithms for the experiments.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SteinerStats {
    /// Requests served.
    pub requests: usize,
    /// Total number of edges on chosen routing paths.
    pub routed_edges: usize,
    /// Permit demands issued to edges that were not already leased.
    pub permit_demands: usize,
}

/// A permit's step for a demand on one element: serve the element at a
/// time, buying straight into the shared books at the permit's own prices.
type PermitStep<P> = fn(&mut P, TimeStep, usize, &mut Books<'_>);

/// Online Steiner leasing with one parking-permit subroutine per edge.
///
/// Each edge's permit is priced by the edge's scaled structure
/// ([`SteinerInstance::scaled_structure`]) and buys directly into the
/// engine's books with the edge id as the element, so the one ledger
/// answers every edge-activity query. Generic over the permit flavour; use
/// [`SteinerLeasingOnline`] for the deterministic and
/// [`RandomizedSteinerLeasing`] for the randomized instantiation.
#[derive(Clone, Debug)]
pub struct GenericSteinerLeasing<'a, P> {
    instance: &'a SteinerInstance,
    permits: Vec<P>,
    step: PermitStep<P>,
    stats: SteinerStats,
}

/// Deterministic instantiation: per-edge primal-dual permits
/// (`O(log n · K)`-competitive).
pub type SteinerLeasingOnline<'a> = GenericSteinerLeasing<'a, DeterministicPrimalDual>;

/// Randomized instantiation: per-edge threshold-rounding permits
/// (`O(log n · log K)`-competitive in expectation).
pub type RandomizedSteinerLeasing<'a> = GenericSteinerLeasing<'a, RandomizedPermit>;

impl<'a> SteinerLeasingOnline<'a> {
    /// Creates the deterministic algorithm for `instance`.
    pub fn new(instance: &'a SteinerInstance) -> Self {
        let permits = (0..instance.graph.num_edges())
            .map(|e| DeterministicPrimalDual::new(instance.scaled_structure(e)))
            .collect();
        GenericSteinerLeasing {
            instance,
            permits,
            step: DeterministicPrimalDual::serve_element,
            stats: SteinerStats::default(),
        }
    }
}

impl<'a> RandomizedSteinerLeasing<'a> {
    /// Creates the randomized algorithm for `instance`, drawing each edge's
    /// rounding threshold from `rng`.
    pub fn new<R: Rng + ?Sized>(instance: &'a SteinerInstance, rng: &mut R) -> Self {
        let permits = (0..instance.graph.num_edges())
            .map(|e| RandomizedPermit::new(instance.scaled_structure(e), rng))
            .collect();
        GenericSteinerLeasing {
            instance,
            permits,
            step: RandomizedPermit::serve_element,
            stats: SteinerStats::default(),
        }
    }
}

impl<'a, P> GenericSteinerLeasing<'a, P> {
    /// The instance being served.
    pub fn instance(&self) -> &SteinerInstance {
        self.instance
    }

    /// Experiment counters accumulated so far.
    pub fn stats(&self) -> SteinerStats {
        self.stats
    }

    /// Core routing + per-edge permit step, recording purchases into
    /// `books`.
    ///
    /// Edge activity is read from the books' coverage index (`element` =
    /// edge id); the per-edge permits only decide *how long* to lease.
    fn serve_with(&mut self, req: PairRequest, books: &mut Books<'_>) {
        let g = &self.instance.graph;
        let t = req.time;
        let rate = self.instance.cheapest_rate();
        let sp = dijkstra_with(g, req.u, |e| {
            if books.covered(e, t) {
                0.0
            } else {
                g.edge(e).weight * rate
            }
        });
        let path = sp
            .path_edges(g, req.v)
            .expect("validated instances have connected graphs");
        self.stats.requests += 1;
        self.stats.routed_edges += path.len();
        for e in path {
            if !books.covered(e, t) {
                (self.step)(&mut self.permits[e], t, e, books);
                self.stats.permit_demands += 1;
            }
            debug_assert!(
                books.covered(e, t),
                "permit subroutine must cover the routed day"
            );
        }
    }
}

impl<'a, P> LeasingAlgorithm for GenericSteinerLeasing<'a, P> {
    /// The `(u, v)` terminal pair to connect.
    type Request = (usize, usize);

    fn on_request(&mut self, time: TimeStep, request: (usize, usize), mut books: Books<'_>) {
        self.serve_with(PairRequest::new(time, request.0, request.1), &mut books);
    }
}

/// Whether the owned leases connect every request at its arrival time: an
/// edge is active when it owns an interval-model lease covering that time.
/// `owns` answers ownership of an `(edge, type, start)` triple
/// (`|t| ledger.owns(t)` for an online run, [`OfflineSolution::owns`] for an
/// offline one).
///
/// [`OfflineSolution::owns`]: crate::offline::OfflineSolution::owns
pub fn is_feasible(instance: &SteinerInstance, owns: impl Fn(Triple) -> bool) -> bool {
    let g = &instance.graph;
    instance.requests.iter().all(|req| {
        let candidates = candidates_covering(&instance.structure, req.time);
        let sp = dijkstra_with(g, req.u, |e| {
            let active = candidates
                .iter()
                .any(|l| owns(Triple::new(e, l.type_index, l.start)));
            if active {
                0.0
            } else {
                f64::INFINITY
            }
        });
        sp.is_reachable(req.v)
    })
}

/// Total cost of a `(edge, lease)` purchase list under the instance's scaled
/// per-edge lease prices.
pub fn solution_cost(instance: &SteinerInstance, solution: &[(usize, Lease)]) -> f64 {
    solution
        .iter()
        .map(|&(e, lease)| instance.lease_cost(e, lease.type_index))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use leasing_core::engine::Driver;
    use leasing_core::lease::{LeaseStructure, LeaseType};
    use leasing_core::rng::seeded;
    use leasing_graph::graph::Graph;

    fn structure() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(8, 3.0)]).unwrap()
    }

    fn diamond_instance(requests: Vec<PairRequest>) -> SteinerInstance {
        // 0 -1- 1 -1- 3 and 0 -1- 2 -10- 3.
        let g = Graph::new(4, vec![(0, 1, 1.0), (1, 3, 1.0), (0, 2, 1.0), (2, 3, 10.0)]).unwrap();
        SteinerInstance::new(g, structure(), requests).unwrap()
    }

    /// Serves every request of `inst` through a fresh driver.
    fn driven<'a, P>(
        alg: GenericSteinerLeasing<'a, P>,
        inst: &SteinerInstance,
    ) -> Driver<GenericSteinerLeasing<'a, P>> {
        let mut driver = Driver::new(alg, inst.structure.clone());
        driver.submit_batch(inst.requests()).unwrap();
        driver
    }

    #[test]
    fn routes_along_the_cheap_path_and_leases_it() {
        let inst = diamond_instance(vec![PairRequest::new(0, 0, 3)]);
        let driver = driven(SteinerLeasingOnline::new(&inst), &inst);
        let cost = driver.cost();
        // Cheap path 0-1-3 (weight 2), each edge gets a 2-day lease at rate 1.
        assert!((cost - 2.0).abs() < 1e-9);
        assert!(driver.ledger().covered(0, 0));
        assert!(driver.ledger().covered(1, 1));
        assert!(!driver.ledger().covered(3, 0));
        assert_eq!(driver.algorithm().stats().routed_edges, 2);
    }

    #[test]
    fn leased_edges_are_reused_for_free() {
        let inst = diamond_instance(vec![
            PairRequest::new(0, 0, 3),
            PairRequest::new(1, 0, 3), // same pair inside the lease window
        ]);
        let driver = driven(SteinerLeasingOnline::new(&inst), &inst);
        let cost = driver.cost();
        assert!(
            (cost - 2.0).abs() < 1e-9,
            "second request must be free, got {cost}"
        );
        assert_eq!(driver.algorithm().stats().permit_demands, 2);
    }

    #[test]
    fn repeated_demand_escalates_to_long_leases() {
        // The same pair every other day drives the per-edge permits to the
        // long lease, exactly like the parking permit problem would.
        let requests: Vec<PairRequest> = (0..8u64).map(|i| PairRequest::new(i, 0, 1)).collect();
        let g = Graph::new(2, vec![(0, 1, 1.0)]).unwrap();
        let inst = SteinerInstance::new(g, structure(), requests).unwrap();
        let driver = driven(SteinerLeasingOnline::new(&inst), &inst);
        let long_bought = driver
            .ledger()
            .decisions()
            .iter()
            .any(|d| d.element == 0 && d.lease.is_some_and(|l| l.type_index == 1));
        assert!(long_bought, "sustained demand must trigger the long lease");
    }

    #[test]
    fn expired_leases_force_repurchase() {
        let inst = diamond_instance(vec![
            PairRequest::new(0, 0, 3),
            PairRequest::new(100, 0, 3), // far outside every lease window
        ]);
        let cost = driven(SteinerLeasingOnline::new(&inst), &inst).cost();
        assert!(cost > 3.9, "both requests must pay, got {cost}");
    }

    #[test]
    fn online_solution_is_feasible() {
        let inst = diamond_instance(vec![
            PairRequest::new(0, 0, 3),
            PairRequest::new(3, 2, 3),
            PairRequest::new(9, 0, 2),
        ]);
        let driver = driven(SteinerLeasingOnline::new(&inst), &inst);
        let ledger = driver.ledger();
        assert!(is_feasible(&inst, |t| ledger.owns(t)));
        // The last purchase is the only lease of edge 0-2 at day 9.
        let last = ledger.decisions().last().and_then(|d| d.triple()).unwrap();
        assert!(!is_feasible(&inst, |t| t != last && ledger.owns(t)));
        let solution: Vec<(usize, Lease)> = ledger
            .decisions()
            .iter()
            .filter_map(|d| d.triple())
            .map(|t| (t.element, t.lease()))
            .collect();
        assert!(
            (solution_cost(&inst, &solution) - driver.cost()).abs() < 1e-9,
            "per-edge permit costs must match the scaled lease prices"
        );
    }

    #[test]
    fn randomized_variant_is_feasible_and_seeded() {
        let inst = diamond_instance(vec![
            PairRequest::new(0, 0, 3),
            PairRequest::new(2, 2, 1),
            PairRequest::new(11, 0, 3),
        ]);
        let mut rng_a = seeded(5);
        let a = driven(RandomizedSteinerLeasing::new(&inst, &mut rng_a), &inst);
        let cost_a = a.cost();
        let mut rng_b = seeded(5);
        let cost_b = driven(RandomizedSteinerLeasing::new(&inst, &mut rng_b), &inst).cost();
        assert_eq!(cost_a, cost_b, "same seed must reproduce the run");
        for req in &inst.requests {
            // Every request must be connected through active edges.
            let g = &inst.graph;
            let sp = dijkstra_with(g, req.u, |e| {
                if a.ledger().covered(e, req.time) {
                    0.0
                } else {
                    f64::INFINITY
                }
            });
            assert!(sp.is_reachable(req.v));
        }
    }

    #[test]
    fn online_algorithm_trait_serves_pairs() {
        let inst = diamond_instance(vec![]);
        let mut driver = Driver::new(SteinerLeasingOnline::new(&inst), inst.structure.clone());
        driver
            .submit_batch(vec![(0u64, (0usize, 3usize)), (1, (2, 3))])
            .unwrap();
        let cost = driver.cost();
        assert!(cost > 0.0);
    }
}
