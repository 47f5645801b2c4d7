//! Offline baselines for Steiner tree leasing.
//!
//! * [`route_then_lease`] — a strong feasible heuristic with full knowledge
//!   of the request sequence: greedy Steiner routing per `l_max` window
//!   decides *which* edges carry each request, then an exact parking-permit
//!   DP per edge decides *how long* to lease them,
//! * [`buy_per_request`] — the naive baseline that leases a fresh shortest
//!   path with the cheapest lease type for every request (no reuse), an
//!   upper bound any reasonable algorithm must beat on repetitive inputs.

use crate::instance::SteinerInstance;
use leasing_core::framework::Triple;
use leasing_core::interval::aligned_start;
use leasing_core::lease::Lease;
use leasing_core::time::TimeStep;
use leasing_graph::paths::dijkstra_with;
use parking_permit::offline::optimal_interval_model;

/// A feasible offline solution: the purchases and their total cost.
#[derive(Clone, Debug, PartialEq)]
pub struct OfflineSolution {
    /// Total leasing cost.
    pub cost: f64,
    /// Purchases as `(edge, lease)` pairs.
    pub purchases: Vec<(usize, Lease)>,
}

impl OfflineSolution {
    /// Whether the solution bought the `(edge, type, start)` triple — the
    /// ownership predicate [`is_feasible`](crate::online::is_feasible)
    /// takes.
    pub fn owns(&self, triple: Triple) -> bool {
        self.purchases.contains(&(triple.element, triple.lease()))
    }
}

/// Route-then-lease: greedy Steiner routing per aligned `l_max` window with
/// marked-edge reuse, followed by an exact per-edge permit DP on the days
/// each edge is actually used.
///
/// The result is always feasible; on tiny instances it is usually within a
/// small factor of the ILP optimum (see `crate::ilp`).
pub fn route_then_lease(instance: &SteinerInstance) -> OfflineSolution {
    let g = &instance.graph;
    let l_max = instance.structure.l_max();
    // Which days each edge must be active.
    let mut edge_days: Vec<Vec<TimeStep>> = vec![Vec::new(); g.num_edges()];
    let mut window_start: Option<TimeStep> = None;
    let mut marked: Vec<bool> = vec![false; g.num_edges()];
    for req in &instance.requests {
        let ws = aligned_start(req.time, l_max);
        if window_start != Some(ws) {
            window_start = Some(ws);
            marked.iter_mut().for_each(|m| *m = false);
        }
        let sp = dijkstra_with(g, req.u, |e| if marked[e] { 0.0 } else { g.edge(e).weight });
        let path = sp
            .path_edges(g, req.v)
            .expect("validated instances are connected");
        for e in path {
            marked[e] = true;
            edge_days[e].push(req.time);
        }
    }
    let mut purchases = Vec::new();
    let mut cost = 0.0;
    for (e, days) in edge_days.iter().enumerate() {
        if days.is_empty() {
            continue;
        }
        let scaled = instance.scaled_structure(e);
        let (c, leases) = optimal_interval_model(&scaled, days);
        cost += c;
        purchases.extend(leases.into_iter().map(|l| (e, l)));
    }
    OfflineSolution { cost, purchases }
}

/// The naive per-request baseline: lease a fresh shortest path for every
/// request with the cheapest covering lease per edge, never reusing active
/// leases.
pub fn buy_per_request(instance: &SteinerInstance) -> OfflineSolution {
    let g = &instance.graph;
    let mut purchases = Vec::new();
    let mut cost = 0.0;
    // Cheapest lease type by price (not per-step rate).
    let cheapest = instance
        .structure
        .types()
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.cost.partial_cmp(&b.1.cost).expect("finite costs"))
        .map(|(k, _)| k)
        .expect("validated structures are non-empty");
    for req in &instance.requests {
        let sp = dijkstra_with(g, req.u, |e| g.edge(e).weight);
        let path = sp
            .path_edges(g, req.v)
            .expect("validated instances are connected");
        for e in path {
            let start = aligned_start(req.time, instance.structure.length(cheapest));
            purchases.push((e, Lease::new(cheapest, start)));
            cost += instance.lease_cost(e, cheapest);
        }
    }
    OfflineSolution { cost, purchases }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::PairRequest;
    use crate::online::is_feasible;
    use leasing_core::lease::{LeaseStructure, LeaseType};
    use leasing_graph::graph::Graph;

    fn structure() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(8, 3.0)]).unwrap()
    }

    fn line_instance(requests: Vec<PairRequest>) -> SteinerInstance {
        let g = Graph::new(3, vec![(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        SteinerInstance::new(g, structure(), requests).unwrap()
    }

    #[test]
    fn route_then_lease_is_feasible() {
        let inst = line_instance(vec![
            PairRequest::new(0, 0, 2),
            PairRequest::new(1, 0, 1),
            PairRequest::new(9, 1, 2),
        ]);
        let sol = route_then_lease(&inst);
        assert!(is_feasible(&inst, |t| sol.owns(t)));
        assert!(sol.cost > 0.0);
    }

    #[test]
    fn repeated_requests_get_a_long_lease_offline() {
        // The pair (0, 2) every day for 8 days: offline leases both edges
        // once with the long type (cost 2 * 3) instead of 4 short leases each.
        let requests: Vec<PairRequest> = (0..8u64).map(|t| PairRequest::new(t, 0, 2)).collect();
        let inst = line_instance(requests);
        let sol = route_then_lease(&inst);
        assert!((sol.cost - 6.0).abs() < 1e-9, "cost {}", sol.cost);
        assert!(is_feasible(&inst, |t| sol.owns(t)));
    }

    #[test]
    fn naive_baseline_pays_per_request() {
        let requests: Vec<PairRequest> = (0..8u64).map(|t| PairRequest::new(t, 0, 2)).collect();
        let inst = line_instance(requests);
        let naive = buy_per_request(&inst);
        let smart = route_then_lease(&inst);
        assert!(is_feasible(&inst, |t| naive.owns(t)));
        assert!(
            naive.cost > 2.0 * smart.cost,
            "naive {} must far exceed offline {}",
            naive.cost,
            smart.cost
        );
    }

    #[test]
    fn windows_reset_the_marking() {
        // Two requests in different l_max windows must both be routed.
        let inst = line_instance(vec![
            PairRequest::new(0, 0, 2),
            PairRequest::new(8, 0, 2), // next aligned window of length 8
        ]);
        let sol = route_then_lease(&inst);
        assert!(is_feasible(&inst, |t| sol.owns(t)));
        // Each window pays at least the 2-edge short-lease cost.
        assert!(sol.cost >= 4.0 - 1e-9);
    }
}
