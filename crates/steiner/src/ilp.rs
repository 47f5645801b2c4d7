//! Exact ILP for tiny Steiner-leasing instances via path enumeration.
//!
//! Steiner connectivity has no compact covering ILP, so for the calibration
//! experiments we enumerate all simple `u`–`v` paths of each request (tiny
//! graphs only), introduce one selection variable per `(request, path)` and
//! one purchase variable per candidate `(edge, lease)`, and link them: a
//! selected path needs every one of its edges leased at the request time.
//!
//! Every entry point returns a typed [`SteinerIlpError`] instead of
//! panicking (or silently collapsing distinct failure modes into `None`),
//! so a sharded simulation run can record the failure and move on.

use crate::instance::SteinerInstance;
use leasing_core::interval::aligned_start;
use leasing_core::lease::Lease;
use leasing_graph::graph::Graph;
use leasing_lp::{Cmp, IlpOutcome, IntegerProgram, LinearProgram};

/// Why an exact Steiner-leasing computation could not produce a value.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SteinerIlpError {
    /// A request endpoint does not exist in the graph.
    EndpointOutOfRange {
        /// The offending node id.
        node: usize,
        /// Number of nodes in the graph.
        num_nodes: usize,
    },
    /// Some request has more than `max_paths` simple paths — the instance
    /// is too large for exact solving.
    TooManyPaths {
        /// Source endpoint of the exploding request.
        u: usize,
        /// Target endpoint of the exploding request.
        v: usize,
        /// The enumeration budget that was exceeded.
        max_paths: usize,
    },
    /// Branch-and-bound exhausted its node budget before proving
    /// optimality.
    BudgetExhausted {
        /// The node budget that ran out.
        node_limit: usize,
    },
    /// The LP relaxation could not be solved (infeasible or unbounded —
    /// neither arises for well-formed covering instances).
    RelaxationUnavailable,
}

impl std::fmt::Display for SteinerIlpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SteinerIlpError::EndpointOutOfRange { node, num_nodes } => {
                write!(f, "endpoint {node} is out of range for {num_nodes} nodes")
            }
            SteinerIlpError::TooManyPaths { u, v, max_paths } => {
                write!(
                    f,
                    "request {u}-{v} has more than {max_paths} simple paths \
                     (instance too large for exact solving)"
                )
            }
            SteinerIlpError::BudgetExhausted { node_limit } => {
                write!(
                    f,
                    "branch-and-bound exhausted its budget of {node_limit} nodes"
                )
            }
            SteinerIlpError::RelaxationUnavailable => {
                write!(f, "the LP relaxation could not be solved")
            }
        }
    }
}

impl std::error::Error for SteinerIlpError {}

/// All simple `u`–`v` paths as edge-id lists.
///
/// # Errors
///
/// Returns [`SteinerIlpError::EndpointOutOfRange`] for unknown endpoints
/// and [`SteinerIlpError::TooManyPaths`] once more than `max_paths` paths
/// exist (the instance is too large for exact solving).
pub fn enumerate_simple_paths(
    g: &Graph,
    u: usize,
    v: usize,
    max_paths: usize,
) -> Result<Vec<Vec<usize>>, SteinerIlpError> {
    for node in [u, v] {
        if node >= g.num_nodes() {
            return Err(SteinerIlpError::EndpointOutOfRange {
                node,
                num_nodes: g.num_nodes(),
            });
        }
    }
    let mut paths = Vec::new();
    let mut visited = vec![false; g.num_nodes()];
    let mut stack_edges = Vec::new();
    fn dfs(
        g: &Graph,
        cur: usize,
        target: usize,
        visited: &mut [bool],
        stack_edges: &mut Vec<usize>,
        paths: &mut Vec<Vec<usize>>,
        max_paths: usize,
    ) -> bool {
        if cur == target {
            if paths.len() >= max_paths {
                return false;
            }
            paths.push(stack_edges.clone());
            return true;
        }
        visited[cur] = true;
        for &(e, nxt) in g.neighbors(cur) {
            if !visited[nxt] {
                stack_edges.push(e);
                let ok = dfs(g, nxt, target, visited, stack_edges, paths, max_paths);
                stack_edges.pop();
                if !ok {
                    visited[cur] = false;
                    return false;
                }
            }
        }
        visited[cur] = false;
        true
    }
    if dfs(
        g,
        u,
        v,
        &mut visited,
        &mut stack_edges,
        &mut paths,
        max_paths,
    ) {
        Ok(paths)
    } else {
        Err(SteinerIlpError::TooManyPaths { u, v, max_paths })
    }
}

/// Builds the path-enumeration ILP, returning the program together with the
/// candidate `(edge, lease)` pair of every purchase variable (selection
/// variables follow after the purchases in variable order).
///
/// # Errors
///
/// Returns [`SteinerIlpError`] when some request has an unknown endpoint or
/// more than `max_paths` simple paths.
pub fn build_steiner_ilp(
    instance: &SteinerInstance,
    max_paths: usize,
) -> Result<(IntegerProgram, Vec<(usize, Lease)>), SteinerIlpError> {
    let g = &instance.graph;
    let s = &instance.structure;
    // Candidate purchases: aligned leases of every type at every request time.
    let mut candidates: Vec<(usize, Lease)> = Vec::new();
    let mut index: std::collections::HashMap<(usize, Lease), usize> =
        std::collections::HashMap::new();
    let mut lp = LinearProgram::new();
    for e in 0..g.num_edges() {
        for k in 0..s.num_types() {
            for req in &instance.requests {
                let lease = Lease::new(k, aligned_start(req.time, s.length(k)));
                if let std::collections::hash_map::Entry::Vacant(entry) = index.entry((e, lease)) {
                    let var = lp.add_bounded_var(instance.lease_cost(e, k), 1.0);
                    entry.insert(var);
                    candidates.push((e, lease));
                }
            }
        }
    }
    // Path selection variables and linking constraints.
    for req in &instance.requests {
        let paths = enumerate_simple_paths(g, req.u, req.v, max_paths)?;
        let path_vars: Vec<usize> = paths.iter().map(|_| lp.add_bounded_var(0.0, 1.0)).collect();
        lp.add_constraint(path_vars.iter().map(|&v| (v, 1.0)).collect(), Cmp::Ge, 1.0);
        for (p, path) in paths.iter().enumerate() {
            for &e in path {
                // Every covering candidate of edge e at the request time.
                let mut coeffs: Vec<(usize, f64)> = (0..s.num_types())
                    .map(|k| {
                        let lease = Lease::new(k, aligned_start(req.time, s.length(k)));
                        (index[&(e, lease)], 1.0)
                    })
                    .collect();
                coeffs.push((path_vars[p], -1.0));
                lp.add_constraint(coeffs, Cmp::Ge, 0.0);
            }
        }
    }
    Ok((IntegerProgram::all_integer(lp), candidates))
}

/// The proven-optimal cost.
///
/// # Errors
///
/// Returns [`SteinerIlpError`] when the instance is too large (path
/// explosion), a request endpoint is unknown, or the branch-and-bound node
/// budget runs out.
pub fn steiner_optimal_cost(
    instance: &SteinerInstance,
    max_paths: usize,
    node_limit: usize,
) -> Result<f64, SteinerIlpError> {
    let (ip, _) = build_steiner_ilp(instance, max_paths)?;
    match ip.solve(node_limit) {
        IlpOutcome::Optimal(sol) => Ok(sol.objective),
        _ => Err(SteinerIlpError::BudgetExhausted { node_limit }),
    }
}

/// The LP relaxation bound — a certified lower bound on the true optimum.
///
/// # Errors
///
/// Returns [`SteinerIlpError`] when path enumeration explodes or the
/// relaxation cannot be solved.
pub fn steiner_lp_lower_bound(
    instance: &SteinerInstance,
    max_paths: usize,
) -> Result<f64, SteinerIlpError> {
    let (ip, _) = build_steiner_ilp(instance, max_paths)?;
    ip.relaxation_bound()
        .ok_or(SteinerIlpError::RelaxationUnavailable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{PairRequest, SteinerInstance};
    use crate::offline::route_then_lease;
    use crate::online::SteinerLeasingOnline;
    use leasing_core::engine::Driver;
    use leasing_core::lease::{LeaseStructure, LeaseType};
    use leasing_graph::graph::Graph;

    fn structure() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(8, 3.0)]).unwrap()
    }

    fn diamond() -> Graph {
        Graph::new(4, vec![(0, 1, 1.0), (1, 3, 1.0), (0, 2, 1.0), (2, 3, 10.0)]).unwrap()
    }

    #[test]
    fn path_enumeration_finds_both_diamond_routes() {
        let g = diamond();
        let paths = enumerate_simple_paths(&g, 0, 3, 100).unwrap();
        assert_eq!(paths.len(), 2);
        let lens: Vec<usize> = paths.iter().map(Vec::len).collect();
        assert!(lens.contains(&2));
    }

    #[test]
    fn path_enumeration_bails_over_the_limit() {
        let g = diamond();
        assert_eq!(
            enumerate_simple_paths(&g, 0, 3, 1),
            Err(SteinerIlpError::TooManyPaths {
                u: 0,
                v: 3,
                max_paths: 1
            })
        );
    }

    #[test]
    fn path_enumeration_rejects_unknown_endpoints() {
        let g = diamond();
        assert_eq!(
            enumerate_simple_paths(&g, 0, 9, 100),
            Err(SteinerIlpError::EndpointOutOfRange {
                node: 9,
                num_nodes: 4
            })
        );
        assert_eq!(
            enumerate_simple_paths(&g, 7, 3, 100),
            Err(SteinerIlpError::EndpointOutOfRange {
                node: 7,
                num_nodes: 4
            })
        );
    }

    #[test]
    fn errors_are_well_behaved() {
        fn assert_error<T: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<SteinerIlpError>();
        let msg = SteinerIlpError::BudgetExhausted { node_limit: 10 }.to_string();
        assert!(msg.chars().next().unwrap().is_lowercase());
        assert!(msg.contains("10"));
    }

    #[test]
    fn ilp_optimum_picks_the_cheap_path() {
        let inst =
            SteinerInstance::new(diamond(), structure(), vec![PairRequest::new(0, 0, 3)]).unwrap();
        let opt = steiner_optimal_cost(&inst, 100, 50_000).unwrap();
        // Two unit edges with one short lease each.
        assert!((opt - 2.0).abs() < 1e-6, "opt {opt}");
    }

    #[test]
    fn ilp_optimum_uses_the_long_lease_for_sustained_demand() {
        let requests: Vec<PairRequest> = (0..8u64).map(|t| PairRequest::new(t, 0, 1)).collect();
        let g = Graph::new(2, vec![(0, 1, 1.0)]).unwrap();
        let inst = SteinerInstance::new(g, structure(), requests).unwrap();
        let opt = steiner_optimal_cost(&inst, 100, 50_000).unwrap();
        assert!(
            (opt - 3.0).abs() < 1e-6,
            "one long lease suffices, got {opt}"
        );
    }

    #[test]
    fn budget_exhaustion_is_reported_as_such() {
        let inst = SteinerInstance::new(
            diamond(),
            structure(),
            vec![PairRequest::new(0, 0, 3), PairRequest::new(5, 1, 2)],
        )
        .unwrap();
        assert_eq!(
            steiner_optimal_cost(&inst, 100, 0),
            Err(SteinerIlpError::BudgetExhausted { node_limit: 0 })
        );
    }

    #[test]
    fn lp_bound_never_exceeds_the_ilp_optimum() {
        let inst = SteinerInstance::new(
            diamond(),
            structure(),
            vec![PairRequest::new(0, 0, 3), PairRequest::new(5, 1, 2)],
        )
        .unwrap();
        let lp = steiner_lp_lower_bound(&inst, 100).unwrap();
        let ilp = steiner_optimal_cost(&inst, 100, 50_000).unwrap();
        assert!(lp <= ilp + 1e-6, "lp {lp} vs ilp {ilp}");
    }

    #[test]
    fn online_and_offline_costs_sandwich_the_optimum() {
        let inst = SteinerInstance::new(
            diamond(),
            structure(),
            vec![
                PairRequest::new(0, 0, 3),
                PairRequest::new(1, 0, 3),
                PairRequest::new(4, 2, 3),
            ],
        )
        .unwrap();
        let opt = steiner_optimal_cost(&inst, 100, 100_000).unwrap();
        let offline = route_then_lease(&inst).cost;
        let mut online = Driver::new(SteinerLeasingOnline::new(&inst), inst.structure.clone());
        online.submit_batch(inst.requests()).unwrap();
        let online_cost = online.cost();
        assert!(offline >= opt - 1e-6, "offline {offline} vs opt {opt}");
        assert!(
            online_cost >= opt - 1e-6,
            "online {online_cost} vs opt {opt}"
        );
    }
}
