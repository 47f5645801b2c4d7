//! Offline baselines for set multicover leasing.
//!
//! * [`build_ilp_literal`] — the ILP exactly as printed in Figure 3.2
//!   (`Σ x_{(S,k,t')} ≥ p` over all candidate triples). Note the printed
//!   formulation lets two leases of the *same* set count twice towards `p`.
//! * [`build_ilp_distinct`] — the strengthened ILP that models the actual
//!   problem semantics (an arrival needs `p` *different* sets) via one
//!   indicator per (arrival, set) pair. Its optimum is the reference `Opt`
//!   used by the experiments.
//! * [`greedy`] — the classic density-greedy `O(log)`-approximation adapted
//!   to triples, used as a scalable baseline when branch-and-bound is too
//!   slow.

use crate::instance::SmclInstance;
use leasing_core::framework::Triple;
use leasing_core::interval::aligned_start;
use leasing_lp::{Cmp, IntegerProgram, LinearProgram};
use std::collections::{HashMap, HashSet};

/// Enumerates the candidate triples of every arrival, deduplicated, plus a
/// per-arrival list of indices into the candidate vector.
fn enumerate_candidates(instance: &SmclInstance) -> (Vec<Triple>, Vec<Vec<usize>>) {
    let mut index_of: HashMap<Triple, usize> = HashMap::new();
    let mut triples: Vec<Triple> = Vec::new();
    let mut per_arrival: Vec<Vec<usize>> = Vec::with_capacity(instance.arrivals.len());
    for a in &instance.arrivals {
        let mut list = Vec::new();
        for &s in instance.system.sets_containing(a.element) {
            for k in 0..instance.structure.num_types() {
                let start = aligned_start(a.time, instance.structure.length(k));
                let tr = Triple::new(s, k, start);
                let idx = *index_of.entry(tr).or_insert_with(|| {
                    triples.push(tr);
                    triples.len() - 1
                });
                list.push(idx);
            }
        }
        per_arrival.push(list);
    }
    (triples, per_arrival)
}

/// The ILP of Figure 3.2, literally: binary variable per candidate triple,
/// one `Σ x ≥ p` row per arrival.
pub fn build_ilp_literal(instance: &SmclInstance) -> (IntegerProgram, Vec<Triple>) {
    let (triples, per_arrival) = enumerate_candidates(instance);
    let mut lp = LinearProgram::new();
    let vars: Vec<usize> = triples
        .iter()
        .map(|tr| lp.add_bounded_var(instance.cost(tr.element, tr.type_index), 1.0))
        .collect();
    for (a, list) in instance.arrivals.iter().zip(&per_arrival) {
        let row: Vec<(usize, f64)> = list.iter().map(|&i| (vars[i], 1.0)).collect();
        lp.add_constraint(row, Cmp::Ge, a.multiplicity as f64);
    }
    (IntegerProgram::all_integer(lp), triples)
}

/// The strengthened ILP with distinct-set semantics: for each arrival `a`
/// and each set `S ∋ element(a)` an indicator `y_{a,S} ≤ Σ_k x_{(S,k,·)}`,
/// `y ≤ 1`, and `Σ_S y_{a,S} ≥ p_a`.
pub fn build_ilp_distinct(instance: &SmclInstance) -> (IntegerProgram, Vec<Triple>) {
    let (triples, _) = enumerate_candidates(instance);
    let mut lp = LinearProgram::new();
    let vars: Vec<usize> = triples
        .iter()
        .map(|tr| lp.add_bounded_var(instance.cost(tr.element, tr.type_index), 1.0))
        .collect();
    let index_of: HashMap<Triple, usize> =
        triples.iter().enumerate().map(|(i, t)| (*t, i)).collect();
    for a in &instance.arrivals {
        let mut y_vars = Vec::new();
        for &s in instance.system.sets_containing(a.element) {
            let y = lp.add_bounded_var(0.0, 1.0);
            // y_{a,S} <= Σ_k x_{(S,k,aligned)}
            let mut row = vec![(y, 1.0)];
            for k in 0..instance.structure.num_types() {
                let start = aligned_start(a.time, instance.structure.length(k));
                if let Some(&i) = index_of.get(&Triple::new(s, k, start)) {
                    row.push((vars[i], -1.0));
                }
            }
            lp.add_constraint(row, Cmp::Le, 0.0);
            y_vars.push(y);
        }
        let cover_row: Vec<(usize, f64)> = y_vars.iter().map(|&y| (y, 1.0)).collect();
        lp.add_constraint(cover_row, Cmp::Ge, a.multiplicity as f64);
    }
    // Only the x variables need to be integral; integral x forces the y's to
    // their bounds in some optimal solution.
    let mut ip = IntegerProgram::new(lp);
    for &v in &vars {
        ip.mark_integer(v);
    }
    (ip, triples)
}

/// Exact optimum (distinct-set semantics) via branch-and-bound; `None` if
/// the node budget is exhausted.
pub fn optimal_cost(instance: &SmclInstance, node_limit: usize) -> Option<f64> {
    if instance.arrivals.is_empty() {
        return Some(0.0);
    }
    let (ip, _) = build_ilp_distinct(instance);
    match ip.solve(node_limit) {
        leasing_lp::IlpOutcome::Optimal(sol) => Some(sol.objective),
        _ => None,
    }
}

/// LP-relaxation lower bound on the (distinct-set) optimum. Always valid,
/// used when exact solves are too slow.
pub fn lp_lower_bound(instance: &SmclInstance) -> f64 {
    if instance.arrivals.is_empty() {
        return 0.0;
    }
    let (ip, _) = build_ilp_distinct(instance);
    ip.relaxation_bound()
        .expect("covering relaxation is feasible")
}

/// Density-greedy offline heuristic: repeatedly buy the triple with the best
/// (cost / newly-covered-layers) ratio until every arrival holds its
/// multiplicity. Returns the total cost and the purchased triples.
pub fn greedy(instance: &SmclInstance) -> (f64, Vec<Triple>) {
    let (triples, per_arrival) = enumerate_candidates(instance);
    // arrival -> set -> already covering?
    let mut covered_by: Vec<HashSet<usize>> = vec![HashSet::new(); instance.arrivals.len()];
    let mut residual: Vec<usize> = instance.arrivals.iter().map(|a| a.multiplicity).collect();
    // triple index -> arrivals it can serve
    let mut serves: Vec<Vec<usize>> = vec![Vec::new(); triples.len()];
    for (ai, list) in per_arrival.iter().enumerate() {
        for &ti in list {
            serves[ti].push(ai);
        }
    }
    let mut bought: Vec<Triple> = Vec::new();
    let mut bought_set: HashSet<usize> = HashSet::new();
    let mut total = 0.0;
    loop {
        if residual.iter().all(|&r| r == 0) {
            break;
        }
        let mut best: Option<(f64, usize, usize)> = None; // (density, gain, triple)
        for (ti, tr) in triples.iter().enumerate() {
            if bought_set.contains(&ti) {
                continue;
            }
            let gain = serves[ti]
                .iter()
                .filter(|&&ai| residual[ai] > 0 && !covered_by[ai].contains(&tr.element))
                .count();
            if gain == 0 {
                continue;
            }
            let density = instance.cost(tr.element, tr.type_index) / gain as f64;
            let better = match best {
                None => true,
                Some((bd, _, _)) => density < bd - 1e-15,
            };
            if better {
                best = Some((density, gain, ti));
            }
        }
        let Some((_, _, ti)) = best else {
            panic!("greedy stalled: instance validation should guarantee feasibility");
        };
        let tr = triples[ti];
        bought_set.insert(ti);
        bought.push(tr);
        total += instance.cost(tr.element, tr.type_index);
        for &ai in &serves[ti] {
            if residual[ai] > 0 && covered_by[ai].insert(tr.element) {
                residual[ai] -= 1;
            }
        }
    }
    (total, bought)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Arrival;
    use crate::system::SetSystem;
    use leasing_core::lease::{LeaseStructure, LeaseType};

    fn lengths() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(4, 1.0), LeaseType::new(16, 3.0)]).unwrap()
    }

    fn triangle() -> SetSystem {
        SetSystem::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]).unwrap()
    }

    #[test]
    fn single_arrival_optimum_is_one_cheap_lease() {
        let inst =
            SmclInstance::uniform(triangle(), lengths(), vec![Arrival::new(0, 0, 1)]).unwrap();
        assert!((optimal_cost(&inst, 100_000).unwrap() - 1.0).abs() < 1e-6);
        let (gc, _) = greedy(&inst);
        assert!((gc - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multicover_needs_two_distinct_sets() {
        let inst =
            SmclInstance::uniform(triangle(), lengths(), vec![Arrival::new(0, 1, 2)]).unwrap();
        // Two distinct sets containing element 1 (sets 0 and 1), each one
        // short lease: cost 2.
        let opt = optimal_cost(&inst, 100_000).unwrap();
        assert!((opt - 2.0).abs() < 1e-6, "opt {opt}");
    }

    #[test]
    fn literal_ilp_can_undercut_distinct_semantics() {
        // Make the second set expensive so the literal ILP prefers leasing
        // set 0 twice (two lease types) over paying for set 1.
        let system = SetSystem::new(1, vec![vec![0], vec![0]]).unwrap();
        let structure = lengths(); // costs 1.0 and 3.0
        let costs = vec![vec![1.0, 3.0], vec![100.0, 100.0]];
        let inst =
            SmclInstance::new(system, structure, costs, vec![Arrival::new(0, 0, 2)]).unwrap();
        let (lit, _) = build_ilp_literal(&inst);
        let lit_opt = lit.solve(10_000).expect_optimal().objective;
        let dist_opt = optimal_cost(&inst, 10_000).unwrap();
        assert!((lit_opt - 4.0).abs() < 1e-6, "literal {lit_opt}"); // 1.0 + 3.0 on set 0
        assert!((dist_opt - 101.0).abs() < 1e-6, "distinct {dist_opt}");
        assert!(lit_opt <= dist_opt);
    }

    #[test]
    fn long_lease_amortises_repeated_arrivals() {
        // The same element arrives 8 times across 16 steps: one 16-step lease
        // (cost 3) beats four 4-step leases (cost 4).
        let arrivals: Vec<Arrival> = (0..8).map(|i| Arrival::new(2 * i, 0, 1)).collect();
        let system = SetSystem::new(1, vec![vec![0]]).unwrap();
        let inst = SmclInstance::uniform(system, lengths(), arrivals).unwrap();
        let opt = optimal_cost(&inst, 100_000).unwrap();
        assert!((opt - 3.0).abs() < 1e-6, "opt {opt}");
        let (gc, bought) = greedy(&inst);
        assert!((gc - 3.0).abs() < 1e-9, "greedy {gc}");
        assert_eq!(bought.len(), 1);
        assert_eq!(bought[0].type_index, 1);
    }

    #[test]
    fn lp_bound_is_below_ilp_optimum() {
        let inst = SmclInstance::uniform(
            triangle(),
            lengths(),
            vec![
                Arrival::new(0, 0, 2),
                Arrival::new(1, 1, 2),
                Arrival::new(2, 2, 2),
            ],
        )
        .unwrap();
        let lb = lp_lower_bound(&inst);
        let opt = optimal_cost(&inst, 200_000).unwrap();
        assert!(lb <= opt + 1e-6, "lb {lb} opt {opt}");
        assert!(lb > 0.0);
    }

    #[test]
    fn greedy_is_feasible_on_multicover() {
        let inst = SmclInstance::uniform(
            triangle(),
            lengths(),
            vec![
                Arrival::new(0, 0, 2),
                Arrival::new(5, 1, 2),
                Arrival::new(21, 2, 1),
            ],
        )
        .unwrap();
        let (cost, bought) = greedy(&inst);
        assert!(cost > 0.0);
        let owned: HashSet<Triple> = bought.into_iter().collect();
        assert!(crate::online::is_feasible_cover(&inst, |t| owned.contains(&t)));
    }

    #[test]
    fn empty_instance_costs_nothing() {
        let inst = SmclInstance::uniform(triangle(), lengths(), vec![]).unwrap();
        assert_eq!(optimal_cost(&inst, 10).unwrap(), 0.0);
        assert_eq!(lp_lower_bound(&inst), 0.0);
        assert_eq!(greedy(&inst).0, 0.0);
    }
}
