//! The capacitated facility-leasing ILP (the Figure 4.1 program plus
//! per-step capacity rows) and its LP relaxation.

use crate::instance::CapacitatedInstance;
use leasing_core::framework::Triple;
use leasing_core::interval::aligned_start;
use leasing_lp::{Cmp, IntegerProgram, LinearProgram};
use std::collections::HashMap;

/// Builds the capacitated ILP: the uncapacitated program of Figure 4.1 with
/// one extra constraint `Σ_{j ∈ D_t} y_{ij} ≤ cap_i` per facility and batch.
/// Returns the program and the lease triple of each `x` variable.
pub fn build_ilp(instance: &CapacitatedInstance) -> (IntegerProgram, Vec<Triple>) {
    let base = &instance.base;
    let structure = base.structure();
    let mut lp = LinearProgram::new();
    let mut x_of: HashMap<Triple, usize> = HashMap::new();
    let mut triples: Vec<Triple> = Vec::new();

    for b in base.batches() {
        for k in 0..structure.num_types() {
            let start = aligned_start(b.time, structure.length(k));
            for i in 0..base.num_facilities() {
                let tr = Triple::new(i, k, start);
                x_of.entry(tr).or_insert_with(|| {
                    triples.push(tr);
                    lp.add_bounded_var(base.cost(i, k), 1.0)
                });
            }
        }
    }

    for b in base.batches() {
        // y variables of this batch, grouped by facility for the capacity
        // rows.
        let mut per_facility: Vec<Vec<usize>> = vec![Vec::new(); base.num_facilities()];
        for &j in &b.clients {
            let mut assign_row = Vec::new();
            for i in 0..base.num_facilities() {
                let y = lp.add_bounded_var(base.distance(i, j), 1.0);
                per_facility[i].push(y);
                assign_row.push((y, 1.0));
                let mut row = vec![(y, 1.0)];
                for k in 0..structure.num_types() {
                    let start = aligned_start(b.time, structure.length(k));
                    row.push((x_of[&Triple::new(i, k, start)], -1.0));
                }
                lp.add_constraint(row, Cmp::Le, 0.0);
            }
            lp.add_constraint(assign_row, Cmp::Ge, 1.0);
        }
        for (i, ys) in per_facility.iter().enumerate() {
            if ys.len() > instance.capacity(i) {
                lp.add_constraint(
                    ys.iter().map(|&y| (y, 1.0)).collect(),
                    Cmp::Le,
                    instance.capacity(i) as f64,
                );
            }
        }
    }

    let mut ip = IntegerProgram::new(lp);
    for tr in &triples {
        ip.mark_integer(x_of[tr]);
    }
    // With capacities the assignment polytope is no longer integral for free,
    // so the y variables must be integral too.
    for v in 0..ip.relaxation().num_vars() {
        ip.mark_integer(v);
    }
    (ip, triples)
}

/// Exact optimum via branch-and-bound; `None` if the node budget is
/// exhausted.
pub fn optimal_cost(instance: &CapacitatedInstance, node_limit: usize) -> Option<f64> {
    if instance.base.num_clients() == 0 {
        return Some(0.0);
    }
    let (ip, _) = build_ilp(instance);
    match ip.solve(node_limit) {
        leasing_lp::IlpOutcome::Optimal(sol) => Some(sol.objective),
        _ => None,
    }
}

/// LP-relaxation lower bound on the optimum (always valid).
pub fn lp_lower_bound(instance: &CapacitatedInstance) -> f64 {
    if instance.base.num_clients() == 0 {
        return 0.0;
    }
    let (ip, _) = build_ilp(instance);
    ip.relaxation_bound()
        .expect("capacitated relaxation is feasible for validated instances")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::{CapacitatedGreedy, LeaseChoice};
    use facility_leasing::instance::FacilityInstance;
    use facility_leasing::metric::Point;
    use leasing_core::engine::Driver;
    use leasing_core::lease::{LeaseStructure, LeaseType};

    fn structure() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(8, 3.0)]).unwrap()
    }

    fn instance(batch_sizes: &[usize], cap: usize) -> CapacitatedInstance {
        let facilities = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let batches: Vec<(u64, Vec<Point>)> = batch_sizes
            .iter()
            .enumerate()
            .map(|(t, &n)| (t as u64, vec![Point::new(0.0, 0.0); n]))
            .collect();
        let base = FacilityInstance::euclidean(facilities, structure(), batches).unwrap();
        CapacitatedInstance::uniform(base, cap).unwrap()
    }

    #[test]
    fn capacity_makes_the_optimum_open_two_facilities() {
        let loose = instance(&[2], 2);
        let tight = instance(&[2], 1);
        let opt_loose = optimal_cost(&loose, 100_000).unwrap();
        let opt_tight = optimal_cost(&tight, 100_000).unwrap();
        // One facility suffices without the capacity bound: lease 1.
        assert!((opt_loose - 1.0).abs() < 1e-5, "loose {opt_loose}");
        // With cap 1 the second client pays the remote lease + distance 1.
        assert!((opt_tight - 3.0).abs() < 1e-5, "tight {opt_tight}");
    }

    #[test]
    fn greedy_never_beats_the_optimum() {
        for (sizes, cap) in [(&[2, 1][..], 1), (&[1, 1, 1][..], 2), (&[2][..], 2)] {
            let inst = instance(sizes, cap);
            let opt = optimal_cost(&inst, 200_000).unwrap();
            for choice in [LeaseChoice::CheapestTotal, LeaseChoice::BestRate] {
                let mut greedy = Driver::new(
                    CapacitatedGreedy::new(&inst, choice),
                    inst.base.structure().clone(),
                );
                greedy.submit_batch(inst.base.requests()).unwrap();
                let cost = greedy.cost();
                assert!(
                    cost >= opt - 1e-6,
                    "greedy {cost} below opt {opt} for {sizes:?} cap {cap}"
                );
            }
        }
    }

    #[test]
    fn lp_bound_is_below_the_ilp() {
        let inst = instance(&[2, 2], 1);
        let lb = lp_lower_bound(&inst);
        let opt = optimal_cost(&inst, 200_000).unwrap();
        assert!(lb <= opt + 1e-6, "lb {lb} opt {opt}");
        assert!(lb > 0.0);
    }

    #[test]
    fn empty_instance_is_free() {
        let base =
            FacilityInstance::euclidean(vec![Point::new(0.0, 0.0)], structure(), vec![]).unwrap();
        let inst = CapacitatedInstance::uniform(base, 1).unwrap();
        assert_eq!(optimal_cost(&inst, 10).unwrap(), 0.0);
        assert_eq!(lp_lower_bound(&inst), 0.0);
    }

    #[test]
    fn uncapacitated_limit_matches_the_base_ilp() {
        // Huge capacity: the capacitated optimum equals the uncapacitated one.
        let inst = instance(&[2, 1], 100);
        let capacitated = optimal_cost(&inst, 200_000).unwrap();
        let plain = facility_leasing::offline::optimal_cost(&inst.base, 200_000).unwrap();
        assert!((capacitated - plain).abs() < 1e-6);
    }
}
