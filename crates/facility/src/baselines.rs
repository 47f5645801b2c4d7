//! Online baselines for facility leasing.
//!
//! [`GreedyLease`] is the natural lease-or-connect heuristic: each client
//! either connects to the closest currently-active facility or leases the
//! facility/type pair minimising `c_{ik}/l_k`-amortised opening plus
//! connection cost — whichever is cheaper *right now*. It carries no
//! worst-case guarantee and serves as the strawman the primal-dual algorithm
//! is compared against in experiment E9.

use crate::instance::FacilityInstance;
use leasing_core::framework::Triple;
use leasing_core::interval::aligned_start;
use std::collections::HashSet;

/// Greedy lease-or-connect baseline.
#[derive(Debug)]
pub struct GreedyLease<'a> {
    instance: &'a FacilityInstance,
    owned: HashSet<Triple>,
    lease_cost: f64,
    connect_cost: f64,
    assignments: Vec<Option<(usize, usize)>>,
    next_batch: usize,
}

impl<'a> GreedyLease<'a> {
    /// Creates the baseline for `instance`.
    pub fn new(instance: &'a FacilityInstance) -> Self {
        GreedyLease {
            instance,
            owned: HashSet::new(),
            lease_cost: 0.0,
            connect_cost: 0.0,
            assignments: vec![None; instance.num_clients()],
            next_batch: 0,
        }
    }

    /// Processes all batches and returns the total cost.
    pub fn run(&mut self) -> f64 {
        let inst = self.instance;
        while self.next_batch < inst.batches().len() {
            let batch = &inst.batches()[self.next_batch];
            self.next_batch += 1;
            for &j in &batch.clients {
                // Option A: connect to the best already-active facility.
                let mut best_connect: Option<(f64, usize, usize)> = None;
                for k in 0..inst.structure().num_types() {
                    let start = aligned_start(batch.time, inst.structure().length(k));
                    for i in 0..inst.num_facilities() {
                        if self.owned.contains(&Triple::new(i, k, start)) {
                            let d = inst.distance(i, j);
                            if best_connect.is_none_or(|(bd, _, _)| d < bd) {
                                best_connect = Some((d, i, k));
                            }
                        }
                    }
                }
                // Option B: lease a new facility/type.
                let mut best_lease: Option<(f64, usize, usize)> = None;
                for i in 0..inst.num_facilities() {
                    for k in 0..inst.structure().num_types() {
                        let total = inst.cost(i, k) + inst.distance(i, j);
                        if best_lease.is_none_or(|(bt, _, _)| total < bt) {
                            best_lease = Some((total, i, k));
                        }
                    }
                }
                let (lease_total, li, lk) = best_lease.expect("instance has at least one facility");
                match best_connect {
                    Some((d, i, k)) if d <= lease_total => {
                        self.connect_cost += d;
                        self.assignments[j] = Some((i, k));
                    }
                    _ => {
                        let start = aligned_start(batch.time, inst.structure().length(lk));
                        let triple = Triple::new(li, lk, start);
                        if self.owned.insert(triple) {
                            self.lease_cost += inst.cost(li, lk);
                        }
                        self.connect_cost += inst.distance(li, j);
                        self.assignments[j] = Some((li, lk));
                    }
                }
            }
        }
        self.total_cost()
    }

    /// Total cost paid so far.
    pub fn total_cost(&self) -> f64 {
        self.lease_cost + self.connect_cost
    }

    /// The leases bought.
    pub fn owned_leases(&self) -> impl Iterator<Item = &Triple> {
        self.owned.iter()
    }

    /// Final `(client, facility, type)` assignments.
    pub fn assignments(&self) -> Vec<(usize, usize, usize)> {
        self.assignments
            .iter()
            .enumerate()
            .filter_map(|(j, a)| a.map(|(i, k)| (j, i, k)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Point;
    use crate::online::is_feasible;
    use leasing_core::lease::{LeaseStructure, LeaseType};

    fn lengths() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(4, 2.0), LeaseType::new(16, 6.0)]).unwrap()
    }

    #[test]
    fn greedy_produces_feasible_solutions() {
        let inst = FacilityInstance::euclidean(
            vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)],
            lengths(),
            vec![
                (0, vec![Point::new(1.0, 0.0)]),
                (5, vec![Point::new(9.0, 0.0), Point::new(11.0, 0.0)]),
            ],
        )
        .unwrap();
        let mut alg = GreedyLease::new(&inst);
        let cost = alg.run();
        assert!(cost > 0.0);
        let owned: HashSet<Triple> = alg.owned_leases().copied().collect();
        assert!(is_feasible(
            &inst,
            |t| owned.contains(&t),
            &alg.assignments()
        ));
    }

    #[test]
    fn greedy_reuses_active_leases() {
        let inst = FacilityInstance::euclidean(
            vec![Point::new(0.0, 0.0)],
            lengths(),
            vec![
                (0, vec![Point::new(0.1, 0.0)]),
                (1, vec![Point::new(0.2, 0.0)]),
            ],
        )
        .unwrap();
        let mut alg = GreedyLease::new(&inst);
        alg.run();
        assert_eq!(alg.owned_leases().count(), 1);
    }

    #[test]
    fn greedy_prefers_connection_when_cheaper() {
        // Second client is close: connecting (0.2) beats a fresh lease (>= 2).
        let inst = FacilityInstance::euclidean(
            vec![Point::new(0.0, 0.0), Point::new(0.3, 0.0)],
            lengths(),
            vec![(0, vec![Point::new(0.0, 0.0), Point::new(0.2, 0.0)])],
        )
        .unwrap();
        let mut alg = GreedyLease::new(&inst);
        alg.run();
        assert_eq!(alg.owned_leases().count(), 1);
    }
}
