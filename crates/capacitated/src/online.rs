//! Online greedy algorithms for capacitated facility leasing.

use crate::instance::CapacitatedInstance;
use leasing_core::engine::{Books, LeasingAlgorithm, CATEGORY_CONNECTION, CATEGORY_LEASE};
use leasing_core::framework::Triple;
use leasing_core::interval::candidates_covering;
use leasing_core::time::TimeStep;

/// How the greedy picks a lease type when opening a facility.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum LeaseChoice {
    /// Minimize the immediate price `c_{i,k}` (myopic; never overpays now,
    /// may re-lease often).
    CheapestTotal,
    /// Minimize the price per covered step `c_{i,k} / l_k` (invests in long
    /// leases; wins under sustained demand).
    BestRate,
}

/// Greedy online algorithm: each client connects to the cheapest available
/// option — an active facility with spare capacity at its arrival step, or a
/// newly leased one (lease price plus connection).
///
/// Capacity binds *per time step*: a facility serving `cap_i` clients in the
/// current batch is unavailable for further clients of that batch no matter
/// how many leases it holds.
#[derive(Clone, Debug)]
pub struct CapacitatedGreedy<'a> {
    instance: &'a CapacitatedInstance,
    choice: LeaseChoice,
    /// `(client, facility)` assignment log.
    assignments: Vec<(usize, usize)>,
}

impl<'a> CapacitatedGreedy<'a> {
    /// Creates the greedy with the given lease-type rule.
    pub fn new(instance: &'a CapacitatedInstance, choice: LeaseChoice) -> Self {
        CapacitatedGreedy {
            instance,
            choice,
            assignments: Vec::new(),
        }
    }

    /// Core greedy assignment step, recording purchases and connection
    /// charges into `books`. Facility activity is the books' coverage
    /// index, not a private table.
    fn serve_with(&mut self, t: TimeStep, clients: &[usize], books: &mut Books<'_>) {
        let base = &self.instance.base;
        let m = base.num_facilities();
        let mut usage = vec![0usize; m];
        for &j in clients {
            let mut best: Option<(f64, usize, Option<Triple>)> = None;
            for (i, &used) in usage.iter().enumerate() {
                if used >= self.instance.capacity(i) {
                    continue;
                }
                let d = base.distance(i, j);
                let option = if books.covered(i, t) {
                    (d, i, None)
                } else {
                    let (k, price) = self.pick_lease(i);
                    let lease = candidates_covering(base.structure(), t)
                        .into_iter()
                        .find(|l| l.type_index == k)
                        .expect("every type has an aligned candidate per step");
                    (
                        d + price,
                        i,
                        Some(Triple::new(i, lease.type_index, lease.start)),
                    )
                };
                if best.as_ref().is_none_or(|b| option.0 < b.0) {
                    best = Some(option);
                }
            }
            let (_, i, new_lease) =
                best.expect("validated instances always leave an available facility");
            if let Some(triple) = new_lease {
                books.buy_priced(t, triple, base.cost(i, triple.type_index), CATEGORY_LEASE);
            }
            books.charge(t, i, base.distance(i, j), CATEGORY_CONNECTION);
            usage[i] += 1;
            self.assignments.push((j, i));
        }
    }

    /// `(client, facility)` assignments in service order.
    pub fn assignments(&self) -> &[(usize, usize)] {
        &self.assignments
    }

    fn pick_lease(&self, i: usize) -> (usize, f64) {
        let base = &self.instance.base;
        let structure = base.structure();
        let mut best = (0usize, f64::INFINITY);
        for k in 0..structure.num_types() {
            let price = base.cost(i, k);
            let score = match self.choice {
                LeaseChoice::CheapestTotal => price,
                LeaseChoice::BestRate => price / structure.length(k) as f64,
            };
            if score < best.1 {
                best = (k, score);
            }
        }
        (best.0, base.cost(i, best.0))
    }
}

impl<'a> LeasingAlgorithm for CapacitatedGreedy<'a> {
    /// The batch of (globally numbered) clients arriving at a time step.
    type Request = Vec<usize>;

    fn on_request(&mut self, time: TimeStep, clients: Vec<usize>, mut books: Books<'_>) {
        self.serve_with(time, &clients, &mut books);
    }
}

/// Whether `assignments` is a valid capacitated solution: every client is
/// assigned to a facility that owns an interval-model lease active at the
/// client's arrival step, and no facility exceeds its per-step capacity.
/// `owns` answers ownership of a `(facility, type, start)` triple
/// (`|t| ledger.owns(t)` for an online run).
pub fn is_feasible_assignment(
    instance: &CapacitatedInstance,
    owns: impl Fn(Triple) -> bool,
    assignments: &[(usize, usize)],
) -> bool {
    let base = &instance.base;
    let structure = base.structure();
    // Client -> assigned facility (every client exactly once).
    let mut assigned = vec![None; base.num_clients()];
    for &(j, i) in assignments {
        if j >= base.num_clients() || i >= base.num_facilities() || assigned[j].is_some() {
            return false;
        }
        assigned[j] = Some(i);
    }
    for batch in base.batches() {
        let mut usage = vec![0usize; base.num_facilities()];
        for &j in &batch.clients {
            let Some(Some(i)) = assigned.get(j).copied() else {
                return false;
            };
            let active = candidates_covering(structure, batch.time)
                .into_iter()
                .any(|l| owns(Triple::new(i, l.type_index, l.start)));
            if !active {
                return false;
            }
            usage[i] += 1;
            if usage[i] > instance.capacity(i) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use facility_leasing::instance::FacilityInstance;
    use facility_leasing::metric::Point;
    use leasing_core::engine::{Driver, Ledger};
    use leasing_core::lease::{LeaseStructure, LeaseType};
    use std::collections::HashSet;

    fn structure() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(8, 3.0)]).unwrap()
    }

    /// Two facilities 1 apart; batches of co-located clients at facility 0.
    fn two_facility_instance(batch_sizes: &[usize], cap: usize) -> CapacitatedInstance {
        let facilities = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let batches: Vec<(u64, Vec<Point>)> = batch_sizes
            .iter()
            .enumerate()
            .map(|(t, &n)| (t as u64, vec![Point::new(0.0, 0.0); n]))
            .collect();
        let base = FacilityInstance::euclidean(facilities, structure(), batches).unwrap();
        CapacitatedInstance::uniform(base, cap).unwrap()
    }

    /// Serves every batch of `inst` with `choice` and returns the greedy
    /// with its ledger.
    fn run<'a>(
        inst: &'a CapacitatedInstance,
        choice: LeaseChoice,
    ) -> (CapacitatedGreedy<'a>, Ledger) {
        let mut driver = Driver::new(
            CapacitatedGreedy::new(inst, choice),
            inst.base.structure().clone(),
        );
        driver.submit_batch(inst.base.requests()).unwrap();
        driver.into_parts()
    }

    #[test]
    fn single_client_opens_the_nearest_facility() {
        let inst = two_facility_instance(&[1], 1);
        let (alg, ledger) = run(&inst, LeaseChoice::CheapestTotal);
        let cost = ledger.total_cost();
        assert!((cost - 1.0).abs() < 1e-9); // short lease at the co-located site
        assert_eq!(alg.assignments(), &[(0, 0)]);
        assert!(is_feasible_assignment(
            &inst,
            |t| ledger.owns(t),
            alg.assignments()
        ));
        assert!(!is_feasible_assignment(&inst, |_| false, alg.assignments()));
    }

    #[test]
    fn capacity_forces_a_second_facility_open() {
        // Batch of 2 with capacity 1: the second client must spill to the
        // remote facility even though it is farther.
        let inst = two_facility_instance(&[2], 1);
        let (alg, ledger) = run(&inst, LeaseChoice::CheapestTotal);
        let facilities: HashSet<usize> = alg.assignments().iter().map(|&(_, i)| i).collect();
        assert_eq!(facilities.len(), 2, "both facilities must serve");
        assert!(is_feasible_assignment(
            &inst,
            |t| ledger.owns(t),
            alg.assignments()
        ));
    }

    #[test]
    fn capacity_resets_between_time_steps() {
        // One client per step fits within capacity 1 at the same facility.
        let inst = two_facility_instance(&[1, 1], 1);
        let (alg, _) = run(&inst, LeaseChoice::CheapestTotal);
        let facilities: HashSet<usize> = alg.assignments().iter().map(|&(_, i)| i).collect();
        assert_eq!(facilities.len(), 1, "the same facility serves both steps");
    }

    #[test]
    fn best_rate_invests_in_long_leases() {
        // Sustained demand: 8 consecutive steps. BestRate leases long once;
        // CheapestTotal re-buys short leases.
        let inst = two_facility_instance(&[1, 1, 1, 1, 1, 1, 1, 1], 1);
        let myopic_cost = run(&inst, LeaseChoice::CheapestTotal).1.total_cost();
        let rate_cost = run(&inst, LeaseChoice::BestRate).1.total_cost();
        assert!(
            rate_cost < myopic_cost,
            "BestRate {rate_cost} must beat CheapestTotal {myopic_cost} under sustained demand"
        );
    }

    #[test]
    fn active_facility_is_reused_without_new_lease() {
        let inst = two_facility_instance(&[1, 1], 2);
        let (_, ledger) = run(&inst, LeaseChoice::CheapestTotal);
        // Both arrivals (t=0, t=1) fit in one 2-step lease.
        assert!((ledger.category_cost(CATEGORY_LEASE) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn feasibility_checker_rejects_overload() {
        let inst = two_facility_instance(&[2], 1);
        // A long lease at facility 0.
        let owns = |t: Triple| t == Triple::new(0, 1, 0);
        // Both clients at facility 0 exceeds capacity 1.
        assert!(!is_feasible_assignment(&inst, owns, &[(0, 0), (1, 0)]));
        // Unassigned client is also infeasible.
        assert!(!is_feasible_assignment(&inst, owns, &[(0, 0)]));
    }
}
