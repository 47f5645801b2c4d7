//! An experimental **randomized** facility-leasing algorithm (thesis §4.5:
//! "one may hope to improve these bounds to `O(l_max log K)` and
//! `O(log K log l_max)` using randomization; preliminary ideas can be found
//! in \[47\]").
//!
//! The composition mirrors the Steiner-leasing construction: a myopic
//! facility-location assignment rule decides *which* facility serves each
//! client, and a per-facility randomized parking permit (the `O(log K)`
//! algorithm of §2.2.3) decides *how long* to lease it. No competitive
//! proof is claimed here — the thesis leaves it open — but experiment E22
//! measures the ratio against the deterministic `4(3+K)·H_{l_max}`
//! algorithm and against exact optima on small instances.

use crate::instance::FacilityInstance;
use leasing_core::engine::{Books, LeasingAlgorithm, Ledger, CATEGORY_CONNECTION};
use leasing_core::lease::{LeaseStructure, LeaseType};
use leasing_core::time::TimeStep;
use parking_permit::rand_alg::RandomizedPermit;
use rand::Rng;

/// Randomized facility leasing: myopic assignment + per-facility randomized
/// permits, each priced by its facility's lease costs and buying straight
/// into the engine's books with the facility id as the element.
#[derive(Clone, Debug)]
pub struct RandomizedFacility<'a> {
    instance: &'a FacilityInstance,
    permits: Vec<RandomizedPermit>,
    /// `(client, facility)` assignments in service order.
    assignments: Vec<(usize, usize)>,
}

impl<'a> RandomizedFacility<'a> {
    /// Creates the algorithm, drawing each facility's rounding threshold
    /// from `rng`.
    pub fn new<R: Rng + ?Sized>(instance: &'a FacilityInstance, rng: &mut R) -> Self {
        let permits = (0..instance.num_facilities())
            .map(|i| {
                let types: Vec<LeaseType> = instance
                    .structure()
                    .types()
                    .iter()
                    .enumerate()
                    .map(|(k, t)| LeaseType::new(t.length, instance.cost(i, k)))
                    .collect();
                let s = LeaseStructure::new(types).expect("instance costs are validated positive");
                RandomizedPermit::new(s, rng)
            })
            .collect();
        RandomizedFacility {
            instance,
            permits,
            assignments: Vec::new(),
        }
    }

    /// Core assignment + per-facility permit step, recording purchases and
    /// connection charges into `books`.
    ///
    /// Facility activity is read from the books' coverage index — the
    /// per-facility permits only decide *which* lease to buy.
    fn serve_with(&mut self, t: TimeStep, clients: &[usize], books: &mut Books<'_>) {
        let inst = self.instance;
        for &j in clients {
            let mut best: Option<(f64, usize)> = None;
            for i in 0..inst.num_facilities() {
                let d = inst.distance(i, j);
                let marginal = if books.covered(i, t) {
                    d
                } else {
                    let cheapest = (0..inst.structure().num_types())
                        .map(|k| inst.cost(i, k))
                        .fold(f64::INFINITY, f64::min);
                    d + cheapest
                };
                if best.is_none_or(|(b, _)| marginal < b) {
                    best = Some((marginal, i));
                }
            }
            let (_, i) = best.expect("validated instances have facilities");
            if !books.covered(i, t) {
                self.permits[i].serve_element(t, i, books);
            }
            books.charge(t, i, inst.distance(i, j), CATEGORY_CONNECTION);
            self.assignments.push((j, i));
        }
    }

    /// `(client, facility)` assignments in service order.
    pub fn assignments(&self) -> &[(usize, usize)] {
        &self.assignments
    }

    /// Whether every client was assigned to a facility that `ledger` (the
    /// ledger of the run) covers at the client's arrival time.
    pub fn is_feasible(&self, ledger: &Ledger) -> bool {
        let mut assigned = vec![None; self.instance.num_clients()];
        for &(j, i) in &self.assignments {
            assigned[j] = Some(i);
        }
        self.instance.batches().iter().all(|b| {
            b.clients
                .iter()
                .all(|&j| assigned[j].is_some_and(|i| ledger.covered(i, b.time)))
        })
    }
}

impl<'a> LeasingAlgorithm for RandomizedFacility<'a> {
    /// The batch of (globally numbered) clients arriving at a time step.
    type Request = Vec<usize>;

    fn on_request(&mut self, time: TimeStep, clients: Vec<usize>, mut books: Books<'_>) {
        self.serve_with(time, &clients, &mut books);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::FacilityInstance;
    use crate::metric::Point;
    use crate::offline;
    use crate::online::PrimalDualFacility;
    use leasing_core::engine::{Driver, LeasingAlgorithm};
    use leasing_core::lease::LeaseStructure;
    use leasing_core::rng::seeded;
    use rand::RngExt;

    fn structure() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(8, 3.0)]).unwrap()
    }

    fn two_site_instance(batches: Vec<(u64, Vec<Point>)>) -> FacilityInstance {
        FacilityInstance::euclidean(
            vec![Point::new(0.0, 0.0), Point::new(4.0, 0.0)],
            structure(),
            batches,
        )
        .unwrap()
    }

    /// Serves every batch of `inst` and returns the algorithm with its
    /// ledger.
    fn run<A: LeasingAlgorithm<Request = Vec<usize>>>(
        alg: A,
        inst: &FacilityInstance,
    ) -> (A, Ledger) {
        let mut driver = Driver::new(alg, inst.structure().clone());
        driver.submit_batch(inst.requests()).unwrap();
        driver.into_parts()
    }

    #[test]
    fn serves_all_clients_feasibly() {
        let inst = two_site_instance(vec![
            (0, vec![Point::new(0.1, 0.0), Point::new(3.9, 0.0)]),
            (3, vec![Point::new(0.2, 0.0)]),
            (11, vec![Point::new(4.1, 0.0)]),
        ]);
        let mut rng = seeded(5);
        let (alg, ledger) = run(RandomizedFacility::new(&inst, &mut rng), &inst);
        let cost = ledger.total_cost();
        assert!(cost > 0.0);
        assert!(alg.is_feasible(&ledger));
        assert!(!alg.is_feasible(&Ledger::new(structure())));
        assert_eq!(alg.assignments().len(), 4);
    }

    #[test]
    fn clients_prefer_the_near_facility() {
        let inst = two_site_instance(vec![(0, vec![Point::new(0.1, 0.0)])]);
        let mut rng = seeded(6);
        let (alg, _) = run(RandomizedFacility::new(&inst, &mut rng), &inst);
        assert_eq!(alg.assignments()[0].1, 0, "the co-located site must win");
    }

    #[test]
    fn same_seed_reproduces_the_run() {
        let inst = two_site_instance(vec![
            (0, vec![Point::new(0.1, 0.0)]),
            (5, vec![Point::new(0.3, 0.0)]),
        ]);
        let (_, a) = run(RandomizedFacility::new(&inst, &mut seeded(9)), &inst);
        let (_, b) = run(RandomizedFacility::new(&inst, &mut seeded(9)), &inst);
        assert_eq!(a.total_cost(), b.total_cost());
    }

    #[test]
    fn never_beats_the_exact_optimum() {
        let mut rng = seeded(12);
        for trial in 0..5u64 {
            let batches: Vec<(u64, Vec<Point>)> = (0..3)
                .map(|b| {
                    (
                        2 * b,
                        vec![Point::new(rng.random::<f64>() * 4.0, rng.random())],
                    )
                })
                .collect();
            let inst = two_site_instance(batches);
            let opt = offline::optimal_cost(&inst, 400_000).expect("small instance");
            let (_, ledger) = run(
                RandomizedFacility::new(&inst, &mut seeded(100 + trial)),
                &inst,
            );
            let cost = ledger.total_cost();
            assert!(cost >= opt - 1e-6, "trial {trial}: {cost} < opt {opt}");
        }
    }

    #[test]
    fn sustained_demand_escalates_to_long_leases_in_expectation() {
        // A client at the same site every step for 16 steps: across seeds,
        // the randomized permit must sometimes pick the long lease, and the
        // average cost must stay below always-short (8 short leases = 8).
        let batches: Vec<(u64, Vec<Point>)> =
            (0..16).map(|t| (t, vec![Point::new(0.0, 0.0)])).collect();
        let inst = two_site_instance(batches);
        let mut total = 0.0;
        let runs = 20;
        for seed in 0..runs {
            let (_, ledger) = run(RandomizedFacility::new(&inst, &mut seeded(seed)), &inst);
            total += ledger.total_cost();
        }
        let mean = total / runs as f64;
        assert!(mean < 8.0, "mean {mean} should beat the all-short cost 8");
    }

    #[test]
    fn comparable_to_the_deterministic_algorithm() {
        // Not a theorem — just a smoke comparison on a benign instance: the
        // randomized composition should be within a small constant of the
        // deterministic primal-dual.
        let batches: Vec<(u64, Vec<Point>)> = (0..6)
            .map(|t| (2 * t, vec![Point::new(0.1, 0.0), Point::new(3.9, 0.1)]))
            .collect();
        let inst = two_site_instance(batches);
        let det = run(PrimalDualFacility::new(&inst), &inst).1.total_cost();
        let mut sum = 0.0;
        let runs = 10;
        for seed in 0..runs {
            sum += run(RandomizedFacility::new(&inst, &mut seeded(seed)), &inst)
                .1
                .total_cost();
        }
        let mean = sum / runs as f64;
        assert!(
            mean <= 3.0 * det + 1e-9,
            "randomized mean {mean} vs deterministic {det}"
        );
    }
}
