//! The sequential primal-dual facility-leasing algorithm of Nagarajan and
//! Williamson (prior work, thesis §4.1).
//!
//! Nagarajan and Williamson gave the *first* online algorithm for
//! FacilityLeasing, with an `O(K log n)`-competitive factor; the thesis'
//! Chapter 4 algorithm improves on it with the time-independent
//! `4(3 + K)·H_{l_max}` factor. The distinguishing feature the thesis calls
//! out in §4.3 is that Nagarajan–Williamson treat newly arrived clients *one
//! after the other* instead of simultaneously: each client raises its own
//! dual value until it either reaches a facility lease that is already
//! bought, or its bid completes the price of some candidate lease — whichever
//! happens first.
//!
//! Concretely, for a client `j` arriving at time `t` the candidate triples
//! are the `m·K` interval-model leases `(i, k, s_k)` covering `t`. A
//! previously served client `j'` whose arrival time falls inside a
//! candidate's window supports it with the frozen bid `(α̂_{j'} − d_{ij'})⁺`
//! (the cap at `α̂` is invariant INV2 of §4.3). The events visible to the
//! rising dual `α_j` are therefore
//!
//! * `α_j = d_{ij}` for a bought lease `(i, k, s)` covering `t` (connect), and
//! * `α_j = d_{ij} + (c_{ik} − Σ_{j'} bid_{j'})⁺` for an unbought candidate
//!   (buy, then connect).
//!
//! The algorithm executes the earliest event; ties prefer connecting (no
//! purchase). Assignments are irrevocable, matching the online model of
//! §2.3. This reproduction keeps the bid bookkeeping of the original but
//! fixes the processing order to global arrival order, which is how the
//! thesis describes the prior work when motivating its batch-simultaneous
//! alternative.
//!
//! Used as the prior-work baseline in experiment E23: its `O(K log n)`
//! guarantee *grows with the number of clients*, whereas Theorem 4.5 is
//! independent of `n`.

use crate::instance::FacilityInstance;
use leasing_core::engine::{Books, LeasingAlgorithm, CATEGORY_CONNECTION, CATEGORY_LEASE};
use leasing_core::framework::Triple;
use leasing_core::interval::aligned_start;
use leasing_core::time::TimeStep;

/// State of the Nagarajan–Williamson-style sequential primal-dual algorithm.
///
/// ```
/// use facility_leasing::instance::FacilityInstance;
/// use facility_leasing::metric::Point;
/// use facility_leasing::nagarajan_williamson::NagarajanWilliamson;
/// use leasing_core::engine::Driver;
/// use leasing_core::lease::{LeaseStructure, LeaseType};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lengths = LeaseStructure::new(vec![LeaseType::new(4, 2.0)])?;
/// let instance = FacilityInstance::euclidean(
///     vec![Point::new(0.0, 0.0)],
///     lengths,
///     vec![(0, vec![Point::new(1.0, 0.0)])],
/// )?;
/// let mut driver = Driver::new(NagarajanWilliamson::new(&instance), instance.structure().clone());
/// driver.submit_batch(instance.requests())?;
/// let cost = driver.cost();
/// assert!((cost - 3.0).abs() < 1e-9); // lease 2 + connect 1
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NagarajanWilliamson<'a> {
    instance: &'a FacilityInstance,
    /// Frozen dual `α̂_j` per client, set when the client is served.
    alpha_hat: Vec<f64>,
    /// Arrival time per served client (bids are window-gated on it).
    arrival: Vec<Option<TimeStep>>,
    assignments: Vec<Option<(usize, usize)>>,
}

impl<'a> NagarajanWilliamson<'a> {
    /// Creates the algorithm for `instance`.
    pub fn new(instance: &'a FacilityInstance) -> Self {
        NagarajanWilliamson {
            instance,
            alpha_hat: vec![0.0; instance.num_clients()],
            arrival: vec![None; instance.num_clients()],
            assignments: vec![None; instance.num_clients()],
        }
    }

    /// The frozen dual values `α̂_j` of all clients served so far.
    pub fn alpha_hat(&self) -> &[f64] {
        &self.alpha_hat
    }

    /// Final `(client, facility, type)` assignments.
    pub fn assignments(&self) -> Vec<(usize, usize, usize)> {
        self.assignments
            .iter()
            .enumerate()
            .filter_map(|(j, a)| a.map(|(i, k)| (j, i, k)))
            .collect()
    }

    /// Accumulated support `Σ_{j'} (α̂_{j'} − d_{ij'})⁺` of served clients
    /// whose arrival time lies in the window of the candidate triple.
    fn old_bids(&self, triple: &Triple) -> f64 {
        let window = triple.window(self.instance.structure());
        self.arrival
            .iter()
            .enumerate()
            .filter_map(|(j, t)| t.filter(|&t| window.contains(t)).map(|_| j))
            .map(|j| (self.alpha_hat[j] - self.instance.distance(triple.element, j)).max(0.0))
            .sum()
    }

    fn serve_client(&mut self, j: usize, time: TimeStep, books: &mut Books<'_>) {
        let inst = self.instance;
        let m = inst.num_facilities();
        let kk = inst.structure().num_types();

        // Event 1: reach a bought lease covering `time`, found through the
        // books's per-(facility, type) coverage index. Iterating (i, k) in
        // ascending order reproduces the original distance tie-break
        // toward the smallest (facility, type).
        let mut connect: Option<(f64, usize, usize)> = None;
        for i in 0..m {
            let d = inst.distance(i, j);
            for k in 0..kk {
                if books.active_lease_of_type(i, k, time).is_none() {
                    continue;
                }
                let better =
                    connect.is_none_or(|(bd, bi, bk)| d < bd || (d == bd && (i, k) < (bi, bk)));
                if better {
                    connect = Some((d, i, k));
                }
            }
        }

        // Event 2: complete the price of an unbought candidate.
        let mut buy: Option<(f64, Triple)> = None;
        for i in 0..m {
            for k in 0..kk {
                let start = aligned_start(time, inst.structure().length(k));
                let triple = Triple::new(i, k, start);
                if books.owns(triple) {
                    continue;
                }
                let remaining = (inst.cost(i, k) - self.old_bids(&triple)).max(0.0);
                let event = inst.distance(i, j) + remaining;
                if buy.as_ref().is_none_or(|&(be, _)| event < be) {
                    buy = Some((event, triple));
                }
            }
        }

        match (connect, buy) {
            // Ties prefer connecting: no purchase is made.
            (Some((d, i, k)), Some((event, _))) if d <= event => {
                self.finish(j, time, d, i, k, books);
            }
            (Some((d, i, k)), None) => {
                self.finish(j, time, d, i, k, books);
            }
            (_, Some((event, triple))) => {
                books.buy_priced(
                    time,
                    triple,
                    inst.cost(triple.element, triple.type_index),
                    CATEGORY_LEASE,
                );
                self.alpha_hat[j] = event;
                self.arrival[j] = Some(time);
                self.assignments[j] = Some((triple.element, triple.type_index));
                books.charge(
                    time,
                    triple.element,
                    inst.distance(triple.element, j),
                    CATEGORY_CONNECTION,
                );
            }
            (None, None) => unreachable!("every instance has at least one facility"),
        }
    }

    fn finish(
        &mut self,
        j: usize,
        time: TimeStep,
        alpha: f64,
        i: usize,
        k: usize,
        books: &mut Books<'_>,
    ) {
        self.alpha_hat[j] = alpha;
        self.arrival[j] = Some(time);
        self.assignments[j] = Some((i, k));
        books.charge(time, i, self.instance.distance(i, j), CATEGORY_CONNECTION);
    }
}

impl<'a> LeasingAlgorithm for NagarajanWilliamson<'a> {
    /// The batch of (globally numbered) clients arriving at a time step.
    type Request = Vec<usize>;

    fn on_request(&mut self, time: TimeStep, clients: Vec<usize>, mut books: Books<'_>) {
        for j in clients {
            self.serve_client(j, time, &mut books);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Point;
    use crate::online::is_feasible;
    use leasing_core::engine::{Driver, Ledger};
    use leasing_core::lease::{LeaseStructure, LeaseType};
    use std::collections::HashSet;

    /// The facilities `ledger` bought a lease of.
    fn opened(ledger: &Ledger) -> HashSet<usize> {
        ledger
            .decisions()
            .iter()
            .filter_map(|d| d.triple())
            .map(|t| t.element)
            .collect()
    }

    /// Serves every batch of `inst` and returns the algorithm with its
    /// ledger.
    fn run<'a>(inst: &'a FacilityInstance) -> (NagarajanWilliamson<'a>, Ledger) {
        let mut driver = Driver::new(NagarajanWilliamson::new(inst), inst.structure().clone());
        driver.submit_batch(inst.requests()).unwrap();
        driver.into_parts()
    }

    fn lengths() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(4, 2.0), LeaseType::new(16, 6.0)]).unwrap()
    }

    #[test]
    fn single_client_buys_cheapest_lease_and_connects() {
        let inst = FacilityInstance::euclidean(
            vec![Point::new(0.0, 0.0)],
            lengths(),
            vec![(0, vec![Point::new(3.0, 0.0)])],
        )
        .unwrap();
        let (alg, ledger) = run(&inst);
        let cost = ledger.total_cost();
        assert!((ledger.category_cost(CATEGORY_LEASE) - 2.0).abs() < 1e-9);
        assert!((ledger.category_cost(CATEGORY_CONNECTION) - 3.0).abs() < 1e-9);
        assert!((cost - 5.0).abs() < 1e-9);
        // The dual pays distance plus the full remaining price.
        assert!((alg.alpha_hat()[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn produces_feasible_solutions() {
        let inst = FacilityInstance::euclidean(
            vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)],
            lengths(),
            vec![
                (0, vec![Point::new(1.0, 0.0)]),
                (5, vec![Point::new(9.0, 0.0), Point::new(11.0, 0.0)]),
            ],
        )
        .unwrap();
        let (alg, ledger) = run(&inst);
        let assignments = alg.assignments();
        assert!(is_feasible(&inst, |t| ledger.owns(t), &assignments));
        // Facility 1's leases serve the two clients at day 5; withholding
        // them strands those clients.
        assert!(!is_feasible(
            &inst,
            |t| t.element != 1 && ledger.owns(t),
            &assignments
        ));
    }

    #[test]
    fn reuses_active_leases() {
        let inst = FacilityInstance::euclidean(
            vec![Point::new(0.0, 0.0)],
            lengths(),
            vec![
                (0, vec![Point::new(0.1, 0.0)]),
                (1, vec![Point::new(0.2, 0.0)]),
            ],
        )
        .unwrap();
        let (alg, ledger) = run(&inst);
        assert_eq!(ledger.leases_bought(), 1, "second client connects for free");
        assert!(
            (alg.alpha_hat()[1] - 0.2).abs() < 1e-9,
            "α̂ = connection distance"
        );
    }

    #[test]
    fn expired_lease_forces_repurchase() {
        let inst = FacilityInstance::euclidean(
            vec![Point::new(0.0, 0.0)],
            lengths(),
            vec![
                (0, vec![Point::new(0.0, 0.0)]),
                (8, vec![Point::new(0.0, 0.0)]),
            ],
        )
        .unwrap();
        let (_, ledger) = run(&inst);
        assert!(ledger.leases_bought() >= 2);
    }

    #[test]
    fn accumulated_bids_eventually_open_the_near_facility() {
        // Cheap facility at x = 98 (cost 1), expensive one at x = 100
        // (cost 10). Co-located clients at x = 100 arrive one per step
        // inside the long lease window: each connects to the cheap facility
        // at distance 2 and leaves a bid of 2 toward the expensive one;
        // after enough arrivals the accumulated bids complete its price and
        // the algorithm switches to opening it.
        let structure = LeaseStructure::new(vec![LeaseType::new(16, 1.0)]).unwrap();
        let costs = vec![vec![1.0], vec![10.0]];
        let batches: Vec<(u64, Vec<Point>)> = std::iter::once((0, vec![Point::new(98.0, 0.0)]))
            .chain((1..9).map(|t| (t, vec![Point::new(100.0, 0.0)])))
            .collect();
        let inst = FacilityInstance::euclidean_with_costs(
            vec![Point::new(98.0, 0.0), Point::new(100.0, 0.0)],
            structure,
            costs,
            batches,
        )
        .unwrap();
        let (alg, ledger) = run(&inst);
        let opened = opened(&ledger);
        assert!(
            opened.contains(&1),
            "bids must eventually open facility 1: {opened:?}"
        );
        // Once open, later co-located clients connect for free.
        let last = inst.num_clients() - 1;
        assert!(alg.alpha_hat()[last] < 2.0 - 1e-9);
    }

    #[test]
    fn bids_are_window_gated() {
        // A client arriving *outside* a candidate's window must not support
        // it: same construction as above but the supporting clients arrive
        // after the short lease window has rolled over, so their bids reset.
        let structure = LeaseStructure::new(vec![LeaseType::new(2, 1.0)]).unwrap();
        let costs = vec![vec![1.0], vec![10.0]];
        // Clients at x=100 at times 1, 3, 5, ...: every arrival lands in a
        // fresh window of the length-2 lease, so the expensive facility
        // never accumulates more than one bid.
        let batches: Vec<(u64, Vec<Point>)> = std::iter::once((0, vec![Point::new(98.0, 0.0)]))
            .chain((1..8).map(|s| (2 * s + 1, vec![Point::new(100.0, 0.0)])))
            .collect();
        let inst = FacilityInstance::euclidean_with_costs(
            vec![Point::new(98.0, 0.0), Point::new(100.0, 0.0)],
            structure,
            costs,
            batches,
        )
        .unwrap();
        let (_, ledger) = run(&inst);
        let opened = opened(&ledger);
        assert!(
            !opened.contains(&1),
            "window-gated bids never complete facility 1's price: {opened:?}"
        );
    }

    #[test]
    fn step_reports_exhaustion() {
        let inst = FacilityInstance::euclidean(
            vec![Point::new(0.0, 0.0)],
            lengths(),
            vec![(0, vec![Point::new(1.0, 0.0)])],
        )
        .unwrap();
        let mut driver = Driver::new(NagarajanWilliamson::new(&inst), inst.structure().clone());
        let mut batches = inst.requests();
        for (time, clients) in batches.by_ref().take(1) {
            driver.submit(time, clients).unwrap();
        }
        assert_eq!(driver.requests(), 1);
        assert!(batches.next().is_none());
    }
}
