//! The **OnlineLeasingWithDeadlines** (OLD) problem and its deterministic
//! primal-dual algorithm (thesis §5.2–5.4).
//!
//! A client `(t, d)` is served if some bought lease covers at least one day
//! of its window `[t, t + d]`. On arrival of an un-"intersected" client the
//! algorithm raises the client's dual until some candidate lease becomes
//! tight, buys every tight candidate covering the *arrival* day `t`
//! (Step 1, justified by Proposition 5.1), and mirrors those purchases at
//! the *deadline* day `t + d` (Step 2). Uniform window lengths give an
//! optimal `O(K)` ratio; general windows give `Θ(K + d_max/l_min)`
//! (Theorem 5.3).

use leasing_core::engine::{Books, LeasingAlgorithm};
use leasing_core::framework::Triple;
use leasing_core::interval::{candidates_covering, candidates_intersecting};
use leasing_core::lease::{Lease, LeaseStructure};
use leasing_core::time::{TimeStep, Window};
use leasing_core::EPS;
use std::collections::HashMap;

/// A client with a service window: arrives at `arrival`, must be served by
/// `arrival + slack` (the window `[arrival, arrival + slack]`, inclusive).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OldClient {
    /// Arrival day `t`.
    pub arrival: TimeStep,
    /// Slack `d`: number of days the client can wait (`0` = serve today,
    /// recovering the parking permit problem).
    pub slack: u64,
}

impl OldClient {
    /// Creates the client `(arrival, slack)`.
    pub fn new(arrival: TimeStep, slack: u64) -> Self {
        OldClient { arrival, slack }
    }

    /// Deadline day `t + d`.
    pub fn deadline(&self) -> TimeStep {
        self.arrival + self.slack
    }

    /// The inclusive service window `[t, t + d]` as a half-open
    /// [`Window`] of length `d + 1`.
    pub fn window(&self) -> Window {
        Window::closed(self.arrival, self.deadline())
    }
}

/// Why an [`OldInstance`] failed validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OldInstanceError {
    /// Clients must arrive in non-decreasing order; index of the offender.
    UnsortedClients(usize),
}

impl std::fmt::Display for OldInstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OldInstanceError::UnsortedClients(i) => {
                write!(f, "client {i} breaks the non-decreasing arrival order")
            }
        }
    }
}

impl std::error::Error for OldInstanceError {}

/// An OLD instance: the lease structure plus clients in arrival order.
#[derive(Clone, Debug, PartialEq)]
pub struct OldInstance {
    /// The `K` lease types.
    pub structure: LeaseStructure,
    /// Clients in non-decreasing arrival order.
    pub clients: Vec<OldClient>,
}

impl OldInstance {
    /// Validates arrival order and bundles the instance.
    ///
    /// # Errors
    ///
    /// Returns [`OldInstanceError::UnsortedClients`] when arrivals decrease.
    pub fn new(
        structure: LeaseStructure,
        clients: Vec<OldClient>,
    ) -> Result<Self, OldInstanceError> {
        for i in 1..clients.len() {
            if clients[i - 1].arrival > clients[i].arrival {
                return Err(OldInstanceError::UnsortedClients(i));
            }
        }
        Ok(OldInstance { structure, clients })
    }

    /// Whether all windows have the same length (*uniform* OLD, the `O(K)`
    /// regime of Theorem 5.3).
    pub fn is_uniform(&self) -> bool {
        self.clients.windows(2).all(|w| w[0].slack == w[1].slack)
    }

    /// Largest slack `d_max`.
    pub fn d_max(&self) -> u64 {
        self.clients.iter().map(|c| c.slack).max().unwrap_or(0)
    }

    /// The clients as `(arrival, slack)` requests for a
    /// [`Driver`](leasing_core::engine::Driver) over [`OldPrimalDual`].
    pub fn requests(&self) -> impl Iterator<Item = (TimeStep, u64)> + '_ {
        self.clients.iter().map(|c| (c.arrival, c.slack))
    }
}

/// The deterministic primal-dual OLD algorithm of §5.3.
#[derive(Clone, Debug)]
pub struct OldPrimalDual<'a> {
    instance: &'a OldInstance,
    /// Dual contribution accumulated per candidate lease.
    contributions: HashMap<Lease, f64>,
    /// Clients with a strictly positive dual variable, with their dual.
    positive_clients: Vec<(OldClient, f64)>,
    dual_value: f64,
}

/// The single leased resource of the OLD problem; its element id in the
/// recorded [`Triple`] decisions.
pub const OLD_ELEMENT: usize = 0;

impl<'a> OldPrimalDual<'a> {
    /// Creates the algorithm for `instance`.
    pub fn new(instance: &'a OldInstance) -> Self {
        OldPrimalDual {
            instance,
            contributions: HashMap::new(),
            positive_clients: Vec::new(),
            dual_value: 0.0,
        }
    }

    /// Total dual value raised (a lower bound on the optimum by weak
    /// duality).
    pub fn dual_value(&self) -> f64 {
        self.dual_value
    }

    /// Core primal-dual step for one client, recording purchases into
    /// `ledger`.
    fn serve_with(&mut self, client: OldClient, books: &mut Books<'_>) {
        // Skip if the client "intersects" a previous positive-dual client
        // (t', d') at its deadline t' + d' (the §5.3 precondition): the
        // Step 2 mirror purchase at t' + d' already serves this client.
        let skip = self.positive_clients.iter().any(|(p, _)| {
            p.arrival < client.arrival
                && p.deadline() >= client.arrival
                && p.deadline() <= client.deadline()
        });
        if skip {
            debug_assert!(
                books.covered_during(OLD_ELEMENT, client.window()),
                "intersected client must be served"
            );
            return;
        }

        // Step 1: raise the dual until some candidate is tight.
        let candidates = candidates_intersecting(&self.instance.structure, client.window());
        debug_assert!(!candidates.is_empty());
        let delta = candidates
            .iter()
            .map(|c| {
                let used = self.contributions.get(c).copied().unwrap_or(0.0);
                (c.cost(&self.instance.structure) - used).max(0.0)
            })
            .fold(f64::INFINITY, f64::min);
        self.dual_value += delta;
        if delta > EPS {
            self.positive_clients.push((client, delta));
        }
        for c in &candidates {
            *self.contributions.entry(*c).or_insert(0.0) += delta;
        }

        // Buy all tight candidates covering the arrival day t.
        let arrival_candidates = candidates_covering(&self.instance.structure, client.arrival);
        let mut bought_types: Vec<usize> = Vec::new();
        for c in arrival_candidates {
            let used = self.contributions.get(&c).copied().unwrap_or(0.0);
            if used >= c.cost(&self.instance.structure) - EPS {
                bought_types.push(c.type_index);
                self.buy(client.arrival, c, books);
            }
        }
        // Proposition 5.1: at least one tight candidate covers t.
        debug_assert!(
            !bought_types.is_empty(),
            "Proposition 5.1 violated: no tight candidate covers the arrival day"
        );

        // Step 2: mirror the purchases at the deadline day t + d.
        if client.slack > 0 {
            for k in bought_types {
                let len = self.instance.structure.length(k);
                let start = leasing_core::interval::aligned_start(client.deadline(), len);
                self.buy(client.arrival, Lease::new(k, start), books);
            }
        }
        debug_assert!(books.covered_during(OLD_ELEMENT, client.window()));
    }

    fn buy(&self, t: TimeStep, lease: Lease, books: &mut Books<'_>) {
        let triple = Triple::new(OLD_ELEMENT, lease.type_index, lease.start);
        if !books.owns(triple) {
            books.buy(t, triple);
        }
    }
}

impl<'a> LeasingAlgorithm for OldPrimalDual<'a> {
    /// The arriving client's slack `d` (the request arrives at its arrival
    /// time `t`, so the pair `(t, d)` reconstructs the client).
    type Request = u64;

    fn on_request(&mut self, time: TimeStep, slack: u64, mut books: Books<'_>) {
        self.serve_with(OldClient::new(time, slack), &mut books);
    }
}

/// Checks that every client of `instance` has an owned interval-model
/// lease of [`OLD_ELEMENT`] intersecting its window; `owns` answers
/// ownership of a triple (`|t| ledger.owns(t)` for an online run).
pub fn is_feasible(instance: &OldInstance, owns: impl Fn(Triple) -> bool) -> bool {
    instance.clients.iter().all(|c| {
        candidates_intersecting(&instance.structure, c.window())
            .into_iter()
            .any(|l| owns(Triple::new(OLD_ELEMENT, l.type_index, l.start)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use leasing_core::engine::{Driver, Ledger};
    use leasing_core::lease::LeaseType;

    /// Serves every client of `inst` and returns the algorithm with its
    /// ledger.
    fn run(inst: &OldInstance) -> (OldPrimalDual<'_>, Ledger) {
        let mut driver = Driver::new(OldPrimalDual::new(inst), inst.structure.clone());
        driver.submit_batch(inst.requests()).unwrap();
        driver.into_parts()
    }

    fn structure() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(16, 3.0)]).unwrap()
    }

    #[test]
    fn client_window_is_inclusive() {
        let c = OldClient::new(3, 4);
        assert_eq!(c.deadline(), 7);
        assert!(c.window().contains(3) && c.window().contains(7) && !c.window().contains(8));
    }

    #[test]
    fn zero_slack_recovers_parking_permit_behaviour() {
        let inst = OldInstance::new(
            structure(),
            vec![OldClient::new(0, 0), OldClient::new(1, 0)],
        )
        .unwrap();
        let (_, ledger) = run(&inst);
        let cost = ledger.total_cost();
        assert!(cost > 0.0);
        assert!(is_feasible(&inst, |t| ledger.owns(t)));
        // With zero slack, Step 2 buys nothing extra: every purchase covers
        // an arrival day.
        for l in ledger.decisions().iter().filter_map(|d| d.lease) {
            assert!(
                inst.clients
                    .iter()
                    .any(|c| l.window(&inst.structure).contains(c.arrival)),
                "{l:?} covers no arrival"
            );
        }
    }

    #[test]
    fn all_clients_end_up_served() {
        let inst = OldInstance::new(
            structure(),
            vec![
                OldClient::new(0, 6),
                OldClient::new(3, 6),
                OldClient::new(10, 2),
                OldClient::new(30, 0),
            ],
        )
        .unwrap();
        let (_, ledger) = run(&inst);
        assert!(is_feasible(&inst, |t| ledger.owns(t)));
        for c in &inst.clients {
            assert!(ledger.covered_during(OLD_ELEMENT, c.window()));
        }
        // The client at day 30 has a single serving purchase: withholding
        // it leaves the client unserved.
        let last = ledger.decisions().last().and_then(|d| d.triple()).unwrap();
        assert!(!is_feasible(&inst, |t| t != last && ledger.owns(t)));
    }

    #[test]
    fn intersected_clients_are_skipped_for_free() {
        // Client 1 (0, 4) gets a positive dual and mirror purchases at day 4.
        // Client 2 (2, 4): window [2, 6] contains day 4 -> skipped.
        let inst = OldInstance::new(
            structure(),
            vec![OldClient::new(0, 4), OldClient::new(2, 4)],
        )
        .unwrap();
        let mut driver = Driver::with_ledger(
            OldPrimalDual::new(&inst),
            Ledger::new(inst.structure.clone()),
        );
        driver.submit(0, 4).unwrap();
        let cost_after_first = driver.ledger().total_cost();
        driver.submit(2, 4).unwrap();
        assert_eq!(
            driver.ledger().total_cost(),
            cost_after_first,
            "second client must be free"
        );
        assert!(driver
            .ledger()
            .covered_during(OLD_ELEMENT, inst.clients[1].window()));
    }

    #[test]
    fn uniformity_and_dmax_are_reported() {
        let uniform = OldInstance::new(
            structure(),
            vec![OldClient::new(0, 3), OldClient::new(5, 3)],
        )
        .unwrap();
        assert!(uniform.is_uniform());
        assert_eq!(uniform.d_max(), 3);
        let non_uniform = OldInstance::new(
            structure(),
            vec![OldClient::new(0, 3), OldClient::new(5, 9)],
        )
        .unwrap();
        assert!(!non_uniform.is_uniform());
        assert_eq!(non_uniform.d_max(), 9);
    }

    #[test]
    fn rejects_unsorted_clients() {
        let err = OldInstance::new(
            structure(),
            vec![OldClient::new(5, 0), OldClient::new(1, 0)],
        );
        assert_eq!(err, Err(OldInstanceError::UnsortedClients(1)));
    }

    #[test]
    fn dual_value_lower_bounds_cost_by_weak_duality_shape() {
        let inst = OldInstance::new(
            structure(),
            vec![
                OldClient::new(0, 2),
                OldClient::new(6, 2),
                OldClient::new(12, 2),
            ],
        )
        .unwrap();
        let (alg, ledger) = run(&inst);
        let cost = ledger.total_cost();
        // Theorem 5.3 (uniform): cost <= 2K * dual.
        let k = inst.structure.num_types() as f64;
        assert!(
            cost <= 2.0 * k * alg.dual_value() + 1e-9,
            "cost {cost} vs 2K*dual {}",
            2.0 * k * alg.dual_value()
        );
    }
}
