//! Demands that need **multiple consecutive service days** (thesis §5.6:
//! "Allowing demands that require more than one day to be served will be a
//! natural extension of our model").
//!
//! A client `(a, d, s)` arrives at day `a`, has deadline `a + d`, and must
//! receive `s` *consecutive* covered days starting no earlier than `a` and
//! finishing no later than `a + d`. Setting `s = 1` recovers the OLD model
//! of §5.2.
//!
//! The online algorithm extends the OLD primal-dual greedily: it picks the
//! service block with the fewest uncovered days (earliest on ties) and runs
//! one parking-permit primal-dual step per uncovered day, sharing lease
//! contributions across clients. The exact ILP below calibrates it on small
//! instances.

use leasing_core::engine::{Books, LeasingAlgorithm, Ledger};
use leasing_core::framework::Triple;
use leasing_core::interval::candidates_covering;
use leasing_core::lease::{Lease, LeaseStructure};
use leasing_core::time::{TimeStep, Window};
use leasing_core::EPS;
use leasing_lp::{Cmp, IlpOutcome, IntegerProgram, LinearProgram};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One multi-day demand.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MultiDayClient {
    /// Arrival day `a`.
    pub arrival: TimeStep,
    /// Deadline slack `d` (the deadline is `a + d`).
    pub slack: u64,
    /// Consecutive covered days required (`s >= 1`).
    pub duration: u64,
}

impl MultiDayClient {
    /// Creates the client `(arrival, slack, duration)`.
    pub fn new(arrival: TimeStep, slack: u64, duration: u64) -> Self {
        MultiDayClient {
            arrival,
            slack,
            duration,
        }
    }

    /// The admissible start days of the service block:
    /// `[arrival, arrival + slack - duration + 1]`.
    pub fn start_days(&self) -> impl Iterator<Item = TimeStep> {
        let last = self.arrival + self.slack + 1 - self.duration;
        self.arrival..=last
    }

    /// The service block starting at `b`.
    pub fn block_at(&self, b: TimeStep) -> Window {
        Window::new(b, self.duration)
    }
}

/// Why a [`MultiDayInstance`] failed validation.
#[derive(Clone, Debug, PartialEq)]
pub enum MultiDayError {
    /// Client `usize` has zero duration.
    ZeroDuration(usize),
    /// Client `usize` has a duration longer than its deadline window.
    DurationExceedsWindow(usize),
    /// Client `usize` breaks the non-decreasing arrival order.
    UnsortedClients(usize),
}

impl std::fmt::Display for MultiDayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultiDayError::ZeroDuration(i) => write!(f, "client {i} has zero duration"),
            MultiDayError::DurationExceedsWindow(i) => {
                write!(f, "client {i} needs more days than its window holds")
            }
            MultiDayError::UnsortedClients(i) => {
                write!(f, "client {i} breaks the non-decreasing arrival order")
            }
        }
    }
}

impl std::error::Error for MultiDayError {}

/// A multi-day leasing instance.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MultiDayInstance {
    /// The `K` lease types.
    pub structure: LeaseStructure,
    /// Clients in non-decreasing arrival order.
    pub clients: Vec<MultiDayClient>,
}

impl MultiDayInstance {
    /// Validates and builds an instance.
    ///
    /// # Errors
    ///
    /// Returns a [`MultiDayError`] if some client has zero duration, cannot
    /// fit its block before the deadline, or arrivals are unsorted.
    pub fn new(
        structure: LeaseStructure,
        clients: Vec<MultiDayClient>,
    ) -> Result<Self, MultiDayError> {
        for (i, c) in clients.iter().enumerate() {
            if c.duration == 0 {
                return Err(MultiDayError::ZeroDuration(i));
            }
            if c.duration > c.slack + 1 {
                return Err(MultiDayError::DurationExceedsWindow(i));
            }
            if i > 0 && clients[i - 1].arrival > c.arrival {
                return Err(MultiDayError::UnsortedClients(i));
            }
        }
        Ok(MultiDayInstance { structure, clients })
    }

    /// The clients as `(arrival, (slack, duration))` requests for a
    /// [`Driver`](leasing_core::engine::Driver) over [`MultiDayOnline`].
    pub fn requests(&self) -> impl Iterator<Item = (TimeStep, (u64, u64))> + '_ {
        self.clients
            .iter()
            .map(|c| (c.arrival, (c.slack, c.duration)))
    }

    /// Largest required duration over all clients.
    pub fn s_max(&self) -> u64 {
        self.clients.iter().map(|c| c.duration).max().unwrap_or(0)
    }
}

/// Online algorithm for multi-day demands: block selection by fewest
/// uncovered days, then a shared parking-permit primal-dual per uncovered
/// day.
#[derive(Clone, Debug)]
pub struct MultiDayOnline<'a> {
    instance: &'a MultiDayInstance,
    contributions: HashMap<Lease, f64>,
    /// Chosen service block start per served client (in client order).
    service_starts: Vec<TimeStep>,
}

impl<'a> MultiDayOnline<'a> {
    /// Creates the algorithm for `instance`.
    pub fn new(instance: &'a MultiDayInstance) -> Self {
        MultiDayOnline {
            instance,
            contributions: HashMap::new(),
            service_starts: Vec::new(),
        }
    }

    /// Number of days of `window` not covered according to `ledger`.
    fn uncovered_days(ledger: &Ledger, window: Window) -> u64 {
        window.iter().filter(|&t| !ledger.covered(0, t)).count() as u64
    }

    /// Core block-choice + permit step, recording purchases into `ledger`.
    fn serve_with(&mut self, client: MultiDayClient, books: &mut Books<'_>) {
        let mut best: Option<(u64, TimeStep)> = None;
        for b in client.start_days() {
            let holes = Self::uncovered_days(books, client.block_at(b));
            if best.is_none_or(|(h, _)| holes < h) {
                best = Some((holes, b));
            }
            if holes == 0 {
                break; // a fully covered block cannot be beaten
            }
        }
        let (_, start) = best.expect("validated clients have at least one block");
        self.service_starts.push(start);
        for t in client.block_at(start).iter() {
            self.permit_step(t, books);
        }
    }

    /// One parking-permit primal-dual step covering day `t`.
    fn permit_step(&mut self, t: TimeStep, books: &mut Books<'_>) {
        if books.covered(0, t) {
            return;
        }
        let candidates = candidates_covering(&self.instance.structure, t);
        let delta = candidates
            .iter()
            .map(|c| {
                let used = self.contributions.get(c).copied().unwrap_or(0.0);
                (c.cost(&self.instance.structure) - used).max(0.0)
            })
            .fold(f64::INFINITY, f64::min);
        for c in candidates {
            let entry = self.contributions.entry(c).or_insert(0.0);
            *entry += delta;
            let triple = Triple::new(0, c.type_index, c.start);
            if *entry >= c.cost(&self.instance.structure) - EPS && !books.owns(triple) {
                books.buy(t, triple);
            }
        }
        debug_assert!(books.covered(0, t));
    }

    /// The chosen service-block start of each served client.
    pub fn service_starts(&self) -> &[TimeStep] {
        &self.service_starts
    }
}

impl<'a> LeasingAlgorithm for MultiDayOnline<'a> {
    /// `(slack, duration)` of the client arriving at a time step.
    type Request = (u64, u64);

    fn on_request(&mut self, time: TimeStep, request: (u64, u64), mut books: Books<'_>) {
        let (slack, duration) = request;
        self.serve_with(MultiDayClient::new(time, slack, duration), &mut books);
    }
}

/// Whether every client has a feasible block whose days each have an owned
/// interval-model lease (element `0`) covering them; `owns` answers
/// ownership of a triple (`|t| ledger.owns(t)` for an online run).
pub fn is_feasible(instance: &MultiDayInstance, owns: impl Fn(Triple) -> bool) -> bool {
    let covered = |t: TimeStep| {
        candidates_covering(&instance.structure, t)
            .into_iter()
            .any(|l| owns(Triple::new(0, l.type_index, l.start)))
    };
    instance
        .clients
        .iter()
        .all(|c| c.start_days().any(|b| c.block_at(b).iter().all(covered)))
}

/// Builds the exact ILP: binary `x` per candidate lease, binary `z` per
/// (client, block) choice, linked day-by-day. Returns the program and the
/// lease of each `x` variable.
pub fn build_ilp(instance: &MultiDayInstance) -> (IntegerProgram, Vec<Lease>) {
    let s = &instance.structure;
    let mut lp = LinearProgram::new();
    let mut x_of: HashMap<Lease, usize> = HashMap::new();
    let mut leases: Vec<Lease> = Vec::new();
    let mut x_var = |lp: &mut LinearProgram, lease: Lease, cost: f64| -> usize {
        *x_of.entry(lease).or_insert_with(|| {
            leases.push(lease);
            lp.add_bounded_var(cost, 1.0)
        })
    };
    for c in &instance.clients {
        let blocks: Vec<TimeStep> = c.start_days().collect();
        let z_vars: Vec<usize> = blocks
            .iter()
            .map(|_| lp.add_bounded_var(0.0, 1.0))
            .collect();
        lp.add_constraint(z_vars.iter().map(|&z| (z, 1.0)).collect(), Cmp::Ge, 1.0);
        for (bi, &b) in blocks.iter().enumerate() {
            for t in c.block_at(b).iter() {
                let mut row: Vec<(usize, f64)> = candidates_covering(s, t)
                    .into_iter()
                    .map(|lease| {
                        let cost = lease.cost(s);
                        (x_var(&mut lp, lease, cost), 1.0)
                    })
                    .collect();
                row.push((z_vars[bi], -1.0));
                lp.add_constraint(row, Cmp::Ge, 0.0);
            }
        }
    }
    (IntegerProgram::all_integer(lp), leases)
}

/// Exact optimum; `None` if the node budget is exhausted.
pub fn optimal_cost(instance: &MultiDayInstance, node_limit: usize) -> Option<f64> {
    if instance.clients.is_empty() {
        return Some(0.0);
    }
    let (ip, _) = build_ilp(instance);
    match ip.solve(node_limit) {
        IlpOutcome::Optimal(sol) => Some(sol.objective),
        _ => None,
    }
}

/// LP-relaxation lower bound (always valid).
pub fn lp_lower_bound(instance: &MultiDayInstance) -> f64 {
    if instance.clients.is_empty() {
        return 0.0;
    }
    let (ip, _) = build_ilp(instance);
    ip.relaxation_bound()
        .expect("multi-day covering relaxation is feasible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::old_optimal_cost;
    use crate::old::{OldClient, OldInstance};
    use leasing_core::engine::{Driver, Ledger};
    use leasing_core::lease::LeaseType;
    use leasing_core::rng::seeded;
    use proptest::prelude::*;
    use rand::RngExt;

    fn structure() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(8, 3.0)]).unwrap()
    }

    /// Serves every client of `inst` and returns the algorithm with its
    /// ledger.
    fn run(inst: &MultiDayInstance) -> (MultiDayOnline<'_>, Ledger) {
        let mut driver = Driver::new(MultiDayOnline::new(inst), inst.structure.clone());
        driver.submit_batch(inst.requests()).unwrap();
        driver.into_parts()
    }

    #[test]
    fn validation_rejects_malformed_clients() {
        let zero = MultiDayInstance::new(structure(), vec![MultiDayClient::new(0, 2, 0)]);
        assert_eq!(zero, Err(MultiDayError::ZeroDuration(0)));
        let too_long = MultiDayInstance::new(structure(), vec![MultiDayClient::new(0, 2, 4)]);
        assert_eq!(too_long, Err(MultiDayError::DurationExceedsWindow(0)));
        let unsorted = MultiDayInstance::new(
            structure(),
            vec![MultiDayClient::new(5, 1, 1), MultiDayClient::new(2, 1, 1)],
        );
        assert_eq!(unsorted, Err(MultiDayError::UnsortedClients(1)));
    }

    #[test]
    fn block_enumeration_matches_the_window() {
        let c = MultiDayClient::new(3, 4, 2);
        let starts: Vec<TimeStep> = c.start_days().collect();
        assert_eq!(starts, vec![3, 4, 5, 6]); // block must end by day 7
    }

    #[test]
    fn single_client_is_served_and_covered() {
        let inst = MultiDayInstance::new(structure(), vec![MultiDayClient::new(0, 3, 3)]).unwrap();
        let (_, ledger) = run(&inst);
        let cost = ledger.total_cost();
        assert!(cost > 0.0);
        assert!(is_feasible(&inst, |t| ledger.owns(t)));
        // Withholding any one purchase leaves a day of the block uncovered.
        for bought in ledger.decisions().iter().filter_map(|d| d.triple()) {
            assert!(!is_feasible(&inst, |t| t != bought && ledger.owns(t)));
        }
    }

    #[test]
    fn covered_blocks_are_reused_for_free() {
        let inst = MultiDayInstance::new(
            structure(),
            vec![MultiDayClient::new(0, 1, 2), MultiDayClient::new(0, 1, 2)],
        )
        .unwrap();
        let mut driver = Driver::with_ledger(
            MultiDayOnline::new(&inst),
            Ledger::new(inst.structure.clone()),
        );
        driver.submit(0, (1, 2)).unwrap();
        let cost = driver.ledger().total_cost();
        driver.submit(0, (1, 2)).unwrap();
        assert_eq!(
            driver.ledger().total_cost(),
            cost,
            "the identical block must be free"
        );
    }

    #[test]
    fn block_choice_prefers_fewest_holes() {
        // Pre-cover days 4..6 by serving a first client there; the second
        // client (window [0, 6], duration 2) should slide to the covered
        // block instead of buying at day 0.
        let inst = MultiDayInstance::new(
            structure(),
            vec![MultiDayClient::new(4, 1, 2), MultiDayClient::new(4, 2, 2)],
        )
        .unwrap();
        let mut driver = Driver::with_ledger(
            MultiDayOnline::new(&inst),
            Ledger::new(inst.structure.clone()),
        );
        driver.submit(4, (1, 2)).unwrap();
        let cost = driver.ledger().total_cost();
        driver.submit(4, (2, 2)).unwrap();
        assert_eq!(driver.ledger().total_cost(), cost);
        assert_eq!(driver.algorithm().service_starts()[1], 4);
    }

    #[test]
    fn duration_one_ilp_matches_old_ilp() {
        // s = 1 recovers OLD exactly; the two ILPs must agree.
        let mut rng = seeded(4242);
        for _ in 0..5 {
            let mut clients = Vec::new();
            let mut old_clients = Vec::new();
            let mut t = 0u64;
            for _ in 0..5 {
                t += rng.random_range(0..4u64);
                let slack = rng.random_range(0..5);
                clients.push(MultiDayClient::new(t, slack, 1));
                old_clients.push(OldClient::new(t, slack));
            }
            let md = MultiDayInstance::new(structure(), clients).unwrap();
            let old = OldInstance::new(structure(), old_clients).unwrap();
            let md_opt = optimal_cost(&md, 200_000).unwrap();
            let old_opt = old_optimal_cost(&old, 200_000).unwrap();
            assert!(
                (md_opt - old_opt).abs() < 1e-6,
                "multi-day {md_opt} vs OLD {old_opt}"
            );
        }
    }

    #[test]
    fn ilp_exploits_deadline_flexibility() {
        // Two clients with disjoint arrivals but overlapping windows: the
        // optimum serves both on a shared pair of days.
        let inst = MultiDayInstance::new(
            structure(),
            vec![MultiDayClient::new(0, 5, 2), MultiDayClient::new(3, 2, 2)],
        )
        .unwrap();
        let opt = optimal_cost(&inst, 200_000).unwrap();
        // Shared block {4, 5} = one aligned 2-day lease of cost 1.
        assert!((opt - 1.0).abs() < 1e-6, "opt {opt}");
    }

    #[test]
    fn online_never_beats_the_ilp_and_stays_feasible() {
        let mut rng = seeded(99);
        for _ in 0..8 {
            let mut clients = Vec::new();
            let mut t = 0u64;
            for _ in 0..4 {
                t += rng.random_range(0..5u64);
                let duration = rng.random_range(1..3);
                let slack = duration - 1 + rng.random_range(0..4u64);
                clients.push(MultiDayClient::new(t, slack, duration));
            }
            let inst = MultiDayInstance::new(structure(), clients).unwrap();
            let (_, ledger) = run(&inst);
            let online = ledger.total_cost();
            assert!(is_feasible(&inst, |t| ledger.owns(t)));
            let opt = optimal_cost(&inst, 300_000).unwrap();
            let lb = lp_lower_bound(&inst);
            assert!(lb <= opt + 1e-6);
            assert!(online >= opt - 1e-6, "online {online} vs opt {opt}");
        }
    }

    proptest! {
        /// The online solution is always feasible on random instances.
        #[test]
        fn online_solution_is_always_feasible(seed in 0u64..150) {
            let mut rng = seeded(seed);
            let mut clients = Vec::new();
            let mut t = 0u64;
            for _ in 0..6 {
                t += rng.random_range(0..6u64);
                let duration = rng.random_range(1..4);
                let slack = duration - 1 + rng.random_range(0..5u64);
                clients.push(MultiDayClient::new(t, slack, duration));
            }
            let inst = MultiDayInstance::new(structure(), clients).unwrap();
            let (alg, ledger) = run(&inst);
            prop_assert!(is_feasible(&inst, |t| ledger.owns(t)));
            // Every chosen block lies inside its client's window.
            for (c, &b) in inst.clients.iter().zip(alg.service_starts()) {
                prop_assert!(b >= c.arrival);
                prop_assert!(b + c.duration - 1 <= c.arrival + c.slack);
            }
        }
    }
}
