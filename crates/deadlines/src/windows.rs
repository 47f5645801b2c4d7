//! Demands servable only on **specific days** within their window (the
//! §5.6 outlook: *"models that handle other flexibilities (e.g., can be
//! served on specific days within some period of time)"*).
//!
//! A [`WindowClient`] arrives at `a` and names an explicit, finite set of
//! allowed service days `F ⊆ [a, ∞)`; it is served when some bought lease
//! covers at least one allowed day. Setting `F = {a, a+1, …, a+d}` recovers
//! the OLD model of §5.2, and `F = {a}` the parking permit problem, so the
//! model strictly generalizes both.
//!
//! [`WindowPrimalDual`] generalizes the §5.3 algorithm:
//!
//! * a client that is already served by an owned lease is skipped for free
//!   (the generalization of the §5.3 "intersecting clients" precondition —
//!   with arbitrary day sets the structural intersection test no longer
//!   implies service, so the algorithm tests service directly);
//! * otherwise the client's dual rises until some candidate lease (one whose
//!   window contains an allowed day) becomes tight (Step 1);
//! * Proposition 5.1 — *at least one tight candidate covers the arrival
//!   day* — genuinely **fails** for arbitrary day sets (its proof needs
//!   every earlier contributor to a late lease to also contribute to the
//!   corresponding early lease, which holds for interval windows but not
//!   for day sets that skip days). The algorithm therefore buys the tight
//!   candidates covering `f*`, the *earliest allowed day that some tight
//!   candidate covers* — at most `K` leases, and `f* = t` whenever the
//!   proposition does hold, so interval clients behave exactly as in §5.3;
//! * finally the purchases are mirrored at the client's *last* allowed day
//!   (Step 2's deadline mirror), pre-paying for future clients whose day
//!   sets reach past this one. At most `2K` purchases per positive-dual
//!   client, as in Theorem 5.3.
//!
//! On full-interval day sets the candidate sets coincide with OLD's, and
//! the measured ratio follows the `Θ(K + d_max/l_min)` shape of Theorem 5.3
//! with `d_max` replaced by the largest *span* `max F − a`; sparser day sets
//! have fewer candidates per unit span, which experiment E24 sweeps.

use leasing_core::engine::{Books, LeasingAlgorithm, Ledger};
use leasing_core::framework::Triple;
use leasing_core::interval::{aligned_start, candidates_covering};
use leasing_core::lease::{Lease, LeaseStructure};
use leasing_core::time::TimeStep;
use leasing_core::EPS;
use leasing_lp::{Cmp, IntegerProgram, LinearProgram};
use std::collections::{BTreeSet, HashMap};

/// A demand that may be served on any of an explicit set of days.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WindowClient {
    /// Arrival day `a`.
    pub arrival: TimeStep,
    /// Allowed service days, strictly increasing, all `>= arrival`.
    allowed: Vec<TimeStep>,
}

/// Why a [`WindowClient`] or [`WindowInstance`] failed validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WindowError {
    /// The allowed-day set must not be empty.
    EmptyDays,
    /// Allowed days must be strictly increasing; index of the offender.
    UnsortedDays(usize),
    /// Allowed days must not precede the arrival.
    DayBeforeArrival(TimeStep),
    /// Clients must arrive in non-decreasing order; index of the offender.
    UnsortedClients(usize),
}

impl std::fmt::Display for WindowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WindowError::EmptyDays => write!(f, "allowed-day set is empty"),
            WindowError::UnsortedDays(i) => {
                write!(f, "allowed day {i} breaks the strictly increasing order")
            }
            WindowError::DayBeforeArrival(t) => {
                write!(f, "allowed day {t} precedes the arrival")
            }
            WindowError::UnsortedClients(i) => {
                write!(f, "client {i} breaks the non-decreasing arrival order")
            }
        }
    }
}

impl std::error::Error for WindowError {}

impl WindowClient {
    /// A client servable on the explicit `days` (must be strictly
    /// increasing and start at or after `arrival`).
    ///
    /// # Errors
    ///
    /// Returns a [`WindowError`] on an empty, unsorted or too-early day set.
    pub fn specific(arrival: TimeStep, days: Vec<TimeStep>) -> Result<Self, WindowError> {
        if days.is_empty() {
            return Err(WindowError::EmptyDays);
        }
        for i in 1..days.len() {
            if days[i - 1] >= days[i] {
                return Err(WindowError::UnsortedDays(i));
            }
        }
        if days[0] < arrival {
            return Err(WindowError::DayBeforeArrival(days[0]));
        }
        Ok(WindowClient {
            arrival,
            allowed: days,
        })
    }

    /// The OLD client `(arrival, slack)`: every day of `[a, a + d]` is
    /// allowed.
    pub fn interval(arrival: TimeStep, slack: u64) -> Self {
        WindowClient {
            arrival,
            allowed: (arrival..=arrival + slack).collect(),
        }
    }

    /// A periodic client: days `a, a + period, …` (`count` many) — e.g.
    /// "any Tuesday in the next `count` weeks" with `period = 7`.
    ///
    /// # Panics
    ///
    /// Panics if `period` or `count` is zero.
    pub fn periodic(arrival: TimeStep, period: u64, count: usize) -> Self {
        assert!(period > 0 && count > 0, "period and count must be positive");
        WindowClient {
            arrival,
            allowed: (0..count as u64).map(|i| arrival + i * period).collect(),
        }
    }

    /// The allowed service days, strictly increasing.
    pub fn allowed_days(&self) -> &[TimeStep] {
        &self.allowed
    }

    /// The last allowed day (the hard deadline).
    pub fn deadline(&self) -> TimeStep {
        *self.allowed.last().expect("validated day set is non-empty")
    }

    /// The span `max F − a` (equals the OLD slack `d` on interval clients).
    pub fn span(&self) -> u64 {
        self.deadline() - self.arrival
    }
}

/// A service-window instance: lease structure plus clients in arrival order.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowInstance {
    /// The `K` lease types.
    pub structure: LeaseStructure,
    /// Clients in non-decreasing arrival order.
    pub clients: Vec<WindowClient>,
}

impl WindowInstance {
    /// Validates arrival order and bundles the instance.
    ///
    /// # Errors
    ///
    /// Returns [`WindowError::UnsortedClients`] when arrivals decrease.
    pub fn new(structure: LeaseStructure, clients: Vec<WindowClient>) -> Result<Self, WindowError> {
        for i in 1..clients.len() {
            if clients[i - 1].arrival > clients[i].arrival {
                return Err(WindowError::UnsortedClients(i));
            }
        }
        Ok(WindowInstance { structure, clients })
    }

    /// The clients as `(arrival, client)` requests for a
    /// [`Driver`](leasing_core::engine::Driver) over [`WindowPrimalDual`].
    pub fn requests(&self) -> impl Iterator<Item = (TimeStep, WindowClient)> + '_ {
        self.clients.iter().map(|c| (c.arrival, c.clone()))
    }

    /// Largest span `max F − a` over all clients (the `d_max` of the
    /// Theorem 5.3-shaped reference bound).
    pub fn max_span(&self) -> u64 {
        self.clients.iter().map(|c| c.span()).max().unwrap_or(0)
    }

    /// Candidate leases of `client`: the interval-model leases whose window
    /// contains at least one allowed day.
    pub fn candidates(&self, client: &WindowClient) -> Vec<Lease> {
        let mut seen = BTreeSet::new();
        for &day in client.allowed_days() {
            for cand in candidates_covering(&self.structure, day) {
                seen.insert(cand);
            }
        }
        seen.into_iter().collect()
    }
}

/// The primal-dual online algorithm for service windows.
///
/// ```
/// use leasing_core::engine::Driver;
/// use leasing_core::lease::{LeaseStructure, LeaseType};
/// use leasing_deadlines::windows::{WindowClient, WindowInstance, WindowPrimalDual};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let structure = LeaseStructure::new(vec![
///     LeaseType::new(2, 1.0),
///     LeaseType::new(16, 3.0),
/// ])?;
/// let instance = WindowInstance::new(structure, vec![
///     WindowClient::periodic(0, 7, 3),          // any of days 0, 7, 14
///     WindowClient::specific(2, vec![3, 9])?,   // day 3 or day 9
///     WindowClient::interval(5, 4),             // any day of [5, 9]
/// ])?;
/// let mut driver = Driver::new(WindowPrimalDual::new(&instance), instance.structure.clone());
/// driver.submit_batch(instance.requests())?;
/// assert!(driver.cost() > 0.0);
/// assert!(instance
///     .clients
///     .iter()
///     .all(|c| WindowPrimalDual::is_served(driver.ledger(), c)));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct WindowPrimalDual<'a> {
    instance: &'a WindowInstance,
    contributions: HashMap<Lease, f64>,
    dual_value: f64,
}

impl<'a> WindowPrimalDual<'a> {
    /// Creates the algorithm for `instance`.
    pub fn new(instance: &'a WindowInstance) -> Self {
        WindowPrimalDual {
            instance,
            contributions: HashMap::new(),
            dual_value: 0.0,
        }
    }

    /// Total dual value raised — a lower bound on the optimum by weak
    /// duality, used for solver-free ratio estimates.
    pub fn dual_value(&self) -> f64 {
        self.dual_value
    }

    /// Whether `ledger` holds a lease covering one of `client`'s allowed
    /// days — one `O(K log n)` point query per allowed day.
    pub fn is_served(ledger: &Ledger, client: &WindowClient) -> bool {
        client.allowed_days().iter().any(|&d| ledger.covered(0, d))
    }

    /// Core primal-dual step for one window client, recording purchases
    /// into `ledger`.
    fn serve_with(&mut self, client: &WindowClient, books: &mut Books<'_>) {
        if Self::is_served(books, client) {
            return;
        }
        let candidates = self.instance.candidates(client);
        debug_assert!(!candidates.is_empty(), "every day has K covering leases");

        // Raise the dual until the closest candidate is tight.
        let delta = candidates
            .iter()
            .map(|c| {
                let used = self.contributions.get(c).copied().unwrap_or(0.0);
                (c.cost(&self.instance.structure) - used).max(0.0)
            })
            .fold(f64::INFINITY, f64::min);
        self.dual_value += delta;
        for c in &candidates {
            *self.contributions.entry(*c).or_insert(0.0) += delta;
        }

        // Collect the tight candidates; buy those covering f*, the earliest
        // allowed day some tight candidate covers (≤ K purchases — the
        // generalization of Step 1 now that Proposition 5.1 can fail), and
        // mirror each bought type at the last allowed day (Step 2).
        let tight: Vec<Lease> = candidates
            .iter()
            .copied()
            .filter(|c| {
                let used = self.contributions.get(c).copied().unwrap_or(0.0);
                used >= c.cost(&self.instance.structure) - EPS
            })
            .collect();
        debug_assert!(
            !tight.is_empty(),
            "the minimum-remaining candidate is tight"
        );
        let f_star = client
            .allowed_days()
            .iter()
            .copied()
            .find(|&d| {
                tight
                    .iter()
                    .any(|c| c.window(&self.instance.structure).contains(d))
            })
            .expect("every tight candidate covers some allowed day");
        let deadline = client.deadline();
        for c in tight {
            if !c.window(&self.instance.structure).contains(f_star) {
                continue;
            }
            self.buy(client.arrival, c, books);
            let len = self.instance.structure.length(c.type_index);
            self.buy(
                client.arrival,
                Lease::new(c.type_index, aligned_start(deadline, len)),
                books,
            );
        }
        debug_assert!(
            Self::is_served(books, client),
            "a bought candidate serves the client"
        );
    }

    fn buy(&self, t: TimeStep, lease: Lease, books: &mut Books<'_>) {
        let triple = Triple::new(0, lease.type_index, lease.start);
        if !books.owns(triple) {
            books.buy(t, triple);
        }
    }
}

impl<'a> LeasingAlgorithm for WindowPrimalDual<'a> {
    /// The client arriving at a time step (its allowed days are not
    /// derivable from the arrival alone).
    type Request = WindowClient;

    fn on_request(&mut self, _time: TimeStep, client: WindowClient, mut books: Books<'_>) {
        self.serve_with(&client, &mut books);
    }
}

/// Checks that every client of `instance` has an owned candidate lease
/// (element `0`) covering one of its allowed days; `owns` answers
/// ownership of a triple (`|t| ledger.owns(t)` for an online run).
pub fn is_feasible(instance: &WindowInstance, owns: impl Fn(Triple) -> bool) -> bool {
    instance.clients.iter().all(|c| {
        instance
            .candidates(c)
            .into_iter()
            .any(|l| owns(Triple::new(0, l.type_index, l.start)))
    })
}

/// Builds the covering ILP of the model (the Figure 5.2 program with the
/// window constraint replaced by day-set membership): one binary variable
/// per candidate lease, one row `Σ x ≥ 1` per client.
pub fn build_window_ilp(instance: &WindowInstance) -> (IntegerProgram, Vec<Lease>) {
    let mut lp = LinearProgram::new();
    let mut var_of: HashMap<Lease, usize> = HashMap::new();
    let mut leases = Vec::new();
    let mut rows = Vec::new();
    for client in &instance.clients {
        let mut row = Vec::new();
        for cand in instance.candidates(client) {
            let var = *var_of.entry(cand).or_insert_with(|| {
                leases.push(cand);
                lp.add_bounded_var(cand.cost(&instance.structure), 1.0)
            });
            row.push((var, 1.0));
        }
        rows.push(row);
    }
    for row in rows {
        lp.add_constraint(row, Cmp::Ge, 1.0);
    }
    (IntegerProgram::all_integer(lp), leases)
}

/// Exact optimum of the service-window instance; `None` if the
/// branch-and-bound node budget is exhausted.
pub fn window_optimal_cost(instance: &WindowInstance, node_limit: usize) -> Option<f64> {
    if instance.clients.is_empty() {
        return Some(0.0);
    }
    let (ip, _) = build_window_ilp(instance);
    match ip.solve(node_limit) {
        leasing_lp::IlpOutcome::Optimal(sol) => Some(sol.objective),
        _ => None,
    }
}

/// LP-relaxation lower bound on the service-window optimum.
pub fn window_lp_lower_bound(instance: &WindowInstance) -> f64 {
    if instance.clients.is_empty() {
        return 0.0;
    }
    let (ip, _) = build_window_ilp(instance);
    ip.relaxation_bound()
        .expect("covering relaxation is feasible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::old::{OldClient, OldInstance, OldPrimalDual};
    use leasing_core::engine::Driver;
    use leasing_core::lease::LeaseType;

    /// Serves every client of `inst` and returns the algorithm with its
    /// ledger.
    fn run(inst: &WindowInstance) -> (WindowPrimalDual<'_>, Ledger) {
        let mut driver = Driver::new(WindowPrimalDual::new(inst), inst.structure.clone());
        driver.submit_batch(inst.requests()).unwrap();
        driver.into_parts()
    }

    fn structure() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(16, 3.0)]).unwrap()
    }

    #[test]
    fn specific_validates_day_sets() {
        assert_eq!(
            WindowClient::specific(0, vec![]),
            Err(WindowError::EmptyDays)
        );
        assert_eq!(
            WindowClient::specific(0, vec![3, 3]),
            Err(WindowError::UnsortedDays(1))
        );
        assert_eq!(
            WindowClient::specific(5, vec![3]),
            Err(WindowError::DayBeforeArrival(3))
        );
        let c = WindowClient::specific(1, vec![2, 9]).unwrap();
        assert_eq!(c.deadline(), 9);
        assert_eq!(c.span(), 8);
    }

    #[test]
    fn interval_client_matches_old_window() {
        let c = WindowClient::interval(3, 4);
        assert_eq!(c.allowed_days(), &[3, 4, 5, 6, 7]);
        assert_eq!(c.deadline(), 7);
    }

    #[test]
    fn periodic_client_skips_days() {
        let c = WindowClient::periodic(2, 7, 3);
        assert_eq!(c.allowed_days(), &[2, 9, 16]);
    }

    #[test]
    fn rejects_unsorted_clients() {
        let err = WindowInstance::new(
            structure(),
            vec![WindowClient::interval(5, 0), WindowClient::interval(1, 0)],
        );
        assert_eq!(err, Err(WindowError::UnsortedClients(1)));
    }

    #[test]
    fn candidates_cover_only_allowed_days() {
        let inst = WindowInstance::new(
            structure(),
            vec![WindowClient::specific(0, vec![0, 20]).unwrap()],
        )
        .unwrap();
        let cands = inst.candidates(&inst.clients[0]);
        // Every candidate covers day 0 or day 20; days 1..19 alone earn none.
        for c in &cands {
            let w = c.window(&inst.structure);
            assert!(w.contains(0) || w.contains(20), "{c:?}");
        }
        // Short leases at days 0 and 20 plus the two long-lease windows.
        assert!(cands.len() <= 4);
    }

    #[test]
    fn all_clients_end_up_served() {
        let inst = WindowInstance::new(
            structure(),
            vec![
                WindowClient::specific(0, vec![0, 5, 11]).unwrap(),
                WindowClient::periodic(3, 4, 3),
                WindowClient::interval(10, 2),
                WindowClient::specific(40, vec![41]).unwrap(),
            ],
        )
        .unwrap();
        let (_, ledger) = run(&inst);
        let cost = ledger.total_cost();
        assert!(cost > 0.0);
        assert!(is_feasible(&inst, |t| ledger.owns(t)));
        // Nothing else serves the day-41 client: withholding its purchase
        // leaves it unserved.
        let last = ledger.decisions().last().and_then(|d| d.triple()).unwrap();
        assert!(!is_feasible(&inst, |t| t != last && ledger.owns(t)));
    }

    #[test]
    fn served_clients_are_skipped_for_free() {
        let inst = WindowInstance::new(
            structure(),
            vec![
                WindowClient::specific(0, vec![0]).unwrap(),
                // Day 0 is allowed for this one too: free.
                WindowClient::specific(0, vec![0, 30]).unwrap(),
            ],
        )
        .unwrap();
        let mut driver = Driver::with_ledger(
            WindowPrimalDual::new(&inst),
            Ledger::new(inst.structure.clone()),
        );
        driver.submit(0, inst.clients[0].clone()).unwrap();
        let after_first = driver.ledger().total_cost();
        driver.submit(0, inst.clients[1].clone()).unwrap();
        assert_eq!(driver.ledger().total_cost(), after_first);
    }

    #[test]
    fn zero_span_recovers_parking_permit_behaviour() {
        // Span-0 clients: mirror purchases coincide with the tight
        // candidates, so the cost matches the OLD run with zero slack.
        let days = [0u64, 1, 6, 30];
        let w_inst = WindowInstance::new(
            structure(),
            days.iter().map(|&t| WindowClient::interval(t, 0)).collect(),
        )
        .unwrap();
        let o_inst = OldInstance::new(
            structure(),
            days.iter().map(|&t| OldClient::new(t, 0)).collect(),
        )
        .unwrap();
        let w_cost = run(&w_inst).1.total_cost();
        let mut old = Driver::new(OldPrimalDual::new(&o_inst), o_inst.structure.clone());
        old.submit_batch(o_inst.requests()).unwrap();
        let o_cost = old.cost();
        assert!(
            (w_cost - o_cost).abs() < 1e-9,
            "window {w_cost} vs old {o_cost}"
        );
    }

    #[test]
    fn sparse_days_can_be_cheaper_than_the_full_interval() {
        // One long lease (cost 3) covers [0, 16); short leases cost 1 each.
        // Clients allowed only on day 40 + their arrival-day option force
        // the optimum to compare one shared late lease vs many early ones.
        let clients: Vec<WindowClient> = (0..4)
            .map(|i| WindowClient::specific(i, vec![i, 40]).unwrap())
            .collect();
        let inst = WindowInstance::new(structure(), clients).unwrap();
        let opt = window_optimal_cost(&inst, 10_000).unwrap();
        // A single short lease at day 40 serves everybody.
        assert!((opt - 1.0).abs() < 1e-9, "opt {opt}");
        let (_, ledger) = run(&inst);
        let cost = ledger.total_cost();
        assert!(is_feasible(&inst, |t| ledger.owns(t)));
        assert!(cost >= opt - 1e-9);
    }

    #[test]
    fn dual_value_lower_bounds_the_ilp_optimum() {
        let inst = WindowInstance::new(
            structure(),
            vec![
                WindowClient::specific(0, vec![0, 8]).unwrap(),
                WindowClient::periodic(2, 5, 3),
                WindowClient::interval(20, 3),
            ],
        )
        .unwrap();
        let (alg, _) = run(&inst);
        let opt = window_optimal_cost(&inst, 10_000).unwrap();
        assert!(
            alg.dual_value() <= opt + 1e-9,
            "dual {} exceeds opt {opt}",
            alg.dual_value()
        );
    }

    #[test]
    fn ilp_agrees_with_old_ilp_on_interval_clients() {
        let w_inst = WindowInstance::new(
            structure(),
            vec![WindowClient::interval(0, 4), WindowClient::interval(6, 2)],
        )
        .unwrap();
        let o_inst = OldInstance::new(
            structure(),
            vec![OldClient::new(0, 4), OldClient::new(6, 2)],
        )
        .unwrap();
        let w_opt = window_optimal_cost(&w_inst, 10_000).unwrap();
        let o_opt = crate::offline::old_optimal_cost(&o_inst, 10_000).unwrap();
        assert!(
            (w_opt - o_opt).abs() < 1e-9,
            "window {w_opt} vs old {o_opt}"
        );
    }

    #[test]
    fn lp_bound_never_exceeds_ilp_optimum() {
        let inst = WindowInstance::new(
            structure(),
            vec![
                WindowClient::specific(0, vec![3, 9, 27]).unwrap(),
                WindowClient::periodic(1, 2, 5),
            ],
        )
        .unwrap();
        let lp = window_lp_lower_bound(&inst);
        let ilp = window_optimal_cost(&inst, 10_000).unwrap();
        assert!(lp <= ilp + 1e-9, "lp {lp} vs ilp {ilp}");
    }
}
