//! Weighted demands and **lease capacities** (thesis §5.6: "one may want to
//! consider demands with weights and leases with capacities, such that a
//! weight represents some load required to serve the corresponding demand,
//! and a capacity represents how much load a lease can bear per unit time
//! step").
//!
//! Every *purchased lease copy* can carry at most `capacity` load per time
//! step; a demand `(a, d, w)` must be assigned to one copy, on one day of
//! its window `[a, a + d]`, consuming `w` of that copy's capacity on that
//! day. Multiple copies of the same `(type, start)` lease may be bought —
//! solutions are multisets.

use leasing_core::engine::{Books, LeasingAlgorithm};
use leasing_core::framework::Triple;
use leasing_core::interval::{candidates_covering, candidates_intersecting};
use leasing_core::lease::{Lease, LeaseStructure};
use leasing_core::time::{TimeStep, Window};
use leasing_lp::{Cmp, IlpOutcome, IntegerProgram, LinearProgram};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One weighted, deadline-flexible demand.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WeightedDemand {
    /// Arrival day `a`.
    pub arrival: TimeStep,
    /// Deadline slack `d` (serve no later than `a + d`).
    pub slack: u64,
    /// Load `w` the demand puts on its serving lease copy.
    pub weight: f64,
}

impl WeightedDemand {
    /// Creates the demand `(arrival, slack, weight)`.
    pub fn new(arrival: TimeStep, slack: u64, weight: f64) -> Self {
        WeightedDemand {
            arrival,
            slack,
            weight,
        }
    }

    /// The service window `[arrival, arrival + slack]` as a half-open
    /// [`Window`].
    pub fn window(&self) -> Window {
        Window::new(self.arrival, self.slack + 1)
    }
}

/// Why a [`CapacitatedOldInstance`] failed validation.
#[derive(Clone, Debug, PartialEq)]
pub enum CapacitatedOldError {
    /// The per-copy capacity must be positive and finite.
    BadCapacity,
    /// Demand `usize` has a non-positive/non-finite weight or exceeds the
    /// capacity (it could never be served).
    BadWeight(usize),
    /// Demand `usize` breaks the non-decreasing arrival order.
    UnsortedDemands(usize),
}

impl std::fmt::Display for CapacitatedOldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CapacitatedOldError::BadCapacity => {
                write!(f, "capacity must be positive and finite")
            }
            CapacitatedOldError::BadWeight(i) => {
                write!(f, "demand {i} has an invalid or over-capacity weight")
            }
            CapacitatedOldError::UnsortedDemands(i) => {
                write!(f, "demand {i} breaks the non-decreasing arrival order")
            }
        }
    }
}

impl std::error::Error for CapacitatedOldError {}

/// A capacitated OLD instance: lease structure, shared per-copy capacity and
/// weighted demands.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CapacitatedOldInstance {
    /// The `K` lease types.
    pub structure: LeaseStructure,
    /// Load every lease copy can carry per time step.
    pub capacity: f64,
    /// Demands in non-decreasing arrival order.
    pub demands: Vec<WeightedDemand>,
}

impl CapacitatedOldInstance {
    /// Validates and builds an instance.
    ///
    /// # Errors
    ///
    /// Returns a [`CapacitatedOldError`] on malformed capacity, weights
    /// exceeding capacity, or unsorted demands.
    pub fn new(
        structure: LeaseStructure,
        capacity: f64,
        demands: Vec<WeightedDemand>,
    ) -> Result<Self, CapacitatedOldError> {
        if !capacity.is_finite() || capacity <= 0.0 {
            return Err(CapacitatedOldError::BadCapacity);
        }
        for (i, d) in demands.iter().enumerate() {
            if !d.weight.is_finite() || d.weight <= 0.0 || d.weight > capacity {
                return Err(CapacitatedOldError::BadWeight(i));
            }
            if i > 0 && demands[i - 1].arrival > d.arrival {
                return Err(CapacitatedOldError::UnsortedDemands(i));
            }
        }
        Ok(CapacitatedOldInstance {
            structure,
            capacity,
            demands,
        })
    }

    /// The demands as `(arrival, (slack, weight, rule))` requests for a
    /// [`Driver`](leasing_core::engine::Driver) over [`FirstFitOnline`]
    /// buying by `rule`.
    pub fn requests(
        &self,
        rule: BuyRule,
    ) -> impl Iterator<Item = (TimeStep, (u64, f64, BuyRule))> + '_ {
        self.demands
            .iter()
            .map(move |d| (d.arrival, (d.slack, d.weight, rule)))
    }
}

/// How [`FirstFitOnline`] picks the lease type when a new copy is needed.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum BuyRule {
    /// Cheapest candidate covering the arrival day.
    Cheapest,
    /// Candidate with the best price per covered step.
    BestRate,
}

/// One purchased lease copy with its per-day load ledger.
#[derive(Clone, Debug)]
struct CopyState {
    lease: Lease,
    load: HashMap<TimeStep, f64>,
}

/// First-fit online algorithm: serve on the earliest window day where an
/// active copy has residual capacity; otherwise buy a new copy (per
/// [`BuyRule`]) at the arrival day.
#[derive(Clone, Debug)]
pub struct FirstFitOnline<'a> {
    instance: &'a CapacitatedOldInstance,
    copies: Vec<CopyState>,
    /// `(copy index, service day)` per demand, in serve order.
    assignments: Vec<(usize, TimeStep)>,
}

impl<'a> FirstFitOnline<'a> {
    /// Creates the algorithm for `instance`.
    pub fn new(instance: &'a CapacitatedOldInstance) -> Self {
        FirstFitOnline {
            instance,
            copies: Vec::new(),
            assignments: Vec::new(),
        }
    }

    /// Core first-fit step, recording purchases into `books`.
    fn serve_with(&mut self, demand: WeightedDemand, rule: BuyRule, books: &mut Books<'_>) {
        let s = &self.instance.structure;
        let cap = self.instance.capacity;
        // First fit: earliest day of the window on which an existing copy
        // has room.
        for t in demand.window().iter() {
            let fit = self.copies.iter().position(|c| {
                c.lease.window(s).contains(t)
                    && c.load.get(&t).copied().unwrap_or(0.0) + demand.weight <= cap + 1e-12
            });
            if let Some(ci) = fit {
                *self.copies[ci].load.entry(t).or_insert(0.0) += demand.weight;
                self.assignments.push((ci, t));
                return;
            }
        }
        // No fit: buy a fresh copy covering the arrival day.
        let candidates = candidates_covering(s, demand.arrival);
        let chosen = candidates
            .into_iter()
            .min_by(|a, b| {
                let score = |l: &Lease| match rule {
                    BuyRule::Cheapest => l.cost(s),
                    BuyRule::BestRate => l.cost(s) / s.length(l.type_index) as f64,
                };
                score(a).partial_cmp(&score(b)).expect("finite costs")
            })
            .expect("validated structures are non-empty");
        books.buy(
            demand.arrival,
            Triple::new(0, chosen.type_index, chosen.start),
        );
        let mut load = HashMap::new();
        load.insert(demand.arrival, demand.weight);
        self.copies.push(CopyState {
            lease: chosen,
            load,
        });
        self.assignments
            .push((self.copies.len() - 1, demand.arrival));
    }

    /// The purchased lease copies in buy order.
    pub fn purchases(&self) -> Vec<Lease> {
        self.copies.iter().map(|c| c.lease).collect()
    }

    /// `(copy index, service day)` per demand in serve order.
    pub fn assignments(&self) -> &[(usize, TimeStep)] {
        &self.assignments
    }
}

impl<'a> LeasingAlgorithm for FirstFitOnline<'a> {
    /// `(slack, weight, rule)` of the demand arriving at a time step.
    type Request = (u64, f64, BuyRule);

    fn on_request(&mut self, time: TimeStep, request: (u64, f64, BuyRule), mut books: Books<'_>) {
        let (slack, weight, rule) = request;
        self.serve_with(WeightedDemand::new(time, slack, weight), rule, &mut books);
    }
}

/// Whether `(purchases, assignments)` is a feasible capacitated solution:
/// each demand is served within its window by a copy active on its service
/// day, and no copy exceeds the capacity on any day.
pub fn is_feasible(
    instance: &CapacitatedOldInstance,
    purchases: &[Lease],
    assignments: &[(usize, TimeStep)],
) -> bool {
    if assignments.len() != instance.demands.len() {
        return false;
    }
    let s = &instance.structure;
    let mut load: HashMap<(usize, TimeStep), f64> = HashMap::new();
    for (d, &(ci, t)) in instance.demands.iter().zip(assignments) {
        let Some(lease) = purchases.get(ci) else {
            return false;
        };
        if !d.window().contains(t) || !lease.window(s).contains(t) {
            return false;
        }
        let entry = load.entry((ci, t)).or_insert(0.0);
        *entry += d.weight;
        if *entry > instance.capacity + 1e-9 {
            return false;
        }
    }
    true
}

/// Builds the exact ILP with up to `max_copies` copies per candidate lease.
/// Returns the program and the lease of each copy variable.
///
/// The copy bound must be large enough for feasibility (e.g. the number of
/// demands); too small a bound makes the ILP infeasible rather than wrong.
pub fn build_ilp(
    instance: &CapacitatedOldInstance,
    max_copies: usize,
) -> (IntegerProgram, Vec<Lease>) {
    let s = &instance.structure;
    let mut lp = LinearProgram::new();
    // Candidate leases: anything intersecting some demand window.
    let mut candidates: Vec<Lease> = Vec::new();
    {
        let mut seen = std::collections::HashSet::new();
        for d in &instance.demands {
            for lease in candidates_intersecting(s, d.window()) {
                if seen.insert(lease) {
                    candidates.push(lease);
                }
            }
        }
    }
    // x variables: copy c of candidate lease l.
    let mut x: HashMap<(usize, usize), usize> = HashMap::new();
    let mut copy_leases: Vec<Lease> = Vec::new();
    for (li, lease) in candidates.iter().enumerate() {
        for c in 0..max_copies {
            let v = lp.add_bounded_var(lease.cost(s), 1.0);
            x.insert((li, c), v);
            copy_leases.push(*lease);
            if c > 0 {
                // Symmetry break: copy c requires copy c-1.
                lp.add_constraint(vec![(x[&(li, c - 1)], 1.0), (v, -1.0)], Cmp::Ge, 0.0);
            }
        }
    }
    // a variables: demand j served by copy (l, c) on day t.
    // Capacity rows are accumulated per (copy, day).
    let mut cap_rows: HashMap<(usize, usize, TimeStep), Vec<(usize, f64)>> = HashMap::new();
    for d in &instance.demands {
        let mut serve_row: Vec<(usize, f64)> = Vec::new();
        for (li, lease) in candidates.iter().enumerate() {
            let Some(overlap) = lease.window(s).intersection(&d.window()) else {
                continue;
            };
            for t in overlap.iter() {
                for c in 0..max_copies {
                    let a = lp.add_bounded_var(0.0, 1.0);
                    serve_row.push((a, 1.0));
                    // a <= x.
                    lp.add_constraint(vec![(x[&(li, c)], 1.0), (a, -1.0)], Cmp::Ge, 0.0);
                    cap_rows.entry((li, c, t)).or_default().push((a, d.weight));
                }
            }
        }
        lp.add_constraint(serve_row, Cmp::Ge, 1.0);
    }
    for ((_, _, _), row) in cap_rows {
        lp.add_constraint(row, Cmp::Le, instance.capacity);
    }
    (IntegerProgram::all_integer(lp), copy_leases)
}

/// Exact optimum with `max_copies` copies per candidate; `None` if the node
/// budget runs out.
pub fn optimal_cost(
    instance: &CapacitatedOldInstance,
    max_copies: usize,
    node_limit: usize,
) -> Option<f64> {
    if instance.demands.is_empty() {
        return Some(0.0);
    }
    let (ip, _) = build_ilp(instance, max_copies);
    match ip.solve(node_limit) {
        IlpOutcome::Optimal(sol) => Some(sol.objective),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leasing_core::engine::{Driver, Ledger};
    use leasing_core::lease::LeaseType;
    use leasing_core::rng::seeded;
    use rand::RngExt;

    /// Serves every demand of `inst` by `rule` and returns the algorithm
    /// with its ledger.
    fn run(inst: &CapacitatedOldInstance, rule: BuyRule) -> (FirstFitOnline<'_>, Ledger) {
        let mut driver = Driver::new(FirstFitOnline::new(inst), inst.structure.clone());
        driver.submit_batch(inst.requests(rule)).unwrap();
        driver.into_parts()
    }

    fn structure() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(8, 3.0)]).unwrap()
    }

    #[test]
    fn validation_guards_capacity_and_weights() {
        assert_eq!(
            CapacitatedOldInstance::new(structure(), 0.0, vec![]),
            Err(CapacitatedOldError::BadCapacity)
        );
        assert_eq!(
            CapacitatedOldInstance::new(structure(), 1.0, vec![WeightedDemand::new(0, 0, 2.0)]),
            Err(CapacitatedOldError::BadWeight(0))
        );
        assert_eq!(
            CapacitatedOldInstance::new(
                structure(),
                1.0,
                vec![
                    WeightedDemand::new(3, 0, 1.0),
                    WeightedDemand::new(1, 0, 1.0)
                ]
            ),
            Err(CapacitatedOldError::UnsortedDemands(1))
        );
    }

    #[test]
    fn light_demands_share_one_copy() {
        let inst = CapacitatedOldInstance::new(
            structure(),
            1.0,
            vec![
                WeightedDemand::new(0, 0, 0.4),
                WeightedDemand::new(0, 0, 0.4),
            ],
        )
        .unwrap();
        let (alg, ledger) = run(&inst, BuyRule::Cheapest);
        let cost = ledger.total_cost();
        assert!(
            (cost - 1.0).abs() < 1e-9,
            "one short copy suffices, got {cost}"
        );
        assert!(is_feasible(&inst, &alg.purchases(), alg.assignments()));
    }

    #[test]
    fn heavy_demands_force_a_second_copy() {
        let inst = CapacitatedOldInstance::new(
            structure(),
            1.0,
            vec![
                WeightedDemand::new(0, 0, 0.8),
                WeightedDemand::new(0, 0, 0.8),
            ],
        )
        .unwrap();
        let (alg, ledger) = run(&inst, BuyRule::Cheapest);
        let cost = ledger.total_cost();
        assert!((cost - 2.0).abs() < 1e-9, "two copies needed, got {cost}");
        assert!(is_feasible(&inst, &alg.purchases(), alg.assignments()));
    }

    #[test]
    fn deadline_slack_spreads_load_across_days() {
        // Two heavy demands, the second can wait a day: first-fit serves it
        // on day 1 of the same 2-day copy instead of buying another.
        let inst = CapacitatedOldInstance::new(
            structure(),
            1.0,
            vec![
                WeightedDemand::new(0, 0, 0.8),
                WeightedDemand::new(0, 1, 0.8),
            ],
        )
        .unwrap();
        let (alg, ledger) = run(&inst, BuyRule::Cheapest);
        let cost = ledger.total_cost();
        assert!(
            (cost - 1.0).abs() < 1e-9,
            "the copy's second day has room, got {cost}"
        );
        assert_eq!(alg.assignments()[1].1, 1);
    }

    #[test]
    fn ilp_matches_hand_computed_optimum() {
        let inst = CapacitatedOldInstance::new(
            structure(),
            1.0,
            vec![
                WeightedDemand::new(0, 0, 0.8),
                WeightedDemand::new(0, 0, 0.8),
            ],
        )
        .unwrap();
        // Two copies of the short lease.
        let opt = optimal_cost(&inst, 2, 200_000).unwrap();
        assert!((opt - 2.0).abs() < 1e-6, "opt {opt}");
    }

    #[test]
    fn ilp_uses_slack_to_save_a_copy() {
        let inst = CapacitatedOldInstance::new(
            structure(),
            1.0,
            vec![
                WeightedDemand::new(0, 1, 0.8),
                WeightedDemand::new(0, 1, 0.8),
            ],
        )
        .unwrap();
        let opt = optimal_cost(&inst, 2, 200_000).unwrap();
        assert!(
            (opt - 1.0).abs() < 1e-6,
            "one copy over two days, got {opt}"
        );
    }

    #[test]
    fn online_never_beats_the_ilp() {
        let mut rng = seeded(5150);
        for _ in 0..6 {
            let mut demands = Vec::new();
            let mut t = 0u64;
            for _ in 0..3 {
                t += rng.random_range(0..3u64);
                demands.push(WeightedDemand::new(
                    t,
                    rng.random_range(0..3),
                    0.3 + 0.7 * rng.random::<f64>(),
                ));
            }
            let inst = CapacitatedOldInstance::new(structure(), 1.0, demands).unwrap();
            let (alg, ledger) = run(&inst, BuyRule::Cheapest);
            let online = ledger.total_cost();
            assert!(is_feasible(&inst, &alg.purchases(), alg.assignments()));
            let opt = optimal_cost(&inst, 3, 400_000).expect("tiny instance solves");
            assert!(online >= opt - 1e-6, "online {online} vs opt {opt}");
        }
    }

    #[test]
    fn feasibility_checker_rejects_overload_and_misses() {
        let inst = CapacitatedOldInstance::new(
            structure(),
            1.0,
            vec![
                WeightedDemand::new(0, 0, 0.8),
                WeightedDemand::new(0, 0, 0.8),
            ],
        )
        .unwrap();
        let copy = Lease::new(0, 0);
        // Both on one copy on the same day: overload.
        assert!(!is_feasible(&inst, &[copy], &[(0, 0), (0, 0)]));
        // Service day outside the lease window.
        assert!(!is_feasible(&inst, &[copy], &[(0, 5), (0, 0)]));
        // Missing assignment.
        assert!(!is_feasible(&inst, &[copy], &[(0, 0)]));
    }
}
