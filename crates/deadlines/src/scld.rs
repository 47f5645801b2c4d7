//! **Set cover leasing with deadlines** — SCLD (thesis §5.5, Algorithm 5).
//!
//! Elements arrive with a deadline and must be covered by a set leased at
//! some point inside their window. The randomized algorithm grows a
//! fractional solution per candidate triple and rounds it against
//! per-triple thresholds formed from `2⌈log₂ l_max⌉` uniforms — replacing
//! the `log n` threshold count of Chapter 3 and thereby making the
//! competitive factor `O(log(m(K + d_max/l_min)) · log l_max)` *independent
//! of time* (Theorem 5.7). With `d_max = 0` this improves SetCoverLeasing
//! to `O(log(mK) · log l_max)` (Corollary 5.8).

use leasing_core::engine::{Books, LeasingAlgorithm};
use leasing_core::framework::Triple;
use leasing_core::interval::candidates_intersecting;
use leasing_core::lease::LeaseStructure;
use leasing_core::rng::threshold_count;
use leasing_core::time::{TimeStep, Window};
use online_covering::{CoveringEngine, CoveringStats, DualCertificate};
use set_cover_leasing::system::SetSystem;

/// One SCLD demand: element `element` arrives at `time` and must be covered
/// by a set leased during some day of `[time, time + slack]`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct ScldArrival {
    /// Arrival day.
    pub time: TimeStep,
    /// Days the demand may wait (`0` = cover on arrival, recovering
    /// SetCoverLeasing).
    pub slack: u64,
    /// The arriving element.
    pub element: usize,
}

impl ScldArrival {
    /// Creates the demand `(time, element, slack)`.
    pub fn new(time: TimeStep, element: usize, slack: u64) -> Self {
        ScldArrival {
            time,
            slack,
            element,
        }
    }

    /// The inclusive service window.
    pub fn window(&self) -> Window {
        Window::closed(self.time, self.time + self.slack)
    }
}

/// Why an [`ScldInstance`] failed validation.
#[derive(Clone, Debug, PartialEq)]
pub enum ScldInstanceError {
    /// An arrival references an element outside the universe or one
    /// belonging to no set.
    UncoverableElement(ScldArrival),
    /// Arrivals must have non-decreasing times; index of the offender.
    UnsortedArrivals(usize),
    /// Cost matrix shape or entries invalid (`(set, type)`).
    BadCost(usize, usize),
}

impl std::fmt::Display for ScldInstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScldInstanceError::UncoverableElement(a) => {
                write!(f, "arrival {a:?} cannot be covered by any set")
            }
            ScldInstanceError::UnsortedArrivals(i) => {
                write!(f, "arrival {i} breaks the non-decreasing time order")
            }
            ScldInstanceError::BadCost(s, k) => {
                write!(f, "cost of set {s} lease type {k} is missing or invalid")
            }
        }
    }
}

impl std::error::Error for ScldInstanceError {}

/// An SCLD instance: set system, lease durations, per-set/type costs and
/// deadline-flexible arrivals.
#[derive(Clone, Debug, PartialEq)]
pub struct ScldInstance {
    /// The set system.
    pub system: SetSystem,
    /// Lease durations (reference costs in the `cost` field).
    pub structure: LeaseStructure,
    /// `costs[s][k]`.
    pub costs: Vec<Vec<f64>>,
    /// Demands in non-decreasing time order.
    pub arrivals: Vec<ScldArrival>,
}

impl ScldInstance {
    /// Validates and builds an instance.
    ///
    /// # Errors
    ///
    /// Returns an [`ScldInstanceError`] on malformed costs, unsorted
    /// arrivals or uncoverable elements.
    pub fn new(
        system: SetSystem,
        structure: LeaseStructure,
        costs: Vec<Vec<f64>>,
        arrivals: Vec<ScldArrival>,
    ) -> Result<Self, ScldInstanceError> {
        if costs.len() != system.num_sets() {
            return Err(ScldInstanceError::BadCost(costs.len(), 0));
        }
        for (s, row) in costs.iter().enumerate() {
            if row.len() != structure.num_types() {
                return Err(ScldInstanceError::BadCost(s, row.len()));
            }
            for (k, &c) in row.iter().enumerate() {
                if !c.is_finite() || c <= 0.0 {
                    return Err(ScldInstanceError::BadCost(s, k));
                }
            }
        }
        for (i, a) in arrivals.iter().enumerate() {
            if a.element >= system.num_elements() || system.sets_containing(a.element).is_empty() {
                return Err(ScldInstanceError::UncoverableElement(*a));
            }
            if i > 0 && arrivals[i - 1].time > a.time {
                return Err(ScldInstanceError::UnsortedArrivals(i));
            }
        }
        Ok(ScldInstance {
            system,
            structure,
            costs,
            arrivals,
        })
    }

    /// Uniform costs (`c_{S,k} = c_k` from the structure).
    ///
    /// # Errors
    ///
    /// Same as [`ScldInstance::new`].
    pub fn uniform(
        system: SetSystem,
        structure: LeaseStructure,
        arrivals: Vec<ScldArrival>,
    ) -> Result<Self, ScldInstanceError> {
        let row: Vec<f64> = structure.types().iter().map(|t| t.cost).collect();
        let costs = vec![row; system.num_sets()];
        ScldInstance::new(system, structure, costs, arrivals)
    }

    /// Cost `c_{S,k}`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn cost(&self, s: usize, k: usize) -> f64 {
        self.costs[s][k]
    }

    /// The arrivals as `(time, (slack, element))` requests for a
    /// [`Driver`](leasing_core::engine::Driver) over [`ScldOnline`].
    pub fn requests(&self) -> impl Iterator<Item = (TimeStep, (u64, usize))> + '_ {
        self.arrivals.iter().map(|a| (a.time, (a.slack, a.element)))
    }

    /// Largest slack `d_max`.
    pub fn d_max(&self) -> u64 {
        self.arrivals.iter().map(|a| a.slack).max().unwrap_or(0)
    }

    /// The candidate triples `F_{(e,t,d)}` of an arrival.
    pub fn candidates(&self, a: &ScldArrival) -> Vec<Triple> {
        let mut out = Vec::new();
        for &s in self.system.sets_containing(a.element) {
            for lease in candidates_intersecting(&self.structure, a.window()) {
                out.push(Triple::new(s, lease.type_index, lease.start));
            }
        }
        out
    }
}

/// The randomized SCLD algorithm (Algorithm 5): each arrival's candidate
/// triples go through one [`CoveringEngine::serve`].
#[derive(Debug)]
pub struct ScldOnline<'a> {
    instance: &'a ScldInstance,
    engine: CoveringEngine,
}

impl<'a> ScldOnline<'a> {
    /// Creates the algorithm with the paper's threshold count
    /// `q = 2⌈log₂(l_max)⌉`.
    pub fn new(instance: &'a ScldInstance, seed: u64) -> Self {
        let q = threshold_count(instance.structure.l_max());
        ScldOnline::with_threshold_count(instance, seed, q)
    }

    /// Creates the algorithm with an explicit threshold count (used by the
    /// E14 ablation against the Chapter 3 `log n` thresholds).
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`.
    pub fn with_threshold_count(instance: &'a ScldInstance, seed: u64, q: u32) -> Self {
        ScldOnline {
            instance,
            engine: CoveringEngine::new(q, seed),
        }
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> CoveringStats {
        self.engine.stats()
    }

    /// The online weak-duality certificate: a lower bound on the offline
    /// optimum of the arrivals served so far.
    pub fn certificate(&self) -> DualCertificate {
        self.engine.certificate()
    }
}

/// Checks that every arrival's window holds a candidate `owns` accepts.
/// Pass `|t| ledger.owns(t)` to check an online run.
pub fn is_feasible(instance: &ScldInstance, owns: impl Fn(Triple) -> bool) -> bool {
    instance
        .arrivals
        .iter()
        .all(|a| instance.candidates(a).into_iter().any(&owns))
}

impl<'a> LeasingAlgorithm for ScldOnline<'a> {
    /// `(slack, element)` of the arrival revealed at a time step.
    type Request = (u64, usize);

    fn on_request(&mut self, time: TimeStep, request: (u64, usize), mut books: Books<'_>) {
        let (slack, element) = request;
        let arrival = ScldArrival::new(time, element, slack);
        let candidates: Vec<(Triple, f64)> = self
            .instance
            .candidates(&arrival)
            .into_iter()
            .map(|c| (c, self.instance.cost(c.element, c.type_index)))
            .collect();
        self.engine.serve(time, &candidates, &mut books);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leasing_core::engine::{Driver, Ledger};
    use leasing_core::lease::LeaseType;

    /// Serves every arrival of `inst` and returns the algorithm with its
    /// ledger.
    fn run(inst: &ScldInstance, seed: u64) -> (ScldOnline<'_>, Ledger) {
        let mut driver = Driver::new(ScldOnline::new(inst, seed), inst.structure.clone());
        driver.submit_batch(inst.requests()).unwrap();
        driver.into_parts()
    }

    fn system() -> SetSystem {
        SetSystem::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]).unwrap()
    }

    fn structure() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(16, 3.0)]).unwrap()
    }

    #[test]
    fn all_arrivals_are_covered() {
        let inst = ScldInstance::uniform(
            system(),
            structure(),
            vec![
                ScldArrival::new(0, 0, 4),
                ScldArrival::new(2, 1, 0),
                ScldArrival::new(9, 2, 8),
            ],
        )
        .unwrap();
        for seed in 0..10 {
            let (_, ledger) = run(&inst, seed);
            let cost = ledger.total_cost();
            assert!(cost > 0.0);
            assert!(is_feasible(&inst, |t| ledger.owns(t)), "seed {seed}");
        }
    }

    #[test]
    fn candidates_span_the_whole_window() {
        let inst =
            ScldInstance::uniform(system(), structure(), vec![ScldArrival::new(1, 0, 4)]).unwrap();
        let cands = inst.candidates(&inst.arrivals[0]);
        // Element 0 is in sets 0 and 2; window [1,5] touches short leases at
        // 0,2,4 and the long lease at 0: 4 leases per set.
        assert_eq!(cands.len(), 8);
    }

    #[test]
    fn zero_slack_reduces_to_set_cover_leasing() {
        let inst =
            ScldInstance::uniform(system(), structure(), vec![ScldArrival::new(3, 0, 0)]).unwrap();
        assert_eq!(inst.d_max(), 0);
        let cands = inst.candidates(&inst.arrivals[0]);
        // Exactly K candidates per containing set.
        assert_eq!(cands.len(), 2 * inst.structure.num_types());
        let (_, ledger) = run(&inst, 1);
        assert!(is_feasible(&inst, |t| ledger.owns(t)));
    }

    #[test]
    fn uncoverable_elements_are_rejected() {
        let sys = SetSystem::new(2, vec![vec![0]]).unwrap();
        let err = ScldInstance::uniform(sys, structure(), vec![ScldArrival::new(0, 1, 0)]);
        assert!(matches!(err, Err(ScldInstanceError::UncoverableElement(_))));
    }

    #[test]
    fn unsorted_arrivals_are_rejected() {
        let err = ScldInstance::uniform(
            system(),
            structure(),
            vec![ScldArrival::new(5, 0, 0), ScldArrival::new(1, 1, 0)],
        );
        assert!(matches!(err, Err(ScldInstanceError::UnsortedArrivals(1))));
    }

    #[test]
    fn reproducible_under_seed() {
        let inst = ScldInstance::uniform(
            system(),
            structure(),
            vec![ScldArrival::new(0, 0, 2), ScldArrival::new(4, 2, 6)],
        )
        .unwrap();
        let cost = |seed| run(&inst, seed).1.total_cost();
        assert_eq!(cost(9).to_bits(), cost(9).to_bits());
    }

    #[test]
    fn stats_track_rounded_and_fallback_costs() {
        let inst = ScldInstance::uniform(
            system(),
            structure(),
            vec![ScldArrival::new(0, 0, 0), ScldArrival::new(1, 1, 3)],
        )
        .unwrap();
        let (alg, ledger) = run(&inst, 4);
        let cost = ledger.total_cost();
        let stats = alg.stats();
        assert!((stats.rounded_cost + stats.fallback_cost - cost).abs() < 1e-9);
        assert!(stats.fractional_cost > 0.0);
    }

    #[test]
    fn certificate_lower_bounds_measured_cost() {
        let arrivals = vec![ScldArrival::new(0, 0, 3), ScldArrival::new(9, 1, 1)];
        let inst = ScldInstance::uniform(system(), structure(), arrivals).unwrap();
        let (alg, ledger) = run(&inst, 5);
        let cert = alg.certificate();
        assert!(
            cert.lower_bound <= ledger.total_cost() + 1e-9,
            "certificate must not exceed the paid cost"
        );
        assert!(cert.lower_bound > 0.0);
    }
}
