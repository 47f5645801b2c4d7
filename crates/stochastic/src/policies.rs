//! Rate-informed and prediction-robust leasing policies.
//!
//! The worst-case algorithms of Chapter 2 ignore any distributional
//! knowledge. When demands follow a (known or learnable) process, a policy
//! can pick lease types by *expected* value. This module provides:
//!
//! * [`RateThreshold`] — knows the daily rate `p` and buys the type with
//!   the best expected price per served demand,
//! * [`EmpiricalRate`] — same rule, but estimates `p` online from the
//!   demands seen so far (no prior knowledge),
//! * [`SwitchCombiner`] — a robustness wrapper that simulates a prediction
//!   policy and the worst-case primal-dual side by side and always *buys*
//!   with the currently cheaper one, hedging bad predictions.

use leasing_core::engine::{Books, Driver, LeasingAlgorithm, Ledger};
use leasing_core::framework::Triple;
use leasing_core::interval::candidates_covering;
use leasing_core::lease::{Lease, LeaseStructure};
use leasing_core::time::TimeStep;
use parking_permit::PERMIT_ELEMENT;

/// Expected number of demands a type-`k` lease covers when each of its
/// `l_k` days demands independently with probability `p` (at least one,
/// since the lease is bought on a demand day).
fn expected_served(length: u64, p: f64) -> f64 {
    1.0 + p * (length.saturating_sub(1)) as f64
}

/// Picks the lease type minimizing `c_k / expected_served(l_k, p)`.
fn best_type_for_rate(structure: &LeaseStructure, p: f64) -> usize {
    (0..structure.num_types())
        .min_by(|&a, &b| {
            let sa = structure.cost(a) / expected_served(structure.length(a), p);
            let sb = structure.cost(b) / expected_served(structure.length(b), p);
            sa.partial_cmp(&sb).expect("finite scores")
        })
        .expect("validated structures are non-empty")
}

/// Policy that knows the daily demand rate `p`: on an uncovered demand it
/// buys the aligned candidate of the type with the best expected price per
/// served demand.
#[derive(Clone, Debug)]
pub struct RateThreshold {
    structure: LeaseStructure,
    p: f64,
}

impl RateThreshold {
    /// Creates the policy for a known rate `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn new(structure: LeaseStructure, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "rate out of range");
        RateThreshold { structure, p }
    }

    /// Core policy step, recording the purchase into `books`.
    fn serve_with(&mut self, t: TimeStep, books: &mut Books<'_>) {
        if books.covered(PERMIT_ELEMENT, t) {
            return;
        }
        let k = self.chosen_type();
        let lease = candidates_covering(&self.structure, t)
            .into_iter()
            .find(|l| l.type_index == k)
            .expect("every type has an aligned candidate");
        books.buy(
            t,
            Triple::new(PERMIT_ELEMENT, lease.type_index, lease.start),
        );
    }

    /// The lease type this policy currently buys.
    pub fn chosen_type(&self) -> usize {
        best_type_for_rate(&self.structure, self.p)
    }
}

impl LeasingAlgorithm for RateThreshold {
    type Request = ();

    fn on_request(&mut self, time: TimeStep, _request: (), mut books: Books<'_>) {
        self.serve_with(time, &mut books);
    }
}

/// Policy that estimates the rate online: after observing `d` demands over
/// an elapsed horizon of `h` days it uses `p̂ = d / h` (Laplace-smoothed) in
/// the same expected-price rule as [`RateThreshold`].
#[derive(Clone, Debug)]
pub struct EmpiricalRate {
    structure: LeaseStructure,
    demands_seen: u64,
    first_day: Option<TimeStep>,
    last_day: TimeStep,
}

impl EmpiricalRate {
    /// Creates the estimating policy.
    pub fn new(structure: LeaseStructure) -> Self {
        EmpiricalRate {
            structure,
            demands_seen: 0,
            first_day: None,
            last_day: 0,
        }
    }

    /// Core policy step, recording the purchase into `books`.
    fn serve_with(&mut self, t: TimeStep, books: &mut Books<'_>) {
        self.first_day.get_or_insert(t);
        self.last_day = self.last_day.max(t);
        self.demands_seen += 1;
        if books.covered(PERMIT_ELEMENT, t) {
            return;
        }
        let k = best_type_for_rate(&self.structure, self.estimate());
        let lease = candidates_covering(&self.structure, t)
            .into_iter()
            .find(|l| l.type_index == k)
            .expect("every type has an aligned candidate");
        books.buy(
            t,
            Triple::new(PERMIT_ELEMENT, lease.type_index, lease.start),
        );
    }

    /// Current (Laplace-smoothed) rate estimate.
    pub fn estimate(&self) -> f64 {
        let elapsed = match self.first_day {
            None => 0,
            Some(f) => self.last_day - f + 1,
        };
        ((self.demands_seen + 1) as f64 / (elapsed + 2) as f64).clamp(0.0, 1.0)
    }
}

impl LeasingAlgorithm for EmpiricalRate {
    type Request = ();

    fn on_request(&mut self, time: TimeStep, _request: (), mut books: Books<'_>) {
        self.serve_with(time, &mut books);
    }
}

/// The first aligned candidate of `t` (shortest type first) that `ledger`
/// owns — the lease the [`SwitchCombiner`] replicates from an inner
/// policy's ledger. Candidate order is part of the combiner's replication
/// contract, so ownership is probed per candidate instead of taking the
/// ledger's latest-expiry pick.
fn owned_candidate(ledger: &Ledger, t: TimeStep) -> Option<Lease> {
    candidates_covering(ledger.structure()?, t)
        .into_iter()
        .find(|l| ledger.owns(Triple::new(PERMIT_ELEMENT, l.type_index, l.start)))
}

/// Robustness combiner: simulates two permit policies on the same demand
/// stream and, for each uncovered demand, *actually buys* the lease the
/// policy with the currently smaller simulated total cost covers the day
/// with.
///
/// Each inner policy runs in its own [`Driver`] with its own ledger, and
/// both always observe every demand (their simulated state stays
/// consistent); only the purchases of the currently-leading policy are
/// charged to the combiner. Its real cost is therefore at most `min(A, B)`
/// per decision plus the switching overhead measured by the experiments.
#[derive(Clone, Debug)]
pub struct SwitchCombiner<A, B> {
    a: Driver<A>,
    b: Driver<B>,
    switches: usize,
    last_leader_a: bool,
}

impl<A, B> SwitchCombiner<A, B>
where
    A: LeasingAlgorithm<Request = ()>,
    B: LeasingAlgorithm<Request = ()>,
{
    /// Combines `a` (e.g. a prediction policy) with `b` (e.g. the worst-case
    /// primal-dual), each simulated over `structure`.
    pub fn new(structure: LeaseStructure, a: A, b: B) -> Self {
        SwitchCombiner {
            a: Driver::new(a, structure.clone()),
            b: Driver::new(b, structure),
            switches: 0,
            last_leader_a: true,
        }
    }

    /// Core combiner step, recording the replicated purchase into `books`.
    fn serve_with(&mut self, t: TimeStep, books: &mut Books<'_>) {
        // Both simulations always advance. The outer engine serves in
        // monotone time order, so neither inner driver sees time travel.
        let simulated = self.a.submit(t, ()).and(self.b.submit(t, ()));
        debug_assert!(simulated.is_ok(), "inner drivers follow the outer clock");
        if books.covered(PERMIT_ELEMENT, t) {
            return;
        }
        let leader_a = self.a.cost() <= self.b.cost();
        if leader_a != self.last_leader_a {
            self.switches += 1;
            self.last_leader_a = leader_a;
        }
        // Replicate the leader's covering lease for day t; if the leader
        // somehow exposes none (both policies must cover t after serving),
        // fall back to the follower's.
        let lease_a = || owned_candidate(self.a.ledger(), t);
        let lease_b = || owned_candidate(self.b.ledger(), t);
        let lease = if leader_a {
            lease_a().or_else(lease_b)
        } else {
            lease_b().or_else(lease_a)
        }
        .expect("an inner policy must cover the demand it just served");
        let triple = Triple::new(PERMIT_ELEMENT, lease.type_index, lease.start);
        if !books.owns(triple) {
            books.buy(t, triple);
        }
    }

    /// How many times the leader changed.
    pub fn switches(&self) -> usize {
        self.switches
    }

    /// Simulated cost of the two inner policies `(A, B)`.
    pub fn inner_costs(&self) -> (f64, f64) {
        (self.a.cost(), self.b.cost())
    }
}

impl<A, B> LeasingAlgorithm for SwitchCombiner<A, B>
where
    A: LeasingAlgorithm<Request = ()>,
    B: LeasingAlgorithm<Request = ()>,
{
    type Request = ();

    fn on_request(&mut self, time: TimeStep, _request: (), mut books: Books<'_>) {
        self.serve_with(time, &mut books);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::{Bernoulli, DemandProcess};
    use leasing_core::lease::LeaseType;
    use leasing_core::rng::seeded;
    use parking_permit::det::DeterministicPrimalDual;
    use parking_permit::offline;

    /// Serves `days` through a fresh driver over the test structure.
    fn driven<A: LeasingAlgorithm<Request = ()>>(alg: A, days: &[TimeStep]) -> Driver<A> {
        let mut driver = Driver::new(alg, structure());
        driver.submit_batch(days.iter().map(|&t| (t, ()))).unwrap();
        driver
    }

    fn structure() -> LeaseStructure {
        LeaseStructure::new(vec![
            LeaseType::new(1, 1.0),
            LeaseType::new(8, 4.0),
            LeaseType::new(64, 16.0),
        ])
        .unwrap()
    }

    #[test]
    fn expected_served_interpolates() {
        assert!((expected_served(1, 0.5) - 1.0).abs() < 1e-12);
        assert!((expected_served(9, 0.5) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn low_rate_prefers_short_leases() {
        assert_eq!(best_type_for_rate(&structure(), 0.01), 0);
    }

    #[test]
    fn high_rate_prefers_long_leases() {
        assert_eq!(best_type_for_rate(&structure(), 0.9), 2);
    }

    #[test]
    fn rate_policy_always_covers_demands() {
        let proc = Bernoulli::new(256, 0.4);
        let days = proc.sample(&mut seeded(11));
        let mut policy = Driver::new(RateThreshold::new(structure(), 0.4), structure());
        for &t in &days {
            policy.submit(t, ()).unwrap();
            assert!(policy.ledger().covered(PERMIT_ELEMENT, t));
        }
    }

    #[test]
    fn informed_policy_beats_worst_case_on_dense_demand() {
        // Dense demand: the long lease is clearly right; the primal-dual
        // pays for short leases before escalating, the rate policy does not.
        let proc = Bernoulli::new(512, 0.9);
        let mut ratios = (0.0, 0.0);
        for seed in 0..10u64 {
            let days = proc.sample(&mut seeded(100 + seed));
            if days.is_empty() {
                continue;
            }
            let opt = offline::optimal_cost_interval_model(&structure(), &days);
            let informed = driven(RateThreshold::new(structure(), 0.9), &days);
            let worst_case = driven(DeterministicPrimalDual::new(structure()), &days);
            ratios.0 += informed.cost() / opt;
            ratios.1 += worst_case.cost() / opt;
        }
        assert!(
            ratios.0 < ratios.1,
            "informed {:.3} must beat worst-case {:.3} on dense demand",
            ratios.0,
            ratios.1
        );
    }

    #[test]
    fn empirical_estimate_converges() {
        let proc = Bernoulli::new(4096, 0.35);
        let days = proc.sample(&mut seeded(21));
        let driver = driven(EmpiricalRate::new(structure()), &days);
        let policy = driver.algorithm();
        assert!(
            (policy.estimate() - 0.35).abs() < 0.05,
            "estimate {} should approach 0.35",
            policy.estimate()
        );
    }

    #[test]
    fn empirical_policy_tracks_the_informed_one() {
        let proc = Bernoulli::new(1024, 0.8);
        let days = proc.sample(&mut seeded(33));
        let informed = driven(RateThreshold::new(structure(), 0.8), &days);
        let empirical = driven(EmpiricalRate::new(structure()), &days);
        // The estimator warms up, so allow a modest overhead factor.
        assert!(
            empirical.cost() <= 2.0 * informed.cost() + 16.0,
            "empirical {} vs informed {}",
            empirical.cost(),
            informed.cost()
        );
    }

    #[test]
    fn combiner_is_feasible_and_tracks_the_better_policy() {
        for (p_true, p_predicted) in [(0.9, 0.9), (0.9, 0.01), (0.05, 0.9)] {
            let proc = Bernoulli::new(512, p_true);
            let days = proc.sample(&mut seeded(55));
            if days.is_empty() {
                continue;
            }
            let mut combiner = Driver::new(
                SwitchCombiner::new(
                    structure(),
                    RateThreshold::new(structure(), p_predicted),
                    DeterministicPrimalDual::new(structure()),
                ),
                structure(),
            );
            for &t in &days {
                combiner.submit(t, ()).unwrap();
                assert!(combiner.ledger().covered(PERMIT_ELEMENT, t));
            }
            let (a, b) = combiner.algorithm().inner_costs();
            // The combiner never pays more than both inner policies
            // together (each purchase follows one of them).
            assert!(
                combiner.cost() <= a + b + 1e-9,
                "combined {} vs inner {a} + {b}",
                combiner.cost()
            );
        }
    }

    #[test]
    #[should_panic(expected = "rate out of range")]
    fn rate_policy_rejects_bad_rates() {
        let _ = RateThreshold::new(structure(), 1.5);
    }
}
