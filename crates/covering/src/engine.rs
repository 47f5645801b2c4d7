//! The randomized online covering engine: fractional growth (step i),
//! per-variable threshold rounding (step ii) and the cheapest-candidate
//! fallback (step iii) — the three-phase shape of thesis Algorithm 3 and
//! Algorithm 5, buying into the ledger's books.

use crate::fractional::{DualCertificate, FractionalCovering};
use crate::rounding::ThresholdSampler;
use leasing_core::engine::Books;
use leasing_core::framework::Triple;
use leasing_core::time::TimeStep;

/// Instrumentation counters of a [`CoveringEngine`] run (Lemmas 3.1/3.2
/// and 5.5/5.6).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CoveringStats {
    /// Total fractional cost `Σ c · f` accumulated (Lemma 3.1 bounds this
    /// by `O(log d) · Opt` for candidate density `d`).
    pub fractional_cost: f64,
    /// Cost of leases bought by threshold rounding (the ledger's
    /// `"rounded"` category).
    pub rounded_cost: f64,
    /// Cost of cheapest-candidate fallbacks (Lemmas 3.2/5.6 bound their
    /// probability per constraint); the ledger's `"fallback"` category.
    pub fallback_cost: f64,
    /// Number of fallback purchases.
    pub fallbacks: usize,
    /// Number of multiplicative increment loops performed.
    pub increments: u64,
}

/// The randomized online covering algorithm: grow fractions, round
/// against per-variable thresholds, fall back to the cheapest candidate.
///
/// The SMCL and SCLD algorithms of Chapters 3 and 5 build their candidate
/// triples and call [`serve`](CoveringEngine::serve); ownership lives in
/// the ledger, so the engine keeps no purchase mirror.
///
/// ```
/// use leasing_core::engine::{Books, Ledger};
/// use leasing_core::framework::Triple;
/// use leasing_core::lease::{LeaseStructure, LeaseType};
/// use online_covering::CoveringEngine;
///
/// let structure =
///     LeaseStructure::new(vec![LeaseType::new(1, 1.0), LeaseType::new(8, 5.0)]).unwrap();
/// let mut ledger = Ledger::new(structure);
/// let mut engine = CoveringEngine::new(4, 7);
/// let day_pass = (Triple::new(0, 0, 0), 1.0);
/// let season_pass = (Triple::new(0, 1, 0), 5.0);
/// let chosen = engine.serve(0, &[day_pass, season_pass], &mut Books::new(&mut ledger));
/// assert!(ledger.owns(chosen));
/// assert!(ledger.total_cost() >= 1.0);
/// ```
#[derive(Debug)]
pub struct CoveringEngine {
    fractional: FractionalCovering<Triple>,
    thresholds: ThresholdSampler<Triple>,
    rounded_cost: f64,
    fallback_cost: f64,
    fallbacks: usize,
}

impl CoveringEngine {
    /// Creates an engine with `q` uniforms per rounding threshold and the
    /// given RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`.
    pub fn new(q: u32, seed: u64) -> Self {
        CoveringEngine {
            fractional: FractionalCovering::new(),
            thresholds: ThresholdSampler::new(q, seed),
            rounded_cost: 0.0,
            fallback_cost: 0.0,
            fallbacks: 0,
        }
    }

    /// Serves one covering constraint at time `t` over distinct priced
    /// candidates, buying into `books` under the `"rounded"` and
    /// `"fallback"` categories, and returns a candidate owned afterwards
    /// (the first owned one in slice order, matching Algorithm 3's
    /// *i-Cover* return value).
    ///
    /// Each candidate first seen here draws its threshold, in slice order.
    ///
    /// # Panics
    ///
    /// Panics on empty or invalidly-priced candidate slices (see
    /// [`FractionalCovering::serve`]).
    pub fn serve(
        &mut self,
        t: TimeStep,
        candidates: &[(Triple, f64)],
        books: &mut Books<'_>,
    ) -> Triple {
        // (i) Fractional phase.
        let thresholds = &mut self.thresholds;
        self.fractional
            .serve_with(candidates, |v| thresholds.threshold(v));

        // (ii) Threshold rounding, in candidate order.
        for (&(v, c), var) in candidates.iter().zip(self.fractional.served()) {
            if var.fraction > var.threshold && !books.owns(v) {
                books.buy_priced(t, v, c, "rounded");
                self.rounded_cost += c;
            }
        }

        // (iii) Fallback: buy the first cheapest candidate if none is owned.
        if let Some(&(v, _)) = candidates.iter().find(|(v, _)| books.owns(*v)) {
            return v;
        }
        let &(v, c) = candidates
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("candidates are non-empty");
        books.buy_priced(t, v, c, "fallback");
        self.fallback_cost += c;
        self.fallbacks += 1;
        v
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> CoveringStats {
        CoveringStats {
            fractional_cost: self.fractional.fractional_cost(),
            rounded_cost: self.rounded_cost,
            fallback_cost: self.fallback_cost,
            fallbacks: self.fallbacks,
            increments: self.fractional.increments(),
        }
    }

    /// The online weak-duality certificate of the fractional phase.
    pub fn certificate(&self) -> DualCertificate {
        self.fractional.certificate()
    }

    /// Pins the rounding threshold of `v` before it is first served (tests
    /// and ablations); see [`ThresholdSampler::pin`].
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= mu <= 1.0`.
    pub fn pin_threshold(&mut self, v: Triple, mu: f64) {
        self.thresholds.pin(v, mu);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leasing_core::engine::Ledger;
    use leasing_core::lease::{LeaseStructure, LeaseType};
    use proptest::prelude::*;

    /// Variable `v` as a single-type triple of element `v`.
    fn var(v: u32) -> Triple {
        Triple::new(v as usize, 0, 0)
    }

    fn ledger() -> Ledger {
        Ledger::new(LeaseStructure::new(vec![LeaseType::new(1, 1.0)]).unwrap())
    }

    fn serve(e: &mut CoveringEngine, ledger: &mut Ledger, cands: &[(u32, f64)]) -> Triple {
        let cands: Vec<(Triple, f64)> = cands.iter().map(|&(v, c)| (var(v), c)).collect();
        e.serve(0, &cands, &mut Books::new(ledger))
    }

    #[test]
    fn serve_always_returns_an_owned_candidate() {
        let mut e = CoveringEngine::new(4, 1);
        let mut ledger = ledger();
        for j in 0..10u32 {
            let cands = [(j % 3, 1.0 + (j % 3) as f64), (3 + j % 2, 2.0)];
            let chosen = serve(&mut e, &mut ledger, &cands);
            assert!(ledger.owns(chosen));
            assert!(cands.iter().any(|&(v, _)| var(v) == chosen));
        }
    }

    #[test]
    fn pinned_high_thresholds_force_fallback_to_cheapest() {
        // Two equal-cost candidates grow symmetrically and stop at 0.5
        // each, which never beats µ = 1: rounding buys nothing and the
        // fallback buys the first cheapest candidate.
        let mut e = CoveringEngine::new(1, 3);
        let mut ledger = ledger();
        e.pin_threshold(var(0), 1.0);
        e.pin_threshold(var(1), 1.0);
        let chosen = serve(&mut e, &mut ledger, &[(0, 1.0), (1, 1.0)]);
        assert_eq!(e.stats().fallbacks, 1);
        assert_eq!(e.stats().rounded_cost, 0.0);
        assert_eq!(chosen, var(0), "ties go to the first cheapest candidate");
        assert!(ledger.owns(var(0)) && !ledger.owns(var(1)));
        assert_eq!(ledger.category_cost("fallback"), 1.0);
        assert_eq!(ledger.category_cost("rounded"), 0.0);
        assert_eq!(ledger.total_cost(), 1.0);
    }

    #[test]
    fn pinned_zero_thresholds_buy_every_candidate_with_mass() {
        let mut e = CoveringEngine::new(1, 3);
        let mut ledger = ledger();
        e.pin_threshold(var(0), 0.0);
        e.pin_threshold(var(1), 0.0);
        serve(&mut e, &mut ledger, &[(0, 1.0), (1, 1.0)]);
        assert!(
            ledger.owns(var(0)) && ledger.owns(var(1)),
            "both candidates exceed a zero threshold"
        );
        assert_eq!(e.stats().fallbacks, 0);
    }

    #[test]
    fn repeat_constraint_is_free_once_owned() {
        let mut e = CoveringEngine::new(4, 9);
        let mut ledger = ledger();
        let cands = [(0u32, 2.0), (1, 3.0)];
        serve(&mut e, &mut ledger, &cands);
        let cost = ledger.total_cost();
        serve(&mut e, &mut ledger, &cands);
        assert_eq!(
            ledger.total_cost(),
            cost,
            "re-serving an owned constraint is free"
        );
    }

    #[test]
    fn total_cost_decomposes_into_rounded_plus_fallback() {
        let mut e = CoveringEngine::new(2, 11);
        let mut ledger = ledger();
        for j in 0..20u32 {
            serve(
                &mut e,
                &mut ledger,
                &[(j % 5, 1.0 + (j % 5) as f64), (5 + j % 3, 2.5)],
            );
        }
        let s = e.stats();
        assert!((ledger.total_cost() - (s.rounded_cost + s.fallback_cost)).abs() < 1e-9);
        assert_eq!(ledger.category_cost("rounded"), s.rounded_cost);
        assert_eq!(ledger.category_cost("fallback"), s.fallback_cost);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut e = CoveringEngine::new(4, seed);
            let mut ledger = ledger();
            (0..12u32)
                .map(|j| serve(&mut e, &mut ledger, &[(j % 4, 1.0), (4 + j % 2, 3.0)]))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
    }

    proptest! {
        /// Every served constraint ends up integrally covered, and the
        /// integral cost equals the cost of the owned set.
        #[test]
        fn integral_feasibility_and_cost_accounting(
            stream in proptest::collection::vec(
                proptest::collection::vec(0u32..6, 1..4),
                1..15,
            ),
            seed in 0u64..50,
        ) {
            let mut e = CoveringEngine::new(3, seed);
            let mut ledger = ledger();
            let mut served: Vec<Vec<(u32, f64)>> = Vec::new();
            for raw in &stream {
                let mut seen = std::collections::HashSet::new();
                let c: Vec<(u32, f64)> = raw
                    .iter()
                    .filter(|v| seen.insert(**v))
                    .map(|&v| (v, (v + 1) as f64))
                    .collect();
                serve(&mut e, &mut ledger, &c);
                served.push(c);
            }
            for c in &served {
                prop_assert!(c.iter().any(|&(v, _)| ledger.owns(var(v))), "constraint left uncovered");
            }
            let owned_cost: f64 = (0u32..6)
                .filter(|&v| ledger.owns(var(v)))
                .map(|v| (v + 1) as f64)
                .sum();
            prop_assert!((owned_cost - ledger.total_cost()).abs() < 1e-9);
        }
    }
}
