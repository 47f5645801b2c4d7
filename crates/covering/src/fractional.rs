//! The online fractional covering solver (§2.1; Buchbinder–Naor [27, 28]).
//!
//! Every randomized algorithm in the thesis grows a fractional solution with
//! the *same* multiplicative update before rounding it: Algorithm 2 step (i)
//! (parking permit, §2.2.3), Algorithm 3 step (i) (set multicover leasing,
//! §3.3) and Algorithm 5 step (i) (SCLD, §5.5.2) all run
//!
//! ```text
//! while Σ_{i ∈ Q} f_i < 1:
//!     f_i ← f_i · (1 + 1/c_i) + 1 / (|Q| · c_i)      for every i ∈ Q
//! ```
//!
//! when a demand with candidate set `Q` arrives. [`grow`] is that loop, over
//! a slice of fractions and costs; the parking permit runs it on its `K`
//! live slots and [`FractionalCovering`] on the slots of its variable table,
//! so the shared analysis — Lemma 3.1's "each increment adds at most 2" and
//! the `O(log |Q|)`-increments argument — is instrumented exactly once.
//!
//! # Online dual certificates
//!
//! The solver additionally maintains the *dual* solution implicit in the
//! primal-dual view of the update (§2.1): serving a constraint `j` with `y_j`
//! increment loops raises the dual objective by `y_j`, and the per-variable
//! load `L_i = Σ_{j : i ∈ Q_j} y_j` measures how far the dual constraint
//! `Σ y_j ≤ c_i` is overrun. Scaling the duals down by `max_i L_i / c_i`
//! restores feasibility, so by weak duality (Theorem 2.3)
//!
//! ```text
//! Σ_j y_j / max_i (L_i / c_i)  ≤  Opt_LP  ≤  Opt
//! ```
//!
//! — a *certified lower bound on the offline optimum computed online*,
//! without ever solving an LP. The theory promises `max_i L_i / c_i =
//! O(log d)` for maximum candidate-set size `d`, which is exactly the
//! Lemma 3.1 bound; experiment E28 measures it.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

/// A dual feasibility certificate extracted from a run of the
/// multiplicative update; see the [module docs](self) for the underlying
/// weak-duality argument.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DualCertificate {
    /// Raw dual objective `Σ_j y_j` (one unit per increment loop).
    pub dual_sum: f64,
    /// Scaling factor `max(1, max_i L_i / c_i)` that makes the duals
    /// feasible. The Buchbinder–Naor analysis bounds it by `O(log d)`.
    pub scale: f64,
    /// `dual_sum / scale` — a valid lower bound on the cost of **every**
    /// solution satisfying the served constraints, including the offline
    /// optimum.
    pub lower_bound: f64,
}

impl DualCertificate {
    /// The certificate of `dual_sum` increment loops whose most loaded
    /// variable carries `max_load_ratio = max_i L_i / c_i`.
    pub fn new(dual_sum: f64, max_load_ratio: f64) -> Self {
        let scale = max_load_ratio.max(1.0);
        DualCertificate {
            dual_sum,
            scale,
            lower_bound: dual_sum / scale,
        }
    }
}

/// The multiplicative update on one covering constraint: while the
/// fractions sum to less than one, every candidate grows by
/// `f / c + 1 / (|Q| c)` and `fractional_cost` accumulates `c · delta`, in
/// slice order. Returns the number of increment loops (the dual raise `y_j`
/// of the constraint).
///
/// `fractions` and `costs` are parallel, non-empty, and every cost is
/// positive.
///
/// ```
/// let mut fractions = [0.0, 0.0];
/// let mut cost = 0.0;
/// let loops = online_covering::grow(&mut fractions, &[1.0, 3.0], &mut cost);
/// assert!(loops > 0 && fractions.iter().sum::<f64>() >= 1.0);
/// assert!(cost <= 2.0 * loops as f64);
/// ```
pub fn grow(fractions: &mut [f64], costs: &[f64], fractional_cost: &mut f64) -> u64 {
    debug_assert!(!fractions.is_empty() && fractions.len() == costs.len());
    let q_len = fractions.len() as f64;
    let mut loops = 0u64;
    while fractions.iter().sum::<f64>() < 1.0 {
        loops += 1;
        for (f, &c) in fractions.iter_mut().zip(costs) {
            let delta = *f / c + 1.0 / (q_len * c);
            *f += delta;
            *fractional_cost += c * delta;
        }
    }
    loops
}

/// One covering variable in the solver's table.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Variable {
    pub(crate) fraction: f64,
    pub(crate) cost: f64,
    /// Dual load `L_i`.
    pub(crate) load: f64,
    /// Rounding threshold `µ` (`NaN`, never beaten, when the solver runs
    /// without rounding).
    pub(crate) threshold: f64,
}

/// The online fractional covering solver over arbitrary variable keys.
///
/// Variables are identified by hashable keys `V` (the covering engine
/// uses [`leasing_core::framework::Triple`]); each key carries a fixed
/// positive cost supplied at serve time and checked for consistency. A
/// served constraint maps each candidate key once to its slot in one
/// variable table, and the increment loops of [`grow`] run on the gathered
/// slices, not on hash probes.
///
/// ```
/// use online_covering::FractionalCovering;
///
/// let mut frac: FractionalCovering<&str> = FractionalCovering::new();
/// frac.serve(&[("short", 1.0), ("long", 3.0)]);
/// let sum = frac.fraction(&"short") + frac.fraction(&"long");
/// assert!(sum >= 1.0);
/// // Lemma 3.1, fact 1: each increment loop adds at most 2.
/// assert!(frac.fractional_cost() <= 2.0 * frac.increments() as f64);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FractionalCovering<V> {
    slots: HashMap<V, usize>,
    variables: Vec<Variable>,
    /// Table slots of the constraint served last, in candidate order.
    served: Vec<usize>,
    /// The served constraint's fractions and costs, gathered for [`grow`].
    fractions: Vec<f64>,
    costs: Vec<f64>,
    fractional_cost: f64,
    increments: u64,
    dual_sum: f64,
    max_density: usize,
}

impl<V: Eq + Hash + Copy> FractionalCovering<V> {
    /// Creates an empty solver (all fractions zero).
    pub fn new() -> Self {
        FractionalCovering {
            slots: HashMap::new(),
            variables: Vec::new(),
            served: Vec::new(),
            fractions: Vec::new(),
            costs: Vec::new(),
            fractional_cost: 0.0,
            increments: 0,
            dual_sum: 0.0,
            max_density: 0,
        }
    }

    fn variable(&self, v: &V) -> Option<&Variable> {
        self.slots.get(v).and_then(|&slot| self.variables.get(slot))
    }

    /// Current fraction of variable `v` (zero if never a candidate).
    pub fn fraction(&self, v: &V) -> f64 {
        self.variable(v).map_or(0.0, |var| var.fraction)
    }

    /// Accumulated fractional cost `Σ c_i · f_i`.
    pub fn fractional_cost(&self) -> f64 {
        self.fractional_cost
    }

    /// Total number of increment loops performed so far.
    pub fn increments(&self) -> u64 {
        self.increments
    }

    /// Largest candidate-set size seen so far (the `d` of the `O(log d)`
    /// guarantees).
    pub fn max_density(&self) -> usize {
        self.max_density
    }

    /// Number of distinct variables touched so far.
    pub fn num_variables(&self) -> usize {
        self.variables.len()
    }

    /// Serves one covering constraint `Σ_{i ∈ candidates} x_i ≥ 1`: grows
    /// the candidate fractions multiplicatively until they sum to at least
    /// one. Returns the number of increment loops performed (the dual raise
    /// `y_j` of this constraint).
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty, if any cost is non-finite or
    /// non-positive, or if a variable reappears with a different cost (the
    /// covering LP requires one fixed cost per variable).
    pub fn serve(&mut self, candidates: &[(V, f64)]) -> u64 {
        self.serve_with(candidates, |_| f64::NAN)
    }

    /// [`serve`](Self::serve), giving each variable first seen here the
    /// rounding threshold `threshold(v)`, called in candidate order.
    /// Candidates must be distinct.
    pub(crate) fn serve_with(
        &mut self,
        candidates: &[(V, f64)],
        mut threshold: impl FnMut(&V) -> f64,
    ) -> u64 {
        assert!(
            !candidates.is_empty(),
            "covering constraint needs at least one candidate"
        );
        self.served.clear();
        self.fractions.clear();
        self.costs.clear();
        for &(v, c) in candidates {
            assert!(
                c.is_finite() && c > 0.0,
                "candidate cost must be positive and finite"
            );
            let (slot, fraction) = match self.slots.entry(v) {
                Entry::Occupied(entry) => {
                    let slot = *entry.get();
                    let var = self.variables.get(slot).copied();
                    let (prior, fraction) = var.map_or((c, 0.0), |var| (var.cost, var.fraction));
                    assert!(
                        (prior - c).abs() <= 1e-12 * prior.abs().max(1.0),
                        "variable reappeared with a different cost ({prior} vs {c})"
                    );
                    (slot, fraction)
                }
                Entry::Vacant(entry) => {
                    let slot = self.variables.len();
                    entry.insert(slot);
                    self.variables.push(Variable {
                        fraction: 0.0,
                        cost: c,
                        load: 0.0,
                        threshold: threshold(&v),
                    });
                    (slot, 0.0)
                }
            };
            self.served.push(slot);
            self.fractions.push(fraction);
            self.costs.push(c);
        }
        self.max_density = self.max_density.max(candidates.len());

        let loops = grow(&mut self.fractions, &self.costs, &mut self.fractional_cost);
        if loops > 0 {
            self.increments += loops;
            self.dual_sum += loops as f64;
            for (&slot, &fraction) in self.served.iter().zip(&self.fractions) {
                if let Some(var) = self.variables.get_mut(slot) {
                    var.fraction = fraction;
                    var.load += loops as f64;
                }
            }
        }
        loops
    }

    /// The variables of the constraint served last, in candidate order.
    pub(crate) fn served(&self) -> impl Iterator<Item = &Variable> + '_ {
        self.served
            .iter()
            .filter_map(move |&slot| self.variables.get(slot))
    }

    /// Whether the constraint over `candidates` is already fractionally
    /// satisfied (`Σ f ≥ 1`), without mutating anything.
    pub fn is_satisfied(&self, candidates: &[(V, f64)]) -> bool {
        candidates
            .iter()
            .map(|(v, _)| self.fraction(v))
            .sum::<f64>()
            >= 1.0
    }

    /// Dual load `L_v = Σ_{j : v ∈ Q_j} y_j` of variable `v`.
    pub fn load(&self, v: &V) -> f64 {
        self.variable(v).map_or(0.0, |var| var.load)
    }

    /// Extracts the online weak-duality certificate for the constraints
    /// served so far. `lower_bound` is a valid lower bound on the cost of
    /// any (fractional or integral) solution satisfying those constraints.
    pub fn certificate(&self) -> DualCertificate {
        let max_load_ratio = self
            .variables
            .iter()
            .map(|var| var.load / var.cost)
            .fold(0.0_f64, f64::max);
        DualCertificate::new(self.dual_sum, max_load_ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leasing_lp::model::{Cmp, LinearProgram};
    use proptest::prelude::*;

    #[test]
    fn serve_reaches_fractional_feasibility() {
        let mut frac: FractionalCovering<u32> = FractionalCovering::new();
        let q = [(0u32, 1.0), (1, 4.0), (2, 9.0)];
        let loops = frac.serve(&q);
        assert!(loops > 0);
        assert!(frac.is_satisfied(&q));
        // Re-serving a satisfied constraint is free.
        assert_eq!(frac.serve(&q), 0);
        assert_eq!(frac.increments(), loops);
    }

    #[test]
    fn each_increment_adds_at_most_two() {
        let mut frac: FractionalCovering<u32> = FractionalCovering::new();
        frac.serve(&[(0u32, 2.0), (1, 7.0)]);
        frac.serve(&[(1u32, 7.0), (2, 1.0)]);
        assert!(frac.fractional_cost() <= 2.0 * frac.increments() as f64 + 1e-9);
    }

    #[test]
    fn fractions_never_decrease_and_stay_bounded() {
        let mut frac: FractionalCovering<u32> = FractionalCovering::new();
        let mut last = 0.0;
        for round in 0..5 {
            frac.serve(&[(0u32, 3.0), (round + 1, 5.0)]);
            let f = frac.fraction(&0);
            assert!(f >= last, "fraction decreased");
            last = f;
        }
        // A candidate stops growing once its constraint is satisfied, so
        // one update past f < 1 keeps it below (1 + 1/c) + 1/c <= 3.
        assert!(last < 3.0);
    }

    #[test]
    fn cheap_variables_grow_faster() {
        let mut frac: FractionalCovering<u32> = FractionalCovering::new();
        frac.serve(&[(0u32, 1.0), (1, 100.0)]);
        assert!(frac.fraction(&0) > frac.fraction(&1));
    }

    #[test]
    fn single_expensive_candidate_needs_many_loops() {
        // With one candidate of cost c, each loop multiplies by (1 + 1/c)
        // and adds 1/c, so ~c·ln2 loops are needed: loops grow linearly in c.
        let loops_for = |c: f64| {
            let mut frac: FractionalCovering<u32> = FractionalCovering::new();
            frac.serve(&[(0u32, c)])
        };
        let l1 = loops_for(4.0);
        let l2 = loops_for(16.0);
        assert!(
            l2 > 2 * l1,
            "loops {l1} -> {l2} should scale ~linearly in cost"
        );
    }

    #[test]
    fn dual_sum_counts_loops_and_loads_count_membership() {
        let mut frac: FractionalCovering<u32> = FractionalCovering::new();
        let y1 = frac.serve(&[(0u32, 2.0), (1, 2.0)]);
        let y2 = frac.serve(&[(1u32, 2.0), (2, 2.0)]);
        let cert = frac.certificate();
        assert!((cert.dual_sum - (y1 + y2) as f64).abs() < 1e-12);
        assert!((frac.load(&0) - y1 as f64).abs() < 1e-12);
        assert!((frac.load(&1) - (y1 + y2) as f64).abs() < 1e-12);
        assert!((frac.load(&2) - y2 as f64).abs() < 1e-12);
    }

    #[test]
    fn certificate_scale_is_at_least_one() {
        let frac: FractionalCovering<u32> = FractionalCovering::new();
        let cert = frac.certificate();
        assert_eq!(cert.scale, 1.0);
        assert_eq!(cert.lower_bound, 0.0);
    }

    #[test]
    fn certificate_lower_bounds_the_lp_optimum() {
        // Three overlapping constraints over four variables; crosscheck the
        // online certificate against the exact LP optimum (weak duality).
        let constraints: Vec<Vec<(u32, f64)>> = vec![
            vec![(0, 1.0), (1, 3.0)],
            vec![(1, 3.0), (2, 2.0)],
            vec![(0, 1.0), (2, 2.0), (3, 5.0)],
        ];
        let mut frac: FractionalCovering<u32> = FractionalCovering::new();
        for c in &constraints {
            frac.serve(c);
        }
        let cert = frac.certificate();

        let mut lp = LinearProgram::new();
        let vars: Vec<usize> = [1.0, 3.0, 2.0, 5.0]
            .iter()
            .map(|&c| lp.add_var(c))
            .collect();
        for c in &constraints {
            let coeffs = c.iter().map(|&(v, _)| (vars[v as usize], 1.0)).collect();
            lp.add_constraint(coeffs, Cmp::Ge, 1.0);
        }
        let opt = lp.solve().expect_optimal().objective;
        assert!(
            cert.lower_bound <= opt + 1e-9,
            "certificate {} exceeds LP optimum {opt}",
            cert.lower_bound
        );
        assert!(cert.lower_bound > 0.0);
    }

    #[test]
    fn scale_grows_logarithmically_in_density() {
        // Serve many disjoint constraints sharing one hub variable: the
        // hub's load growth per constraint shrinks as its fraction rises,
        // keeping scale = O(log d).
        let mut frac: FractionalCovering<u32> = FractionalCovering::new();
        let d = 64u32;
        for j in 0..d {
            // Hub variable 0 plus a fresh variable per constraint.
            frac.serve(&[(0u32, 8.0), (j + 1, 8.0)]);
        }
        let cert = frac.certificate();
        // ln-scale bound with generous constant; a linear-scale bug (load
        // growing ~ d) would blow far past this.
        let bound = 4.0 * ((d as f64) + 2.0).ln() + 4.0;
        assert!(
            cert.scale <= bound,
            "scale {} vs O(log d) bound {bound}",
            cert.scale
        );
    }

    #[test]
    fn extreme_cost_ranges_stay_stable() {
        // Six orders of magnitude between candidate costs: the cheap
        // candidate absorbs the growth, increments stay bounded by the
        // cheap cost's scale, and the certificate stays finite and sound.
        let mut frac: FractionalCovering<u32> = FractionalCovering::new();
        let loops = frac.serve(&[(0u32, 1e-3), (1, 1e3)]);
        assert!(
            loops <= 64,
            "cheap candidate must satisfy the constraint fast: {loops}"
        );
        assert!(
            frac.fraction(&0) >= 0.5,
            "growth concentrates on the cheap candidate"
        );
        let cert = frac.certificate();
        assert!(cert.lower_bound.is_finite() && cert.lower_bound >= 0.0);
        assert!(frac.fractional_cost() <= 2.0 * loops as f64 + 1e-9);

        // A long stream of disjoint expensive constraints stays linear.
        let mut frac2: FractionalCovering<u32> = FractionalCovering::new();
        for j in 0..50u32 {
            frac2.serve(&[(j, 100.0), (1000 + j, 200.0)]);
        }
        let cert2 = frac2.certificate();
        assert!(cert2.lower_bound > 0.0 && cert2.scale >= 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_constraint_rejected() {
        let mut frac: FractionalCovering<u32> = FractionalCovering::new();
        frac.serve(&[]);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn non_positive_cost_rejected() {
        let mut frac: FractionalCovering<u32> = FractionalCovering::new();
        frac.serve(&[(0u32, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "different cost")]
    fn inconsistent_cost_rejected() {
        let mut frac: FractionalCovering<u32> = FractionalCovering::new();
        frac.serve(&[(0u32, 1.0)]);
        frac.serve(&[(0u32, 2.0)]);
    }

    proptest! {
        /// Random constraint streams: feasibility, the Lemma 3.1 increment
        /// bound and certificate validity against the exact LP.
        #[test]
        fn random_streams_satisfy_all_invariants(
            stream in proptest::collection::vec(
                proptest::collection::vec((0u32..8, 1u32..16), 1..5),
                1..12,
            )
        ) {
            let mut frac: FractionalCovering<u32> = FractionalCovering::new();
            // Fix one cost per variable id: cost = id + 1 (deduplicate
            // repeated vars inside one constraint).
            let mut served: Vec<Vec<(u32, f64)>> = Vec::new();
            for raw in &stream {
                let mut seen = std::collections::HashSet::new();
                let constraint: Vec<(u32, f64)> = raw
                    .iter()
                    .filter(|(v, _)| seen.insert(*v))
                    .map(|&(v, _)| (v, (v + 1) as f64))
                    .collect();
                frac.serve(&constraint);
                prop_assert!(frac.is_satisfied(&constraint));
                served.push(constraint);
            }
            prop_assert!(frac.fractional_cost() <= 2.0 * frac.increments() as f64 + 1e-9);

            // Certificate vs exact LP.
            let cert = frac.certificate();
            let mut lp = LinearProgram::new();
            let vars: Vec<usize> = (0u32..8).map(|v| lp.add_var((v + 1) as f64)).collect();
            for c in &served {
                let coeffs = c.iter().map(|&(v, _)| (vars[v as usize], 1.0)).collect();
                lp.add_constraint(coeffs, Cmp::Ge, 1.0);
            }
            let opt = lp.solve().expect_optimal().objective;
            prop_assert!(cert.lower_bound <= opt + 1e-9,
                "certificate {} > LP opt {}", cert.lower_bound, opt);
        }
    }
}
