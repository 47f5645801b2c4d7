//! Meyerson's *interval model* (Definition 2.5) and the Lemma 2.6 reduction.
//!
//! In the interval model every lease length is a power of two and leases of
//! the same type are aligned: a type-`k` lease may only start at times that
//! are multiples of `l_k`. Consequently **exactly `K` leases cover any given
//! time step** (one per type), which the algorithms of Chapters 2–5 exploit.
//!
//! Lemma 2.6 shows that restricting to the interval model costs at most a
//! factor `4` in the competitive ratio; [`IntervalModelReduction`] implements
//! both directions of that transformation so the experiments can measure the
//! factor empirically (experiment E4 in `DESIGN.md`).

use crate::lease::{Lease, LeaseStructure, LeaseType};
use crate::time::{TimeStep, Window};

/// Largest multiple of `len` that is `<= t`: the start of the aligned window
/// of length `len` containing `t`.
///
/// # Panics
///
/// Panics if `len == 0`.
///
/// ```
/// assert_eq!(leasing_core::interval::aligned_start(13, 4), 12);
/// assert_eq!(leasing_core::interval::aligned_start(12, 4), 12);
/// ```
pub fn aligned_start(t: TimeStep, len: u64) -> TimeStep {
    assert!(len > 0, "lease length must be positive");
    t - t % len
}

/// The `K` aligned candidate leases covering time step `t`, one per lease
/// type (ordered by type).
///
/// This is the candidate set `Q_t` of the parking permit algorithms and the
/// `\bar{I}(t)` of the leasing framework (§2.3), restricted to the interval
/// model.
pub fn candidates_covering(structure: &LeaseStructure, t: TimeStep) -> Vec<Lease> {
    candidate_leases(structure, t).collect()
}

/// Iterator form of [`candidates_covering`] — the same `K` candidates in
/// the same order, with no allocation (the hot-path variant for per-request
/// serve loops).
pub fn candidate_leases(
    structure: &LeaseStructure,
    t: TimeStep,
) -> impl Iterator<Item = Lease> + '_ {
    (0..structure.num_types()).map(move |k| Lease::new(k, aligned_start(t, structure.length(k))))
}

/// Algorithm 1's dual step on day `t` — the one copy behind every
/// deterministic primal-dual permit policy.
///
/// `slots[k]` accumulates the dual contributions `Σy` to type `k`'s
/// current aligned window as `(window start, Σy)`; fresh slots start at
/// the `(TimeStep::MAX, 0.0)` sentinel, where no aligned window starts.
/// The step slides each slot to the aligned window containing `t` (a
/// window the clock has left is never a candidate again, so its sum
/// restarts at zero), takes `delta` as the smallest remaining slack
/// `c_k − Σy`, adds `delta` to every slot, and calls `on_tight(k, start)`
/// for each candidate whose constraint is now tight, in type order.
/// Returns `delta`, the raise of `y_t`. Whether a tight candidate is
/// bought — it may already be owned — is the caller's rule.
pub fn dual_step(
    structure: &LeaseStructure,
    slots: &mut [(TimeStep, f64)],
    t: TimeStep,
    mut on_tight: impl FnMut(usize, TimeStep),
) -> f64 {
    let mut delta = f64::INFINITY;
    for (k, slot) in slots.iter_mut().enumerate() {
        let start = aligned_start(t, structure.length(k));
        if slot.0 != start {
            *slot = (start, 0.0);
        }
        delta = delta.min((structure.cost(k) - slot.1).max(0.0));
    }
    for (k, slot) in slots.iter_mut().enumerate() {
        slot.1 += delta;
        if slot.1 >= structure.cost(k) - crate::EPS {
            on_tight(k, slot.0);
        }
    }
    delta
}

/// All aligned leases whose validity window intersects `window`
/// (the candidate set of a deadline-flexible client, Chapter 5).
///
/// Returns leases ordered by `(type_index, start)`. Empty windows yield no
/// candidates.
pub fn candidates_intersecting(structure: &LeaseStructure, window: Window) -> Vec<Lease> {
    let mut out = Vec::new();
    let Some(last) = window.last() else {
        return out;
    };
    for k in 0..structure.num_types() {
        let len = structure.length(k);
        let mut s = aligned_start(window.start, len);
        let last_start = aligned_start(last, len);
        loop {
            out.push(Lease::new(k, s));
            if s >= last_start {
                break;
            }
            s += len;
        }
    }
    out
}

/// Both directions of the Lemma 2.6 transformation between an arbitrary
/// lease structure and its power-of-two, aligned (interval-model)
/// counterpart.
///
/// * [`lift`](IntervalModelReduction::lift) turns a feasible interval-model
///   solution into a feasible general-model solution of exactly twice the
///   cost (each interval lease is replaced by two consecutive original
///   leases).
/// * [`project`](IntervalModelReduction::project) turns a feasible
///   general-model solution into a feasible interval-model solution of at
///   most twice the cost (each lease is replaced by two consecutive aligned
///   leases).
///
/// Chaining the two bounds gives the factor-4 loss of Lemma 2.6.
#[derive(Clone, Debug)]
pub struct IntervalModelReduction {
    original: LeaseStructure,
    rounded: LeaseStructure,
    /// For each rounded type, the index of the cheapest original type whose
    /// length rounds to it.
    rounded_to_original: Vec<usize>,
    /// For each original type, the index of the rounded type its length
    /// rounds to.
    original_to_rounded: Vec<usize>,
}

impl IntervalModelReduction {
    /// Builds the reduction for `original`.
    pub fn new(original: &LeaseStructure) -> Self {
        let rounded = original.rounded_to_powers_of_two();
        let mut rounded_to_original = vec![usize::MAX; rounded.num_types()];
        let mut original_to_rounded = vec![usize::MAX; original.num_types()];
        for (i, t) in original.types().iter().enumerate() {
            let target = t.length.next_power_of_two();
            let j = rounded
                .types()
                .iter()
                .position(|rt| rt.length == target)
                .expect("every original length has a rounded image");
            original_to_rounded[i] = j;
            let best = rounded_to_original[j];
            if best == usize::MAX || original.cost(i) < original.cost(best) {
                rounded_to_original[j] = i;
            }
        }
        IntervalModelReduction {
            original: original.clone(),
            rounded,
            rounded_to_original,
            original_to_rounded,
        }
    }

    /// The original (general-model) lease structure.
    pub fn original(&self) -> &LeaseStructure {
        &self.original
    }

    /// The rounded, interval-model lease structure.
    pub fn rounded(&self) -> &LeaseStructure {
        &self.rounded
    }

    /// Lifts an interval-model solution (over [`rounded`](Self::rounded))
    /// into the general model (over [`original`](Self::original)): each
    /// rounded lease `(j, t)` becomes two consecutive original leases of the
    /// cheapest type rounding to `j`, starting at `t` and `t + l`.
    ///
    /// The lifted solution covers at least the window of every replaced lease
    /// and costs exactly twice as much.
    pub fn lift(&self, interval_solution: &[Lease]) -> Vec<Lease> {
        let mut out = Vec::with_capacity(2 * interval_solution.len());
        for lease in interval_solution {
            let i = self.rounded_to_original[lease.type_index];
            let len = self.original.length(i);
            out.push(Lease::new(i, lease.start));
            out.push(Lease::new(i, lease.start + len));
        }
        out
    }

    /// Projects a general-model solution into the interval model: each
    /// original lease `(i, t)` becomes two consecutive *aligned* leases of
    /// the rounded type `j(i)`, starting at `⌊t/l'⌋·l'` and `⌊t/l'⌋·l' + l'`.
    ///
    /// The projected solution covers at least the window of every replaced
    /// lease and costs at most twice as much.
    pub fn project(&self, general_solution: &[Lease]) -> Vec<Lease> {
        let mut out = Vec::with_capacity(2 * general_solution.len());
        for lease in general_solution {
            let j = self.original_to_rounded[lease.type_index];
            let len = self.rounded.length(j);
            let base = aligned_start(lease.start, len);
            out.push(Lease::new(j, base));
            out.push(Lease::new(j, base + len));
        }
        out
    }
}

/// Validates that `structure` satisfies the interval model and that every
/// lease in `solution` is aligned (`start % l_k == 0`).
pub fn is_aligned_solution(structure: &LeaseStructure, solution: &[Lease]) -> bool {
    structure.is_interval_model_shape()
        && solution
            .iter()
            .all(|l| l.start % structure.length(l.type_index) == 0)
}

/// Builds an interval-model lease structure directly from `(log2 length,
/// cost)` pairs — convenient for tests and experiments.
///
/// # Panics
///
/// Panics if the exponents are not strictly increasing or any cost is
/// invalid.
pub fn power_of_two_structure(spec: &[(u32, f64)]) -> LeaseStructure {
    let types: Vec<LeaseType> = spec
        .iter()
        .map(|&(e, c)| LeaseType::new(1u64 << e, c))
        .collect();
    LeaseStructure::new(types)
        .expect("power-of-two spec must be strictly increasing with valid costs")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lease::{covers_all, solution_cost};
    use proptest::prelude::*;

    fn rounded_fixture() -> LeaseStructure {
        power_of_two_structure(&[(0, 1.0), (2, 3.0), (4, 8.0)])
    }

    #[test]
    fn dual_step_slides_raises_and_reports_tight_candidates_in_type_order() {
        let s = LeaseStructure::new(vec![LeaseType::new(1, 1.0), LeaseType::new(4, 2.0)]).unwrap();
        let mut slots = vec![(TimeStep::MAX, 0.0); 2];
        let mut tight = Vec::new();
        // Day 0: the day lease's slack (1) is smallest; only it is tight.
        assert_eq!(
            dual_step(&s, &mut slots, 0, |k, start| tight.push((k, start))),
            1.0
        );
        assert_eq!(tight, vec![(0, 0)]);
        // Day 1: the day slot slides to [1, 2) and restarts; the long
        // window [0, 4) keeps its sum, so both become tight together.
        tight.clear();
        assert_eq!(
            dual_step(&s, &mut slots, 1, |k, start| tight.push((k, start))),
            1.0
        );
        assert_eq!(tight, vec![(0, 1), (1, 0)]);
        assert_eq!(slots, vec![(1, 1.0), (0, 2.0)]);
        // Day 4 leaves the long window: it restarts at zero.
        tight.clear();
        dual_step(&s, &mut slots, 4, |k, start| tight.push((k, start)));
        assert_eq!(slots, vec![(4, 1.0), (4, 1.0)]);
        assert_eq!(tight, vec![(0, 4)]);
    }

    #[test]
    fn aligned_start_is_floor_multiple() {
        assert_eq!(aligned_start(0, 8), 0);
        assert_eq!(aligned_start(7, 8), 0);
        assert_eq!(aligned_start(8, 8), 8);
        assert_eq!(aligned_start(15, 8), 8);
    }

    #[test]
    #[should_panic(expected = "length must be positive")]
    fn aligned_start_rejects_zero_length() {
        let _ = aligned_start(3, 0);
    }

    #[test]
    fn exactly_k_candidates_cover_each_day() {
        let s = rounded_fixture();
        for t in [0u64, 1, 5, 16, 31, 100] {
            let cands = candidates_covering(&s, t);
            assert_eq!(cands.len(), s.num_types());
            for c in &cands {
                assert!(c.window(&s).contains(t));
                assert_eq!(c.start % s.length(c.type_index), 0);
            }
        }
    }

    #[test]
    fn candidates_intersecting_enumerates_all_overlaps() {
        let s = rounded_fixture();
        // Window [3, 9): type-0 leases at 3..=8, type-1 (len 4) at 0,4,8,
        // type-2 (len 16) at 0.
        let cands = candidates_intersecting(&s, Window::new(3, 6));
        let type0 = cands.iter().filter(|c| c.type_index == 0).count();
        let type1 = cands.iter().filter(|c| c.type_index == 1).count();
        let type2 = cands.iter().filter(|c| c.type_index == 2).count();
        assert_eq!((type0, type1, type2), (6, 3, 1));
        for c in &cands {
            assert!(c.window(&s).intersects(&Window::new(3, 6)));
        }
    }

    #[test]
    fn candidates_intersecting_empty_window_is_empty() {
        let s = rounded_fixture();
        assert!(candidates_intersecting(&s, Window::new(5, 0)).is_empty());
    }

    #[test]
    fn lift_doubles_cost_and_preserves_coverage() {
        let original =
            LeaseStructure::new(vec![LeaseType::new(3, 2.0), LeaseType::new(10, 5.0)]).unwrap();
        let red = IntervalModelReduction::new(&original);
        assert_eq!(red.rounded().length(0), 4);
        assert_eq!(red.rounded().length(1), 16);

        // An interval-model solution covering [0,4) and [16,32).
        let interval_sol = vec![Lease::new(0, 0), Lease::new(1, 16)];
        let lifted = red.lift(&interval_sol);
        assert!(
            (solution_cost(red.original(), &lifted)
                - 2.0 * solution_cost(red.rounded(), &interval_sol))
            .abs()
                < 1e-9
        );
        // Every day covered by the interval solution is covered by the lift.
        let days: Vec<u64> = (0..4).chain(16..32).collect();
        assert!(covers_all(red.original(), &lifted, &days));
    }

    #[test]
    fn project_at_most_doubles_cost_and_preserves_coverage() {
        let original =
            LeaseStructure::new(vec![LeaseType::new(3, 2.0), LeaseType::new(10, 5.0)]).unwrap();
        let red = IntervalModelReduction::new(&original);
        let general_sol = vec![Lease::new(0, 5), Lease::new(1, 13)];
        let projected = red.project(&general_sol);
        assert!(is_aligned_solution(red.rounded(), &projected));
        assert!(
            solution_cost(red.rounded(), &projected)
                <= 2.0 * solution_cost(red.original(), &general_sol) + 1e-9
        );
        let days: Vec<u64> = (5..8).chain(13..23).collect();
        assert!(covers_all(red.rounded(), &projected, &days));
    }

    #[test]
    fn reduction_merges_types_keeping_cheapest() {
        let original =
            LeaseStructure::new(vec![LeaseType::new(3, 9.0), LeaseType::new(4, 2.0)]).unwrap();
        let red = IntervalModelReduction::new(&original);
        assert_eq!(red.rounded().num_types(), 1);
        // Lift must use the cheap original type (index 1).
        let lifted = red.lift(&[Lease::new(0, 0)]);
        assert!(lifted.iter().all(|l| l.type_index == 1));
    }

    proptest! {
        #[test]
        fn lift_preserves_coverage_of_random_solutions(
            starts in proptest::collection::vec((0usize..2, 0u64..64), 1..8)
        ) {
            let original = LeaseStructure::new(vec![
                LeaseType::new(3, 2.0),
                LeaseType::new(10, 5.0),
            ]).unwrap();
            let red = IntervalModelReduction::new(&original);
            let sol: Vec<Lease> = starts
                .iter()
                .map(|&(k, raw)| {
                    let len = red.rounded().length(k);
                    Lease::new(k, aligned_start(raw, len))
                })
                .collect();
            let lifted = red.lift(&sol);
            let days: Vec<u64> = sol
                .iter()
                .flat_map(|l| l.window(red.rounded()).iter())
                .collect();
            prop_assert!(covers_all(red.original(), &lifted, &days));
            let ratio = solution_cost(red.original(), &lifted)
                / solution_cost(red.rounded(), &sol);
            prop_assert!((ratio - 2.0).abs() < 1e-9);
        }

        #[test]
        fn project_preserves_coverage_of_random_solutions(
            starts in proptest::collection::vec((0usize..2, 0u64..64), 1..8)
        ) {
            let original = LeaseStructure::new(vec![
                LeaseType::new(3, 2.0),
                LeaseType::new(10, 5.0),
            ]).unwrap();
            let red = IntervalModelReduction::new(&original);
            let sol: Vec<Lease> = starts.iter().map(|&(k, t)| Lease::new(k, t)).collect();
            let projected = red.project(&sol);
            prop_assert!(is_aligned_solution(red.rounded(), &projected));
            let days: Vec<u64> = sol
                .iter()
                .flat_map(|l| l.window(red.original()).iter())
                .collect();
            prop_assert!(covers_all(red.rounded(), &projected, &days));
            prop_assert!(
                solution_cost(red.rounded(), &projected)
                    <= 2.0 * solution_cost(red.original(), &sol) + 1e-9
            );
        }
    }
}
