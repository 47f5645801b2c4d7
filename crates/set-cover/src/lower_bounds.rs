//! Lower-bound constructions for SetCoverLeasing (thesis §3.5).
//!
//! §3.5 records the known lower bounds for SetCoverLeasing: the
//! deterministic `Ω(K + log m log n / (log log m + log log n))` and the
//! randomized `Ω(log K + log m log n)` — the `K` part inherited from the
//! parking permit problem (Theorem 2.8) and the `log m log n` part from
//! OnlineSetCover. This module builds *interactive adversaries* that
//! realise both sources of hardness against the running Chapter 3
//! algorithm:
//!
//! * [`drive_ppp_embedding`] — the `m = 1` embedding: a single set over a
//!   single element turns SetCoverLeasing into the parking permit problem;
//!   the Theorem 2.8 adaptive adversary (demand exactly when uncovered,
//!   costs `2^k`, lengths `(2K)^k`) then forces the `Ω(K)` factor.
//! * [`drive_halving_adversary`] — the OnlineSetCover-style halving game on
//!   the [`power_set_system`]: the universe contains one element per
//!   non-empty subset of the `m` sets, so the adversary can realise *any*
//!   membership pattern. It maintains a candidate family `C` (initially all
//!   `m` sets), repeatedly presents the element whose containing sets are
//!   the half of `C` holding fewer of the algorithm's active leases, and
//!   recurses on that half. Every presented element contains the surviving
//!   set, so the optimum covers a whole sequence with one lease while the
//!   algorithm is pushed towards `log₂ m` purchases; one sequence per
//!   `l_max`-window repeats the game in time.
//!
//! Both drivers return the arrival trace they issued, so the exact ILP of
//! Figure 3.2 can price the hindsight optimum.

use crate::instance::{Arrival, SmclInstance};
use crate::online::SmclOnline;
use crate::system::SetSystem;
use leasing_core::engine::Driver;
use leasing_core::lease::LeaseStructure;
use leasing_core::time::TimeStep;

/// The set system whose universe is every non-empty subset of the `m` sets:
/// element `e` (encoding mask `e + 1`) belongs to set `j` iff bit `j` of the
/// mask is set. `n = 2^m − 1`, `δ = m`, and every membership pattern is
/// realisable — the raw material of the halving adversary.
///
/// # Panics
///
/// Panics if `m` is zero or large enough for `2^m − 1` elements to be
/// unreasonable (`m > 16`).
pub fn power_set_system(m: usize) -> SetSystem {
    assert!(
        (1..=16).contains(&m),
        "power-set universe needs 1 <= m <= 16"
    );
    let n = (1usize << m) - 1;
    let sets: Vec<Vec<usize>> = (0..m)
        .map(|j| (0..n).filter(|e| (e + 1) >> j & 1 == 1).collect())
        .collect();
    SetSystem::new(n, sets).expect("power-set family is well-formed")
}

/// The element id whose containing sets are exactly `sets` (under the
/// [`power_set_system`] encoding).
///
/// # Panics
///
/// Panics if `sets` is empty (no element is contained in zero sets).
pub fn element_for_sets(sets: &[usize]) -> usize {
    assert!(
        !sets.is_empty(),
        "an element needs at least one containing set"
    );
    let mask: usize = sets.iter().fold(0, |acc, &j| acc | (1 << j));
    mask - 1
}

/// What an interactive lower-bound driver observed.
#[derive(Clone, Debug, PartialEq)]
pub struct DrivenOutcome {
    /// The demands the adversary issued, in time order.
    pub arrivals: Vec<Arrival>,
    /// The online algorithm's total cost over the run.
    pub algorithm_cost: f64,
}

impl DrivenOutcome {
    /// Rebuilds a complete instance (for the exact Figure 3.2 ILP) from the
    /// template the driver ran against and the recorded arrivals.
    ///
    /// # Panics
    ///
    /// Panics if the recorded arrivals do not validate against the template
    /// (they always do for arrivals produced by the drivers here).
    pub fn into_instance(self, template: &SmclInstance) -> SmclInstance {
        SmclInstance::new(
            template.system.clone(),
            template.structure.clone(),
            template.costs.clone(),
            self.arrivals,
        )
        .expect("driver-issued arrivals are valid")
    }
}

/// Runs the Theorem 2.8 adaptive adversary against the Chapter 3 algorithm
/// on the `m = 1` embedding: one element, one set, `structure` leases. A
/// demand is issued on every day of `0..horizon` on which the set holds no
/// active lease.
///
/// The returned arrivals, priced by the Figure 3.2 ILP, give the hindsight
/// optimum; the ratio grows with `K` when `structure` is
/// [`LeaseStructure::meyerson_adversarial`].
pub fn drive_ppp_embedding(
    structure: &LeaseStructure,
    horizon: TimeStep,
    seed: u64,
) -> (SmclInstance, DrivenOutcome) {
    let system = SetSystem::new(1, vec![vec![0]]).expect("one set over one element");
    let template = SmclInstance::uniform(system, structure.clone(), Vec::new())
        .expect("empty arrival list is valid");
    let mut alg = Driver::new(SmclOnline::new(&template, seed), structure.clone());
    let mut arrivals = Vec::new();
    for t in 0..horizon {
        if !alg.ledger().covered(0, t) && alg.submit(t, (0, 1)).is_ok() {
            arrivals.push(Arrival::new(t, 0, 1));
        }
    }
    let outcome = DrivenOutcome {
        arrivals,
        algorithm_cost: alg.cost(),
    };
    (template, outcome)
}

/// Runs the halving adversary against the Chapter 3 algorithm on the
/// [`power_set_system`] with `m` sets (a power of two) and the given lease
/// `structure`. One halving game is played at the start of each of
/// `sequences` consecutive `l_max`-aligned windows; each round presents the
/// element matching the half of the candidate family holding fewer active
/// leases, so a deterministic-ish trajectory is punished `log₂ m` times per
/// window while one set per window suffices in hindsight.
///
/// # Panics
///
/// Panics if `m` is not a power of two or out of the [`power_set_system`]
/// range.
pub fn drive_halving_adversary(
    m: usize,
    structure: &LeaseStructure,
    sequences: usize,
    seed: u64,
) -> (SmclInstance, DrivenOutcome) {
    assert!(
        m.is_power_of_two(),
        "the halving game needs m to be a power of two"
    );
    let system = power_set_system(m);
    let template = SmclInstance::uniform(system, structure.clone(), Vec::new())
        .expect("empty arrival list is valid");
    let mut alg = Driver::new(SmclOnline::new(&template, seed), structure.clone());
    let mut arrivals = Vec::new();
    for r in 0..sequences {
        let t = r as TimeStep * structure.l_max();
        let mut candidates: Vec<usize> = (0..m).collect();
        while candidates.len() > 1 {
            let mid = candidates.len() / 2;
            let (first, second) = candidates.split_at(mid);
            let active =
                |half: &[usize]| half.iter().filter(|&&s| alg.ledger().covered(s, t)).count();
            let chosen: Vec<usize> = if active(first) <= active(second) {
                first.to_vec()
            } else {
                second.to_vec()
            };
            let element = element_for_sets(&chosen);
            if alg.submit(t, (element, 1)).is_ok() {
                arrivals.push(Arrival::new(t, element, 1));
            }
            candidates = chosen;
        }
    }
    let outcome = DrivenOutcome {
        arrivals,
        algorithm_cost: alg.cost(),
    };
    (template, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline;
    use leasing_core::lease::{LeaseStructure, LeaseType};

    #[test]
    fn power_set_system_has_every_membership_pattern() {
        let sys = power_set_system(3);
        assert_eq!(sys.num_elements(), 7);
        assert_eq!(sys.num_sets(), 3);
        assert_eq!(sys.delta(), 3);
        // Element for {0, 2} has mask 0b101 = 5, id 4.
        assert_eq!(element_for_sets(&[0, 2]), 4);
        assert_eq!(sys.sets_containing(4), &[0, 2]);
        // The all-sets element is contained everywhere.
        let full = element_for_sets(&[0, 1, 2]);
        assert_eq!(sys.sets_containing(full).len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one containing set")]
    fn element_for_no_sets_panics() {
        element_for_sets(&[]);
    }

    #[test]
    fn ppp_embedding_issues_a_demand_on_every_uncovered_day() {
        let structure = LeaseStructure::meyerson_adversarial(2);
        let horizon = structure.l_max() * 2;
        let (template, outcome) = drive_ppp_embedding(&structure, horizon, 7);
        assert!(!outcome.arrivals.is_empty());
        assert!(outcome.algorithm_cost > 0.0);
        // Demands are strictly increasing in time and start at day 0.
        assert_eq!(outcome.arrivals[0].time, 0);
        assert!(outcome.arrivals.windows(2).all(|w| w[0].time < w[1].time));
        // The hindsight optimum prices the same trace below the algorithm.
        let inst = outcome.clone().into_instance(&template);
        let opt = offline::optimal_cost(&inst, 50_000).expect("small ILP solves");
        assert!(opt > 0.0);
        assert!(outcome.algorithm_cost >= opt - 1e-9);
    }

    #[test]
    fn ppp_embedding_ratio_grows_with_k() {
        let ratio_for = |k: usize| {
            let structure = LeaseStructure::meyerson_adversarial(k);
            let (template, outcome) = drive_ppp_embedding(&structure, structure.l_max(), 13);
            let cost = outcome.algorithm_cost;
            let inst = outcome.into_instance(&template);
            let opt = offline::optimal_cost(&inst, 100_000)
                .unwrap_or_else(|| offline::lp_lower_bound(&inst));
            cost / opt
        };
        let r1 = ratio_for(1);
        let r3 = ratio_for(3);
        assert!(r3 > r1, "K = 3 ratio {r3} must exceed K = 1 ratio {r1}");
    }

    #[test]
    fn halving_adversary_presents_log_m_elements_per_sequence() {
        let structure =
            LeaseStructure::new(vec![LeaseType::new(4, 1.0), LeaseType::new(16, 2.5)]).unwrap();
        let (_, outcome) = drive_halving_adversary(8, &structure, 3, 11);
        assert_eq!(outcome.arrivals.len(), 3 * 3, "log2(8) rounds per sequence");
        // Each sequence's elements share the surviving set: the trace within
        // a window is nested.
        for seq in outcome.arrivals.chunks(3) {
            let masks: Vec<usize> = seq.iter().map(|a| a.element + 1).collect();
            assert!(
                masks.windows(2).all(|w| w[1] & w[0] == w[1]),
                "nested halves: {masks:?}"
            );
        }
    }

    #[test]
    fn halving_adversary_forces_a_gap_over_the_optimum() {
        let structure =
            LeaseStructure::new(vec![LeaseType::new(4, 1.0), LeaseType::new(16, 2.5)]).unwrap();
        let (template, outcome) = drive_halving_adversary(8, &structure, 4, 3);
        let cost = outcome.algorithm_cost;
        let inst = outcome.into_instance(&template);
        let opt = offline::optimal_cost(&inst, 100_000).expect("small ILP solves");
        assert!(opt > 0.0);
        // One set (the survivor) covers a whole sequence: the algorithm
        // must pay strictly more than the hindsight optimum.
        assert!(cost > opt + 1e-9, "cost {cost} vs opt {opt}");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn halving_adversary_rejects_non_power_of_two() {
        let structure = LeaseStructure::single(4, 1.0);
        drive_halving_adversary(6, &structure, 1, 0);
    }
}
