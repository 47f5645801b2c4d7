//! The two online rounding schemes of the thesis.
//!
//! * [`ThresholdSampler`] — the per-variable threshold `µ = min` of `q`
//!   independent uniforms used by Algorithm 3 (Chapter 3, `q = 2⌈log(n+1)⌉`),
//!   Corollary 3.5 (`q = 2⌈log(δn+1)⌉`) and Algorithm 5 (Chapter 5,
//!   `q = 2⌈log l_max⌉`): a variable is bought once its fraction exceeds its
//!   threshold.
//! * [`suffix_crossing`] — the single-threshold coupling of Algorithm 2
//!   (§2.2.3): scan candidates from the *last* (longest lease) to the first
//!   and buy the candidate at which the running suffix sum of fractions
//!   crosses `τ`. This coupling is what recovers the `O(log K)` parking
//!   permit bound; experiment E26 shows generic per-variable thresholds do
//!   not.

use leasing_core::rng::min_of_uniforms;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::hash::Hash;

/// Draws rounding thresholds, each distributed as the minimum of `q`
/// independent `U[0,1]` variables, from one seeded stream.
///
/// The sampler keeps no thresholds: the caller stores each variable's
/// threshold (the covering engine keeps it in its variable table) and
/// draws once per variable, so two runs with the same seed that meet
/// their variables in the same order see identical thresholds.
#[derive(Debug)]
pub struct ThresholdSampler<V> {
    pinned: HashMap<V, f64>,
    q: u32,
    rng: StdRng,
}

impl<V: Eq + Hash + Copy> ThresholdSampler<V> {
    /// Creates a sampler with `q` uniforms per threshold and the given seed.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`.
    pub fn new(q: u32, seed: u64) -> Self {
        assert!(q > 0, "threshold count must be positive");
        ThresholdSampler {
            pinned: HashMap::new(),
            q,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Number of uniforms per threshold.
    pub fn q(&self) -> u32 {
        self.q
    }

    /// A threshold for `v`: its pinned value, or else the next draw of the
    /// stream.
    pub fn threshold(&mut self, v: &V) -> f64 {
        match self.pinned.get(v) {
            Some(&mu) => mu,
            None => min_of_uniforms(&mut self.rng, self.q),
        }
    }

    /// Pins the threshold of `v` to an explicit value (tests and ablations;
    /// e.g. pinning to `1.0` forces the fallback path, pinning to `0.0`
    /// forces a purchase). Pinned variables draw nothing from the stream.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= mu <= 1.0`.
    pub fn pin(&mut self, v: V, mu: f64) {
        assert!((0.0..=1.0).contains(&mu), "threshold must lie in [0, 1]");
        self.pinned.insert(v, mu);
    }
}

/// Algorithm 2's integral phase: returns the index at which the suffix
/// sums of `fractions` (accumulated from the **end** of the slice towards
/// the front) first reach `tau`, or `None` if the total sum stays below
/// `tau`.
///
/// The parking permit algorithm orders candidates by lease type (shortest
/// first), so scanning from the end realises the paper's
/// `Σ_{i=k+1..K} f_i < τ ≤ Σ_{i=k..K} f_i` rule.
///
/// ```
/// use online_covering::suffix_crossing;
/// let fracs = [0.5, 0.5]; // short, long
/// // τ below the last fraction picks the longest type…
/// assert_eq!(suffix_crossing(&fracs, 0.4), Some(1));
/// // …a larger τ crosses only once the shorter type is included.
/// assert_eq!(suffix_crossing(&fracs, 0.9), Some(0));
/// assert_eq!(suffix_crossing(&fracs, 1.5), None);
/// ```
pub fn suffix_crossing(fractions: &[f64], tau: f64) -> Option<usize> {
    let mut suffix = 0.0;
    for (k, &f) in fractions.iter().enumerate().rev() {
        suffix += f;
        if suffix >= tau {
            return Some(k);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_lie_in_the_unit_interval() {
        let mut s: ThresholdSampler<u32> = ThresholdSampler::new(4, 7);
        let a = s.threshold(&0);
        let b = s.threshold(&1);
        assert!((0.0..=1.0).contains(&a) && (0.0..=1.0).contains(&b));
        assert_ne!(a, b, "each request draws afresh");
    }

    #[test]
    fn same_seed_same_request_order_gives_same_thresholds() {
        let run = |seed| {
            let mut s: ThresholdSampler<u32> = ThresholdSampler::new(6, seed);
            (s.threshold(&3), s.threshold(&1), s.threshold(&2))
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn request_order_matters_for_which_variable_gets_which_draw() {
        let mut a: ThresholdSampler<u32> = ThresholdSampler::new(2, 9);
        let mut b: ThresholdSampler<u32> = ThresholdSampler::new(2, 9);
        let first_a = a.threshold(&0);
        let first_b = b.threshold(&1);
        // The first draw of the stream lands on whichever key asks first.
        assert_eq!(first_a, first_b);
    }

    #[test]
    fn pin_overrides_sampling() {
        let mut s: ThresholdSampler<u32> = ThresholdSampler::new(2, 1);
        s.pin(5, 1.0);
        assert_eq!(s.threshold(&5), 1.0);
        assert_eq!(s.threshold(&5), 1.0, "a pin holds for every request");
        // Pinned requests draw nothing from the stream.
        let mut fresh: ThresholdSampler<u32> = ThresholdSampler::new(2, 1);
        assert_eq!(s.threshold(&0), fresh.threshold(&0));
    }

    #[test]
    #[should_panic(expected = "threshold must lie")]
    fn pin_rejects_out_of_range() {
        let mut s: ThresholdSampler<u32> = ThresholdSampler::new(2, 1);
        s.pin(0, 1.5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_q_rejected() {
        let _: ThresholdSampler<u32> = ThresholdSampler::new(0, 1);
    }

    #[test]
    fn larger_q_gives_smaller_thresholds_on_average() {
        let mean = |q: u32| {
            let mut s: ThresholdSampler<u32> = ThresholdSampler::new(q, 42);
            (0..500).map(|v| s.threshold(&v)).sum::<f64>() / 500.0
        };
        assert!(mean(16) < mean(1), "min of more uniforms must shrink");
    }

    #[test]
    fn suffix_crossing_exact_boundary_is_inclusive() {
        let fracs = [0.25, 0.75];
        assert_eq!(suffix_crossing(&fracs, 0.75), Some(1));
        assert_eq!(suffix_crossing(&fracs, 0.7500001), Some(0));
        assert_eq!(suffix_crossing(&fracs, 1.0), Some(0));
    }

    #[test]
    fn suffix_crossing_empty_slice_is_none() {
        assert_eq!(suffix_crossing(&[], 0.1), None);
    }

    #[test]
    fn tiny_tau_picks_last_candidate_with_mass() {
        let fracs = [0.9, 0.0, 0.1];
        assert_eq!(suffix_crossing(&fracs, 1e-12), Some(2));
        // Zero-fraction tail skipped when the tail holds no mass at all.
        let fracs2 = [1.0, 0.0];
        assert_eq!(suffix_crossing(&fracs2, 1e-12), Some(0));
    }
}
