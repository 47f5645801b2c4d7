//! Time-varying lease prices (thesis §5.6: "consider lease prices changing
//! over time, or in other words, prices also given according to some
//! probability distribution").
//!
//! A [`PricePath`] pre-samples a bounded multiplicative random walk of
//! price multipliers, one per day; leasing type `k` on day `t` costs
//! `c_k · m_t`. [`PriceAwarePermit`] adapts the deterministic primal-dual to
//! charge current prices, and [`optimal_cost_priced`] is the exact
//! hierarchical DP under the same price path (the clairvoyant baseline).

use leasing_core::engine::{Books, LeasingAlgorithm, CATEGORY_LEASE};
use leasing_core::framework::Triple;
use leasing_core::interval::{aligned_start, candidates_covering};
use leasing_core::lease::{Lease, LeaseStructure};
use leasing_core::time::TimeStep;
use leasing_core::EPS;
use parking_permit::PERMIT_ELEMENT;
use rand::{Rng, RngExt};

/// A sampled per-day multiplier path, bounded inside `[lo, hi]`.
#[derive(Clone, Debug, PartialEq)]
pub struct PricePath {
    multipliers: Vec<f64>,
}

impl PricePath {
    /// Samples a multiplicative random walk of `horizon` daily multipliers:
    /// `m_{t+1} = clamp(m_t · (1 + volatility · u), lo, hi)` with
    /// `u ~ U[-1, 1]`, starting at `1.0`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lo <= 1 <= hi` and `0 <= volatility < 1`.
    pub fn sample<R: Rng + ?Sized>(
        rng: &mut R,
        horizon: TimeStep,
        volatility: f64,
        lo: f64,
        hi: f64,
    ) -> Self {
        assert!(lo > 0.0 && lo <= 1.0 && hi >= 1.0, "need 0 < lo <= 1 <= hi");
        assert!((0.0..1.0).contains(&volatility), "volatility out of range");
        let mut multipliers = Vec::with_capacity(horizon as usize);
        let mut m = 1.0f64;
        for _ in 0..horizon {
            multipliers.push(m);
            let u: f64 = 2.0 * rng.random::<f64>() - 1.0;
            m = (m * (1.0 + volatility * u)).clamp(lo, hi);
        }
        PricePath { multipliers }
    }

    /// A flat path (multiplier `1.0` everywhere) — prices never move.
    pub fn flat(horizon: TimeStep) -> Self {
        PricePath {
            multipliers: vec![1.0; horizon as usize],
        }
    }

    /// The multiplier of day `t` (days beyond the horizon keep the last
    /// value).
    pub fn multiplier(&self, t: TimeStep) -> f64 {
        let i = (t as usize).min(self.multipliers.len().saturating_sub(1));
        self.multipliers.get(i).copied().unwrap_or(1.0)
    }

    /// Price of leasing type `k` (of `structure`) on day `t`.
    pub fn price(&self, structure: &LeaseStructure, k: usize, t: TimeStep) -> f64 {
        structure.cost(k) * self.multiplier(t)
    }

    /// Horizon of the sampled path.
    pub fn horizon(&self) -> TimeStep {
        self.multipliers.len() as TimeStep
    }
}

/// The deterministic primal-dual of §2.2.2 adapted to day-of-purchase
/// prices: dual constraints tighten against the price *on the day the
/// demand arrives* (leases are paid at current rates).
#[derive(Clone, Debug)]
pub struct PriceAwarePermit<'a> {
    structure: LeaseStructure,
    prices: &'a PricePath,
    /// K live dual accumulators — the det-permit K-accumulator trick:
    /// `contributions[k] = (aligned start, paid)` holds the dual mass
    /// charged against the type-`k` candidate lease currently in its
    /// window. Under the monotone arrival order only the candidate
    /// covering the present demand is ever read, so a slot resets to zero
    /// when its window slides — K slots instead of one map entry per
    /// aligned lease ever charged.
    contributions: Vec<(TimeStep, f64)>,
}

impl<'a> PriceAwarePermit<'a> {
    /// Creates the algorithm under the given price path.
    pub fn new(structure: LeaseStructure, prices: &'a PricePath) -> Self {
        PriceAwarePermit {
            contributions: vec![(TimeStep::MAX, 0.0); structure.num_types()],
            structure,
            prices,
        }
    }

    /// Core price-aware primal-dual step, recording purchases into
    /// `books` at day-of-purchase prices.
    fn serve_with(&mut self, t: TimeStep, books: &mut Books<'_>) {
        if books.covered(PERMIT_ELEMENT, t) {
            return;
        }
        let candidates = candidates_covering(&self.structure, t);
        let price = |l: &Lease| self.prices.price(&self.structure, l.type_index, t);
        // Slide every accumulator whose window moved: a fresh window
        // starts from zero dual mass, exactly what the lazily-materialised
        // map used to hand out for a never-charged lease.
        for c in &candidates {
            if let Some(slot) = self.contributions.get_mut(c.type_index) {
                if slot.0 != c.start {
                    *slot = (c.start, 0.0);
                }
            }
        }
        let delta = candidates
            .iter()
            .map(|c| {
                let used = self
                    .contributions
                    .get(c.type_index)
                    .map(|slot| slot.1)
                    .unwrap_or(0.0);
                (price(c) - used).max(0.0)
            })
            .fold(f64::INFINITY, f64::min);
        for c in candidates {
            let paid = match self.contributions.get_mut(c.type_index) {
                Some(slot) => {
                    slot.1 += delta;
                    slot.1
                }
                None => delta,
            };
            let triple = Triple::new(PERMIT_ELEMENT, c.type_index, c.start);
            if paid >= price(&c) - EPS && !books.owns(triple) {
                books.buy_priced(t, triple, price(&c), CATEGORY_LEASE);
            }
        }
        debug_assert!(books.covered(PERMIT_ELEMENT, t));
    }
}

impl<'a> LeasingAlgorithm for PriceAwarePermit<'a> {
    type Request = ();

    fn on_request(&mut self, time: TimeStep, _request: (), mut books: Books<'_>) {
        self.serve_with(time, &mut books);
    }
}

/// Exact clairvoyant optimum under day-of-purchase prices, over aligned
/// (interval-model) leases. A lease `(k, s)` may be bought on any demand day
/// `t <= s`… in this model purchases happen when needed, so we charge the
/// *start-day* price `m_s · c_k`, the cheapest admissible purchase day.
///
/// Recursion: the best cover of an aligned type-`k` window containing
/// demands either buys `(k, start)` at its start-day price or splits into
/// its type-`(k-1)` children (demand-free children cost nothing).
pub fn optimal_cost_priced(
    structure: &LeaseStructure,
    prices: &PricePath,
    demands: &[TimeStep],
) -> f64 {
    assert!(
        structure.is_interval_model_shape(),
        "the priced DP needs nested power-of-two lease lengths"
    );
    if demands.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<TimeStep> = demands.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let top = structure.num_types() - 1;
    let l_top = structure.length(top);
    // Solve each top-level aligned window independently.
    let mut total = 0.0;
    let mut i = 0;
    while i < sorted.len() {
        let ws = aligned_start(sorted[i], l_top);
        let mut j = i;
        while j < sorted.len() && sorted[j] < ws + l_top {
            j += 1;
        }
        total += window_cost(structure, prices, &sorted[i..j], top, ws);
        i = j;
    }
    total
}

fn window_cost(
    structure: &LeaseStructure,
    prices: &PricePath,
    demands: &[TimeStep],
    k: usize,
    start: TimeStep,
) -> f64 {
    if demands.is_empty() {
        return 0.0;
    }
    let buy = prices.price(structure, k, start);
    if k == 0 {
        return buy;
    }
    let child_len = structure.length(k - 1);
    let mut split = 0.0;
    let mut i = 0;
    while i < demands.len() {
        let cs = aligned_start(demands[i], child_len);
        let mut j = i;
        while j < demands.len() && demands[j] < cs + child_len {
            j += 1;
        }
        split += window_cost(structure, prices, &demands[i..j], k - 1, cs);
        i = j;
    }
    buy.min(split)
}

#[cfg(test)]
mod tests {
    use super::*;
    use leasing_core::engine::Driver;
    use leasing_core::interval::power_of_two_structure;
    use leasing_core::rng::seeded;

    fn structure() -> LeaseStructure {
        power_of_two_structure(&[(0, 1.0), (3, 4.0), (6, 16.0)])
    }

    #[test]
    fn price_path_stays_in_bounds_and_is_seeded() {
        let a = PricePath::sample(&mut seeded(7), 500, 0.2, 0.5, 2.0);
        let b = PricePath::sample(&mut seeded(7), 500, 0.2, 0.5, 2.0);
        assert_eq!(a, b);
        for t in 0..500 {
            let m = a.multiplier(t);
            assert!((0.5..=2.0).contains(&m), "multiplier {m} out of bounds");
        }
    }

    #[test]
    fn flat_path_recovers_the_static_dp() {
        let prices = PricePath::flat(256);
        let mut rng = seeded(3);
        use rand::RngExt;
        let demands: Vec<TimeStep> = (0..256).filter(|_| rng.random::<f64>() < 0.3).collect();
        let priced = optimal_cost_priced(&structure(), &prices, &demands);
        let plain = parking_permit::offline::optimal_cost_interval_model(&structure(), &demands);
        assert!(
            (priced - plain).abs() < 1e-9,
            "priced {priced} vs plain {plain}"
        );
    }

    #[test]
    fn cheap_days_pull_the_optimum_to_long_leases() {
        // K = 2 with lengths 1/8 and costs 1/4. Demands on days 0, 1, 2:
        // at flat prices three day leases (3.0) beat the week lease (4.0),
        // but a 0.6 multiplier on day 0 discounts the week to 2.4, below
        // the discounted day split (0.6 + 1 + 1 = 2.6).
        let s = power_of_two_structure(&[(0, 1.0), (3, 4.0)]);
        let demands: Vec<TimeStep> = vec![0, 1, 2];
        let flat = optimal_cost_priced(&s, &PricePath::flat(16), &demands);
        assert!((flat - 3.0).abs() < 1e-9, "flat {flat}");
        let mut prices = PricePath::flat(16);
        prices.multipliers[0] = 0.6;
        let discounted = optimal_cost_priced(&s, &prices, &demands);
        assert!((discounted - 2.4).abs() < 1e-9, "discounted {discounted}");
    }

    #[test]
    fn price_aware_permit_covers_all_demands() {
        let prices = PricePath::sample(&mut seeded(9), 512, 0.3, 0.5, 2.0);
        let mut rng = seeded(10);
        use rand::RngExt;
        let demands: Vec<TimeStep> = (0..512).filter(|_| rng.random::<f64>() < 0.2).collect();
        let mut alg = Driver::new(PriceAwarePermit::new(structure(), &prices), structure());
        for &t in &demands {
            alg.submit(t, ()).unwrap();
            assert!(alg.ledger().covered(PERMIT_ELEMENT, t));
        }
        assert!(alg.cost() > 0.0);
    }

    #[test]
    fn online_never_beats_the_clairvoyant_priced_dp() {
        for seed in 0..10u64 {
            let prices = PricePath::sample(&mut seeded(seed), 256, 0.3, 0.5, 2.0);
            let mut rng = seeded(1000 + seed);
            use rand::RngExt;
            let demands: Vec<TimeStep> = (0..256).filter(|_| rng.random::<f64>() < 0.25).collect();
            if demands.is_empty() {
                continue;
            }
            let mut alg = Driver::new(PriceAwarePermit::new(structure(), &prices), structure());
            alg.submit_batch(demands.iter().map(|&t| (t, ()))).unwrap();
            let opt = optimal_cost_priced(&structure(), &prices, &demands);
            // Online purchases and the DP may catch different multipliers;
            // with the band [0.5, 2.0] the online cost is at least
            // 0.5 · flat_opt >= 0.25 · priced_opt.
            assert!(
                alg.cost() >= opt * 0.25 - 1e-9,
                "online {} vs clairvoyant {opt}",
                alg.cost()
            );
        }
    }

    #[test]
    #[should_panic(expected = "nested power-of-two")]
    fn priced_dp_rejects_general_structures() {
        let s = LeaseStructure::new(vec![
            leasing_core::lease::LeaseType::new(3, 1.0),
            leasing_core::lease::LeaseType::new(7, 2.0),
        ])
        .unwrap();
        let _ = optimal_cost_priced(&s, &PricePath::flat(10), &[0]);
    }
}
