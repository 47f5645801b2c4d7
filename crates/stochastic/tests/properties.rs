//! Property tests for the stochastic layer: policies always cover, price
//! paths stay bounded, and the priced DP is dominated by every feasible
//! purchase plan we can enumerate.

use leasing_core::engine::Driver;
use leasing_core::interval::power_of_two_structure;
use leasing_core::rng::seeded;
use parking_permit::PERMIT_ELEMENT;
use proptest::prelude::*;
use stochastic_leasing::demand::{Bernoulli, DemandProcess, MarkovModulated, Seasonal};
use stochastic_leasing::policies::{EmpiricalRate, RateThreshold, SwitchCombiner};
use stochastic_leasing::prices::{optimal_cost_priced, PriceAwarePermit, PricePath};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every policy covers every demand it serves, on every process.
    #[test]
    fn policies_always_cover(seed in 0u64..200, which in 0usize..3, p in 0.05f64..0.95) {
        let s = power_of_two_structure(&[(0, 1.0), (3, 4.0)]);
        let days = match which {
            0 => Bernoulli::new(96, p).sample(&mut seeded(seed)),
            1 => MarkovModulated::new(96, p, (1.0 - p).min(0.9)).sample(&mut seeded(seed)),
            _ => Seasonal::new(96, p, 0.3, 24).sample(&mut seeded(seed)),
        };
        let mut informed = Driver::new(RateThreshold::new(s.clone(), p), s.clone());
        let mut empirical = Driver::new(EmpiricalRate::new(s.clone()), s.clone());
        let mut hedged = Driver::new(
            SwitchCombiner::new(
                s.clone(),
                RateThreshold::new(s.clone(), p),
                RateThreshold::new(s.clone(), 1.0 - p),
            ),
            s.clone(),
        );
        for &t in &days {
            informed.submit(t, ()).unwrap();
            empirical.submit(t, ()).unwrap();
            hedged.submit(t, ()).unwrap();
            prop_assert!(informed.ledger().covered(PERMIT_ELEMENT, t));
            prop_assert!(empirical.ledger().covered(PERMIT_ELEMENT, t));
            prop_assert!(hedged.ledger().covered(PERMIT_ELEMENT, t));
        }
    }

    /// Price paths respect their clamp bounds and start at 1.
    #[test]
    fn price_paths_stay_clamped(
        seed in 0u64..200, vol in 0.0f64..0.8, lo in 0.2f64..0.9, hi in 1.1f64..4.0
    ) {
        let path = PricePath::sample(&mut seeded(seed), 128, vol, lo, hi);
        prop_assert!((path.multiplier(0) - 1.0).abs() < 1e-12);
        for t in 0..128 {
            let m = path.multiplier(t);
            prop_assert!(m >= lo - 1e-12 && m <= hi + 1e-12, "m[{t}] = {m}");
        }
    }

    /// The priced DP is a true lower bound: it never exceeds the cost of
    /// the "cover every demand with a fresh day lease at its own price"
    /// plan, nor the single-top-lease plan.
    #[test]
    fn priced_dp_lower_bounds_explicit_plans(seed in 0u64..200, p in 0.1f64..0.9) {
        let s = power_of_two_structure(&[(0, 1.0), (3, 4.0), (6, 16.0)]);
        let days = Bernoulli::new(64, p).sample(&mut seeded(seed));
        if days.is_empty() {
            return Ok(());
        }
        let prices = PricePath::sample(&mut seeded(seed ^ 0xF), 64, 0.3, 0.5, 2.0);
        let opt = optimal_cost_priced(&s, &prices, &days);
        let day_plan: f64 = days.iter().map(|&t| prices.price(&s, 0, t)).sum();
        prop_assert!(opt <= day_plan + 1e-9, "opt {opt} above day plan {day_plan}");
        let top_plan = prices.price(&s, 2, 0); // one 64-step lease at day 0
        prop_assert!(opt <= top_plan + 1e-9, "opt {opt} above top plan {top_plan}");
    }

    /// The price-aware online algorithm is feasible under any path.
    #[test]
    fn price_aware_permit_always_covers(seed in 0u64..200, vol in 0.0f64..0.5) {
        let s = power_of_two_structure(&[(0, 1.0), (3, 4.0)]);
        let prices = PricePath::sample(&mut seeded(seed), 96, vol, 0.5, 2.0);
        let days = Bernoulli::new(96, 0.3).sample(&mut seeded(seed + 1));
        let mut alg = Driver::new(PriceAwarePermit::new(s.clone(), &prices), s);
        for &t in &days {
            alg.submit(t, ()).unwrap();
            prop_assert!(alg.ledger().covered(PERMIT_ELEMENT, t));
        }
    }
}
