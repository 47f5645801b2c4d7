//! Property tests for facility leasing: feasibility of all four online
//! algorithms and the three deadline reductions, the Theorem 4.5
//! accounting identity, the Lemma 4.4 scaled-dual feasibility, and
//! H-series laws.

use facility_leasing::baselines::GreedyLease;
use facility_leasing::instance::FacilityInstance;
use facility_leasing::metric::Point;
use facility_leasing::nagarajan_williamson::NagarajanWilliamson;
use facility_leasing::offline;
use facility_leasing::online::{is_feasible, PrimalDualFacility};
use facility_leasing::randomized::RandomizedFacility;
use facility_leasing::series::h_series;
use leasing_core::engine::{Driver, LeasingAlgorithm, Ledger, CATEGORY_CONNECTION, CATEGORY_LEASE};
use leasing_core::lease::{LeaseStructure, LeaseType};
use leasing_core::rng::seeded;
use proptest::prelude::*;
use rand::RngExt;
use std::collections::HashSet;

fn structure() -> LeaseStructure {
    LeaseStructure::new(vec![LeaseType::new(4, 2.0), LeaseType::new(16, 6.0)]).unwrap()
}

fn random_instance(seed: u64, facilities: usize, batches: usize) -> FacilityInstance {
    let mut rng = seeded(seed);
    let sites: Vec<Point> = (0..facilities)
        .map(|_| Point::new(rng.random(), rng.random()))
        .collect();
    let mut point_batches = Vec::new();
    let mut t = 0u64;
    for _ in 0..batches {
        t += 1 + rng.random_range(0..3u64);
        let n = 1 + rng.random_range(0..3);
        point_batches.push((
            t,
            (0..n)
                .map(|_| Point::new(rng.random(), rng.random()))
                .collect::<Vec<_>>(),
        ));
    }
    FacilityInstance::euclidean(sites, structure(), point_batches).unwrap()
}

/// Serves every batch of `inst` and returns the algorithm with its ledger.
fn run<A: LeasingAlgorithm<Request = Vec<usize>>>(alg: A, inst: &FacilityInstance) -> (A, Ledger) {
    let mut driver = Driver::new(alg, inst.structure().clone());
    driver.submit_batch(inst.requests()).unwrap();
    driver.into_parts()
}

/// The lease plus connection split of `ledger`'s cost.
fn split_cost(ledger: &Ledger) -> f64 {
    ledger.category_cost(CATEGORY_LEASE) + ledger.category_cost(CATEGORY_CONNECTION)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// The primal-dual never beats the exact optimum and its cost splits
    /// into lease + connection parts exactly.
    #[test]
    fn primal_dual_dominates_the_optimum(seed in 0u64..200) {
        let inst = random_instance(seed, 2, 3);
        let (alg, ledger) = run(PrimalDualFacility::new(&inst), &inst);
        let cost = ledger.total_cost();
        prop_assert!((split_cost(&ledger) - cost).abs() < 1e-9);
        let Some(opt) = offline::optimal_cost(&inst, 300_000) else {
            return Ok(());
        };
        prop_assert!(cost >= opt - 1e-6, "online {cost} below opt {opt}");
        // Every client is assigned exactly once.
        prop_assert_eq!(alg.assignments().len(), inst.num_clients());
    }

    /// The randomized composition and the greedy baseline are feasible and
    /// above the LP bound on every instance and seed.
    #[test]
    fn all_algorithms_respect_the_lp_bound(seed in 0u64..200, rng_seed in 0u64..20) {
        let inst = random_instance(seed, 3, 3);
        let lb = offline::lp_lower_bound(&inst);
        let pd = run(PrimalDualFacility::new(&inst), &inst).1.total_cost();
        let greedy = GreedyLease::new(&inst).run();
        let (rnd_alg, rnd_ledger) = run(RandomizedFacility::new(&inst, &mut seeded(rng_seed)), &inst);
        let rnd = rnd_ledger.total_cost();
        prop_assert!(rnd_alg.is_feasible(&rnd_ledger));
        for (name, cost) in [("pd", pd), ("greedy", greedy), ("rnd", rnd)] {
            prop_assert!(cost >= lb - 1e-6, "{name} cost {cost} below LP bound {lb}");
        }
    }

    /// H-series laws (Eq. 4.3): prefix sums normalize to `H_q ∈ [1, q]`,
    /// constant batches give the harmonic number, and scaling batch sizes
    /// uniformly leaves `H_q` unchanged.
    #[test]
    fn h_series_laws(sizes in proptest::collection::vec(1usize..50, 1..12)) {
        let h = h_series(&sizes);
        let q = sizes.len() as f64;
        prop_assert!(h >= 1.0 - 1e-9 && h <= q + 1e-9, "H = {h} outside [1, {q}]");
        let scaled: Vec<usize> = sizes.iter().map(|s| s * 3).collect();
        prop_assert!((h_series(&scaled) - h).abs() < 1e-9, "H must be scale-invariant");
    }

    /// The Nagarajan–Williamson prior-work baseline is always feasible,
    /// never beats the exact optimum, and assigns every client exactly once.
    #[test]
    fn nagarajan_williamson_is_feasible_and_dominates_opt(seed in 0u64..200) {
        let inst = random_instance(seed, 3, 3);
        let (alg, ledger) = run(NagarajanWilliamson::new(&inst), &inst);
        let cost = ledger.total_cost();
        prop_assert!((split_cost(&ledger) - cost).abs() < 1e-9);
        prop_assert_eq!(alg.assignments().len(), inst.num_clients());
        prop_assert!(is_feasible(&inst, |t| ledger.owns(t), &alg.assignments()));
        let Some(opt) = offline::optimal_cost(&inst, 300_000) else {
            return Ok(());
        };
        prop_assert!(cost >= opt - 1e-6, "NW {cost} below opt {opt}");
    }

    /// Facility leasing with deadlines: on random instances and slacks,
    /// every reduction serves each client inside its window and none
    /// undercuts the window-extended ILP optimum; flexibility never raises
    /// the optimum above the rigid one.
    #[test]
    fn fld_reductions_are_feasible_and_dominate_opt(
        seed in 0u64..150,
        max_slack in 0u64..12,
    ) {
        use facility_leasing::fld::{self, FldInstance};
        let base = random_instance(seed, 2, 3);
        let mut rng = seeded(seed ^ 0xf1d);
        let slacks: Vec<u64> = (0..base.num_clients())
            .map(|_| if max_slack == 0 { 0 } else { rng.random_range(0..=max_slack) })
            .collect();
        let inst = FldInstance::new(base.clone(), slacks).unwrap();
        // Service days of both deferral reductions lie inside the windows.
        for derived in [
            inst.defer_to_deadline().unwrap(),
            inst.defer_to_aligned().unwrap(),
        ] {
            for b in derived.batches() {
                for &j in &b.clients {
                    prop_assert!(
                        inst.window(j).unwrap().contains(b.time),
                        "client {j} served at {} outside {:?}", b.time, inst.window(j)
                    );
                }
            }
        }
        let Ok(opt) = fld::optimal_cost(&inst, 300_000) else {
            return Ok(());
        };
        let arrive = run(PrimalDualFacility::new(inst.base()), inst.base()).1.total_cost();
        let by_deadline = inst.defer_to_deadline().unwrap();
        let deadline = run(PrimalDualFacility::new(&by_deadline), &by_deadline).1.total_cost();
        let by_aligned = inst.defer_to_aligned().unwrap();
        let aligned = run(PrimalDualFacility::new(&by_aligned), &by_aligned).1.total_cost();
        for (name, cost) in [("arrive", arrive), ("deadline", deadline), ("aligned", aligned)] {
            prop_assert!(cost >= opt - 1e-6, "{name} {cost} below FLD opt {opt}");
        }
        // Widening windows cannot make the hindsight optimum worse.
        let rigid = FldInstance::new(base, vec![0; inst.base().num_clients()]).unwrap();
        if let Ok(rigid_opt) = fld::optimal_cost(&rigid, 300_000) {
            prop_assert!(opt <= rigid_opt + 1e-6, "flex {opt} above rigid {rigid_opt}");
        }
    }

    /// Lemma 4.4, instantiated at the end of the round: for every facility
    /// `i`, lease type `k` and aligned window, the duals scaled by
    /// `1/(2·H)` minus connection distances never overpay the lease price.
    /// (The lemma proves the constraint with the prefix `H_{t*} ≤ H`, so
    /// the end-of-round `H` makes the left side only smaller — a violation
    /// here means the dual bookkeeping is broken.)
    #[test]
    fn lemma_4_4_scaled_duals_are_dual_feasible(seed in 0u64..200) {
        let inst = random_instance(seed, 3, 3);
        let (alg, _) = run(PrimalDualFacility::new(&inst), &inst);
        let alpha = alg.alpha_hat();
        let h = h_series(&inst.batch_sizes()).max(1.0);
        let structure = inst.structure();
        for i in 0..inst.num_facilities() {
            for k in 0..structure.num_types() {
                let len = structure.length(k);
                // Aligned windows touched by any batch.
                let starts: HashSet<u64> = inst
                    .batches()
                    .iter()
                    .map(|b| leasing_core::interval::aligned_start(b.time, len))
                    .collect();
                for &s in &starts {
                    let lhs: f64 = inst
                        .batches()
                        .iter()
                        .filter(|b| b.time >= s && b.time < s + len)
                        .flat_map(|b| b.clients.iter())
                        .map(|&j| alpha[j] / (2.0 * h) - inst.distance(i, j))
                        .sum();
                    prop_assert!(
                        lhs <= inst.cost(i, k) + 1e-6,
                        "scaled duals overpay facility {i} type {k}: {lhs} > {}",
                        inst.cost(i, k)
                    );
                }
            }
        }
    }
}
