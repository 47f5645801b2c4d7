//! Property tests for set multicover leasing: feasibility of the
//! randomized algorithm, LP/ILP ordering, and layering invariants on
//! random instances.

use leasing_core::engine::Driver;
use leasing_core::lease::{LeaseStructure, LeaseType};
use leasing_core::rng::seeded;
use proptest::prelude::*;
use rand::RngExt;
use set_cover_leasing::instance::{Arrival, SmclInstance};
use set_cover_leasing::lower_bounds::{
    drive_halving_adversary, drive_ppp_embedding, element_for_sets, power_set_system,
};
use set_cover_leasing::offline;
use set_cover_leasing::online::{is_feasible_cover, SmclOnline};
use set_cover_leasing::system::SetSystem;

fn structure() -> LeaseStructure {
    LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(8, 3.0)]).unwrap()
}

/// A random connected-ish set system plus valid arrivals.
fn random_instance(seed: u64, n: usize, m: usize, demands: usize) -> SmclInstance {
    let mut rng = seeded(seed);
    // Every element appears in at least one set: round-robin seeding, then
    // random extras.
    let mut sets: Vec<Vec<usize>> = vec![Vec::new(); m];
    for e in 0..n {
        sets[e % m].push(e);
    }
    for s in sets.iter_mut() {
        for e in 0..n {
            if rng.random::<f64>() < 0.3 {
                s.push(e);
            }
        }
    }
    let system = SetSystem::new(n, sets).expect("constructed sets are valid");
    let mut arrivals = Vec::new();
    let mut t = 0u64;
    for _ in 0..demands {
        t += rng.random_range(0..3u64);
        let e = rng.random_range(0..n);
        let max_p = system.sets_containing(e).len();
        let p = 1 + rng.random_range(0..max_p.min(2));
        arrivals.push(Arrival::new(t, e, p));
    }
    SmclInstance::uniform(system, structure(), arrivals).expect("valid by construction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The randomized online algorithm always produces a feasible
    /// multicover, for every instance and every seed.
    #[test]
    fn online_cover_is_always_feasible(seed in 0u64..500, alg_seed in 0u64..50) {
        let inst = random_instance(seed, 6, 4, 8);
        let mut alg = Driver::new(SmclOnline::new(&inst, alg_seed), inst.structure.clone());
        alg.submit_batch(inst.requests()).unwrap();
        let cost = alg.cost();
        prop_assert!(cost >= 0.0);
        prop_assert!(is_feasible_cover(&inst, |t| alg.ledger().owns(t)));
    }

    /// LP bound <= ILP optimum <= greedy cost, and the online cost never
    /// beats the ILP.
    #[test]
    fn cost_ordering_lp_ilp_greedy(seed in 0u64..200) {
        let inst = random_instance(seed, 5, 3, 5);
        let lp = offline::lp_lower_bound(&inst);
        let Some(ilp) = offline::optimal_cost(&inst, 300_000) else {
            return Ok(()); // node budget exhausted: skip
        };
        let (greedy, _) = offline::greedy(&inst);
        prop_assert!(lp <= ilp + 1e-6, "LP {lp} above ILP {ilp}");
        prop_assert!(greedy >= ilp - 1e-6, "greedy {greedy} below ILP {ilp}");
        let mut online = Driver::new(SmclOnline::new(&inst, seed), inst.structure.clone());
        online.submit_batch(inst.requests()).unwrap();
        let online = online.cost();
        prop_assert!(online >= ilp - 1e-6, "online {online} below ILP {ilp}");
    }

    /// Raising a demand's multiplicity never cheapens the optimum
    /// (multicover monotonicity).
    #[test]
    fn multiplicity_monotonicity(seed in 0u64..100) {
        let mut rng = seeded(seed);
        let system = SetSystem::new(
            3,
            vec![vec![0, 1], vec![1, 2], vec![0, 2]],
        ).unwrap();
        let t = rng.random_range(0..4u64);
        let e = rng.random_range(0..3usize);
        let single = SmclInstance::uniform(
            system.clone(),
            structure(),
            vec![Arrival::new(t, e, 1)],
        ).unwrap();
        let double = SmclInstance::uniform(
            system,
            structure(),
            vec![Arrival::new(t, e, 2)],
        ).unwrap();
        let opt1 = offline::optimal_cost(&single, 200_000).unwrap();
        let opt2 = offline::optimal_cost(&double, 200_000).unwrap();
        prop_assert!(opt2 >= opt1 - 1e-9, "p=2 opt {opt2} below p=1 opt {opt1}");
    }

    /// Power-set family laws: `n = 2^m − 1`, `δ = m`, and the
    /// `element_for_sets` encoding round-trips for every subset choice.
    #[test]
    fn power_set_system_laws(m in 1usize..9, pick in proptest::collection::vec(any::<bool>(), 8)) {
        let sys = power_set_system(m);
        prop_assert_eq!(sys.num_elements(), (1usize << m) - 1);
        prop_assert_eq!(sys.delta(), m);
        let chosen: Vec<usize> = (0..m).filter(|&j| pick[j]).collect();
        if chosen.is_empty() {
            return Ok(());
        }
        let e = element_for_sets(&chosen);
        prop_assert_eq!(sys.sets_containing(e), &chosen[..]);
    }

    /// The PPP-embedding driver issues strictly increasing demand days,
    /// covers them all, and never undercuts the hindsight ILP.
    #[test]
    fn ppp_embedding_trace_is_consistent(seed in 0u64..100) {
        let structure = LeaseStructure::new(
            vec![LeaseType::new(2, 1.0), LeaseType::new(8, 3.0)],
        ).unwrap();
        let (template, outcome) = drive_ppp_embedding(&structure, 24, seed);
        prop_assert!(!outcome.arrivals.is_empty());
        prop_assert!(outcome.arrivals.windows(2).all(|w| w[0].time < w[1].time));
        let cost = outcome.algorithm_cost;
        let inst = outcome.into_instance(&template);
        let Some(opt) = offline::optimal_cost(&inst, 300_000) else {
            return Ok(());
        };
        prop_assert!(cost >= opt - 1e-6, "driver cost {cost} below opt {opt}");
    }

    /// The halving adversary always plays exactly `log₂ m` nested rounds
    /// per window, and the final round's element pins a single survivor
    /// that every element of the window contains.
    #[test]
    fn halving_adversary_rounds_are_nested(
        m_exp in 1u32..4,
        sequences in 1usize..4,
        seed in 0u64..50,
    ) {
        let m = 1usize << m_exp;
        let structure = LeaseStructure::new(
            vec![LeaseType::new(4, 1.0), LeaseType::new(16, 2.5)],
        ).unwrap();
        let (template, outcome) = drive_halving_adversary(m, &structure, sequences, seed);
        prop_assert_eq!(outcome.arrivals.len(), sequences * m_exp as usize);
        for seq in outcome.arrivals.chunks(m_exp as usize) {
            let masks: Vec<usize> = seq.iter().map(|a| a.element + 1).collect();
            prop_assert!(masks.windows(2).all(|w| w[1] & w[0] == w[1]));
            let survivor_mask = *masks.last().unwrap();
            prop_assert_eq!(survivor_mask.count_ones(), 1, "one survivor per window");
            // The survivor set contains every element of the sequence.
            let survivor = survivor_mask.trailing_zeros() as usize;
            for a in seq {
                prop_assert!(
                    template.system.sets_containing(a.element).contains(&survivor)
                );
            }
        }
    }
}
