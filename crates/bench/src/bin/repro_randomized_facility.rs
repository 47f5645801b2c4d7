//! Experiment E22: the §4.5 randomization hope for facility leasing.
//!
//! The thesis conjectures that randomization could improve the
//! deterministic `O(K log l_max)` facility-leasing bound towards
//! `O(log K log l_max)`. This experiment measures the randomized
//! per-facility-permit composition against the deterministic primal-dual
//! and exact optima: the *measured* gap between the two as `K` grows is the
//! empirical signal the conjecture predicts.

use facility_leasing::instance::FacilityInstance;
use facility_leasing::metric::Point;
use facility_leasing::offline;
use facility_leasing::online::PrimalDualFacility;
use facility_leasing::randomized::RandomizedFacility;
use leasing_bench::{drive, table};
use leasing_core::harness::RatioStats;
use leasing_core::lease::LeaseStructure;
use leasing_core::rng::seeded;
use rand::RngExt;

const SEED: u64 = 22001;

fn random_instance(
    rng: &mut impl rand::Rng,
    structure: &LeaseStructure,
    facilities: usize,
    batches: usize,
) -> FacilityInstance {
    let sites: Vec<Point> = (0..facilities)
        .map(|_| Point::new(rng.random(), rng.random()))
        .collect();
    let mut point_batches = Vec::new();
    let mut t = 0u64;
    for _ in 0..batches {
        t += 1 + rng.random_range(0..2u64);
        let n = 1 + rng.random_range(0..2);
        point_batches.push((
            t,
            (0..n)
                .map(|_| Point::new(rng.random(), rng.random()))
                .collect::<Vec<_>>(),
        ));
    }
    FacilityInstance::euclidean(sites, structure.clone(), point_batches).unwrap()
}

fn main() {
    println!("== E22a: deterministic vs randomized vs Opt on tiny instances (seed {SEED}) ==\n");
    table::header(&["K", "det mean", "rnd mean", "det max", "rnd max"], 10);
    for k in 1..=3usize {
        let structure = LeaseStructure::geometric(k, 2, 4, 1.0, 0.6);
        let mut det_stats = RatioStats::new();
        let mut rnd_stats = RatioStats::new();
        for trial in 0..6u64 {
            let mut rng = seeded(SEED + 100 * k as u64 + trial);
            let inst = random_instance(&mut rng, &structure, 2, 3);
            let Some(opt) = offline::optimal_cost(&inst, 400_000) else {
                continue;
            };
            let det = drive(
                PrimalDualFacility::new(&inst),
                inst.structure(),
                inst.requests(),
            )
            .cost();
            det_stats.push(det / opt);
            // Average the randomized algorithm over 5 seeds per instance.
            let mut sum = 0.0;
            for s in 0..5u64 {
                sum += drive(
                    RandomizedFacility::new(&inst, &mut seeded(SEED ^ (trial * 5 + s))),
                    inst.structure(),
                    inst.requests(),
                )
                .cost();
            }
            rnd_stats.push(sum / 5.0 / opt);
        }
        table::row(
            &[
                table::i(k),
                table::f(det_stats.mean()),
                table::f(rnd_stats.mean()),
                table::f(det_stats.max()),
                table::f(rnd_stats.max()),
            ],
            10,
        );
    }
    println!("\nBoth ratios >= 1; watch whether the randomized mean grows slower in K.\n");

    println!("== E22b: growth in K on larger instances (vs each other) ==\n");
    table::header(&["K", "det cost", "rnd cost", "rnd/det"], 11);
    for k in 1..=5usize {
        let structure = LeaseStructure::geometric(k, 2, 3, 1.0, 0.6);
        let mut det_sum = 0.0;
        let mut rnd_sum = 0.0;
        for trial in 0..5u64 {
            let mut rng = seeded(SEED * 3 + 1000 * k as u64 + trial);
            let inst = random_instance(&mut rng, &structure, 5, 24);
            det_sum += drive(
                PrimalDualFacility::new(&inst),
                inst.structure(),
                inst.requests(),
            )
            .cost();
            rnd_sum += drive(
                RandomizedFacility::new(&inst, &mut seeded(SEED + trial)),
                inst.structure(),
                inst.requests(),
            )
            .cost();
        }
        table::row(
            &[
                table::i(k),
                table::f(det_sum / 5.0),
                table::f(rnd_sum / 5.0),
                table::f(rnd_sum / det_sum),
            ],
            11,
        );
    }
    println!("\nA rnd/det ratio drifting below 1 as K grows supports the §4.5 conjecture.");
}
