//! Experiments E1–E3: the parking permit problem (thesis §2.2).
//!
//! * E1 (Theorem 2.7): the deterministic primal-dual ratio stays below `K`
//!   on random instances and grows linearly in `K` against the adaptive
//!   adversary. The random-instance sweep runs through the SimLab matrix
//!   runner instead of a hand-written trial loop.
//! * E2 (Theorem 2.8): the adaptive adversary on the `c_k = 2^k`,
//!   `l_k = (2K)^k` structure forces `Ω(K)`.
//! * E3 (§2.2.3 + Theorem 2.9): the randomized algorithm's expected ratio
//!   grows like `log K` on the oblivious lower-bound distribution, beating
//!   the deterministic algorithm for larger `K`. Both algorithms run
//!   behind the generic [`Driver`].

use leasing_bench::table;
use leasing_core::engine::Driver;
use leasing_core::harness::RatioStats;
use leasing_core::lease::LeaseStructure;
use leasing_core::rng::seeded;
use leasing_simlab::registry::select_algorithms;
use leasing_simlab::runner::{run_matrix, MatrixConfig};
use leasing_simlab::scenario::{Scenario, WorkloadSpec};
use parking_permit::adversary::{run_adaptive_adversary, RandomizedLowerBoundInstance};
use parking_permit::det::DeterministicPrimalDual;
use parking_permit::offline;
use parking_permit::rand_alg::RandomizedPermit;

const SEED: u64 = 20150615;

fn main() {
    println!("== E1/E2: deterministic parking permit, ratio vs K (seed {SEED}) ==");
    println!("paper: Theorem 2.7 upper bound O(K); Theorem 2.8 lower bound Ω(K)");
    println!("(random column: SimLab matrix, 10 seeds of Bernoulli(0.25) demand)\n");
    table::header(&["K", "adv ratio", "K (bound)", "rnd mean", "rnd max"], 10);
    let rainy = vec![Scenario {
        name: "rainy".into(),
        spec: WorkloadSpec::Rainy { p: 0.25 },
        universe: None,
    }];
    let det = select_algorithms("permit-det").expect("registered");
    for k in 1..=6usize {
        let s = LeaseStructure::meyerson_adversarial(k);
        // Adaptive adversary (E2) — inherently interactive, so it drives
        // the algorithm demand by demand.
        let mut det_alg = Driver::new(DeterministicPrimalDual::new(s.clone()), s.clone());
        let horizon = s.l_max().min(1 << 14);
        let demands = run_adaptive_adversary(&mut det_alg, horizon);
        let opt = offline::optimal_cost_interval_model(&s, &demands);
        let adv_ratio = det_alg.cost() / opt;

        // Random instances (E1): one SimLab cell per seed.
        let config = MatrixConfig {
            horizon: horizon.min(2048),
            num_elements: 1,
            structure: s.clone(),
            threads: 2,
            cell_budget_ms: None,
            compact_every: None,
            retention: Default::default(),
        };
        let seeds: Vec<u64> = (0..10).map(|t| SEED + t).collect();
        let report = run_matrix(&det, &rainy, &seeds, &config);
        let ratio = report.aggregates[0]
            .empirical_ratio
            .expect("permit cells never fail");
        table::row(
            &[
                table::i(k),
                table::f(adv_ratio),
                table::f(k as f64),
                table::f(ratio.mean),
                table::f(ratio.max),
            ],
            10,
        );
    }

    println!("\n== E3: randomized vs deterministic on the Theorem 2.9 distribution ==");
    println!("paper: randomized O(log K) (optimal); deterministic stuck at Θ(K)\n");
    table::header(
        &["K", "det mean", "rand mean", "log2(K)+1", "K (det bd)"],
        10,
    );
    for k in 2..=6usize {
        let s = LeaseStructure::meyerson_adversarial(k);
        let gen = RandomizedLowerBoundInstance::new(s.clone());
        let trials = 25;
        let mut det_stats = RatioStats::new();
        let mut rand_stats = RatioStats::new();
        for t in 0..trials {
            let mut rng = seeded(SEED ^ (t * 7919 + k as u64));
            let demands = gen.sample(&mut rng);
            let opt = offline::optimal_cost_interval_model(&s, &demands);
            if opt <= 0.0 {
                continue;
            }
            let mut det = Driver::new(DeterministicPrimalDual::new(s.clone()), s.clone());
            det.submit_batch(demands.iter().map(|&d| (d, ())))
                .expect("sorted demands");
            det_stats.push(det.cost() / opt);
            let mut rand_alg = Driver::new(RandomizedPermit::new(s.clone(), &mut rng), s.clone());
            rand_alg
                .submit_batch(demands.iter().map(|&d| (d, ())))
                .expect("sorted demands");
            rand_stats.push(rand_alg.cost() / opt);
        }
        table::row(
            &[
                table::i(k),
                table::f(det_stats.mean()),
                table::f(rand_stats.mean()),
                table::f((k as f64).log2() + 1.0),
                table::f(k as f64),
            ],
            10,
        );
    }
    println!("\n(expected shape: 'det mean' grows ~linearly in K, 'rand mean' ~log K)");
}
