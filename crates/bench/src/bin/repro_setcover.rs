//! Experiments E5–E8: set (multi)cover leasing (thesis Chapter 3).
//!
//! * E5 (Theorem 3.3): the SMCL ratio tracks `O(log(δK)·log n)` as `n`, `δ`
//!   and `K` are swept.
//! * E6 (Corollary 3.4): the `K = 1, l = ∞` special case (online set
//!   multicover) tracks `O(log δ · log n)`.
//! * E7 (Corollary 3.5): repetitions with the `2⌈log(δn+1)⌉` thresholds,
//!   ablated against the plain `2⌈log(n+1)⌉` thresholds.
//! * E8 (Lemma 3.1): the fractional cost stays within `O(log(δK))·Opt`.

use leasing_bench::{drive, table};
use leasing_core::harness::RatioStats;
use leasing_core::lease::{LeaseStructure, LeaseType};
use leasing_core::rng::{seeded, threshold_count};
use leasing_workloads::set_systems::{random_system, zipf_arrivals};
use set_cover_leasing::instance::SmclInstance;
use set_cover_leasing::offline;
use set_cover_leasing::online::SmclOnline;
use set_cover_leasing::repetitions::{repetition_instance, RepetitionsOnline};

const SEED: u64 = 33111;

fn lease_structure(k: usize) -> LeaseStructure {
    let types = (0..k)
        .map(|i| LeaseType::new(4u64 << (2 * i), (1.5f64).powi(i as i32 + 1)))
        .collect();
    LeaseStructure::new(types).expect("increasing lengths")
}

/// Runs SMCL over `trials` seeds; the reference optimum is the exact ILP
/// when it solves within budget, else the LP lower bound.
fn measure(
    n: usize,
    m: usize,
    delta: usize,
    k: usize,
    arrivals: usize,
    p_max: usize,
    trials: u64,
) -> (RatioStats, f64, f64) {
    let mut stats = RatioStats::new();
    let mut frac_ratio = 0.0f64;
    let mut count = 0.0;
    for t in 0..trials {
        let mut rng = seeded(SEED ^ (t * 10007 + n as u64 + delta as u64 * 31 + k as u64));
        let system = random_system(&mut rng, n, m, delta);
        let arr = zipf_arrivals(&mut rng, &system, arrivals, 64, 1.1, p_max);
        let inst = SmclInstance::uniform(system, lease_structure(k), arr)
            .expect("generated arrivals are feasible");
        let opt =
            offline::optimal_cost(&inst, 30_000).unwrap_or_else(|| offline::lp_lower_bound(&inst));
        if opt <= 0.0 {
            continue;
        }
        let alg = drive(
            SmclOnline::new(&inst, SEED + t),
            &inst.structure,
            inst.requests(),
        );
        let cost = alg.cost();
        stats.push(cost / opt);
        frac_ratio += alg.algorithm().stats().fractional_cost / opt;
        count += 1.0;
    }
    let mean_frac = if count > 0.0 {
        frac_ratio / count
    } else {
        f64::NAN
    };
    let reference = ((delta * k) as f64 + 1.0).log2() * ((n as f64) + 1.0).log2();
    (stats, mean_frac, reference)
}

fn main() {
    println!("== E5: SetMulticoverLeasing ratio vs n, δ, K (Theorem 3.3) ==");
    println!("reference column: log2(δK)·log2(n) (the proven growth rate, constants unknown)\n");

    println!("-- sweep n (m = n/2, δ = 4, K = 2) --");
    table::header(&["n", "mean", "max", "frac/opt", "ref"], 10);
    for n in [10usize, 20, 40, 80] {
        let (stats, frac, reference) = measure(n, n / 2, 4, 2, n, 2, 5);
        table::row(
            &[
                table::i(n),
                table::f(stats.mean()),
                table::f(stats.max()),
                table::f(frac),
                table::f(reference),
            ],
            10,
        );
    }

    println!("\n-- sweep δ (n = 40, m = 20, K = 2) --");
    table::header(&["delta", "mean", "max", "frac/opt", "ref"], 10);
    for delta in [2usize, 4, 8, 16] {
        let (stats, frac, reference) = measure(40, 20, delta, 2, 40, 2, 5);
        table::row(
            &[
                table::i(delta),
                table::f(stats.mean()),
                table::f(stats.max()),
                table::f(frac),
                table::f(reference),
            ],
            10,
        );
    }

    println!("\n-- sweep K (n = 40, m = 20, δ = 4) --");
    table::header(&["K", "mean", "max", "frac/opt", "ref"], 10);
    for k in [1usize, 2, 3, 4] {
        let (stats, frac, reference) = measure(40, 20, 4, k, 40, 2, 5);
        table::row(
            &[
                table::i(k),
                table::f(stats.mean()),
                table::f(stats.max()),
                table::f(frac),
                table::f(reference),
            ],
            10,
        );
    }

    println!("\n== E6: OnlineSetMulticover (K = 1, l = ∞; Corollary 3.4) ==");
    table::header(&["n", "mean", "max", "ref δ·n"], 10);
    for n in [10usize, 20, 40, 80] {
        let mut stats = RatioStats::new();
        for t in 0..5u64 {
            let mut rng = seeded(SEED ^ (t + n as u64 * 131));
            let system = random_system(&mut rng, n, n / 2, 4);
            let arr = zipf_arrivals(&mut rng, &system, n, 64, 1.1, 2);
            let structure = set_cover_leasing::repetitions::buy_forever_structure(1.0);
            let factors = vec![1.0; system.num_sets()];
            let inst =
                SmclInstance::with_set_factors(system, structure, &factors, arr).expect("feasible");
            let opt = offline::optimal_cost(&inst, 30_000)
                .unwrap_or_else(|| offline::lp_lower_bound(&inst));
            if opt <= 0.0 {
                continue;
            }
            let alg = drive(
                SmclOnline::new(&inst, SEED + t),
                &inst.structure,
                inst.requests(),
            );
            stats.push(alg.cost() / opt);
        }
        let reference = (4f64 + 1.0).log2() * ((n as f64) + 1.0).log2();
        table::row(
            &[
                table::i(n),
                table::f(stats.mean()),
                table::f(stats.max()),
                table::f(reference),
            ],
            10,
        );
    }

    println!("\n== E7: OnlineSetCoverWithRepetitions (Corollary 3.5) ==");
    println!("threshold ablation: paper 2⌈log(δn+1)⌉ vs plain 2⌈log(n+1)⌉ uniforms\n");
    table::header(&["n", "paper mean", "plain mean", "fallback%"], 12);
    for n in [10usize, 20, 40] {
        let mut paper_stats = RatioStats::new();
        let mut plain_stats = RatioStats::new();
        let mut fallbacks = 0usize;
        let mut arrivals_total = 0usize;
        for t in 0..5u64 {
            let mut rng = seeded(SEED ^ (t * 31 + n as u64));
            let system = random_system(&mut rng, n, n, 4);
            // Element e arrives min(count, membership) times.
            let mut arr: Vec<(u64, usize)> = Vec::new();
            for e in 0..n {
                let reps = system.sets_containing(e).len().min(2);
                for r in 0..reps {
                    arr.push((r as u64 * 8, e));
                }
            }
            arr.sort_unstable();
            let costs = vec![1.0; system.num_sets()];
            let inst = repetition_instance(system, &costs, arr).expect("feasible repetitions");
            let opt = offline::optimal_cost(&inst, 30_000)
                .unwrap_or_else(|| offline::lp_lower_bound(&inst));
            if opt <= 0.0 {
                continue;
            }
            // Each arrival of an element must use a set none of its earlier
            // arrivals used.
            let arrivals = || inst.requests().map(|(time, (element, _))| (time, element));
            let alg = drive(
                RepetitionsOnline::new(&inst, SEED + t),
                &inst.structure,
                arrivals(),
            );
            paper_stats.push(alg.cost() / opt);
            // Plain-threshold ablation: the same repetition rule with the raw
            // SMCL threshold count q = 2⌈log(n+1)⌉.
            let q = threshold_count(inst.system.num_elements() as u64);
            let plain = drive(
                RepetitionsOnline::with_threshold_count(&inst, SEED + t, q),
                &inst.structure,
                arrivals(),
            );
            let cost = plain.cost();
            fallbacks += plain.algorithm().stats().fallbacks;
            arrivals_total += inst.arrivals.len();
            plain_stats.push(cost / opt);
        }
        let fb = 100.0 * fallbacks as f64 / arrivals_total.max(1) as f64;
        table::row(
            &[
                table::i(n),
                table::f(paper_stats.mean()),
                table::f(plain_stats.mean()),
                table::f(fb),
            ],
            12,
        );
    }
    println!("\n(E8 is the 'frac/opt' column of E5: Lemma 3.1 predicts O(log(δK)) growth)");
}
