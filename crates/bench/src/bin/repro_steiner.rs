//! Experiment E16: Steiner tree leasing (thesis §5.1, Meyerson's companion
//! problem to the parking permit problem).
//!
//! Meyerson's bound is `O(log n · log K)` (randomized); the deterministic
//! per-edge-permit composition gives `O(log n · K)`. We measure both
//! against the exact ILP on tiny instances and against the
//! route-then-lease offline heuristic on larger ones, and show the naive
//! per-request baseline degrading with demand repetition.

use leasing_bench::{drive, table};
use leasing_core::harness::RatioStats;
use leasing_core::lease::LeaseStructure;
use leasing_core::rng::seeded;
use leasing_graph::generators::connected_erdos_renyi;
use leasing_workloads::steiner_requests;
use steiner_leasing::ilp::steiner_optimal_cost;
use steiner_leasing::instance::SteinerInstance;
use steiner_leasing::offline::{buy_per_request, route_then_lease};
use steiner_leasing::online::{RandomizedSteinerLeasing, SteinerLeasingOnline};

const SEED: u64 = 16001;

fn main() {
    let structure = LeaseStructure::geometric(3, 2, 4, 1.0, 0.6);

    println!("== E16a: tiny instances vs the exact ILP (seed {SEED}) ==");
    println!("paper: online O(log n * K) det / O(log n * log K) rand, vs Opt\n");
    table::header(&["trial", "opt", "det", "rand", "offline"], 10);
    let mut det_stats = RatioStats::new();
    let mut rand_stats = RatioStats::new();
    for trial in 0..6u64 {
        let mut rng = seeded(SEED + trial);
        let g = connected_erdos_renyi(&mut rng, 5, 0.4, 1.0..3.0);
        let requests = steiner_requests(&mut rng, 5, 4, 0.3, 3);
        let inst = SteinerInstance::new(g, structure.clone(), requests).unwrap();
        let Ok(opt) = steiner_optimal_cost(&inst, 300, 400_000) else {
            continue;
        };
        let det = drive(
            SteinerLeasingOnline::new(&inst),
            &inst.structure,
            inst.requests(),
        )
        .cost();
        let mut rng2 = seeded(SEED ^ trial);
        let rnd = drive(
            RandomizedSteinerLeasing::new(&inst, &mut rng2),
            &inst.structure,
            inst.requests(),
        )
        .cost();
        let off = route_then_lease(&inst).cost;
        det_stats.push(det / opt);
        rand_stats.push(rnd / opt);
        table::row(
            &[
                table::i(trial),
                table::f(opt),
                table::f(det),
                table::f(rnd),
                table::f(off),
            ],
            10,
        );
    }
    println!(
        "\nratios vs Opt: det mean {:.3} max {:.3}; rand mean {:.3} max {:.3}\n",
        det_stats.mean(),
        det_stats.max(),
        rand_stats.mean(),
        rand_stats.max()
    );

    println!("== E16b: repetition bias — leasing wins over per-request buying ==");
    println!("paper motivation: reuse across time is the whole point of leasing\n");
    table::header(&["repeat", "online", "offline", "naive", "naive/onl"], 10);
    for &bias in &[0.0f64, 0.5, 0.9] {
        let mut online_sum = 0.0;
        let mut offline_sum = 0.0;
        let mut naive_sum = 0.0;
        for trial in 0..5u64 {
            let mut rng = seeded(SEED * 7 + trial);
            let g = connected_erdos_renyi(&mut rng, 12, 0.3, 1.0..3.0);
            let requests = steiner_requests(&mut rng, 12, 30, bias, 3);
            let inst = SteinerInstance::new(g, structure.clone(), requests).unwrap();
            online_sum += drive(
                SteinerLeasingOnline::new(&inst),
                &inst.structure,
                inst.requests(),
            )
            .cost();
            offline_sum += route_then_lease(&inst).cost;
            naive_sum += buy_per_request(&inst).cost;
        }
        table::row(
            &[
                table::f(bias),
                table::f(online_sum / 5.0),
                table::f(offline_sum / 5.0),
                table::f(naive_sum / 5.0),
                table::f(naive_sum / online_sum),
            ],
            10,
        );
    }

    println!("\n== E16c: growth in n (log-shaped, per Meyerson's O(log n) factor) ==\n");
    table::header(&["n", "onl/off mean", "onl/off max"], 14);
    for &n in &[6usize, 12, 24, 48] {
        let mut stats = RatioStats::new();
        for trial in 0..5u64 {
            let mut rng = seeded(SEED * 13 + trial);
            let g = connected_erdos_renyi(&mut rng, n, 0.3, 1.0..3.0);
            let requests = steiner_requests(&mut rng, n, 40, 0.5, 3);
            let inst = SteinerInstance::new(g, structure.clone(), requests).unwrap();
            let online = drive(
                SteinerLeasingOnline::new(&inst),
                &inst.structure,
                inst.requests(),
            )
            .cost();
            let offline = route_then_lease(&inst).cost;
            stats.push(online / offline);
        }
        table::row(
            &[table::i(n), table::f(stats.mean()), table::f(stats.max())],
            14,
        );
    }
    println!("\nExpect slow (logarithmic) growth of the online/offline ratio in n.");
}
