//! Experiment E17: graph covering leasing (thesis §2.3 + Chapter 3
//! outlook): vertex cover, edge cover and dominating set leasing through
//! the Chapter 3 reduction, plus the direct deterministic `2K` primal-dual
//! for vertex cover.

use graph_cover_leasing::reduction::{
    dominating_set_instance, edge_cover_instance, vertex_cover_instance,
};
use graph_cover_leasing::vertex_cover::{VcLeasingInstance, VcPrimalDual};
use leasing_bench::{drive, table};
use leasing_core::harness::RatioStats;
use leasing_core::lease::LeaseStructure;
use leasing_core::rng::seeded;
use leasing_core::time::TimeStep;
use leasing_graph::generators::connected_erdos_renyi;
use leasing_workloads::item_arrivals;
use set_cover_leasing::offline;
use set_cover_leasing::online::SmclOnline;

const SEED: u64 = 17001;

fn main() {
    println!("== E17a: vertex cover leasing — direct 2K primal-dual vs reduction ==");
    println!("paper: δ = 2 in the Chapter 3 bound O(log(2K) log n); direct bound 2K\n");
    table::header(&["K", "2K", "direct mean", "direct max", "rand mean"], 12);
    for k in 1..=4usize {
        let structure = LeaseStructure::geometric(k, 2, 4, 1.0, 0.6);
        let mut direct_stats = RatioStats::new();
        let mut rand_stats = RatioStats::new();
        for trial in 0..6u64 {
            let mut rng = seeded(SEED + 100 * k as u64 + trial);
            let g = connected_erdos_renyi(&mut rng, 6, 0.4, 1.0..2.0);
            let arrivals = item_arrivals(&mut rng, g.num_edges(), 8, 3);
            let reduced = vertex_cover_instance(&g, structure.clone(), &arrivals, None).unwrap();
            let Some(opt) = offline::optimal_cost(&reduced, 400_000) else {
                continue;
            };
            let vc = VcLeasingInstance::unweighted(g, structure.clone(), arrivals).unwrap();
            let direct = drive(VcPrimalDual::new(&vc), &vc.structure, vc.requests()).cost();
            direct_stats.push(direct / opt);
            let randomized = drive(
                SmclOnline::new(&reduced, SEED ^ trial),
                &reduced.structure,
                reduced.requests(),
            )
            .cost();
            rand_stats.push(randomized / opt);
        }
        table::row(
            &[
                table::i(k),
                table::f(2.0 * k as f64),
                table::f(direct_stats.mean()),
                table::f(direct_stats.max()),
                table::f(rand_stats.mean()),
            ],
            12,
        );
    }

    println!("\n== E17b: edge cover and dominating set leasing (reduction sanity) ==\n");
    table::header(&["problem", "delta", "opt", "online", "ratio"], 12);
    let structure = LeaseStructure::geometric(2, 2, 4, 1.0, 0.6);
    let mut rng = seeded(SEED * 3);
    let g = connected_erdos_renyi(&mut rng, 7, 0.45, 1.0..2.0);
    // Edge cover: vertices arrive.
    let v_arrivals = item_arrivals(&mut rng, g.num_nodes(), 6, 3);
    let ec = edge_cover_instance(&g, structure.clone(), &v_arrivals, true).unwrap();
    let ec_opt = offline::optimal_cost(&ec, 400_000).unwrap_or(f64::NAN);
    let ec_online = drive(SmclOnline::new(&ec, SEED), &ec.structure, ec.requests()).cost();
    table::row(
        &[
            "edge-cover".into(),
            table::i(ec.system.delta()),
            table::f(ec_opt),
            table::f(ec_online),
            table::f(ec_online / ec_opt),
        ],
        12,
    );
    // Dominating set: vertices arrive with multiplicity 1 or 2.
    let ds_arrivals: Vec<(TimeStep, usize, usize)> = v_arrivals
        .iter()
        .map(|&(t, v)| (t, v, 1 + (v % 2).min(g.neighbors(v).len())))
        .collect();
    let ds = dominating_set_instance(&g, structure.clone(), &ds_arrivals).unwrap();
    let ds_opt = offline::optimal_cost(&ds, 400_000).unwrap_or(f64::NAN);
    let ds_online = drive(SmclOnline::new(&ds, SEED + 1), &ds.structure, ds.requests()).cost();
    table::row(
        &[
            "dom-set".into(),
            table::i(ds.system.delta()),
            table::f(ds_opt),
            table::f(ds_online),
            table::f(ds_online / ds_opt),
        ],
        12,
    );

    println!("\nBoth reductions feed the unmodified Chapter 3 algorithm;");
    println!("ratios stay within the O(log(δK) log n) regime.");
}
