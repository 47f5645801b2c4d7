//! Experiment E24: service windows with specific allowed days (§5.6
//! outlook).
//!
//! The thesis closes Chapter 5 asking for *"models that handle other
//! flexibilities (e.g., can be served on specific days within some period
//! of time)"*. The `leasing_deadlines::windows` module builds that model;
//! this binary measures it:
//!
//! * E24a — allowed-day **density sweep**: clients keep a fixed span but are
//!   servable only every `r`-th day. `r = 1` recovers OLD; `r = span`
//!   leaves only the endpoints. The measured ratio stays inside the
//!   `K + span/l_min` reference shape of Theorem 5.3 at every density.
//! * E24b — **OLD equivalence**: on full-interval day sets the model
//!   coincides with §5.2; both algorithms run against the same exact
//!   optimum.
//! * E24c — **periodic clients** ("any Tuesday for the next few weeks"):
//!   the period sweep varies candidate overlap between clients.

use leasing_bench::{drive, table};
use leasing_core::harness::RatioStats;
use leasing_core::lease::{LeaseStructure, LeaseType};
use leasing_core::rng::seeded;
use leasing_deadlines::offline::old_optimal_cost;
use leasing_deadlines::old::{OldClient, OldInstance, OldPrimalDual};
use leasing_deadlines::windows::{
    is_feasible, window_lp_lower_bound, window_optimal_cost, WindowClient, WindowInstance,
    WindowPrimalDual,
};
use leasing_workloads::arrivals::{periodic_window_clients, strided_window_clients};
use rand::RngExt;

const SEED: u64 = 58001;
const TRIALS: u64 = 5;

fn structure() -> LeaseStructure {
    LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(16, 3.0)])
        .expect("increasing lengths")
}

fn main() {
    println!("seed {SEED}\n");
    let s = structure();
    let k = s.num_types() as f64;
    let l_min = s.length(0) as f64;

    println!("== E24a: allowed-day density sweep (span 32, horizon 64) ==\n");
    table::header(&["stride", "days/client", "mean", "max", "K+span/lmin"], 12);
    let span = 32u64;
    for &stride in &[1u64, 2, 4, 8, 16, 32] {
        let mut stats = RatioStats::new();
        let mut days_per_client = 0usize;
        for t in 0..TRIALS {
            let mut rng = seeded(SEED + 31 * t + stride);
            let clients =
                strided_window_clients(&mut rng, 64, 0.25, span, stride).expect("valid parameters");
            if clients.is_empty() {
                continue;
            }
            days_per_client = clients[0].allowed_days().len();
            let inst = WindowInstance::new(s.clone(), clients).expect("sorted arrivals");
            let opt =
                window_optimal_cost(&inst, 50_000).unwrap_or_else(|| window_lp_lower_bound(&inst));
            if opt <= 0.0 {
                continue;
            }
            let alg = drive(
                WindowPrimalDual::new(&inst),
                &inst.structure,
                inst.requests(),
            );
            let cost = alg.cost();
            assert!(is_feasible(&inst, |t| alg.ledger().owns(t)));
            stats.push(cost / opt);
        }
        table::row(
            &[
                table::i(stride),
                table::i(days_per_client),
                table::f(stats.mean()),
                table::f(stats.max()),
                table::f(k + span as f64 / l_min),
            ],
            12,
        );
    }
    println!("\n(paper shape: Theorem 5.3 gives K + d_max/l_min on full intervals; sparser");
    println!(" day sets keep the same span but fewer candidates — ratio must stay bounded)");

    println!("\n== E24b: OLD equivalence on full-interval day sets ==\n");
    table::header(&["slack", "windows", "old", "opt gap"], 12);
    for &slack in &[0u64, 4, 12] {
        let mut w_stats = RatioStats::new();
        let mut o_stats = RatioStats::new();
        let mut max_gap = 0.0f64;
        for t in 0..TRIALS {
            let mut rng = seeded(SEED + 977 * t + slack);
            let arrivals: Vec<u64> = (0..64).filter(|_| rng.random_bool(0.25)).collect();
            if arrivals.is_empty() {
                continue;
            }
            let w_inst = WindowInstance::new(
                s.clone(),
                arrivals
                    .iter()
                    .map(|&a| WindowClient::interval(a, slack))
                    .collect(),
            )
            .expect("sorted arrivals");
            let o_inst = OldInstance::new(
                s.clone(),
                arrivals.iter().map(|&a| OldClient::new(a, slack)).collect(),
            )
            .expect("sorted arrivals");
            let w_opt = window_optimal_cost(&w_inst, 50_000);
            let o_opt = old_optimal_cost(&o_inst, 50_000);
            let (Some(w_opt), Some(o_opt)) = (w_opt, o_opt) else {
                continue;
            };
            max_gap = max_gap.max((w_opt - o_opt).abs());
            if w_opt <= 0.0 {
                continue;
            }
            w_stats.push(
                drive(
                    WindowPrimalDual::new(&w_inst),
                    &w_inst.structure,
                    w_inst.requests(),
                )
                .cost()
                    / w_opt,
            );
            o_stats.push(
                drive(
                    OldPrimalDual::new(&o_inst),
                    &o_inst.structure,
                    o_inst.requests(),
                )
                .cost()
                    / o_opt,
            );
        }
        table::row(
            &[
                table::i(slack),
                table::f(w_stats.mean()),
                table::f(o_stats.mean()),
                format!("{max_gap:.1e}"),
            ],
            12,
        );
    }
    println!("\n(the two models share the optimum on interval day sets; both algorithms");
    println!(" stay within the Theorem 5.3 regime)");

    println!("\n== E24c: periodic clients (period sweep, 4 occurrences each) ==\n");
    table::header(&["period", "mean", "max", "dual/opt"], 12);
    for &period in &[2u64, 7, 14] {
        let mut stats = RatioStats::new();
        let mut dual_stats = RatioStats::new();
        for t in 0..TRIALS {
            let mut rng = seeded(SEED + 57 * t + period);
            let clients =
                periodic_window_clients(&mut rng, 48, 0.2, period, 4).expect("valid parameters");
            if clients.is_empty() {
                continue;
            }
            let inst = WindowInstance::new(s.clone(), clients).expect("sorted arrivals");
            let opt =
                window_optimal_cost(&inst, 50_000).unwrap_or_else(|| window_lp_lower_bound(&inst));
            if opt <= 0.0 {
                continue;
            }
            let alg = drive(
                WindowPrimalDual::new(&inst),
                &inst.structure,
                inst.requests(),
            );
            let cost = alg.cost();
            assert!(is_feasible(&inst, |t| alg.ledger().owns(t)));
            stats.push(cost / opt);
            dual_stats.push(alg.algorithm().dual_value() / opt);
        }
        table::row(
            &[
                table::i(period),
                table::f(stats.mean()),
                table::f(stats.max()),
                table::f(dual_stats.mean()),
            ],
            12,
        );
    }
    println!("\n(dual/opt <= 1 certifies weak duality; the ratio stays bounded as the");
    println!(" period stretches candidate windows apart)");
}
