//! Cross-crate integration tests for the graph-flavoured leasing problems:
//! Steiner tree leasing, vertex/edge/dominating-set cover leasing, and the
//! distributed phase-2 pipeline.

use online_resource_leasing::core::engine::{Driver, LeasingAlgorithm};
use online_resource_leasing::core::lease::{LeaseStructure, LeaseType};
use online_resource_leasing::core::rng::seeded;
use online_resource_leasing::core::time::TimeStep;
use online_resource_leasing::distributed::{resolve_conflicts, ConflictInstance, MisStrategy};
use online_resource_leasing::graph::generators::connected_erdos_renyi;
use online_resource_leasing::graph::graph::Graph;
use online_resource_leasing::graph_cover::vertex_cover::{
    is_feasible as vc_feasible, VcLeasingInstance, VcPrimalDual,
};
use online_resource_leasing::graph_cover::{dominating_set_instance, vertex_cover_instance};
use online_resource_leasing::parking_permit::det::DeterministicPrimalDual;
use online_resource_leasing::set_cover::offline as sc_offline;
use online_resource_leasing::set_cover::online::{is_feasible_cover, SmclOnline};
use online_resource_leasing::steiner::instance::{PairRequest, SteinerInstance};
use online_resource_leasing::steiner::online::SteinerLeasingOnline;
use online_resource_leasing::steiner::{ilp as steiner_ilp, offline as steiner_offline};
use rand::RngExt;

/// Serves `requests` through a fresh [`Driver`] over `structure`.
fn drive<A: LeasingAlgorithm>(
    algorithm: A,
    structure: &LeaseStructure,
    requests: impl IntoIterator<Item = (TimeStep, A::Request)>,
) -> Driver<A> {
    let mut driver = Driver::new(algorithm, structure.clone());
    driver.submit_batch(requests).unwrap();
    driver
}

fn structure() -> LeaseStructure {
    LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(8, 3.0)]).unwrap()
}

/// Steiner leasing on a single-edge graph *is* the parking permit problem
/// on that edge's scaled structure.
#[test]
fn steiner_on_one_edge_is_parking_permit() {
    let g = Graph::new(2, vec![(0, 1, 2.5)]).unwrap();
    let mut rng = seeded(11);
    let days: Vec<u64> = (0..48).filter(|_| rng.random::<f64>() < 0.4).collect();
    let requests: Vec<PairRequest> = days.iter().map(|&t| PairRequest::new(t, 0, 1)).collect();
    let inst = SteinerInstance::new(g, structure(), requests).unwrap();
    let steiner = drive(
        SteinerLeasingOnline::new(&inst),
        &inst.structure,
        inst.requests(),
    );
    let steiner_cost = steiner.cost();

    let scaled = inst.scaled_structure(0);
    let permit = drive(
        DeterministicPrimalDual::new(scaled.clone()),
        &scaled,
        days.iter().map(|&t| (t, ())),
    );
    assert!(
        (steiner_cost - permit.cost()).abs() < 1e-9,
        "steiner {steiner_cost} vs permit {}",
        permit.cost()
    );
}

/// Online Steiner leasing is sandwiched between the exact ILP optimum and
/// the naive per-request baseline on tiny instances.
#[test]
fn steiner_online_sandwiched_between_opt_and_naive() {
    let mut rng = seeded(22);
    for trial in 0..5u64 {
        let g = connected_erdos_renyi(&mut rng, 5, 0.4, 1.0..3.0);
        let mut requests = Vec::new();
        let mut t = 0u64;
        for _ in 0..4 {
            t += rng.random_range(0..4u64);
            let u = rng.random_range(0..5);
            let mut v = rng.random_range(0..5);
            if v == u {
                v = (v + 1) % 5;
            }
            requests.push(PairRequest::new(t, u, v));
        }
        let inst = SteinerInstance::new(g, structure(), requests).unwrap();
        let Ok(opt) = steiner_ilp::steiner_optimal_cost(&inst, 200, 300_000) else {
            continue; // path explosion: skip this trial
        };
        let online = drive(
            SteinerLeasingOnline::new(&inst),
            &inst.structure,
            inst.requests(),
        );
        let online_cost = online.cost();
        let naive = steiner_offline::buy_per_request(&inst).cost;
        assert!(
            online_cost >= opt - 1e-6,
            "trial {trial}: online {online_cost} < opt {opt}"
        );
        assert!(
            naive >= opt - 1e-6,
            "trial {trial}: naive {naive} < opt {opt} (must be feasible)"
        );
    }
}

/// The direct vertex-cover primal-dual and the Chapter 3 randomized
/// reduction solve the same instances; both must be feasible, and the
/// direct algorithm must respect its 2K·Opt guarantee against the reduced
/// ILP optimum.
#[test]
fn vertex_cover_direct_vs_reduction() {
    let mut rng = seeded(33);
    for trial in 0..5u64 {
        let g = connected_erdos_renyi(&mut rng, 6, 0.4, 1.0..2.0);
        let mut arrivals: Vec<(u64, usize)> = Vec::new();
        let mut t = 0u64;
        for _ in 0..8 {
            t += rng.random_range(0..3u64);
            arrivals.push((t, rng.random_range(0..g.num_edges())));
        }
        // Direct primal-dual.
        let vc = VcLeasingInstance::unweighted(g.clone(), structure(), arrivals.clone()).unwrap();
        let direct = drive(VcPrimalDual::new(&vc), &vc.structure, vc.requests());
        let direct_cost = direct.cost();
        assert!(vc_feasible(&vc, |t| direct.ledger().owns(t)));

        // Randomized reduction through set multicover leasing.
        let reduced = vertex_cover_instance(&g, structure(), &arrivals, None).unwrap();
        let randomized = drive(
            SmclOnline::new(&reduced, 4040 + trial),
            &reduced.structure,
            reduced.requests(),
        );
        let randomized_cost = randomized.cost();
        assert!(is_feasible_cover(&reduced, |t| randomized.ledger().owns(t)));

        // Both are online, so both are above the optimum; the direct one is
        // also below its deterministic guarantee.
        let opt = sc_offline::optimal_cost(&reduced, 400_000).expect("small instance");
        assert!(direct_cost >= opt - 1e-6);
        assert!(randomized_cost >= opt - 1e-6);
        let guarantee = 2.0 * structure().num_types() as f64 * opt;
        assert!(
            direct_cost <= guarantee + 1e-6,
            "trial {trial}: direct {direct_cost} vs 2K·Opt {guarantee}"
        );
    }
}

/// Dominating set leasing on a star: the hub dominates everyone, so the
/// optimum is a single lease whenever all arrivals fit one window.
#[test]
fn dominating_set_star_optimum_is_one_hub_lease() {
    let g = Graph::new(5, vec![(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (0, 4, 1.0)]).unwrap();
    let arrivals: Vec<(u64, usize, usize)> = vec![(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)];
    let inst = dominating_set_instance(&g, structure(), &arrivals).unwrap();
    let opt = sc_offline::optimal_cost(&inst, 400_000).expect("small instance");
    // The hub covers everyone; two aligned 2-step hub leases (t ∈ [0,2) and
    // [2,4)) cost 2, beating the 8-step lease at 3.
    assert!((opt - 2.0).abs() < 1e-6, "opt {opt}");
}

/// The distributed phase-2 pipeline: client bids induce conflicts, both MIS
/// strategies give valid reconnection structure, and Luby stays within its
/// logarithmic round budget on bigger conflict graphs.
#[test]
fn distributed_phase2_pipeline() {
    let mut rng = seeded(44);
    let m = 40usize;
    let bids: Vec<Vec<usize>> = (0..60)
        .map(|_| {
            let k = 1 + rng.random_range(0..3);
            (0..k).map(|_| rng.random_range(0..m)).collect()
        })
        .collect();
    let inst = ConflictInstance::from_bids(m, &bids);
    let seq = resolve_conflicts(&inst, MisStrategy::SequentialGreedy);
    let dist = resolve_conflicts(&inst, MisStrategy::DistributedLuby { seed: 5 });
    assert!(online_resource_leasing::distributed::is_mis(
        &inst.graph(),
        &seq.chosen
    ));
    assert!(online_resource_leasing::distributed::is_mis(
        &inst.graph(),
        &dist.chosen
    ));
    let stats = dist.stats.expect("distributed run reports stats");
    assert!(stats.terminated);
    assert!(
        stats.rounds <= 90 + 60 * m.ilog2() as usize,
        "rounds {} exceed the budget",
        stats.rounds
    );
}
