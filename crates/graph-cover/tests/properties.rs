//! Property tests for the graph covering reductions: structural invariants
//! of each reduction (the δ values the Chapter 3 bound depends on) and
//! end-to-end feasibility through the Chapter 3 algorithm.

use graph_cover_leasing::reduction::{
    dominating_set_instance, edge_cover_instance, vertex_cover_instance,
};
use leasing_core::engine::Driver;
use leasing_core::lease::{LeaseStructure, LeaseType};
use leasing_core::rng::seeded;
use leasing_graph::generators::connected_erdos_renyi;
use proptest::prelude::*;
use rand::RngExt;
use set_cover_leasing::online::{is_feasible_cover, SmclOnline};

fn structure() -> LeaseStructure {
    LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(8, 3.0)]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Vertex cover reduction: δ is exactly 2 (every edge has two
    /// endpoints) and the universe/family sizes swap roles with the graph.
    #[test]
    fn vertex_cover_reduction_structure(seed in 0u64..300, n in 3usize..12) {
        let mut rng = seeded(seed);
        let g = connected_erdos_renyi(&mut rng, n, 0.4, 1.0..2.0);
        let inst = vertex_cover_instance(&g, structure(), &[], None).unwrap();
        prop_assert_eq!(inst.system.num_elements(), g.num_edges());
        prop_assert_eq!(inst.system.num_sets(), g.num_nodes());
        prop_assert_eq!(inst.system.delta(), 2);
        // Set sizes are vertex degrees.
        for v in 0..g.num_nodes() {
            prop_assert_eq!(inst.system.elements_of(v).len(), g.degree(v));
        }
    }

    /// Edge cover reduction: δ equals the maximum degree, and every set has
    /// exactly two elements (the edge's endpoints).
    #[test]
    fn edge_cover_reduction_structure(seed in 0u64..300, n in 3usize..12) {
        let mut rng = seeded(seed);
        let g = connected_erdos_renyi(&mut rng, n, 0.4, 1.0..2.0);
        let inst = edge_cover_instance(&g, structure(), &[], false).unwrap();
        prop_assert_eq!(inst.system.num_elements(), g.num_nodes());
        prop_assert_eq!(inst.system.num_sets(), g.num_edges());
        prop_assert_eq!(inst.system.delta(), g.max_degree());
        for e in 0..g.num_edges() {
            prop_assert_eq!(inst.system.elements_of(e).len(), 2);
        }
    }

    /// Dominating set reduction: δ is max degree + 1 (closed
    /// neighborhoods), and each set contains its own center.
    #[test]
    fn dominating_set_reduction_structure(seed in 0u64..300, n in 3usize..12) {
        let mut rng = seeded(seed);
        let g = connected_erdos_renyi(&mut rng, n, 0.4, 1.0..2.0);
        let inst = dominating_set_instance(&g, structure(), &[]).unwrap();
        prop_assert_eq!(inst.system.delta(), g.max_degree() + 1);
        for v in 0..g.num_nodes() {
            prop_assert!(inst.system.elements_of(v).contains(&v));
            prop_assert_eq!(inst.system.elements_of(v).len(), g.degree(v) + 1);
        }
    }

    /// The Chapter 3 algorithm run on any reduction is always feasible.
    #[test]
    fn chapter3_algorithm_covers_every_reduction(seed in 0u64..150) {
        let mut rng = seeded(seed);
        let g = connected_erdos_renyi(&mut rng, 6, 0.5, 1.0..2.0);
        let mut t = 0u64;
        let mut edge_arrivals = Vec::new();
        let mut node_arrivals = Vec::new();
        for _ in 0..5 {
            t += rng.random_range(0..3u64);
            edge_arrivals.push((t, rng.random_range(0..g.num_edges())));
            node_arrivals.push((t, rng.random_range(0..g.num_nodes())));
        }
        let instances = vec![
            vertex_cover_instance(&g, structure(), &edge_arrivals, None).unwrap(),
            edge_cover_instance(&g, structure(), &node_arrivals, true).unwrap(),
        ];
        for inst in instances {
            let mut alg = Driver::new(SmclOnline::new(&inst, seed ^ 0xC0FFEE), inst.structure.clone());
            alg.submit_batch(inst.requests()).unwrap();
            prop_assert!(is_feasible_cover(&inst, |t| alg.ledger().owns(t)));
        }
    }
}
