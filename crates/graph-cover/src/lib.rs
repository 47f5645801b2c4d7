//! Leasing variants of classical graph covering problems.
//!
//! The thesis names vertex cover, edge cover (Chapter 3 outlook) and
//! dominating set (§2.3) as covering problems whose leasing variants follow
//! from the leasing framework. This crate provides:
//!
//! * [`reduction`] — instance builders that reduce each problem to
//!   [`set_cover_leasing`]'s `SmclInstance`, after which the Chapter 3
//!   randomized `O(log(δK) log n)` algorithm applies with `δ = 2` (vertex
//!   cover), `δ = Δ_G` (edge cover) and `δ = Δ_G + 1` (dominating set),
//! * [`vertex_cover`] — a *direct* deterministic primal-dual algorithm for
//!   vertex cover leasing that is `2K`-competitive, the natural leasing
//!   analogue of the classical 2-approximation (used as an ablation against
//!   the randomized reduction).
//!
//! # Example
//!
//! ```
//! use graph_cover_leasing::reduction::vertex_cover_instance;
//! use leasing_core::engine::Driver;
//! use leasing_core::lease::{LeaseStructure, LeaseType};
//! use leasing_graph::graph::Graph;
//! use set_cover_leasing::online::SmclOnline;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = Graph::new(3, vec![(0, 1, 1.0), (1, 2, 1.0)])?;
//! let leases = LeaseStructure::new(vec![
//!     LeaseType::new(2, 1.0),
//!     LeaseType::new(8, 3.0),
//! ])?;
//! // Edges 0 and 1 arrive on consecutive days.
//! let instance = vertex_cover_instance(&graph, leases, &[(0, 0), (1, 1)], None)?;
//! let mut driver = Driver::new(SmclOnline::new(&instance, 7), instance.structure.clone());
//! driver.submit_batch(instance.requests())?;
//! assert!(driver.cost() > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod reduction;
pub mod vertex_cover;

pub use reduction::{dominating_set_instance, edge_cover_instance, vertex_cover_instance};
pub use vertex_cover::{VcInstanceError, VcLeasingInstance, VcPrimalDual};
