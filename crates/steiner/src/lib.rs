//! **Steiner tree leasing** — the edge-leasing problem Meyerson introduced
//! alongside the parking permit problem (thesis §5.1).
//!
//! Given an undirected weighted graph, pairs of communicating nodes announce
//! themselves over time and must be connected by *leased* edges at their
//! arrival time. Leasing edge `e` with type `k` costs `w_e · c_k` and keeps
//! the edge usable for `l_k` steps. Meyerson gave an `O(log n · log K)`-
//! competitive randomized algorithm; this crate implements both the
//! deterministic (`O(log n · K)`) and the randomized composition of greedy
//! Steiner routing with per-edge parking permits, plus offline baselines and
//! an exact ILP for tiny instances.
//!
//! * [`instance`] — validated instances (graph, shared lease structure,
//!   timed pair requests),
//! * [`online`] — [`SteinerLeasingOnline`] (deterministic per-edge
//!   primal-dual permits) and [`RandomizedSteinerLeasing`] (per-edge
//!   threshold-rounding permits),
//! * [`offline`] — route-then-lease (greedy routing + exact per-edge permit
//!   DP) and the naive per-request baseline,
//! * [`ilp`] — exact path-enumeration ILP for calibration.
//!
//! # Example
//!
//! ```
//! use leasing_core::engine::Driver;
//! use leasing_core::lease::{LeaseStructure, LeaseType};
//! use leasing_graph::graph::Graph;
//! use steiner_leasing::instance::{PairRequest, SteinerInstance};
//! use steiner_leasing::online::SteinerLeasingOnline;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = Graph::new(3, vec![(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])?;
//! let leases = LeaseStructure::new(vec![
//!     LeaseType::new(2, 1.0),
//!     LeaseType::new(8, 3.0),
//! ])?;
//! let instance = SteinerInstance::new(
//!     graph,
//!     leases,
//!     vec![PairRequest::new(0, 0, 2), PairRequest::new(1, 0, 2)],
//! )?;
//! let mut driver = Driver::new(SteinerLeasingOnline::new(&instance), instance.structure.clone());
//! driver.submit_batch(instance.requests())?;
//! let cost = driver.cost();
//! // Both requests ride the cheap two-edge route; the second reuses the
//! // leases bought for the first.
//! assert!((cost - 2.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

pub mod ilp;
pub mod instance;
pub mod offline;
pub mod online;

pub use instance::{PairRequest, SteinerInstance, SteinerInstanceError};
pub use online::{RandomizedSteinerLeasing, SteinerLeasingOnline, SteinerStats};
