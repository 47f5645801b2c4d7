//! **Facility leasing** (thesis Chapter 4).
//!
//! Clients arrive over time and must be connected, at their arrival step, to
//! a facility holding an active lease; facilities can be leased for `K`
//! durations, and connections cost their metric distance. The primal-dual
//! online algorithm of Kling, Meyer auf der Heide and Pietrzyk maintains
//! client potentials per lease type, temporarily opens facilities whose bid
//! totals reach their lease price, and prunes them with one conflict-graph
//! MIS per lease type. Its competitive ratio is `4(3 + K)·H_{l_max}`
//! (Theorem 4.5), which collapses to `O(K log l_max) = O(log² l_max)` for
//! the "natural" arrival patterns of Corollary 4.7.
//!
//! Modules:
//!
//! * [`metric`] — metric spaces (Euclidean points, validated matrices),
//! * [`instance`] — facilities, per-type lease costs, timed client batches,
//! * [`online`] — the §4.3 primal-dual algorithm (phases 1 and 2),
//! * [`series`] — the `H_q` series of Equation 4.3 and the arrival-pattern
//!   taxonomy of Corollaries 4.6/4.7,
//! * [`baselines`] — a greedy lease-or-connect heuristic baseline,
//! * [`nagarajan_williamson`] — the sequential `O(K log n)` prior-work
//!   algorithm the thesis improves upon (§4.1),
//! * [`fld`] — facility leasing *with deadlines* (the §5.6 outlook),
//! * [`offline`] — the Figure 4.1 ILP and its LP relaxation bound.
//!
//! # Example
//!
//! ```
//! use facility_leasing::instance::FacilityInstance;
//! use facility_leasing::metric::Point;
//! use facility_leasing::online::PrimalDualFacility;
//! use leasing_core::engine::Driver;
//! use leasing_core::lease::{LeaseStructure, LeaseType};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lengths = LeaseStructure::new(vec![LeaseType::new(4, 2.0), LeaseType::new(16, 6.0)])?;
//! let instance = FacilityInstance::euclidean(
//!     vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)], // facility sites
//!     lengths,
//!     vec![
//!         (0, vec![Point::new(1.0, 0.0)]),               // one client at t=0
//!         (5, vec![Point::new(9.0, 0.0), Point::new(11.0, 0.0)]),
//!     ],
//! )?;
//! let mut driver = Driver::new(PrimalDualFacility::new(&instance), instance.structure().clone());
//! driver.submit_batch(instance.requests())?;
//! assert!(driver.cost() > 0.0);
//! assert_eq!(driver.algorithm().assignments().len(), 3); // every client connected
//! # Ok(())
//! # }
//! ```

pub mod baselines;
pub mod fld;
pub mod instance;
pub mod metric;
pub mod nagarajan_williamson;
pub mod offline;
pub mod offline_primal_dual;
pub mod online;
pub mod randomized;
pub mod series;

pub use fld::FldInstance;
pub use instance::FacilityInstance;
pub use metric::{MatrixMetric, Point};
pub use nagarajan_williamson::NagarajanWilliamson;
pub use online::PrimalDualFacility;
pub use randomized::RandomizedFacility;
