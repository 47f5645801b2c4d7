//! **Capacitated facility leasing** — the Chapter 4 outlook extension in
//! which a leased facility can serve only a bounded number of clients per
//! time step.
//!
//! The thesis closes Chapter 4 by pointing at capacitated facility location
//! and its tight connection to scheduling ("machines are rented rather than
//! bought"). This crate builds that extension on top of
//! [`facility_leasing`]:
//!
//! * [`instance`] — [`CapacitatedInstance`]: an uncapacitated
//!   `FacilityInstance` plus per-facility clients-per-step capacities,
//! * [`online`] — [`CapacitatedGreedy`], an online greedy with two
//!   lease-type rules ([`LeaseChoice::CheapestTotal`] vs
//!   [`LeaseChoice::BestRate`]) used as an ablation pair,
//! * [`offline`] — the Figure 4.1 ILP extended with capacity rows, solved
//!   exactly on small instances, plus its LP lower bound,
//! * [`scheduling`] — the machine-renting adapter realizing the thesis'
//!   scheduling correspondence.
//!
//! # Example
//!
//! ```
//! use capacitated_facility::instance::CapacitatedInstance;
//! use capacitated_facility::online::{CapacitatedGreedy, LeaseChoice};
//! use facility_leasing::instance::FacilityInstance;
//! use facility_leasing::metric::Point;
//! use leasing_core::engine::Driver;
//! use leasing_core::lease::{LeaseStructure, LeaseType};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let leases = LeaseStructure::new(vec![
//!     LeaseType::new(2, 1.0),
//!     LeaseType::new(8, 3.0),
//! ])?;
//! let base = FacilityInstance::euclidean(
//!     vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)],
//!     leases,
//!     vec![(0, vec![Point::new(0.0, 0.0), Point::new(0.2, 0.0)])],
//! )?;
//! // Capacity 1 forces the second client to a different facility.
//! let instance = CapacitatedInstance::uniform(base, 1)?;
//! let greedy = CapacitatedGreedy::new(&instance, LeaseChoice::CheapestTotal);
//! let mut driver = Driver::new(greedy, instance.base.structure().clone());
//! driver.submit_batch(instance.base.requests())?;
//! assert!(driver.cost() > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod instance;
pub mod offline;
pub mod online;
pub mod scheduling;

pub use instance::{CapacitatedError, CapacitatedInstance};
pub use online::{CapacitatedGreedy, LeaseChoice};
pub use scheduling::{to_capacitated, JobBatch, Machine};
