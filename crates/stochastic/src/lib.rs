//! **Stochastic leasing** — the distributional extensions sketched in the
//! Chapter 3 and Chapter 5 outlooks: demands drawn from a probability
//! distribution and lease prices that change over time.
//!
//! The thesis proves worst-case competitive ratios; real subcontractors have
//! last year's books. This crate quantifies the gap:
//!
//! * [`demand`] — seeded demand processes with known ground-truth rates
//!   (independent, Markov-modulated/bursty, seasonal),
//! * [`policies`] — rate-informed lease policies ([`RateThreshold`],
//!   [`EmpiricalRate`]) and the prediction-robust [`SwitchCombiner`] that
//!   hedges a prediction policy with the worst-case primal-dual,
//! * [`prices`] — bounded random-walk price paths, a price-aware
//!   primal-dual, and the exact clairvoyant DP under day-of-purchase
//!   prices.
//!
//! # Example
//!
//! ```
//! use leasing_core::engine::Driver;
//! use leasing_core::lease::{LeaseStructure, LeaseType};
//! use leasing_core::rng::seeded;
//! use stochastic_leasing::demand::{Bernoulli, DemandProcess};
//! use stochastic_leasing::policies::RateThreshold;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let structure = LeaseStructure::new(vec![
//!     LeaseType::new(1, 1.0),
//!     LeaseType::new(16, 6.0),
//! ])?;
//! let process = Bernoulli::new(64, 0.8);
//! let days = process.sample(&mut seeded(1));
//! // The policy knows the rate is high and jumps straight to long leases.
//! let mut policy = Driver::new(RateThreshold::new(structure.clone(), 0.8), structure);
//! policy.submit_batch(days.iter().map(|&t| (t, ())))?;
//! assert!(policy.ledger().covered(parking_permit::PERMIT_ELEMENT, days[0]));
//! # Ok(())
//! # }
//! ```

pub mod demand;
pub mod policies;
pub mod prices;

pub use demand::{Bernoulli, DemandProcess, MarkovModulated, Seasonal};
pub use policies::{EmpiricalRate, RateThreshold, SwitchCombiner};
pub use prices::{optimal_cost_priced, PriceAwarePermit, PricePath};
