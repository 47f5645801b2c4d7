//! **Set multicover leasing** (thesis Chapter 3).
//!
//! Elements arrive over time, each demanding to be covered by `p` *different*
//! sets that contain it and hold an active lease; sets can be leased for `K`
//! different durations. The randomized online algorithm of Abshoff,
//! Markarian and Meyer auf der Heide (Algorithms 3 and 4) is
//! `O(log(δK) · log n)`-competitive (Theorem 3.3), which specialises to
//!
//! * the first competitive online algorithm for **SetCoverLeasing**
//!   (`p = 1`),
//! * an optimal `O(log δ · log n)` algorithm for **OnlineSetMulticover**
//!   (`K = 1`, `l_1 = ∞`; Corollary 3.4),
//! * an improved `O(log δ · log(δn))` algorithm for
//!   **OnlineSetCoverWithRepetitions** (Corollary 3.5).
//!
//! Modules:
//!
//! * [`system`] — validated set systems with `δ` (max membership) and `Δ`
//!   (max set size) statistics,
//! * [`instance`] — full problem instances (system + lease structure + per
//!   set/type costs + timed arrivals),
//! * [`online`] — the randomized online algorithm with its layering scheme
//!   (Figure 3.3) and fractional-cost instrumentation (Lemma 3.1),
//! * [`repetitions`] — the Corollary 3.5 wrapper for repeated arrivals,
//! * [`offline`] — offline baselines: the Figure 3.2 ILP (via
//!   [`leasing_lp`]), its LP relaxation, and a greedy `O(log)`
//!   approximation.
//!
//! # Example
//!
//! ```
//! use set_cover_leasing::system::SetSystem;
//! use set_cover_leasing::instance::{Arrival, SmclInstance};
//! use set_cover_leasing::online::SmclOnline;
//! use leasing_core::engine::Driver;
//! use leasing_core::lease::{LeaseStructure, LeaseType};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let system = SetSystem::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]])?;
//! let lengths = LeaseStructure::new(vec![LeaseType::new(4, 1.0), LeaseType::new(16, 3.0)])?;
//! let instance = SmclInstance::uniform(system, lengths, vec![
//!     Arrival::new(0, 1, 2), // element 1 wants 2 different sets at time 0
//!     Arrival::new(5, 0, 1),
//! ])?;
//! let mut driver = Driver::new(SmclOnline::new(&instance, 42), instance.structure.clone());
//! driver.submit_batch(instance.requests())?;
//! assert!(driver.cost() > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod instance;
pub mod lower_bounds;
pub mod offline;
pub mod online;
pub mod repetitions;
pub mod system;

pub use instance::{Arrival, SmclInstance};
pub use lower_bounds::{drive_halving_adversary, drive_ppp_embedding, DrivenOutcome};
pub use online::SmclOnline;
pub use system::SetSystem;
