//! **Online leasing with deadlines** (thesis Chapter 5).
//!
//! Demands no longer need to be served on the spot: client `(t, d)` may be
//! served on any day of its window `[t, t + d]`. This only makes sense when
//! resources are *leased* (with bought resources one would always wait until
//! the deadline), and it changes the price of the problem: the deterministic
//! primal-dual algorithm of §5.3 is `O(K)`-competitive for uniform window
//! lengths and `Θ(K + d_max/l_min)`-competitive in general (Theorem 5.3,
//! tight by the Figure 5.3 example).
//!
//! Modules:
//!
//! * [`old`] — the **O**nline **L**easing with **D**eadlines problem and its
//!   deterministic primal-dual algorithm (§5.2–5.4),
//! * [`tight`] — the Proposition 5.4 / Figure 5.3 tight example,
//! * [`scld`] — **S**et **C**over **L**easing with **D**eadlines
//!   (Algorithm 5, Theorem 5.7) whose `d_max = 0` special case improves
//!   SetCoverLeasing to a *time-independent* `O(log(mK) log l_max)` ratio
//!   (Corollary 5.8),
//! * [`offline`] — the Figures 5.2/5.4 ILPs and LP bounds,
//! * [`multi_day`] — the §5.6 extension to demands needing several
//!   *consecutive* service days,
//! * [`capacitated`] — the §5.6 extension to weighted demands and leases
//!   with per-step load capacities (multiset solutions),
//! * [`windows`] — the §5.6 extension to demands servable only on
//!   *specific days* within their period (generalizes both OLD and the
//!   parking permit problem),
//! * [`randomized`] — randomized OLD via the Algorithm 5 machinery at
//!   `m = 1`, trading the additive `d_max/l_min` for a logarithm.
//!
//! # Example
//!
//! ```
//! use leasing_core::engine::Driver;
//! use leasing_core::lease::{LeaseStructure, LeaseType};
//! use leasing_deadlines::old::{OldClient, OldInstance, OldPrimalDual};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let structure = LeaseStructure::new(vec![
//!     LeaseType::new(2, 1.0),
//!     LeaseType::new(16, 3.0),
//! ])?;
//! // Clients may wait: (arrival, slack).
//! let instance = OldInstance::new(structure, vec![
//!     OldClient::new(0, 6),
//!     OldClient::new(3, 6),
//! ])?;
//! let mut driver = Driver::new(OldPrimalDual::new(&instance), instance.structure.clone());
//! driver.submit_batch(instance.requests())?;
//! assert!(driver.cost() > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod capacitated;
pub mod multi_day;
pub mod offline;
pub mod old;
pub mod randomized;
pub mod scld;
pub mod tight;
pub mod windows;

pub use capacitated::{CapacitatedOldInstance, FirstFitOnline, WeightedDemand};
pub use multi_day::{MultiDayClient, MultiDayInstance, MultiDayOnline};
pub use old::{OldClient, OldInstance, OldPrimalDual};
pub use randomized::{randomized_old, RandomizedOldRun};
pub use scld::{ScldInstance, ScldOnline};
pub use windows::{WindowClient, WindowInstance, WindowPrimalDual};
