//! **online-covering** — the online primal-dual covering core behind the
//! thesis' randomized algorithms.
//!
//! Section 2.1 of *Online Resource Leasing* (Markarian, 2015) introduces the
//! primal-dual method as the unifying design technique of the thesis; the
//! randomized algorithms of Chapters 2, 3 and 5 all instantiate the same
//! scheme (due to Buchbinder–Naor, the thesis' references [27, 28]):
//!
//! 1. **Fractional phase** — on each arriving demand, grow the fractions of
//!    its candidate leases multiplicatively until they sum to one
//!    ([`grow`], run by [`FractionalCovering`] over a variable table).
//! 2. **Rounding phase** — convert the fractional solution to an integral
//!    one online, either with per-variable thresholds (`min` of `q`
//!    uniforms; [`ThresholdSampler`], Chapters 3/5) or with the suffix-sum
//!    single-τ coupling ([`suffix_crossing`], Chapter 2).
//! 3. **Fallback** — buy the cheapest candidate if rounding left the demand
//!    uncovered ([`CoveringEngine`]).
//!
//! The problem crates step through this one core: the randomized parking
//! permit (`parking-permit`) runs [`grow`] and [`suffix_crossing`] on its
//! `K` live slots, and set multicover leasing (`set-cover-leasing`) and
//! SCLD (`leasing-deadlines`) build candidate triples and call
//! [`CoveringEngine::serve`], which buys into the ledger's books. Each
//! also reports the **online dual certificate** ([`DualCertificate`]): a
//! certified lower bound on the offline optimum, produced as a by-product
//! of the fractional update via weak duality (Theorem 2.3) — no LP or ILP
//! solve required.
//!
//! ```
//! use leasing_core::engine::{Books, Ledger};
//! use leasing_core::framework::Triple;
//! use leasing_core::lease::{LeaseStructure, LeaseType};
//! use online_covering::CoveringEngine;
//!
//! // Lease a meeting room: each demand is "some candidate lease must be
//! // active"; the engine grows fractions, rounds, and certifies.
//! let structure =
//!     LeaseStructure::new(vec![LeaseType::new(1, 1.0), LeaseType::new(8, 5.0)]).unwrap();
//! let mut ledger = Ledger::new(structure);
//! let mut engine = CoveringEngine::new(4, 42);
//! for day in 0..6u64 {
//!     let candidates = [(Triple::new(0, 0, day), 1.0), (Triple::new(0, 1, 0), 5.0)];
//!     engine.serve(day, &candidates, &mut Books::new(&mut ledger));
//! }
//! let cert = engine.certificate();
//! assert!(cert.lower_bound <= ledger.total_cost());
//! assert!(ledger.total_cost() > 0.0);
//! ```

pub mod engine;
pub mod fractional;
pub mod rounding;

pub use engine::{CoveringEngine, CoveringStats};
pub use fractional::{grow, DualCertificate, FractionalCovering};
pub use rounding::{suffix_crossing, ThresholdSampler};
