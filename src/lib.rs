//! # Online Resource Leasing
//!
//! A faithful, from-scratch Rust reproduction of *“Online Resource
//! Leasing”* (Christine Markarian, 2015; announced at PODC 2015 with
//! Friedhelm Meyer auf der Heide). This facade crate re-exports the whole
//! workspace:
//!
//! | Module | Thesis chapter | Contents |
//! |---|---|---|
//! | [`engine`] | §2.3 | **the unified driver-facing API**: [`LeasingAlgorithm`](engine::LeasingAlgorithm), [`Driver`](engine::Driver), the centralized [`Ledger`](engine::Ledger) and the [`Report`](engine::Report) summary |
//! | [`core`] | Ch. 2 | lease structures, interval model (Lemma 2.6), leasing framework (§2.3), ski rental |
//! | [`lp`] | §2.1 | from-scratch two-phase simplex (warm-startable) + branch-and-bound ILP substrate |
//! | [`oracle`] | — | offline-optimum oracles: exact DPs and certified LP lower bounds behind one [`OfflineOracle`](oracle::OfflineOracle) trait |
//! | [`covering`] | §2.1 | the online primal-dual covering core (Buchbinder–Naor) that Algorithms 2/3/5 step through: multiplicative growth, threshold rounding, cheapest fallback, online dual certificates |
//! | [`parking_permit`] | §2.2 | Meyerson's parking permit problem: deterministic `O(K)` and randomized `O(log K)` algorithms, offline DP optima, lower-bound adversaries |
//! | [`set_cover`] | Ch. 3 | set (multi)cover leasing: `O(log(δK) log n)` randomized algorithm, online set cover variants, §3.5 lower-bound adversaries |
//! | [`facility`] | Ch. 4 | facility leasing: `4(3+K)·H_{l_max}`-competitive primal-dual algorithm, the Nagarajan–Williamson `O(K log n)` prior work, and facility leasing with deadlines (§5.6) |
//! | [`deadlines`] | Ch. 5 | leasing with deadlines (OLD) and set cover leasing with deadlines (SCLD), plus the §5.6 multi-day, capacitated, specific-day-window and randomized extensions |
//! | [`graph`] | — | graph substrate (Dijkstra, Kruskal, generators) |
//! | [`steiner`] | §5.1 | Steiner tree leasing (Meyerson's companion problem) |
//! | [`graph_cover`] | §3.5 | vertex/edge/dominating-set cover leasing |
//! | [`capacitated`] | §4.5 | capacitated facility leasing and the scheduling view |
//! | [`stochastic`] | §3.5/§5.6 | demand distributions, prediction policies, price paths |
//! | [`distributed`] | §4.5 | LOCAL-model simulator, Luby MIS, distributed phase 2 |
//! | [`workloads`] | — | seeded instance generators for every experiment |
//!
//! # Quickstart
//!
//! Every online algorithm in this workspace implements
//! [`LeasingAlgorithm`](engine::LeasingAlgorithm): requests are fed through
//! a generic [`Driver`](engine::Driver) that owns the
//! [`Ledger`](engine::Ledger) — the centralized record of every purchased
//! triple `(i, k, t)` — and turns a run into a serializable
//! [`Report`](engine::Report):
//!
//! ```
//! use online_resource_leasing::core::lease::{LeaseStructure, LeaseType};
//! use online_resource_leasing::engine::Driver;
//! use online_resource_leasing::parking_permit::{det::DeterministicPrimalDual, offline};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Permits: 1 day for 1.0, 4 days for 3.0, 16 days for 8.0.
//! let permits = LeaseStructure::new(vec![
//!     LeaseType::new(1, 1.0),
//!     LeaseType::new(4, 3.0),
//!     LeaseType::new(16, 8.0),
//! ])?;
//!
//! // Rainy days arrive online; the driver enforces the online model
//! // (monotone time) with a typed error instead of a panic.
//! let rainy_days = [0u64, 1, 2, 3, 9, 10, 11];
//! let mut driver = Driver::new(DeterministicPrimalDual::new(permits.clone()), permits.clone());
//! driver.submit_batch(rainy_days.iter().map(|&day| (day, ())))?;
//!
//! // The ledger is the single source of truth for money spent.
//! let ledger = driver.ledger();
//! assert_eq!(ledger.leases_bought(), ledger.decision_count());
//!
//! // Compare against the exact offline optimum.
//! let opt = offline::optimal_cost_interval_model(&permits, &rainy_days);
//! let report = driver.report(opt);
//! assert!(report.ratio() <= permits.num_types() as f64 + 1e-9);
//! println!("{report}");
//! # Ok(())
//! # }
//! ```

/// Core leasing framework (re-export of [`leasing_core`]).
pub mod core {
    pub use leasing_core::*;
}

/// The unified leasing engine (re-export of [`leasing_core::engine`]):
/// [`LeasingAlgorithm`](engine::LeasingAlgorithm), [`Driver`](engine::Driver),
/// [`Ledger`](engine::Ledger), [`Report`](engine::Report) and
/// [`DriverError`](engine::DriverError).
pub mod engine {
    pub use leasing_core::engine::*;
}

/// LP/ILP substrate (re-export of [`leasing_lp`]).
pub mod lp {
    pub use leasing_lp::*;
}

/// Online primal-dual covering core, §2.1 (re-export of [`online_covering`]).
pub mod covering {
    pub use online_covering::*;
}

/// Parking permit problem, §2.2 (re-export of [`parking_permit`]).
pub mod parking_permit {
    pub use ::parking_permit::*;
}

/// Set (multi)cover leasing, Chapter 3 (re-export of [`set_cover_leasing`]).
pub mod set_cover {
    pub use set_cover_leasing::*;
}

/// Facility leasing, Chapter 4 (re-export of [`facility_leasing`]).
pub mod facility {
    pub use facility_leasing::*;
}

/// Leasing with deadlines, Chapter 5 (re-export of [`leasing_deadlines`]).
pub mod deadlines {
    pub use leasing_deadlines::*;
}

/// Graph substrate (re-export of [`leasing_graph`]).
pub mod graph {
    pub use leasing_graph::*;
}

/// Steiner tree leasing, §5.1 (re-export of [`steiner_leasing`]).
pub mod steiner {
    pub use steiner_leasing::*;
}

/// Graph covering leasing, Chapter 3 outlook (re-export of
/// [`graph_cover_leasing`]).
pub mod graph_cover {
    pub use graph_cover_leasing::*;
}

/// Capacitated facility leasing, Chapter 4 outlook (re-export of
/// [`capacitated_facility`]).
pub mod capacitated {
    pub use capacitated_facility::*;
}

/// Stochastic leasing, Chapters 3/5 outlook (re-export of
/// [`stochastic_leasing`]).
pub mod stochastic {
    pub use stochastic_leasing::*;
}

/// Distributed leasing, Chapter 4 outlook (re-export of
/// [`distributed_leasing`]).
pub mod distributed {
    pub use distributed_leasing::*;
}

/// Seeded workload generators (re-export of [`leasing_workloads`]).
pub mod workloads {
    pub use leasing_workloads::*;
}

/// Offline-optimum oracles — exact DPs and certified LP lower bounds
/// behind one `OfflineOracle` trait (re-export of [`leasing_oracle`]).
pub mod oracle {
    pub use leasing_oracle::*;
}

/// SimLab — the sharded scenario-matrix simulation harness (re-export of
/// [`leasing_simlab`]).
pub mod simlab {
    pub use leasing_simlab::*;
}
