//! The unified leasing engine: one decision-oriented API over every
//! problem crate in the workspace.
//!
//! The thesis's leasing framework (§2.3) is a single abstraction — demands
//! arrive online and the algorithm irrevocably buys triples `(i, k, t)`
//! from the infrastructure leasing set `Ī = I × {1..K} × ℕ`. This module
//! makes that abstraction the driver-facing API:
//!
//! * [`Ledger`] — the centralized, serializable record of every purchase:
//!   incremental cost (total and per interned category), the active-lease
//!   expiry timeline, the full decision trace and per-element statistics.
//!   Every online algorithm in the problem crates records money *only*
//!   through the ledger instead of keeping a private `total_cost`
//!   accumulator (the `online_covering` substrate and the offline
//!   baselines keep their own meters — they are not driver-facing).
//! * **Coverage index** — the ledger also maintains, incrementally on
//!   every purchase, a flat per-element index ([`coverage`]): sorted
//!   start-time runs per `(element, lease type)` slot plus a *merged
//!   coverage profile* per element (the union of every purchased validity
//!   window as disjoint intervals). Point and window coverage queries —
//!   [`Ledger::covered`], [`Ledger::covered_during`] — are one binary
//!   search over a handful of merged intervals; [`Ledger::active_lease`],
//!   [`Ledger::active_lease_of_type`] and [`Ledger::owns`] are `O(log n)`
//!   searches over contiguous start runs; [`Ledger::active_count`] is two
//!   binary searches over a lazily built (mutation-invalidated) stabbing
//!   index, independent of both the element count and the decision
//!   count. The index is append-only — queries are valid at *any* time
//!   step, past, present or future — with an opt-in [`Ledger::compact`]
//!   that prunes long-expired entries for unbounded streams. Arrivals are
//!   near-sorted in every workload, so maintaining the index is an
//!   amortized O(1) append per purchase with **zero steady-state
//!   allocation** — see `bench_driver`/`bench_coverage` in
//!   `BENCH_driver.json`.
//! * [`LeasingAlgorithm`] — the trait every online algorithm implements:
//!   `on_request(&mut self, t, request, Books<'_>)` serves one request
//!   immediately and irrevocably, recording purchases through the
//!   [`Books`] — the narrowed, algorithm-facing view of the ledger
//!   (queries by deref, mutation limited to `buy`/`buy_priced`/`charge`).
//! * [`Driver`] — feeds a request stream to an algorithm: one serve loop
//!   ([`Driver::submit_at`]) behind every submission entry point, one
//!   monotone-time check reporting [`DriverError`] (no panics), ledger
//!   ownership, [`EngineStats`], bit-exact snapshot/restore and [`Report`]
//!   generation.
//! * [`EngineHandle`] — an erased `Driver` plus snapshot/restore: a boxed
//!   policy bound to its own arena-backed ledger, dereferencing to the
//!   driver — what the SimLab harness holds per worker.
//! * [`Report`] — cost, offline optimum, competitive ratio and decision
//!   counts in one serializable summary, consumed uniformly by tests,
//!   examples and the bench binaries.
//!
//! # Example
//!
//! ```
//! use leasing_core::engine::{Books, Driver, LeasingAlgorithm};
//! use leasing_core::framework::Triple;
//! use leasing_core::interval::aligned_start;
//! use leasing_core::lease::{LeaseStructure, LeaseType};
//! use leasing_core::time::TimeStep;
//!
//! /// Covers every demand with the shortest lease.
//! struct ShortLease;
//!
//! impl LeasingAlgorithm for ShortLease {
//!     type Request = ();
//!     fn on_request(&mut self, t: TimeStep, _req: (), mut books: Books<'_>) {
//!         if !books.covered(0, t) {
//!             let start = aligned_start(t, books.structure().unwrap().length(0));
//!             books.buy(t, Triple::new(0, 0, start));
//!         }
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let permits = LeaseStructure::new(vec![LeaseType::new(4, 3.0)])?;
//! let mut driver = Driver::new(ShortLease, permits);
//! driver.submit_batch([(0u64, ()), (1, ()), (9, ())])?;
//! let report = driver.report(6.0);
//! assert_eq!(report.leases_bought, 2);
//! assert!((report.algorithm_cost - 6.0).abs() < 1e-9);
//! assert!((report.ratio() - 1.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

mod books;
mod coverage;
mod expiry;
mod handle;
mod ledger;

pub use books::Books;
pub use coverage::{CoverageStats, FxHashMap, FxHasher};
pub use handle::{EngineHandle, EngineStats, ENGINE_SNAPSHOT_SCHEMA};
pub use ledger::{
    Decision, DecisionRetention, ElementStats, Ledger, SnapshotError, CATEGORY_CONNECTION,
    CATEGORY_LEASE, LEDGER_SNAPSHOT_SCHEMA,
};

use crate::harness::CompetitiveOutcome;
use crate::lease::LeaseStructure;
use crate::time::TimeStep;
use serde::{json, Deserialize, Serialize};

/// Why a [`Driver`] rejected a submission.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DriverError {
    /// A request arrived with a smaller time stamp than its predecessor —
    /// the online model (§2.1) reveals requests in non-decreasing time
    /// order.
    TimeTravel {
        /// Time of the latest accepted request.
        previous: TimeStep,
        /// Time of the rejected request.
        attempted: TimeStep,
    },
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::TimeTravel {
                previous,
                attempted,
            } => write!(
                f,
                "request at time {attempted} precedes the previous request at time {previous} \
                 (requests must arrive in non-decreasing time order)"
            ),
        }
    }
}

impl std::error::Error for DriverError {}

/// The driver-facing trait of every online leasing algorithm in the
/// workspace.
///
/// Requests arrive in non-decreasing time order (enforced by the
/// [`Driver`]); the algorithm serves each immediately and irrevocably,
/// recording every purchase through the passed [`Books`] — the narrowed
/// view of the driver-owned [`Ledger`], the single source of truth for
/// money spent.
pub trait LeasingAlgorithm {
    /// One unit of input revealed at a time step (a demand, a client batch,
    /// an edge arrival, ...).
    type Request;

    /// Serves the request arriving at `time`, recording purchases into
    /// `books`.
    fn on_request(&mut self, time: TimeStep, request: Self::Request, books: Books<'_>);
}

/// Mutable references forward, so a caller can drive an algorithm it still
/// owns — e.g. box `&mut alg` into an [`EngineHandle`], run the stream,
/// then read `alg`'s final state (dual values, purchase logs) directly.
impl<A: LeasingAlgorithm + ?Sized> LeasingAlgorithm for &mut A {
    type Request = A::Request;

    fn on_request(&mut self, time: TimeStep, request: A::Request, books: Books<'_>) {
        (**self).on_request(time, request, books);
    }
}

/// Boxes forward, making `Box<dyn LeasingAlgorithm<Request = R>>` itself an
/// algorithm — the type-erasure [`EngineHandle`] is built on.
impl<A: LeasingAlgorithm + ?Sized> LeasingAlgorithm for Box<A> {
    type Request = A::Request;

    fn on_request(&mut self, time: TimeStep, request: A::Request, books: Books<'_>) {
        (**self).on_request(time, request, books);
    }
}

/// Generic driver: owns the [`Ledger`], feeds requests to a
/// [`LeasingAlgorithm`] and enforces the online model's monotone arrival
/// order with a typed error instead of a panic.
#[derive(Clone, Debug)]
pub struct Driver<A> {
    algorithm: A,
    ledger: Ledger,
    last_time: Option<TimeStep>,
    requests: usize,
}

impl<A: LeasingAlgorithm> Driver<A> {
    /// A driver whose ledger prices and windows leases with `structure`.
    pub fn new(algorithm: A, structure: LeaseStructure) -> Self {
        Driver::with_ledger(algorithm, Ledger::new(structure))
    }

    /// A driver with a structure-less ledger (for algorithms that price
    /// every purchase explicitly via [`Ledger::buy_priced`]).
    pub fn detached(algorithm: A) -> Self {
        Driver::with_ledger(algorithm, Ledger::detached())
    }

    /// A driver over a caller-provided ledger — the arena-reuse path.
    /// Long-lived workers recycle one ledger across runs
    /// ([`Ledger::reset`] keeps its allocations); a freshly reset ledger
    /// makes this identical to [`Driver::new`] with its structure.
    pub fn with_ledger(algorithm: A, ledger: Ledger) -> Self {
        Driver {
            algorithm,
            ledger,
            last_time: None,
            requests: 0,
        }
    }

    /// The driver's one monotone-time check: `time` must not precede the
    /// latest accepted request or advance.
    fn check_monotone(&self, time: TimeStep) -> Result<(), DriverError> {
        match self.last_time {
            Some(previous) if time < previous => Err(DriverError::TimeTravel {
                previous,
                attempted: time,
            }),
            _ => Ok(()),
        }
    }

    /// Submits one request.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::TimeTravel`] when `time` is smaller than the
    /// previous request's time; the request is not served.
    pub fn submit(&mut self, time: TimeStep, request: A::Request) -> Result<(), DriverError> {
        self.submit_at(time, std::iter::once(request)).map(drop)
    }

    /// Submits a whole time-stamped request sequence.
    ///
    /// Expiry processing is batched per distinct time step: the ledger
    /// clock advances (and drains the expiry timeline) only when the time
    /// stamp actually increases, so equal-time runs pay for one
    /// advancement.
    ///
    /// # Errors
    ///
    /// Stops at and returns the first [`DriverError`]; earlier requests
    /// stay served.
    pub fn submit_batch(
        &mut self,
        requests: impl IntoIterator<Item = (TimeStep, A::Request)>,
    ) -> Result<(), DriverError> {
        for (t, r) in requests {
            self.submit(t, r)?;
        }
        Ok(())
    }

    /// Submits every request of one time step — the serve loop behind
    /// every submission entry point: the monotonicity check and the
    /// expiry advancement run once, then all requests are served at
    /// `time`. Returns how many requests were served.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::TimeTravel`] (serving nothing) when `time`
    /// precedes the previous request's time.
    pub fn submit_at(
        &mut self,
        time: TimeStep,
        requests: impl IntoIterator<Item = A::Request>,
    ) -> Result<usize, DriverError> {
        self.advance(time)?;
        let mut served = 0;
        for request in requests {
            self.algorithm
                .on_request(time, request, Books::new(&mut self.ledger));
            served += 1;
        }
        self.requests += served;
        Ok(served)
    }

    /// Submits a column-shaped batch: `times[i]` stamps the `i`-th request
    /// pulled from `requests`. Each equal-time run of the column is one
    /// [`submit_at`](Driver::submit_at) call, so every distinct time pays
    /// for exactly one clock/expiry advancement. Serving order is
    /// identical to a loop of [`Driver::submit`] calls, so the ledger —
    /// decision trace, f64 cost accumulation order, expiry timeline — is
    /// bit-identical to the per-request path.
    ///
    /// Returns how many requests were served. When `requests` yields fewer
    /// items than `times` has entries, serving stops with the requests
    /// (extra times are ignored, and an exhausted iterator never moves the
    /// clock); extra requests beyond the times column are never pulled.
    ///
    /// # Errors
    ///
    /// Stops at the first out-of-order time stamp and returns
    /// [`DriverError::TimeTravel`]; requests before the violation stay
    /// served, exactly like [`Driver::submit_batch`].
    pub fn submit_columns(
        &mut self,
        times: &[TimeStep],
        requests: impl IntoIterator<Item = A::Request>,
    ) -> Result<usize, DriverError> {
        let mut requests = requests.into_iter().peekable();
        let mut served = 0;
        let mut rest = times;
        while let Some(&time) = rest.first() {
            // A violation is reported even when the requests ran out
            // exactly at it, as if the column had been validated up front.
            self.check_monotone(time)?;
            if requests.peek().is_none() {
                break;
            }
            let run = rest.iter().take_while(|&&t| t == time).count();
            let served_run = self.submit_at(time, requests.by_ref().take(run))?;
            served += served_run;
            if served_run < run {
                break;
            }
            rest = rest.get(run..).unwrap_or_default();
        }
        Ok(served)
    }

    /// Advances the ledger clock to `time` without serving a request,
    /// expiring leases whose windows end at or before it. Returns how many
    /// leases expired. The advanced-to time participates in the monotone
    /// arrival order: later submissions must not precede it.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::TimeTravel`] when `time` precedes the
    /// previous request's (or advance's) time.
    pub fn advance(&mut self, time: TimeStep) -> Result<usize, DriverError> {
        self.check_monotone(time)?;
        self.last_time = Some(time);
        Ok(self.ledger.advance(time))
    }

    /// Compacts the ledger's coverage index ([`Ledger::compact`]) —
    /// long-running drivers on unbounded streams call this periodically
    /// with a horizon their algorithm will never look behind.
    pub fn compact(&mut self, before_t: TimeStep) -> usize {
        self.ledger.compact(before_t)
    }

    /// Switches the ledger's decision-retention policy
    /// ([`Ledger::set_retention`]) — `Bounded(n)`/`AggregateOnly` cap the
    /// decision trace for flat-memory unbounded streams; every aggregate,
    /// coverage query and report stays exactly identical to `Full`.
    pub fn set_retention(&mut self, retention: DecisionRetention) {
        self.ledger.set_retention(retention);
    }

    /// The ledger's active [`DecisionRetention`] policy.
    pub fn retention(&self) -> DecisionRetention {
        self.ledger.retention()
    }

    /// Reserves decision-trace capacity ([`Ledger::reserve_decisions`]) —
    /// the companion hint for streams whose arrival count is known up
    /// front, pairing with [`submit_columns`](Driver::submit_columns) on
    /// the mega-scale tier.
    pub fn reserve_decisions(&mut self, additional: usize) {
        self.ledger.reserve_decisions(additional);
    }

    /// The algorithm being driven.
    pub fn algorithm(&self) -> &A {
        &self.algorithm
    }

    /// The ledger accumulated so far.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Total cost recorded so far.
    pub fn cost(&self) -> f64 {
        self.ledger.total_cost()
    }

    /// Number of requests served.
    pub fn requests(&self) -> usize {
        self.requests
    }

    /// Summarizes the run against a (lower bound on the) offline optimum.
    pub fn report(&self, optimum_cost: f64) -> Report {
        Report {
            algorithm_cost: self.ledger.total_cost(),
            optimum_cost,
            requests: self.requests,
            decisions: self.ledger.decision_count(),
            leases_bought: self.ledger.leases_bought(),
            cost_by_category: self
                .ledger
                .cost_breakdown()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }

    /// Releases the algorithm and the ledger.
    pub fn into_parts(self) -> (A, Ledger) {
        (self.algorithm, self.ledger)
    }
}

/// Summary of one online run against an offline optimum — the uniform
/// output consumed by tests, examples and the bench binaries.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Money the online algorithm spent.
    pub algorithm_cost: f64,
    /// The offline optimum (or a certified lower bound on it, in which
    /// case [`ratio`](Report::ratio) over-estimates — the safe direction).
    pub optimum_cost: f64,
    /// Requests served.
    pub requests: usize,
    /// Ledger decisions recorded (purchases plus charges).
    pub decisions: usize,
    /// Leases bought.
    pub leases_bought: usize,
    /// Per-category spending, ordered by category name.
    pub cost_by_category: Vec<(String, f64)>,
}

impl Report {
    /// The empirical competitive ratio (`0/0 = 1`, `x/0 = ∞`).
    pub fn ratio(&self) -> f64 {
        CompetitiveOutcome::new(self.algorithm_cost, self.optimum_cost).ratio()
    }

    /// Serializes the report to compact JSON.
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "alg={:.4} opt={:.4} ratio={:.4} requests={} decisions={} leases={}",
            self.algorithm_cost,
            self.optimum_cost,
            self.ratio(),
            self.requests,
            self.decisions,
            self.leases_bought
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::Triple;
    use crate::interval::aligned_start;
    use crate::lease::LeaseType;
    use crate::time::Window;
    use std::borrow::Cow;

    fn structure() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(4, 1.0), LeaseType::new(16, 3.0)]).unwrap()
    }

    /// Buys the shortest candidate covering each request's day, once.
    struct ShortBuyer {
        owned: std::collections::HashSet<Triple>,
    }

    impl LeasingAlgorithm for ShortBuyer {
        type Request = ();
        fn on_request(&mut self, t: TimeStep, _req: (), mut books: Books<'_>) {
            let len = books.structure().unwrap().length(0);
            let triple = Triple::new(0, 0, aligned_start(t, len));
            if self.owned.insert(triple) {
                books.buy(t, triple);
            }
        }
    }

    fn driver() -> Driver<ShortBuyer> {
        Driver::new(
            ShortBuyer {
                owned: std::collections::HashSet::new(),
            },
            structure(),
        )
    }

    #[test]
    fn ledger_tracks_costs_categories_and_elements() {
        let mut ledger = Ledger::new(structure());
        ledger.buy(0, Triple::new(7, 0, 0));
        ledger.buy_priced(1, Triple::new(7, 1, 0), 2.5, "rounded");
        ledger.charge(1, 3, 0.5, "connection");
        assert!((ledger.total_cost() - 4.0).abs() < 1e-12);
        assert!((ledger.category_cost(CATEGORY_LEASE) - 1.0).abs() < 1e-12);
        assert!((ledger.category_cost("rounded") - 2.5).abs() < 1e-12);
        assert!((ledger.category_cost("connection") - 0.5).abs() < 1e-12);
        assert_eq!(ledger.decision_count(), 3);
        assert_eq!(ledger.leases_bought(), 2);
        let stats = ledger.element_stats(7);
        assert_eq!(stats.leases, 2);
        assert!((stats.lease_cost - 3.5).abs() < 1e-12);
        assert!((ledger.element_stats(3).extra_cost - 0.5).abs() < 1e-12);
        assert_eq!(ledger.elements().count(), 2);
    }

    #[test]
    fn cost_breakdown_is_ordered_by_name_regardless_of_first_use() {
        let mut ledger = Ledger::new(structure());
        ledger.charge(0, 0, 1.0, "zeta");
        ledger.charge(0, 0, 2.0, "alpha");
        ledger.buy(0, Triple::new(0, 0, 0));
        ledger.charge(1, 0, 4.0, "zeta");
        let breakdown: Vec<(&str, f64)> = ledger.cost_breakdown().collect();
        assert_eq!(
            breakdown,
            vec![("alpha", 2.0), ("lease", 1.0), ("zeta", 5.0)],
            "name order, not first-use order"
        );
        assert_eq!(ledger.interned_categories(), 3);
    }

    #[test]
    fn categories_intern_once_however_many_purchases() {
        let mut ledger = Ledger::new(structure());
        for i in 0..10_000u64 {
            ledger.buy(i, Triple::new(0, 0, i));
        }
        assert_eq!(
            ledger.interned_categories(),
            1,
            "one category entry — the purchase path never clones the key again"
        );
        assert!((ledger.category_cost(CATEGORY_LEASE) - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn expiry_timeline_pops_in_order_as_time_advances() {
        let mut ledger = Ledger::new(structure());
        ledger.buy(0, Triple::new(0, 0, 0)); // expires at 4
        ledger.buy(0, Triple::new(0, 1, 0)); // expires at 16
        ledger.buy(2, Triple::new(1, 0, 0)); // expires at 4
        assert_eq!(ledger.active_leases(), 3);
        assert_eq!(ledger.next_expiry(), Some(4));
        assert_eq!(ledger.advance(3), 0);
        assert_eq!(ledger.advance(4), 2);
        assert_eq!(ledger.active_leases(), 1);
        assert_eq!(ledger.next_expiry(), Some(16));
        assert_eq!(ledger.advance(40), 1);
        assert_eq!(ledger.active_leases(), 0);
        assert_eq!(ledger.next_expiry(), None);
    }

    #[test]
    fn already_expired_purchases_never_enter_the_timeline() {
        let mut ledger = Ledger::new(structure());
        ledger.advance(100);
        ledger.buy(100, Triple::new(0, 0, 0)); // window [0, 4) is long gone
        assert_eq!(ledger.active_leases(), 0);
    }

    // Expiry semantics pinned by the PR 2 audit: duplicate purchases,
    // past-time windows and non-monotone advance calls under batch
    // submission must all behave deterministically.

    #[test]
    fn duplicate_triple_purchases_each_occupy_an_expiry_slot() {
        let mut ledger = Ledger::new(structure());
        let tr = Triple::new(0, 0, 0); // window [0, 4)
        ledger.buy(0, tr);
        ledger.buy(1, tr); // double spend on the same lease
        assert_eq!(
            ledger.active_leases(),
            2,
            "the timeline tracks purchases, not distinct triples"
        );
        assert_eq!(ledger.leases_bought(), 2);
        assert_eq!(ledger.next_expiry(), Some(4));
        assert_eq!(
            ledger.advance(4),
            2,
            "every purchased instance expires at the shared window end"
        );
        assert_eq!(ledger.active_leases(), 0);
    }

    #[test]
    fn decision_times_do_not_move_the_clock() {
        let mut ledger = Ledger::new(structure());
        ledger.buy(10, Triple::new(0, 0, 8)); // window [8, 12)
        assert_eq!(ledger.now(), 0, "only advance() moves the clock");
        assert_eq!(ledger.active_leases(), 1);
        // The window end is exclusive: alive at 11, expired at 12.
        assert_eq!(ledger.advance(11), 0);
        assert_eq!(ledger.advance(12), 1);
    }

    #[test]
    fn advance_never_rewinds_and_is_idempotent() {
        let mut ledger = Ledger::new(structure());
        ledger.buy(0, Triple::new(0, 0, 0)); // [0, 4)
        ledger.buy(0, Triple::new(0, 1, 0)); // [0, 16)
        assert_eq!(ledger.advance(5), 1);
        assert_eq!(ledger.now(), 5);
        assert_eq!(ledger.advance(3), 0, "past times never rewind the clock");
        assert_eq!(ledger.now(), 5);
        assert_eq!(ledger.advance(5), 0, "re-advancing to now is a no-op");
        assert_eq!(ledger.active_leases(), 1);
    }

    /// Buys the aligned short lease of `t.saturating_sub(5)` at every
    /// request — a deliberately backdated purchase whose window may already
    /// have ended by the time it is recorded.
    struct BackdatedBuyer;

    impl LeasingAlgorithm for BackdatedBuyer {
        type Request = ();
        fn on_request(&mut self, t: TimeStep, _req: (), mut books: Books<'_>) {
            let len = books.structure().unwrap().length(0);
            let start = aligned_start(t.saturating_sub(5), len);
            books.buy(t, Triple::new(0, 0, start));
        }
    }

    #[test]
    fn backdated_purchases_under_batch_submission_never_linger_in_the_timeline() {
        let mut d = Driver::new(BackdatedBuyer, structure());
        // t = 0: buys [0, 4) (alive). t = 9: buys aligned(4) = [4, 8),
        // whose window already ended at the ledger clock 9 — it must not
        // enter the timeline. t = 10: buys aligned(5) = [4, 8), same story.
        d.submit_batch([(0u64, ()), (9, ()), (10, ())]).unwrap();
        assert_eq!(d.ledger().leases_bought(), 3);
        assert_eq!(
            d.ledger().active_leases(),
            0,
            "the [0,4) lease expired at t = 9 and the backdated buys never entered"
        );
        assert_eq!(d.ledger().next_expiry(), None);
    }

    #[test]
    fn batch_submission_with_equal_times_advances_once() {
        let mut d = driver();
        // Repeated timestamps are legal; the dedup in ShortBuyer means one
        // lease per aligned window, and re-advancing to the same time must
        // not double-expire anything.
        d.submit_batch([(0u64, ()), (0, ()), (4, ()), (4, ()), (9, ())])
            .unwrap();
        let ledger = d.ledger();
        assert_eq!(ledger.leases_bought(), 3); // windows [0,4), [4,8), [8,12)
        assert_eq!(ledger.active_leases(), 1, "only [8, 12) is still alive");
        assert_eq!(ledger.next_expiry(), Some(12));
    }

    // Coverage-index semantics, mirroring the PR 2 expiry regression
    // suite: window boundaries, duplicate triples, backdated aligned starts
    // and equal-time batch submission must all answer deterministically.

    #[test]
    fn coverage_ends_exactly_at_the_window_boundary() {
        // Zero-length overlap at the lease expiry boundary: [0, 4) covers 3
        // but not 4, and the adjacent lease [4, 8) picks up exactly there.
        let mut ledger = Ledger::new(structure());
        ledger.buy(0, Triple::new(0, 0, 0));
        assert!(ledger.covered(0, 0) && ledger.covered(0, 3));
        assert!(!ledger.covered(0, 4), "window ends are exclusive");
        ledger.buy(4, Triple::new(0, 0, 4));
        assert!(ledger.covered(0, 4) && !ledger.covered(0, 8));
        // The boundary answer is clock-independent: advancing past the
        // first window changes nothing (the index is append-only).
        ledger.advance(4);
        assert!(ledger.covered(0, 3), "historical queries stay valid");
        assert_eq!(
            ledger.active_lease(0, 4),
            Some(Triple::new(0, 0, 4)),
            "the adjacent lease takes over at its start"
        );
    }

    #[test]
    fn duplicate_triples_cover_once_and_own_once() {
        let mut ledger = Ledger::new(structure());
        let tr = Triple::new(3, 0, 8); // [8, 12)
        ledger.buy(8, tr);
        ledger.buy(9, tr); // double spend on the same lease
        assert!(ledger.owns(tr));
        assert!(ledger.covered(3, 9));
        assert_eq!(ledger.active_lease(3, 9), Some(tr));
        assert_eq!(
            ledger.active_count(9),
            1,
            "one element, however many copies"
        );
        // Both copies still occupy expiry slots (pinned by the PR 2 suite).
        assert_eq!(ledger.active_leases(), 2);
    }

    #[test]
    fn backdated_aligned_starts_answer_from_their_true_window() {
        let mut ledger = Ledger::new(structure());
        ledger.advance(10);
        // Backdated purchase: aligned window [4, 8) recorded at clock 10,
        // after the window already ended.
        ledger.buy(10, Triple::new(0, 0, 4));
        assert!(ledger.owns(Triple::new(0, 0, 4)));
        assert!(!ledger.covered(0, 10), "the window is over at the clock");
        assert!(ledger.covered(0, 5), "but it did cover its own days");
        assert_eq!(ledger.active_leases(), 0, "never entered the timeline");
        // A backdated long lease [0, 16) still covers the present.
        ledger.buy(10, Triple::new(0, 1, 0));
        assert!(ledger.covered(0, 10));
        assert_eq!(ledger.active_lease(0, 10), Some(Triple::new(0, 1, 0)));
    }

    #[test]
    fn equal_time_batch_submission_advances_once_and_indexes_all() {
        let mut d = driver();
        d.submit_batch([(4u64, ()), (4, ()), (4, ()), (9, ())])
            .unwrap();
        let ledger = d.ledger();
        // ShortBuyer dedups per aligned window: [4,8) and [8,12).
        assert_eq!(ledger.leases_bought(), 2);
        assert!(ledger.covered(0, 4) && ledger.covered(0, 9));
        assert!(!ledger.covered(0, 3) && !ledger.covered(0, 12));
        assert_eq!(ledger.active_count(9), 1);
    }

    #[test]
    fn submit_at_serves_a_whole_time_step_with_one_advance() {
        let mut d = driver();
        assert_eq!(d.submit_at(4, [(), (), ()]).unwrap(), 3);
        assert_eq!(d.requests(), 3);
        assert_eq!(d.ledger().leases_bought(), 1, "one aligned window");
        let err = d.submit_at(2, [()]).unwrap_err();
        assert_eq!(
            err,
            DriverError::TimeTravel {
                previous: 4,
                attempted: 2
            }
        );
        assert_eq!(d.requests(), 3, "nothing served on rejection");
        // Equal and later times remain fine.
        assert_eq!(d.submit_at(4, []).unwrap(), 0);
        d.submit_at(9, [()]).unwrap();
        assert_eq!(d.ledger().leases_bought(), 2);
    }

    #[test]
    fn submit_columns_matches_loop_of_submit_bit_for_bit() {
        let times = [0u64, 0, 3, 4, 4, 4, 9, 17, 17];
        let mut columnar = driver();
        let mut looped = driver();
        assert_eq!(
            columnar
                .submit_columns(&times, std::iter::repeat(()))
                .unwrap(),
            times.len()
        );
        for &t in &times {
            looped.submit(t, ()).unwrap();
        }
        assert_eq!(columnar.ledger().to_json(), looped.ledger().to_json());
        assert_eq!(columnar.requests(), looped.requests());
        assert_eq!(
            columnar.cost().to_bits(),
            looped.cost().to_bits(),
            "identical f64 accumulation order"
        );
    }

    #[test]
    fn submit_columns_stops_at_the_first_violation() {
        let mut d = driver();
        let err = d
            .submit_columns(&[0, 4, 1, 9], std::iter::repeat(()))
            .unwrap_err();
        assert_eq!(
            err,
            DriverError::TimeTravel {
                previous: 4,
                attempted: 1
            }
        );
        assert_eq!(d.requests(), 2, "requests before the violation stay served");
        // The violation also respects the cross-batch clock.
        let err = d.submit_columns(&[3], std::iter::once(())).unwrap_err();
        assert_eq!(
            err,
            DriverError::TimeTravel {
                previous: 4,
                attempted: 3
            }
        );
        assert_eq!(d.requests(), 2);
        // A violation past the point where the requests ran out is never
        // reached; one right where they ran out still reports, exactly as
        // if the column had been validated up front.
        let mut columnar = driver();
        assert_eq!(columnar.submit_columns(&[0, 4, 9, 1], [(), ()]).unwrap(), 2);
        assert_eq!(
            columnar.ledger().to_json(),
            looped(&[0, 4]).ledger().to_json()
        );
        let mut columnar = driver();
        let err = columnar.submit_columns(&[0, 4, 1], [(), ()]).unwrap_err();
        assert_eq!(
            err,
            DriverError::TimeTravel {
                previous: 4,
                attempted: 1
            }
        );
        assert_eq!(
            columnar.ledger().to_json(),
            looped(&[0, 4, 1]).ledger().to_json()
        );
        assert_eq!(columnar.requests(), 2);
    }

    /// A driver fed `times` through a loop of `submit` calls, stopping at
    /// the first error.
    fn looped(times: &[TimeStep]) -> Driver<ShortBuyer> {
        let mut d = driver();
        for &t in times {
            if d.submit(t, ()).is_err() {
                break;
            }
        }
        d
    }

    #[test]
    fn submit_columns_with_short_request_iterators_stops_cleanly() {
        let mut columnar = driver();
        // Only two requests materialize for a four-entry times column: the
        // clock must stop where a zipped loop of submits would have.
        assert_eq!(
            columnar.submit_columns(&[0, 4, 9, 12], [(), ()]).unwrap(),
            2
        );
        assert_eq!(
            columnar.ledger().to_json(),
            looped(&[0, 4]).ledger().to_json()
        );
        assert_eq!(columnar.requests(), 2);
        // Running out in the middle of an equal-time run stops there too,
        // and the next times never move the clock.
        let mut columnar = driver();
        assert_eq!(columnar.submit_columns(&[3, 3, 3, 7], [(), ()]).unwrap(), 2);
        let reference = looped(&[3, 3]);
        assert_eq!(columnar.ledger().to_json(), reference.ledger().to_json());
        assert_eq!(columnar.requests(), reference.requests());
        columnar.submit(3, ()).unwrap();
        // ... even when a violation follows the interrupted run.
        let mut columnar = driver();
        assert_eq!(columnar.submit_columns(&[3, 3, 3, 1], [(), ()]).unwrap(), 2);
        assert_eq!(columnar.ledger().to_json(), reference.ledger().to_json());
        // An empty request iterator never moves the clock, even past a
        // violating times column.
        let mut idle = driver();
        assert_eq!(idle.submit_columns(&[5, 3], std::iter::empty()).unwrap(), 0);
        assert_eq!(idle.requests(), 0);
        idle.submit(0, ()).unwrap();
    }

    #[test]
    fn submit_columns_on_empty_columns_is_a_no_op() {
        let mut d = driver();
        assert_eq!(d.submit_columns(&[], std::iter::repeat(())).unwrap(), 0);
        assert_eq!(d.requests(), 0);
    }

    #[test]
    fn covered_during_matches_window_intersection() {
        let mut ledger = Ledger::new(structure());
        ledger.buy(4, Triple::new(0, 0, 4)); // [4, 8)
        assert!(ledger.covered_during(0, Window::new(0, 5))); // touches 4
        assert!(ledger.covered_during(0, Window::new(7, 10))); // touches 7
        assert!(!ledger.covered_during(0, Window::new(8, 10))); // starts at end
        assert!(!ledger.covered_during(0, Window::new(0, 4))); // ends at start
        assert!(!ledger.covered_during(0, Window::new(5, 0)), "empty window");
        assert!(
            !ledger.covered_during(1, Window::new(0, 100)),
            "other element"
        );
    }

    #[test]
    fn active_count_tracks_distinct_elements() {
        let mut ledger = Ledger::new(structure());
        assert_eq!(ledger.active_count(0), 0);
        ledger.buy(0, Triple::new(0, 0, 0)); // [0, 4)
        ledger.buy(0, Triple::new(2, 1, 0)); // [0, 16)
        ledger.buy(1, Triple::new(2, 0, 0)); // [0, 4) — same element again
        assert_eq!(ledger.active_count(0), 2);
        assert_eq!(ledger.active_count(4), 1, "only the long lease survives");
        assert_eq!(ledger.active_count(16), 0);
    }

    #[test]
    fn compaction_prunes_only_windows_ended_by_the_horizon() {
        let mut ledger = Ledger::new(structure());
        ledger.buy(0, Triple::new(0, 0, 0)); // [0, 4) — ended by 8
        ledger.buy(0, Triple::new(0, 0, 4)); // [4, 8) — ends exactly at 8
        ledger.buy(0, Triple::new(0, 1, 0)); // [0, 16) — still open at 8
        ledger.buy(2, Triple::new(1, 0, 8)); // [8, 12) — starts at horizon
        assert_eq!(ledger.compact(8), 2, "both short ended windows go");
        // At-or-after-horizon queries are unchanged.
        assert!(ledger.covered(0, 8), "long lease still covers");
        assert!(ledger.covered(1, 8));
        assert!(!ledger.covered(0, 16));
        assert!(ledger.owns(Triple::new(0, 1, 0)));
        assert!(ledger.owns(Triple::new(1, 0, 8)));
        // Historical answers may now under-report — that is the contract.
        assert!(!ledger.owns(Triple::new(0, 0, 0)));
        // Compacting again at the same horizon is a no-op.
        assert_eq!(ledger.compact(8), 0);
        // Costs and the decision trace are untouched.
        assert_eq!(ledger.decision_count(), 4);
        assert_eq!(ledger.leases_bought(), 4);
    }

    #[test]
    fn compaction_counts_duplicate_copies_and_skips_unknown_types() {
        let mut ledger = Ledger::new(structure());
        let tr = Triple::new(5, 0, 0); // [0, 4)
        ledger.buy(0, tr);
        ledger.buy(1, tr); // second copy of the same lease
        ledger.buy_priced(0, Triple::new(5, 9, 0), 1.0, "custom"); // no window info
        assert_eq!(ledger.compact(100), 2, "copies count individually");
        assert!(
            ledger.owns(Triple::new(5, 9, 0)),
            "window-less purchases are never pruned"
        );
        // Detached ledgers have no windows to compact.
        let mut detached = Ledger::detached();
        detached.buy_priced(0, Triple::new(0, 0, 0), 1.0, CATEGORY_LEASE);
        assert_eq!(detached.compact(1_000), 0);
    }

    #[test]
    fn detached_ledgers_answer_ownership_but_not_coverage() {
        let mut ledger = Ledger::detached();
        let tr = Triple::new(0, 0, 0);
        ledger.buy_priced(0, tr, 2.0, CATEGORY_LEASE);
        assert!(ledger.owns(tr), "exact ownership needs no windows");
        assert!(!ledger.covered(0, 0), "no structure, no window information");
        assert_eq!(ledger.active_lease(0, 0), None);
        assert_eq!(ledger.active_count(0), 0);
    }

    #[test]
    fn coverage_index_survives_json_round_trips() {
        let mut ledger = Ledger::new(structure());
        ledger.buy(0, Triple::new(1, 0, 0));
        ledger.buy(3, Triple::new(1, 1, 0));
        ledger.advance(6);
        let back = Ledger::from_json(&ledger.to_json()).unwrap();
        for t in 0..20 {
            assert_eq!(back.covered(1, t), ledger.covered(1, t), "t = {t}");
            assert_eq!(back.active_lease(1, t), ledger.active_lease(1, t));
        }
        assert!(back.owns(Triple::new(1, 0, 0)));
    }

    #[test]
    fn reset_behaves_like_a_fresh_ledger() {
        let mut recycled = Ledger::new(structure());
        recycled.buy(0, Triple::new(3, 0, 0));
        recycled.buy_priced(2, Triple::new(1, 1, 0), 2.0, "scaled");
        recycled.charge(3, 0, 1.0, "connection");
        recycled.advance(7);
        recycled.reset(structure());
        let fresh = Ledger::new(structure());
        assert_eq!(recycled.now(), fresh.now());
        assert_eq!(recycled.decision_count(), 0);
        assert_eq!(
            recycled.total_cost().to_bits(),
            fresh.total_cost().to_bits()
        );
        assert_eq!(recycled.interned_categories(), 0);
        assert_eq!(recycled.active_leases(), 0);
        assert_eq!(recycled.next_expiry(), None);
        assert_eq!(recycled.leases_bought(), 0);
        assert_eq!(recycled.elements().count(), 0);
        assert!(!recycled.covered(3, 0));
        assert!(!recycled.owns(Triple::new(3, 0, 0)));
        assert_eq!(recycled.coverage_stats(), fresh.coverage_stats());
        // Replaying the same run on the recycled ledger answers
        // identically to a fresh one — the arena-reuse contract.
        let mut reference = Ledger::new(structure());
        for ledger in [&mut recycled, &mut reference] {
            ledger.buy(0, Triple::new(0, 0, 0));
            ledger.buy(5, Triple::new(0, 1, 0));
            ledger.advance(6);
        }
        assert_eq!(recycled.to_json(), reference.to_json());
        assert_eq!(recycled.active_leases(), reference.active_leases());
        for t in 0..20 {
            assert_eq!(recycled.covered(0, t), reference.covered(0, t));
            assert_eq!(recycled.active_count(t), reference.active_count(t));
        }
    }

    #[test]
    fn driver_with_ledger_matches_driver_new() {
        let mut recycled = Ledger::new(structure());
        for i in 0..50u64 {
            recycled.buy(i, Triple::new((i % 3) as usize, 0, i));
        }
        recycled.reset(structure());
        let mut a = Driver::with_ledger(
            ShortBuyer {
                owned: std::collections::HashSet::new(),
            },
            recycled,
        );
        let mut b = driver();
        let days = [0u64, 1, 4, 9, 9, 17];
        a.submit_batch(days.iter().map(|&t| (t, ()))).unwrap();
        b.submit_batch(days.iter().map(|&t| (t, ()))).unwrap();
        assert_eq!(a.ledger().to_json(), b.ledger().to_json());
        assert_eq!(a.report(1.0), b.report(1.0));
    }

    #[test]
    fn driver_enforces_monotone_time_with_typed_error() {
        let mut d = driver();
        d.submit(5, ()).unwrap();
        let err = d.submit(3, ()).unwrap_err();
        assert_eq!(
            err,
            DriverError::TimeTravel {
                previous: 5,
                attempted: 3
            }
        );
        // The rejected request is not served.
        assert_eq!(d.requests(), 1);
        // Equal times are fine.
        d.submit(5, ()).unwrap();
        assert_eq!(d.requests(), 2);
    }

    #[test]
    fn driver_error_is_well_behaved() {
        fn assert_error<T: std::error::Error + Send + Sync + 'static>() {}
        assert_error::<DriverError>();
        let msg = DriverError::TimeTravel {
            previous: 5,
            attempted: 3,
        }
        .to_string();
        let first = msg.chars().next().unwrap();
        assert!(first.is_lowercase(), "message must start lowercase: {msg}");
        assert!(!msg.ends_with('.') && !msg.ends_with('!'));
        assert!(msg.contains('5') && msg.contains('3'));
    }

    #[test]
    fn submit_batch_stops_at_the_first_error() {
        let mut d = driver();
        let err = d
            .submit_batch([(0, ()), (4, ()), (1, ()), (9, ())])
            .unwrap_err();
        assert!(matches!(
            err,
            DriverError::TimeTravel {
                previous: 4,
                attempted: 1
            }
        ));
        assert_eq!(d.requests(), 2, "requests before the violation stay served");
    }

    #[test]
    fn report_summarizes_the_run() {
        let mut d = driver();
        d.submit_batch([(0u64, ()), (1, ()), (5, ())]).unwrap();
        let report = d.report(2.0);
        assert_eq!(report.requests, 3);
        assert_eq!(report.leases_bought, 2);
        assert!((report.algorithm_cost - 2.0).abs() < 1e-12);
        assert!((report.ratio() - 1.0).abs() < 1e-12);
        let text = report.to_string();
        assert!(text.contains("ratio=1.0000"), "{text}");
        let json = report.to_json();
        let back: Report = serde::json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn ledger_round_trips_through_json() {
        let mut ledger = Ledger::new(structure());
        ledger.buy(0, Triple::new(2, 0, 0));
        ledger.buy_priced(3, Triple::new(2, 1, 0), 2.25, "rounded");
        ledger.charge(3, 9, 1.5, "connection");
        ledger.advance(5);
        let json = ledger.to_json();
        let back = Ledger::from_json(&json).unwrap();
        assert_eq!(back.decisions(), ledger.decisions());
        assert_eq!(back.total_cost().to_bits(), ledger.total_cost().to_bits());
        assert_eq!(back.active_leases(), ledger.active_leases());
        assert_eq!(back.leases_bought(), ledger.leases_bought());
        assert_eq!(back.element_stats(2), ledger.element_stats(2));
        assert_eq!(back.now(), ledger.now());
    }

    #[test]
    fn deserialized_categories_keep_their_interned_totals() {
        let mut ledger = Ledger::new(structure());
        ledger.buy_priced(0, Triple::new(0, 0, 0), 1.5, "scaled");
        ledger.buy_priced(1, Triple::new(0, 0, 4), 2.5, "scaled");
        ledger.charge(1, 1, 0.25, "connection");
        let back = Ledger::from_json(&ledger.to_json()).unwrap();
        assert_eq!(back.interned_categories(), ledger.interned_categories());
        let a: Vec<(String, f64)> = ledger
            .cost_breakdown()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let b: Vec<(String, f64)> = back
            .cost_breakdown()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn detached_ledgers_accept_priced_purchases() {
        let mut ledger = Ledger::detached();
        ledger.buy_priced(0, Triple::new(0, 0, 0), 2.0, CATEGORY_LEASE);
        assert!((ledger.total_cost() - 2.0).abs() < 1e-12);
        // No structure — no expiry bookkeeping.
        assert_eq!(ledger.active_leases(), 0);
    }

    #[test]
    #[should_panic(expected = "requires a lease structure")]
    fn structureless_buy_panics_with_guidance() {
        let mut ledger = Ledger::detached();
        let _ = ledger.buy(0, Triple::new(0, 0, 0));
    }

    #[test]
    fn into_parts_releases_algorithm_and_ledger() {
        let mut d = driver();
        d.submit(0, ()).unwrap();
        let (alg, ledger) = d.into_parts();
        assert_eq!(alg.owned.len(), 1);
        assert_eq!(ledger.decision_count(), 1);
    }

    #[test]
    fn decision_categories_preserve_cow_variants() {
        // The interning refactor must not change what `Decision.category`
        // holds: borrowed statics on the record path, owned strings after
        // deserialization.
        let mut ledger = Ledger::new(structure());
        ledger.buy(0, Triple::new(0, 0, 0));
        assert!(matches!(
            ledger.decisions()[0].category,
            Cow::Borrowed(CATEGORY_LEASE)
        ));
        let back = Ledger::from_json(&ledger.to_json()).unwrap();
        assert_eq!(back.decisions()[0].category.as_ref(), CATEGORY_LEASE);
    }
}
