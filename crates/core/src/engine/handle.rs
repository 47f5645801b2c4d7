//! [`EngineHandle`]: an erased [`Driver`] plus snapshot/restore.
//!
//! The [`Driver`] is generic over the algorithm type — ideal for
//! benchmarks and tests that want monomorphized dispatch, but every owner
//! (the SimLab matrix runner, the `leased` daemon's tenant shards) would
//! have to be generic too. `EngineHandle` fixes the algorithm type to
//! `Box<dyn LeasingAlgorithm>` so an owner holds *one* concrete type per
//! request shape, and dereferences to that driver for the whole
//! submit/advance/stats/snapshot surface — no generics, no ledger borrows.
//!
//! Snapshots ([`Driver::snapshot`]) wrap the golden-tested ledger decision
//! schema in an [`ENGINE_SNAPSHOT_SCHEMA`] envelope together with the
//! driver's own counters, so a restored engine reproduces byte-identical
//! [`EngineStats`] and keeps enforcing monotone time where the original
//! left off.

use super::ledger::{check_schema, SnapshotError};
use super::{Driver, LeasingAlgorithm, Ledger};
use crate::lease::LeaseStructure;
use crate::time::TimeStep;
use serde::{json, Deserialize, Serialize, Value};
use std::ops::{Deref, DerefMut};

/// Schema tag of [`Driver::snapshot`] envelopes.
pub const ENGINE_SNAPSHOT_SCHEMA: &str = "engine-snapshot/v1";

impl<A> Driver<A> {
    /// A deterministic summary of the engine state. Two drivers with the
    /// same submission history — including one restored from the other's
    /// [`snapshot`](Driver::snapshot) — produce byte-identical
    /// [`EngineStats::to_json`] output.
    pub fn stats(&self) -> EngineStats {
        let ledger = &self.ledger;
        EngineStats {
            requests: self.requests,
            decisions: ledger.decision_count(),
            leases_bought: ledger.leases_bought(),
            active_leases: ledger.active_leases(),
            now: ledger.now(),
            total_cost: ledger.total_cost(),
            cost_by_category: ledger
                .cost_breakdown()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }

    /// Serializes the engine into a self-describing snapshot envelope,
    /// schema-tagged [`ENGINE_SNAPSHOT_SCHEMA`]: the driver's submission
    /// counters plus the ledger's golden-tested decision trace
    /// ([`Ledger::snapshot`] payload). Under a non-`Full`
    /// [`DecisionRetention`](super::DecisionRetention) policy the ledger
    /// payload carries a versioned `retention` field that round-trips the
    /// retained decision ring and the cumulative aggregates losslessly
    /// (see [`Ledger::snapshot`]); `Full`-mode snapshots keep the
    /// historical shape byte-for-byte.
    pub fn snapshot(&self) -> String {
        json::to_string(&Value::Map(vec![
            (
                "schema".to_string(),
                Value::Str(ENGINE_SNAPSHOT_SCHEMA.to_string()),
            ),
            ("requests".to_string(), self.requests.to_value()),
            ("last_time".to_string(), self.last_time.to_value()),
            ("ledger".to_string(), self.ledger.to_value()),
        ]))
    }

    /// Rebuilds an engine from [`Driver::snapshot`] output, binding
    /// `algorithm` as the policy.
    ///
    /// The ledger replays to an observationally identical state and the
    /// submission counters resume where the snapshot left them, so
    /// [`stats`](Driver::stats) output is byte-identical and monotone-time
    /// enforcement continues seamlessly. The *policy's* internal state
    /// (e.g. in-window dual accumulators) is the caller's to restore —
    /// policies that keep cross-request state document their own snapshot
    /// story.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Schema`] on an envelope tagged with
    /// anything but [`ENGINE_SNAPSHOT_SCHEMA`], and
    /// [`SnapshotError::Malformed`] on invalid JSON or payloads.
    pub fn restore(algorithm: A, text: &str) -> Result<Self, SnapshotError> {
        let envelope = json::parse(text).map_err(SnapshotError::Malformed)?;
        check_schema(&envelope, ENGINE_SNAPSHOT_SCHEMA)?;
        let field = |name| serde::value_field(&envelope, name).map_err(SnapshotError::Malformed);
        let requests: usize =
            Deserialize::from_value(field("requests")?).map_err(SnapshotError::Malformed)?;
        let last_time: Option<TimeStep> =
            Deserialize::from_value(field("last_time")?).map_err(SnapshotError::Malformed)?;
        let ledger: Ledger =
            Deserialize::from_value(field("ledger")?).map_err(SnapshotError::Malformed)?;
        Ok(Driver {
            algorithm,
            ledger,
            last_time,
            requests,
        })
    }
}

/// The boxed policy an [`EngineHandle`] drives.
type ErasedPolicy<'p, R> = Box<dyn LeasingAlgorithm<Request = R> + 'p>;

/// An owned engine: a [`Driver`] over a boxed [`LeasingAlgorithm`],
/// exposing the driver's full submit/advance/stats/snapshot surface
/// through `Deref` without generics.
///
/// The lifetime `'p` bounds the policy (algorithms borrowing their
/// problem instance work fine); owned policies use `EngineHandle<'static,
/// R>`.
pub struct EngineHandle<'p, R>(Driver<ErasedPolicy<'p, R>>);

impl<'p, R> EngineHandle<'p, R> {
    /// A handle whose ledger prices and windows leases with `structure`.
    pub fn new(
        algorithm: impl LeasingAlgorithm<Request = R> + 'p,
        structure: LeaseStructure,
    ) -> Self {
        EngineHandle(Driver::new(Box::new(algorithm), structure))
    }

    /// A handle with a structure-less ledger (for policies pricing every
    /// purchase explicitly via [`Ledger::buy_priced`]).
    pub fn detached(algorithm: impl LeasingAlgorithm<Request = R> + 'p) -> Self {
        EngineHandle(Driver::detached(Box::new(algorithm)))
    }

    /// A handle over a caller-provided ledger — the arena-reuse path
    /// (recycled ledgers keep their allocations across runs, see
    /// [`Ledger::reset`]).
    pub fn with_ledger(algorithm: impl LeasingAlgorithm<Request = R> + 'p, ledger: Ledger) -> Self {
        EngineHandle(Driver::with_ledger(Box::new(algorithm), ledger))
    }

    /// Rebuilds a handle from a snapshot, binding `algorithm` as the
    /// policy. See [`Driver::restore`].
    ///
    /// # Errors
    ///
    /// Exactly like [`Driver::restore`].
    pub fn restore(
        algorithm: impl LeasingAlgorithm<Request = R> + 'p,
        text: &str,
    ) -> Result<Self, SnapshotError> {
        Driver::restore(Box::new(algorithm) as ErasedPolicy<'p, R>, text).map(EngineHandle)
    }

    /// Releases the ledger (dropping the boxed policy) — the arena-recycle
    /// path for pooled workers.
    pub fn into_ledger(self) -> Ledger {
        self.0.ledger
    }
}

impl<'p, R> Deref for EngineHandle<'p, R> {
    type Target = Driver<ErasedPolicy<'p, R>>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<R> DerefMut for EngineHandle<'_, R> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl<R> std::fmt::Debug for EngineHandle<'_, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineHandle")
            .field("requests", &self.0.requests)
            .field("decisions", &self.0.ledger.decision_count())
            .field("now", &self.0.ledger.now())
            .finish_non_exhaustive()
    }
}

/// A deterministic, serializable summary of an [`EngineHandle`]'s state —
/// the payload of the `leased` daemon's `stats` wire op.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Requests served.
    pub requests: usize,
    /// Ledger decisions recorded (purchases plus charges).
    pub decisions: usize,
    /// Leases bought.
    pub leases_bought: usize,
    /// Leases whose validity window extends beyond the engine clock.
    pub active_leases: usize,
    /// The engine clock (largest advanced-to time).
    pub now: TimeStep,
    /// Total money spent.
    pub total_cost: f64,
    /// Per-category spending, ordered by category name.
    pub cost_by_category: Vec<(String, f64)>,
}

impl EngineStats {
    /// Serializes the stats to compact JSON (deterministic: same state,
    /// same bytes).
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Books;
    use crate::engine::DriverError;
    use crate::framework::Triple;
    use crate::interval::aligned_start;
    use crate::lease::LeaseType;

    fn structure() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(4, 1.0), LeaseType::new(16, 3.0)]).unwrap()
    }

    /// Covers every demand with the shortest lease, once per window.
    struct ShortLease;

    impl LeasingAlgorithm for ShortLease {
        type Request = ();
        fn on_request(&mut self, t: TimeStep, _req: (), mut books: Books<'_>) {
            if !books.covered(0, t) {
                let len = books.structure().unwrap().length(0);
                books.buy(t, Triple::new(0, 0, aligned_start(t, len)));
            }
        }
    }

    #[test]
    fn handle_matches_generic_driver_bit_for_bit() {
        let days = [0u64, 1, 4, 9, 9, 17];
        let mut driver = Driver::new(ShortLease, structure());
        driver.submit_batch(days.iter().map(|&t| (t, ()))).unwrap();
        let mut handle = EngineHandle::new(ShortLease, structure());
        handle.submit_batch(days.iter().map(|&t| (t, ()))).unwrap();
        assert_eq!(handle.ledger().to_json(), driver.ledger().to_json());
        assert_eq!(handle.report(1.0), driver.report(1.0));
        assert_eq!(handle.requests(), driver.requests());
    }

    #[test]
    fn handle_enforces_monotone_time() {
        let mut handle = EngineHandle::new(ShortLease, structure());
        handle.submit(5, ()).unwrap();
        assert_eq!(
            handle.submit(3, ()).unwrap_err(),
            DriverError::TimeTravel {
                previous: 5,
                attempted: 3
            }
        );
        assert_eq!(
            handle.advance(4).unwrap_err(),
            DriverError::TimeTravel {
                previous: 5,
                attempted: 4
            }
        );
        assert_eq!(handle.advance(9).unwrap(), 1, "the short lease expires");
        // Advance participates in the monotone order: submissions cannot
        // go behind an advanced-to time.
        assert_eq!(
            handle.submit(7, ()).unwrap_err(),
            DriverError::TimeTravel {
                previous: 9,
                attempted: 7
            }
        );
    }

    #[test]
    fn snapshot_restore_reproduces_byte_identical_stats() {
        let mut handle = EngineHandle::new(ShortLease, structure());
        handle
            .submit_batch([(0u64, ()), (2, ()), (9, ()), (11, ())])
            .unwrap();
        let snap = handle.snapshot();
        assert_eq!(snap, handle.snapshot(), "snapshotting is deterministic");
        let restored = EngineHandle::restore(ShortLease, &snap).unwrap();
        assert_eq!(restored.stats(), handle.stats());
        assert_eq!(restored.stats().to_json(), handle.stats().to_json());
        assert_eq!(restored.ledger().to_json(), handle.ledger().to_json());
        assert_eq!(restored.snapshot(), snap, "snapshots are idempotent");
        // Monotone-time enforcement resumes where the snapshot left off.
        let mut restored = restored;
        assert!(restored.submit(5, ()).is_err());
        assert!(restored.submit(11, ()).is_ok());
    }

    #[test]
    fn restore_rejects_wrong_schema_and_garbage() {
        assert!(matches!(
            EngineHandle::<()>::restore(ShortLease, "{\"schema\":\"nope/v0\"}"),
            Err(SnapshotError::Schema { found, .. }) if found == "nope/v0"
        ));
        assert!(matches!(
            EngineHandle::<()>::restore(ShortLease, "not json"),
            Err(SnapshotError::Malformed(_))
        ));
        assert!(matches!(
            EngineHandle::<()>::restore(ShortLease, "{}"),
            Err(SnapshotError::Schema { found, .. }) if found == "<missing>"
        ));
    }

    #[test]
    fn stats_serialize_round_trip() {
        let mut handle = EngineHandle::new(ShortLease, structure());
        handle.submit(3, ()).unwrap();
        let stats = handle.stats();
        let back: EngineStats = json::from_str(&stats.to_json()).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn borrowed_policies_work_and_release_their_state() {
        struct Counting<'c> {
            hits: &'c mut usize,
        }
        impl LeasingAlgorithm for Counting<'_> {
            type Request = ();
            fn on_request(&mut self, t: TimeStep, _req: (), mut books: Books<'_>) {
                *self.hits += 1;
                books.buy(t, Triple::new(0, 0, aligned_start(t, 4)));
            }
        }
        let mut hits = 0usize;
        {
            let mut handle = EngineHandle::new(Counting { hits: &mut hits }, structure());
            handle.submit_batch([(0u64, ()), (1, ())]).unwrap();
            let ledger = handle.into_ledger();
            assert_eq!(ledger.leases_bought(), 2);
        }
        assert_eq!(hits, 2);
    }
}
