//! One tenant shard: a lock around a [`Driver`] bound to the
//! [`PermitCore`] policy, served on the calling thread.
//!
//! Every connection thread that routes an operation to a shard takes the
//! shard's lock and serves the operation itself; there is no worker
//! thread and no queue. Operations on one shard are serialized by the
//! lock, so the engine sees one request at a time in lock order, while
//! different shards serve in parallel.
//!
//! A shard whose snapshot cannot be restored answers every call with
//! [`ShardReply::Failed`]. A shard that was shut down, or whose engine
//! panicked while serving, answers every later call with
//! [`LeasedError::ShardDown`]; the panic is caught, so it fails only that
//! shard and never unwinds the caller.
//!
//! The shard clock is monotone: operations carrying a timestamp behind the
//! clock are clamped forward, so replayed or reordered client traffic can
//! never wedge a shard with a time-travel error.

use crate::error::LeasedError;
use crate::metrics::ShardMetrics;
use crate::policy::{PermitCore, TenantOp};
use crate::protocol::{ActiveLease, RetentionInfo, TraceEvent};
use leasing_core::engine::{DecisionRetention, Driver, DriverError, EngineStats};
use leasing_core::lease::LeaseStructure;
use leasing_core::time::TimeStep;
use leasing_telemetry::{EventRing, Stopwatch};
use serde::{json, value_field, value_str, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// Schema tag of shard snapshots: the engine's `engine-snapshot/v1`
/// envelope plus the policy overlay.
pub const SHARD_SNAPSHOT_SCHEMA: &str = "leased-shard/v1";

/// One operation for a shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardRequest {
    /// Serve a demand of `tenant` at `time` (clamped to the shard clock).
    Submit {
        /// Tenant id (already routed to this shard).
        tenant: usize,
        /// Demand time.
        time: TimeStep,
    },
    /// Serve a batch of demands in arrival order. Runs of entries whose
    /// clamped times are equal collapse into one engine `submit_at` call;
    /// the end state is bit-identical to submitting each entry alone.
    SubmitBatch {
        /// `(tenant, time)` demands, already routed to this shard.
        entries: Vec<(usize, TimeStep)>,
    },
    /// List `tenant`'s live leases at `time` (a pure read — evaluated at
    /// the requested time, not clamped).
    ListActive {
        /// Tenant id.
        tenant: usize,
        /// Query time.
        time: TimeStep,
    },
    /// Void `tenant`'s live leases.
    ForceRelease {
        /// Tenant id.
        tenant: usize,
        /// Release time.
        time: TimeStep,
    },
    /// The shard's [`EngineStats`].
    Stats,
    /// The shard's decision-trace retention report.
    RetentionInfo,
    /// The shard's recent-operation event ring, oldest first.
    TraceDump,
    /// Serialize the shard (engine + policy) to a snapshot string.
    Snapshot,
    /// Snapshot and shut the shard down.
    Shutdown,
}

/// A shard's answer.
#[derive(Clone, Debug, PartialEq)]
pub enum ShardReply {
    /// Submit/force-release succeeded.
    Done,
    /// `SubmitBatch` payload: how many demands were served.
    Submitted(u64),
    /// `ListActive` payload.
    Leases(Vec<ActiveLease>),
    /// `Stats` payload.
    Stats(EngineStats),
    /// `RetentionInfo` payload.
    Retention(RetentionInfo),
    /// `TraceDump` payload.
    Trace(Vec<TraceEvent>),
    /// `Snapshot`/`Shutdown` payload.
    Snapshot(String),
    /// The operation failed; the shard stays up (except on `Shutdown`).
    Failed(String),
}

/// A shard: its index, its metrics, and its state behind the lock that
/// serializes every operation on it.
pub struct Shard {
    index: usize,
    metrics: Arc<ShardMetrics>,
    state: Mutex<ShardState>,
}

/// What a shard's lock guards.
enum ShardState {
    /// Serving.
    Up(Box<Worker>),
    /// The snapshot it was restored from is corrupt: every call answers
    /// with this message.
    Failed(String),
    /// Shut down, or its engine panicked: every call is refused.
    Down,
}

impl Shard {
    /// Builds shard `index` on the calling thread: a fresh engine over
    /// `structure`, or one restored from `restore_from` (a
    /// [`SHARD_SNAPSHOT_SCHEMA`] string). The shard records into `metrics`
    /// and keeps its most recent `trace_capacity` operations in an event
    /// ring (0 disables tracing). `retention` is the engine's
    /// decision-trace policy, applied after construction (and after a
    /// restore — the daemon config wins over whatever mode the snapshot
    /// was taken under).
    ///
    /// `_queue_capacity` is ignored: shards have no queue. It stays in the
    /// signature only because the benchmark's layer ladder calls this
    /// function and cannot change with this crate.
    pub fn spawn(
        index: usize,
        structure: LeaseStructure,
        _queue_capacity: usize,
        restore_from: Option<String>,
        metrics: Arc<ShardMetrics>,
        trace_capacity: usize,
        retention: DecisionRetention,
    ) -> Shard {
        let restoring = restore_from.is_some();
        let restore_watch = Stopwatch::start();
        let built = match restore_from {
            None => Ok(Driver::new(PermitCore::new(structure.clone()), structure)),
            Some(text) => restore_shard(structure, &text),
        };
        if restoring {
            metrics.restore_ns.record(restore_watch.elapsed_nanos());
        }
        let state = match built {
            Ok(mut engine) => {
                engine.set_retention(retention);
                let worker = Worker {
                    index,
                    clock: engine.stats().now,
                    engine,
                    metrics: Arc::clone(&metrics),
                    ring: EventRing::new(trace_capacity),
                };
                worker.record_state_gauges();
                ShardState::Up(Box::new(worker))
            }
            Err(e) => ShardState::Failed(e.to_string()),
        };
        Shard {
            index,
            metrics,
            state: Mutex::new(state),
        }
    }

    /// This shard's index in the daemon's shard vector.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The smallest tenant this shard holds that `shard_of(tenant,
    /// shards)` routes to another shard — the sign of state restored from
    /// a snapshot directory written with a different shard count. `None`
    /// when every tenant belongs here or the shard holds no engine.
    pub(crate) fn misrouted_tenant(&self, shards: usize) -> Option<usize> {
        let state = self.state.lock().ok()?;
        let ShardState::Up(worker) = &*state else {
            return None;
        };
        let misrouted = worker
            .engine
            .ledger()
            .elements()
            .map(|(tenant, _)| tenant)
            .find(|&tenant| {
                u64::try_from(tenant).map_or(true, |id| crate::shard_of(id, shards) != self.index)
            });
        misrouted
    }

    /// Serves one operation on the calling thread, under the shard's lock.
    ///
    /// # Errors
    ///
    /// Returns [`LeasedError::ShardDown`] when the shard was shut down or
    /// its engine panicked (a poisoned lock counts as a panic).
    pub fn call(&self, request: ShardRequest) -> Result<ShardReply, LeasedError> {
        // The depth gauges count callers holding or waiting on the lock.
        let depth = self.metrics.mailbox_depth.inc();
        self.metrics.mailbox_high_watermark.record_max(depth);
        let reply = self.serve(request);
        self.metrics.mailbox_depth.dec();
        reply
    }

    fn serve(&self, request: ShardRequest) -> Result<ShardReply, LeasedError> {
        let down = LeasedError::ShardDown(self.index);
        let Ok(mut state) = self.state.lock() else {
            return Err(down);
        };
        let stop = matches!(request, ShardRequest::Shutdown);
        let reply = match &mut *state {
            ShardState::Up(worker) => {
                catch_unwind(AssertUnwindSafe(|| worker.handle(request))).map_err(|_| down)
            }
            ShardState::Failed(message) => Ok(ShardReply::Failed(message.clone())),
            ShardState::Down => Err(down),
        };
        if stop || reply.is_err() {
            *state = ShardState::Down;
        }
        reply
    }

    /// Does nothing: a shard owns no thread. Kept because the benchmark's
    /// layer ladder calls it.
    pub fn join(self) {}
}

/// The clamped time of a run of submits starting with one at `first`, and
/// how many of the `following` submit times join it: a submit joins iff
/// its clamped time equals the run's — the clock would already be there
/// when its turn came in the one-at-a-time ordering.
fn run_of(
    clock: TimeStep,
    first: TimeStep,
    following: impl Iterator<Item = TimeStep>,
) -> (TimeStep, usize) {
    let t = first.max(clock);
    (t, following.take_while(|&time| time <= t).count())
}

/// How a traced operation ended.
enum Outcome {
    Ok,
    Clamped,
    Err(String),
}

/// One traced operation, formatted into a [`TraceEvent`] only when the
/// ring is dumped.
struct TraceRecord {
    seq: u64,
    time: TimeStep,
    tenant: usize,
    op: &'static str,
    outcome: Outcome,
}

/// What a serving shard owns: the engine, the monotone shard clock, and
/// where it reports.
struct Worker {
    index: usize,
    engine: Driver<PermitCore>,
    clock: TimeStep,
    metrics: Arc<ShardMetrics>,
    ring: EventRing<TraceRecord>,
}

impl Worker {
    /// Pushes one event into the shard's trace ring (a no-op at capacity
    /// 0).
    fn trace(&mut self, time: TimeStep, tenant: usize, op: &'static str, outcome: Outcome) {
        if self.ring.capacity() == 0 {
            return;
        }
        self.ring.push(TraceRecord {
            seq: self.ring.recorded().saturating_add(1),
            time,
            tenant,
            op,
            outcome,
        });
    }

    /// Stores the engine's element-table size, retained decisions and
    /// remembered releases into the shard gauges.
    fn record_state_gauges(&self) {
        let ledger = self.engine.ledger();
        let table = ledger.element_table();
        let gauge = |n: usize| u64::try_from(n).unwrap_or(u64::MAX);
        self.metrics.engine_elements.set(gauge(table.ids().len()));
        self.metrics
            .element_table_entries
            .set(gauge(table.table_entries()));
        self.metrics
            .retained_decisions
            .set(gauge(ledger.retained_decisions()));
        self.metrics
            .released_leases
            .set(gauge(self.engine.algorithm().released_leases()));
    }

    /// Serves one run of `(tenant, time)` demands at the run's clamped
    /// time `t` with one engine `submit_at` call — one monotonicity check
    /// and one expiry advancement for the whole run, bit-identical to
    /// serving each demand alone — then counts and traces every entry.
    fn serve_run(
        &mut self,
        t: TimeStep,
        run: impl Iterator<Item = (usize, TimeStep)> + Clone,
    ) -> Result<usize, DriverError> {
        let result = self
            .engine
            .submit_at(t, run.clone().map(|(tenant, _)| TenantOp::Demand(tenant)));
        if result.is_ok() {
            self.clock = t;
        }
        self.record_state_gauges();
        let mut len = 0u64;
        for (tenant, time) in run {
            len += 1;
            let clamped = time < t;
            if clamped {
                self.metrics.clamped_timestamps.inc();
            }
            let outcome = match &result {
                Err(e) => Outcome::Err(e.to_string()),
                Ok(_) if clamped => Outcome::Clamped,
                Ok(_) => Outcome::Ok,
            };
            self.trace(t, tenant, "submit", outcome);
        }
        self.metrics.micro_batch_len.record(len);
        result
    }

    /// Serves one operation.
    fn handle(&mut self, request: ShardRequest) -> ShardReply {
        match request {
            ShardRequest::Submit { tenant, time } => {
                self.metrics.ops_submit.inc();
                self.metrics.submit_demands.inc();
                match self.serve_run(time.max(self.clock), std::iter::once((tenant, time))) {
                    Ok(_) => ShardReply::Done,
                    Err(e) => ShardReply::Failed(e.to_string()),
                }
            }
            ShardRequest::SubmitBatch { entries } => {
                self.metrics.ops_submit_batch.inc();
                self.metrics.submit_demands.add(entries.len() as u64);
                let mut submitted = 0u64;
                let mut rest = entries.as_slice();
                while let Some((&(_, first), following)) = rest.split_first() {
                    let (t, joining) =
                        run_of(self.clock, first, following.iter().map(|&(_, time)| time));
                    let (run, tail) = rest.split_at(1 + joining);
                    match self.serve_run(t, run.iter().copied()) {
                        Ok(served) => submitted += u64::try_from(served).unwrap_or(u64::MAX),
                        // Unreachable (t is clamped to the clock), but a
                        // failure must not strand the caller: earlier runs
                        // stay served, exactly like individual submits.
                        Err(e) => return ShardReply::Failed(e.to_string()),
                    }
                    rest = tail;
                }
                ShardReply::Submitted(submitted)
            }
            ShardRequest::ForceRelease { tenant, time } => {
                let t = time.max(self.clock);
                let clamped = time < t;
                self.metrics.ops_force_release.inc();
                if clamped {
                    self.metrics.clamped_timestamps.inc();
                }
                let result = self.engine.submit(t, TenantOp::Release(tenant));
                self.record_state_gauges();
                match result {
                    Ok(()) => {
                        self.clock = t;
                        let outcome = if clamped {
                            Outcome::Clamped
                        } else {
                            Outcome::Ok
                        };
                        self.trace(t, tenant, "force-release", outcome);
                        ShardReply::Done
                    }
                    Err(e) => {
                        self.trace(t, tenant, "force-release", Outcome::Err(e.to_string()));
                        ShardReply::Failed(e.to_string())
                    }
                }
            }
            ShardRequest::ListActive { tenant, time } => {
                self.metrics.ops_list_active.inc();
                let core = self.engine.algorithm();
                let leases = core
                    .live_leases(self.engine.ledger(), tenant, time)
                    .map(|triple| ActiveLease {
                        tenant: tenant as u64,
                        type_index: triple.type_index,
                        start: triple.start,
                        end: triple.start + core.structure().length(triple.type_index),
                    })
                    .collect();
                ShardReply::Leases(leases)
            }
            ShardRequest::Stats => {
                self.metrics.ops_stats.inc();
                ShardReply::Stats(self.engine.stats())
            }
            ShardRequest::RetentionInfo => {
                self.metrics.ops_stats.inc();
                let ledger = self.engine.ledger();
                let (mode, limit) = match self.engine.retention() {
                    DecisionRetention::Full => ("full", 0u64),
                    DecisionRetention::Bounded(n) => {
                        ("bounded", u64::try_from(n).unwrap_or(u64::MAX))
                    }
                    DecisionRetention::AggregateOnly => ("aggregate-only", 0),
                };
                ShardReply::Retention(RetentionInfo {
                    mode: mode.to_string(),
                    limit,
                    retained: u64::try_from(ledger.retained_decisions()).unwrap_or(u64::MAX),
                    total: u64::try_from(ledger.decision_count()).unwrap_or(u64::MAX),
                })
            }
            ShardRequest::TraceDump => {
                self.metrics.ops_trace_dump.inc();
                let shard = self.index as u64;
                let events = self.ring.iter().map(|record| TraceEvent {
                    seq: record.seq,
                    shard,
                    time: record.time,
                    tenant: record.tenant as u64,
                    op: record.op.to_string(),
                    outcome: match &record.outcome {
                        Outcome::Ok => "ok".to_string(),
                        Outcome::Clamped => "clamped".to_string(),
                        Outcome::Err(e) => format!("err: {e}"),
                    },
                });
                ShardReply::Trace(events.collect())
            }
            ShardRequest::Snapshot | ShardRequest::Shutdown => {
                self.metrics.ops_snapshot.inc();
                let watch = Stopwatch::start();
                let reply = match snapshot(&self.engine) {
                    Ok(text) => ShardReply::Snapshot(text),
                    Err(e) => ShardReply::Failed(e.to_string()),
                };
                self.metrics.snapshot_ns.record(watch.elapsed_nanos());
                reply
            }
        }
    }
}

/// Serializes the shard: `{"schema": "leased-shard/v1", "engine": <engine
/// snapshot>, "policy": <policy snapshot>}`.
fn snapshot(engine: &Driver<PermitCore>) -> Result<String, LeasedError> {
    let engine_value = json::parse(&engine.snapshot())?;
    let envelope = Value::Map(vec![
        (
            "schema".to_string(),
            Value::Str(SHARD_SNAPSHOT_SCHEMA.to_string()),
        ),
        ("engine".to_string(), engine_value),
        ("policy".to_string(), engine.algorithm().to_value()),
    ]);
    Ok(json::to_string(&envelope))
}

/// Restores an engine and its policy from a shard snapshot.
///
/// # Errors
///
/// Rejects wrong schema tags, malformed JSON, and engine payloads the
/// core engine refuses.
pub fn restore_shard(
    structure: LeaseStructure,
    text: &str,
) -> Result<Driver<PermitCore>, LeasedError> {
    let envelope = json::parse(text)?;
    let schema = value_str(value_field(&envelope, "schema")?)?;
    if schema != SHARD_SNAPSHOT_SCHEMA {
        return Err(LeasedError::Protocol(format!(
            "expected schema {SHARD_SNAPSHOT_SCHEMA}, found {schema}"
        )));
    }
    let core = PermitCore::from_value(structure, value_field(&envelope, "policy")?)?;
    let engine_text = json::to_string(value_field(&envelope, "engine")?);
    Driver::restore(core, &engine_text).map_err(|e| LeasedError::Protocol(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use leasing_core::lease::LeaseType;

    fn structure() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(8, 3.0)]).unwrap()
    }

    fn spawn(restore: Option<String>) -> (Shard, Arc<ShardMetrics>) {
        let metrics = Arc::new(ShardMetrics::new());
        let shard = Shard::spawn(
            0,
            structure(),
            16,
            restore,
            Arc::clone(&metrics),
            32,
            DecisionRetention::Full,
        );
        (shard, metrics)
    }

    fn call(shard: &Shard, request: ShardRequest) -> ShardReply {
        shard.call(request).unwrap()
    }

    #[test]
    fn shard_serves_submits_and_lists_live_leases() {
        let (shard, _) = spawn(None);
        assert_eq!(
            call(&shard, ShardRequest::Submit { tenant: 3, time: 0 }),
            ShardReply::Done
        );
        let ShardReply::Leases(leases) =
            call(&shard, ShardRequest::ListActive { tenant: 3, time: 0 })
        else {
            panic!("expected leases");
        };
        assert_eq!(leases.len(), 1);
        assert_eq!(leases[0].tenant, 3);
        assert_eq!(leases[0].end - leases[0].start, 2, "short lease");
        let ShardReply::Stats(stats) = call(&shard, ShardRequest::Stats) else {
            panic!("expected stats");
        };
        assert_eq!(stats.requests, 1);
        assert!(stats.total_cost > 0.0);
        call(&shard, ShardRequest::Shutdown);
        shard.join();
    }

    #[test]
    fn stale_timestamps_clamp_forward_instead_of_failing() {
        let (shard, metrics) = spawn(None);
        assert_eq!(
            call(
                &shard,
                ShardRequest::Submit {
                    tenant: 1,
                    time: 10
                }
            ),
            ShardReply::Done
        );
        // Behind the clock: clamped to t=10, not a time-travel error.
        assert_eq!(
            call(&shard, ShardRequest::Submit { tenant: 2, time: 4 }),
            ShardReply::Done
        );
        let ShardReply::Stats(stats) = call(&shard, ShardRequest::Stats) else {
            panic!("expected stats");
        };
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.now, 10);
        let ShardReply::Trace(events) = call(&shard, ShardRequest::TraceDump) else {
            panic!("expected trace");
        };
        call(&shard, ShardRequest::Shutdown);
        shard.join();
        assert_eq!(metrics.submit_demands.get(), 2);
        assert_eq!(metrics.clamped_timestamps.get(), 1, "one demand clamped");
        assert_eq!(metrics.ops_trace_dump.get(), 1);
        assert_eq!(metrics.ops_snapshot.get(), 1, "shutdown snapshots");
        assert_eq!(events.len(), 2);
        let clamped: Vec<_> = events.iter().filter(|e| e.outcome == "clamped").collect();
        assert_eq!(clamped.len(), 1);
        assert_eq!(clamped[0].tenant, 2);
        assert_eq!(clamped[0].time, 10, "the event carries the clamped clock");
        assert_eq!(clamped[0].op, "submit");
    }

    #[test]
    fn submit_batch_matches_individual_submits() {
        // Equal-time runs, a run broken by a later time, and entries
        // behind the clock that clamp forward into the current run.
        let entries = [
            (1, 3),
            (2, 3),
            (3, 1),
            (1, 6),
            (4, 2),
            (2, 9),
            (3, 9),
            (5, 4),
        ];
        let run = |batched: bool| {
            let (shard, metrics) = spawn(None);
            if batched {
                let reply = call(
                    &shard,
                    ShardRequest::SubmitBatch {
                        entries: entries.to_vec(),
                    },
                );
                assert_eq!(reply, ShardReply::Submitted(entries.len() as u64));
            } else {
                for (tenant, time) in entries {
                    let reply = call(&shard, ShardRequest::Submit { tenant, time });
                    assert_eq!(reply, ShardReply::Done);
                }
            }
            let (ShardReply::Stats(stats), ShardReply::Trace(events)) = (
                call(&shard, ShardRequest::Stats),
                call(&shard, ShardRequest::TraceDump),
            ) else {
                panic!("expected stats and trace");
            };
            call(&shard, ShardRequest::Shutdown);
            shard.join();
            (stats.to_json(), events, metrics.clamped_timestamps.get())
        };
        let batched = run(true);
        assert_eq!(batched.2, 3, "three entries clamp forward");
        assert_eq!(batched, run(false));
    }

    #[test]
    fn force_release_empties_the_active_list() {
        let (shard, _) = spawn(None);
        call(&shard, ShardRequest::Submit { tenant: 5, time: 0 });
        call(&shard, ShardRequest::ForceRelease { tenant: 5, time: 0 });
        let ShardReply::Leases(leases) =
            call(&shard, ShardRequest::ListActive { tenant: 5, time: 0 })
        else {
            panic!("expected leases");
        };
        assert!(leases.is_empty(), "released leases are not listed");
        // A request at t=2 reaches the end of the released short lease
        // [0, 2), so the policy forgets it: a read at t=0 lists it again,
        // as the ledger still owns it.
        call(&shard, ShardRequest::Submit { tenant: 6, time: 2 });
        assert!(matches!(
            call(&shard, ShardRequest::ListActive { tenant: 5, time: 0 }),
            ShardReply::Leases(leases) if leases.len() == 1 && leases[0].end == 2
        ));
        call(&shard, ShardRequest::Shutdown);
        shard.join();
    }

    #[test]
    fn snapshot_restores_to_byte_identical_stats() {
        let (shard, _) = spawn(None);
        for t in 0..20u64 {
            call(
                &shard,
                ShardRequest::Submit {
                    tenant: (t % 5) as usize,
                    time: t,
                },
            );
        }
        call(
            &shard,
            ShardRequest::ForceRelease {
                tenant: 2,
                time: 19,
            },
        );
        let ShardReply::Stats(stats) = call(&shard, ShardRequest::Stats) else {
            panic!("expected stats");
        };
        let ShardReply::Snapshot(snap) = call(&shard, ShardRequest::Shutdown) else {
            panic!("expected snapshot");
        };
        shard.join();

        let (restored, restored_metrics) = spawn(Some(snap.clone()));
        let ShardReply::Stats(restored_stats) = call(&restored, ShardRequest::Stats) else {
            panic!("expected stats");
        };
        assert_eq!(restored_stats.to_json(), stats.to_json());
        // The restored shard keeps serving where the snapshot left off —
        // and re-snapshots identically before any new traffic.
        let ShardReply::Snapshot(again) = call(&restored, ShardRequest::Snapshot) else {
            panic!("expected snapshot");
        };
        assert_eq!(again, snap, "snapshots are idempotent across restore");
        assert_eq!(
            call(
                &restored,
                ShardRequest::Submit {
                    tenant: 7,
                    time: 25
                }
            ),
            ShardReply::Done
        );
        call(&restored, ShardRequest::Shutdown);
        restored.join();
        assert_eq!(
            restored_metrics.restore_ns.snapshot().count(),
            1,
            "restoring records one restore duration"
        );
    }

    #[test]
    fn shutdown_takes_the_shard_down() {
        let (shard, _) = spawn(None);
        call(&shard, ShardRequest::Submit { tenant: 1, time: 0 });
        assert!(matches!(
            call(&shard, ShardRequest::Shutdown),
            ShardReply::Snapshot(_)
        ));
        assert!(matches!(
            shard.call(ShardRequest::Stats),
            Err(LeasedError::ShardDown(0))
        ));
    }

    #[test]
    fn a_poisoned_lock_takes_only_that_shard_down() {
        let shards: Vec<Shard> = (0..3)
            .map(|index| {
                let metrics = Arc::new(ShardMetrics::new());
                Shard::spawn(
                    index,
                    structure(),
                    0,
                    None,
                    metrics,
                    32,
                    DecisionRetention::Full,
                )
            })
            .collect();
        let poisoned = catch_unwind(AssertUnwindSafe(|| {
            let _guard = shards[1].state.lock();
            panic!("a panic while holding the shard lock");
        }));
        assert!(poisoned.is_err());
        assert!(matches!(
            shards[1].call(ShardRequest::Submit { tenant: 1, time: 0 }),
            Err(LeasedError::ShardDown(1))
        ));
        for shard in [&shards[0], &shards[2]] {
            assert_eq!(
                call(shard, ShardRequest::Submit { tenant: 3, time: 0 }),
                ShardReply::Done
            );
            assert!(matches!(
                call(shard, ShardRequest::Stats),
                ShardReply::Stats(stats) if stats.requests == 1
            ));
        }
    }

    #[test]
    fn corrupt_snapshots_fail_calls_instead_of_panicking() {
        let (shard, _) = spawn(Some("not json".to_string()));
        assert!(matches!(
            call(&shard, ShardRequest::Stats),
            ShardReply::Failed(_)
        ));
        drop(shard);
    }
}
