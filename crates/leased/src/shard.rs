//! One tenant shard: a worker thread owning an
//! [`EngineHandle`] bound to the [`TenantPermit`] policy, fed through a
//! bounded channel.
//!
//! [`EngineHandle`] is deliberately not `Send` (policies may hold `Rc`
//! state, as [`TenantPermit`] does), so the engine is **constructed inside
//! the worker thread** — [`Shard::spawn`] ships only `Send` inputs (the
//! structure and an optional snapshot string) across.
//!
//! The shard clock is monotone: operations carrying a timestamp behind the
//! clock are clamped forward, so replayed or reordered client traffic can
//! never wedge a shard with a time-travel error.

use crate::error::LeasedError;
use crate::metrics::ShardMetrics;
use crate::policy::{PermitCore, TenantOp, TenantPermit};
use crate::protocol::{ActiveLease, RetentionInfo, TraceEvent};
use leasing_core::engine::{DecisionRetention, DriverError, EngineHandle, EngineStats};
use leasing_core::lease::LeaseStructure;
use leasing_core::time::TimeStep;
use leasing_telemetry::{EventRing, Stopwatch};
use serde::{json, value_field, value_str, Value};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::mpsc;
use std::sync::Arc;

/// Schema tag of shard snapshots: the engine's `engine-snapshot/v1`
/// envelope plus the policy overlay.
pub const SHARD_SNAPSHOT_SCHEMA: &str = "leased-shard/v1";

/// One operation for a shard worker.
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
    /// Snapshot and stop the worker.
    Shutdown,
}

/// A shard worker's answer.
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
    /// The operation failed; the worker stays up (except on `Shutdown`).
    Failed(String),
}

struct ShardMail {
    request: ShardRequest,
    reply: mpsc::Sender<ShardReply>,
}

/// A running shard: the bounded mailbox plus the worker's join handle.
pub struct Shard {
    index: usize,
    tx: mpsc::SyncSender<ShardMail>,
    metrics: Arc<ShardMetrics>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl Shard {
    /// Spawns shard `index`: a worker thread owning a fresh engine over
    /// `structure`, or one restored from `restore_from` (a
    /// [`SHARD_SNAPSHOT_SCHEMA`] string). The mailbox holds at most
    /// `queue_capacity` in-flight operations; senders beyond that block.
    /// The worker records into `metrics` and keeps its most recent
    /// `trace_capacity` operations in an event ring (0 disables tracing).
    /// `retention` is the engine's decision-trace policy, applied after
    /// construction (and after a restore — the daemon config wins over
    /// whatever mode the snapshot was taken under).
    pub fn spawn(
        index: usize,
        structure: LeaseStructure,
        queue_capacity: usize,
        restore_from: Option<String>,
        metrics: Arc<ShardMetrics>,
        trace_capacity: usize,
        retention: DecisionRetention,
    ) -> Shard {
        let (tx, rx) = mpsc::sync_channel::<ShardMail>(queue_capacity.max(1));
        let worker_metrics = Arc::clone(&metrics);
        let worker = std::thread::spawn(move || {
            worker_loop(
                index,
                structure,
                rx,
                restore_from,
                worker_metrics,
                trace_capacity,
                retention,
            );
        });
        Shard {
            index,
            tx,
            metrics,
            worker: Some(worker),
        }
    }

    /// This shard's index in the daemon's shard vector.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Sends one operation and waits for the worker's answer.
    ///
    /// # Errors
    ///
    /// Returns [`LeasedError::ShardDown`] when the worker is gone.
    pub fn call(&self, request: ShardRequest) -> Result<ShardReply, LeasedError> {
        let (reply_tx, reply_rx) = mpsc::channel();
        // The depth gauge counts enqueue-side; the worker decrements as it
        // dequeues. `sync_channel` gives the pair a happens-before edge,
        // so the gauge can sag toward zero but never wraps.
        let depth = self.metrics.mailbox_depth.inc();
        self.metrics.mailbox_high_watermark.record_max(depth);
        self.tx
            .send(ShardMail {
                request,
                reply: reply_tx,
            })
            .map_err(|_| {
                self.metrics.mailbox_depth.dec();
                LeasedError::ShardDown(self.index)
            })?;
        reply_rx
            .recv()
            .map_err(|_| LeasedError::ShardDown(self.index))
    }

    /// Waits for the worker to exit (after a `Shutdown` call).
    pub fn join(mut self) {
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// How many queued operations one mailbox drain may pull — bounds both
/// the latency a drained burst can add and the length of a collapsed
/// `submit_at` run.
const MICRO_BATCH: usize = 128;

/// The worker body: builds (or restores) the engine, then serves the
/// mailbox until `Shutdown` or every sender is gone.
///
/// The drain loop micro-batches: each blocking `recv` is topped up with
/// up to [`MICRO_BATCH`] already-queued operations, and a submit at the
/// queue front takes the queued submits of its run along — one engine
/// `submit_at` call for the whole run (see [`Worker::serve_run`]).
fn worker_loop(
    index: usize,
    structure: LeaseStructure,
    rx: mpsc::Receiver<ShardMail>,
    restore_from: Option<String>,
    metrics: Arc<ShardMetrics>,
    trace_capacity: usize,
    retention: DecisionRetention,
) {
    let restoring = restore_from.is_some();
    let restore_watch = Stopwatch::start();
    let built = build_engine(structure, restore_from);
    if restoring {
        metrics.restore_ns.record(restore_watch.elapsed_nanos());
    }
    let (engine, core) = match built {
        Ok((mut engine, core)) => {
            engine.set_retention(retention);
            (engine, core)
        }
        Err(e) => {
            // Construction failed (corrupt snapshot): answer every caller
            // with the failure until the daemon drops the mailbox.
            let message = e.to_string();
            while let Ok(mail) = rx.recv() {
                metrics.mailbox_depth.dec();
                let _ = mail.reply.send(ShardReply::Failed(message.clone()));
            }
            return;
        }
    };
    let mut worker = Worker {
        index,
        clock: engine.stats().now,
        engine,
        core,
        metrics,
        ring: EventRing::new(trace_capacity),
    };
    let mut queue: VecDeque<ShardMail> = VecDeque::with_capacity(MICRO_BATCH);
    let mut waiters: Vec<mpsc::Sender<ShardReply>> = Vec::with_capacity(MICRO_BATCH);
    loop {
        if queue.is_empty() {
            match rx.recv() {
                Ok(mail) => {
                    worker.metrics.mailbox_depth.dec();
                    queue.push_back(mail);
                }
                Err(_) => return,
            }
            while queue.len() < MICRO_BATCH {
                match rx.try_recv() {
                    Ok(mail) => {
                        worker.metrics.mailbox_depth.dec();
                        queue.push_back(mail);
                    }
                    Err(_) => break,
                }
            }
        }
        let Some(mail) = queue.pop_front() else {
            continue;
        };
        let stop = matches!(mail.request, ShardRequest::Shutdown);
        let reply = worker.handle(mail.request, &mut queue, &mut waiters);
        for waiter in waiters.drain(..) {
            let _ = waiter.send(reply.clone());
        }
        let _ = mail.reply.send(reply);
        if stop {
            return;
        }
    }
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

/// What a shard worker owns: the engine, the policy core it shares, the
/// monotone shard clock, and where it reports.
struct Worker {
    index: usize,
    engine: EngineHandle<'static, TenantOp>,
    core: Rc<RefCell<PermitCore>>,
    clock: TimeStep,
    metrics: Arc<ShardMetrics>,
    ring: EventRing<TraceEvent>,
}

impl Worker {
    /// Pushes one event into the shard's trace ring (a no-op at capacity
    /// 0).
    fn trace(&mut self, time: TimeStep, tenant: usize, op: &str, outcome: String) {
        if self.ring.capacity() == 0 {
            return;
        }
        self.ring.push(TraceEvent {
            seq: self.ring.recorded().saturating_add(1),
            shard: self.index as u64,
            time,
            tenant: tenant as u64,
            op: op.to_string(),
            outcome,
        });
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
        let mut len = 0u64;
        for (tenant, time) in run {
            len += 1;
            let clamped = time < t;
            if clamped {
                self.metrics.clamped_timestamps.inc();
            }
            let outcome = match &result {
                Err(e) => format!("err: {e}"),
                Ok(_) if clamped => "clamped".to_string(),
                Ok(_) => "ok".to_string(),
            };
            self.trace(t, tenant, "submit", outcome);
        }
        self.metrics.micro_batch_len.record(len);
        result
    }

    /// Serves one operation. A `Submit` takes the queued submits of its
    /// run out of `queue` and leaves their reply senders in `waiters`, to
    /// receive the same reply.
    fn handle(
        &mut self,
        request: ShardRequest,
        queue: &mut VecDeque<ShardMail>,
        waiters: &mut Vec<mpsc::Sender<ShardReply>>,
    ) -> ShardReply {
        match request {
            ShardRequest::Submit { tenant, time } => {
                let queued = || {
                    queue.iter().map_while(|mail| match mail.request {
                        ShardRequest::Submit { tenant, time } => Some((tenant, time)),
                        _ => None,
                    })
                };
                let (t, joining) = run_of(self.clock, time, queued().map(|(_, time)| time));
                let run = std::iter::once((tenant, time)).chain(queued().take(joining));
                self.metrics.ops_submit.add(1 + joining as u64);
                self.metrics.submit_demands.add(1 + joining as u64);
                let reply = match self.serve_run(t, run) {
                    Ok(_) => ShardReply::Done,
                    Err(e) => ShardReply::Failed(e.to_string()),
                };
                waiters.extend(queue.drain(..joining).map(|mail| mail.reply));
                reply
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
                match self.engine.submit(t, TenantOp::Release(tenant)) {
                    Ok(()) => {
                        self.clock = t;
                        let outcome = if clamped { "clamped" } else { "ok" };
                        self.trace(t, tenant, "force-release", outcome.to_string());
                        ShardReply::Done
                    }
                    Err(e) => {
                        self.trace(t, tenant, "force-release", format!("err: {e}"));
                        ShardReply::Failed(e.to_string())
                    }
                }
            }
            ShardRequest::ListActive { tenant, time } => {
                self.metrics.ops_list_active.inc();
                let core = self.core.borrow();
                let ledger = self.engine.ledger();
                let leases = (0..core.structure().num_types())
                    .filter_map(|k| {
                        ledger
                            .active_lease_of_type(tenant, k, time)
                            .filter(|&triple| !core.is_released(triple))
                            .map(|triple| ActiveLease {
                                tenant: tenant as u64,
                                type_index: k,
                                start: triple.start,
                                end: triple.start + core.structure().length(k),
                            })
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
                ShardReply::Trace(self.ring.iter().cloned().collect())
            }
            ShardRequest::Snapshot | ShardRequest::Shutdown => {
                self.metrics.ops_snapshot.inc();
                let watch = Stopwatch::start();
                let reply = match snapshot(&self.engine, &self.core) {
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
fn snapshot(
    engine: &EngineHandle<'static, TenantOp>,
    core: &Rc<RefCell<PermitCore>>,
) -> Result<String, LeasedError> {
    let engine_value = json::parse(&engine.snapshot())?;
    let envelope = Value::Map(vec![
        (
            "schema".to_string(),
            Value::Str(SHARD_SNAPSHOT_SCHEMA.to_string()),
        ),
        ("engine".to_string(), engine_value),
        ("policy".to_string(), core.borrow().to_value()),
    ]);
    Ok(json::to_string(&envelope))
}

/// Builds a fresh engine over `structure`, or restores one from a
/// [`SHARD_SNAPSHOT_SCHEMA`] string.
fn build_engine(
    structure: LeaseStructure,
    restore_from: Option<String>,
) -> Result<(EngineHandle<'static, TenantOp>, Rc<RefCell<PermitCore>>), LeasedError> {
    match restore_from {
        None => {
            let policy = TenantPermit::new(structure.clone());
            let core = policy.core();
            Ok((EngineHandle::new(policy, structure), core))
        }
        Some(text) => restore_shard(structure, &text),
    }
}

/// Restores an engine + policy pair from a shard snapshot.
///
/// # Errors
///
/// Rejects wrong schema tags, malformed JSON, and engine payloads the
/// core engine refuses.
pub fn restore_shard(
    structure: LeaseStructure,
    text: &str,
) -> Result<(EngineHandle<'static, TenantOp>, Rc<RefCell<PermitCore>>), LeasedError> {
    let envelope = json::parse(text)?;
    let schema = value_str(value_field(&envelope, "schema")?)?;
    if schema != SHARD_SNAPSHOT_SCHEMA {
        return Err(LeasedError::Protocol(format!(
            "expected schema {SHARD_SNAPSHOT_SCHEMA}, found {schema}"
        )));
    }
    let policy_value = value_field(&envelope, "policy")?;
    let core = Rc::new(RefCell::new(PermitCore::from_value(
        structure,
        policy_value,
    )?));
    let engine_text = json::to_string(value_field(&envelope, "engine")?);
    let engine = EngineHandle::restore(TenantPermit::from_core(Rc::clone(&core)), &engine_text)
        .map_err(|e| LeasedError::Protocol(e.to_string()))?;
    Ok((engine, core))
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
    fn corrupt_snapshots_fail_calls_instead_of_panicking() {
        let (shard, _) = spawn(Some("not json".to_string()));
        assert!(matches!(
            call(&shard, ShardRequest::Stats),
            ShardReply::Failed(_)
        ));
        drop(shard);
    }
}
