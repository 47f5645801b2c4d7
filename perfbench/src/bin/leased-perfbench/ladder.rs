//! The traced run: the same seeded op stream replayed down a ladder of
//! public entry points — `Ledger`, `Driver`, `EngineHandle`, `Shard::call`,
//! the `protocol` codec, raw loopback transport and the full
//! client/daemon stack — each timed from the benchmark's own code, so every
//! layer gets a self time and a share of the end-to-end frame time.
//!
//! The untraced phase is an ordinary end-to-end drive over half the run's
//! seconds, at most [`DAEMON_SECONDS`]. Its frames are then replayed,
//! traced, on a fresh daemon, and through each in-process rung. A frame's
//! time is its mean latency with one frame in flight, and wall time per
//! frame when frames overlap.

use crate::bench::{
    drive_workload, metrics_text, verify, Outcome, Session, Verdict, DAEMON_SECONDS,
};
use crate::daemon::Launcher;
use crate::drive::{metric_max, metric_sum, run_closed, run_open, Phase};
use crate::reference::{list_active, Reference};
use crate::report::{mean, median, quantile, Metric};
use crate::workload::{is_work, ops, structure, Workload, SHARDS};
use leased::metrics::ShardMetrics;
use leased::policy::PermitCore;
use leased::protocol::{self, Request, Response};
use leased::shard::{Shard, ShardRequest};
use leased::{shard_of, TenantOp, TenantPermit, CATEGORY_FORCE_RELEASE};
use leasing_core::engine::{
    Books, DecisionRetention, Driver, EngineHandle, LeasingAlgorithm, Ledger,
};
use leasing_core::time::TimeStep;
use std::cell::RefCell;
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Timed repetitions of each in-process replay; the median is reported.
const REPEATS: usize = 3;

/// Frames the transport echo replays at most.
const ECHO_FRAMES: usize = 50_000;

/// Mailbox capacity and trace ring of the in-process shards: the
/// daemon's defaults.
const SHARD_QUEUE: usize = 1024;
const SHARD_TRACE: usize = 256;

/// One engine call a shard makes.
#[derive(Clone, Debug)]
enum Call {
    /// One `submit_at` run of equal-time demands.
    Demands(usize, TimeStep, Vec<TenantOp>),
    /// One force-release.
    Release(usize, TimeStep, usize),
    /// One `list-active` read.
    Read(usize, u64, TimeStep),
}

/// How the daemon's server splits a frame into shard calls.
fn shard_requests(request: &Request) -> Vec<(usize, ShardRequest)> {
    let route = |tenant: u64| shard_of(tenant, SHARDS);
    match *request {
        Request::Submit { tenant, time } => vec![(
            route(tenant),
            ShardRequest::Submit {
                tenant: tenant as usize,
                time,
            },
        )],
        Request::SubmitBatch { ref entries } => {
            let mut per_shard: Vec<Vec<(usize, TimeStep)>> = vec![Vec::new(); SHARDS];
            for &(tenant, time) in entries {
                per_shard[route(tenant)].push((tenant as usize, time));
            }
            per_shard
                .into_iter()
                .enumerate()
                .filter(|(_, batch)| !batch.is_empty())
                .map(|(shard, entries)| (shard, ShardRequest::SubmitBatch { entries }))
                .collect()
        }
        Request::ListActive { tenant, time } => vec![(
            route(tenant),
            ShardRequest::ListActive {
                tenant: tenant as usize,
                time,
            },
        )],
        Request::ForceRelease { tenant, time } => vec![(
            route(tenant),
            ShardRequest::ForceRelease {
                tenant: tenant as usize,
                time,
            },
        )],
        _ => Vec::new(),
    }
}

/// How a shard turns its requests into engine calls: equal-time runs of a
/// batch collapse into one `submit_at`; times clamp to the shard clock.
fn engine_calls(requests: &[Request]) -> Vec<Call> {
    let mut clocks = [0 as TimeStep; SHARDS];
    let mut calls = Vec::new();
    for request in requests {
        for (shard, request) in shard_requests(request) {
            let clock = &mut clocks[shard];
            match request {
                ShardRequest::Submit { tenant, time } => {
                    *clock = time.max(*clock);
                    calls.push(Call::Demands(shard, *clock, vec![TenantOp::Demand(tenant)]));
                }
                ShardRequest::SubmitBatch { entries } => {
                    let mut entries = entries.into_iter().peekable();
                    while let Some((tenant, time)) = entries.next() {
                        let t = time.max(*clock);
                        let mut run = vec![TenantOp::Demand(tenant)];
                        while let Some((next, _)) = entries.next_if(|&(_, time)| time <= t) {
                            run.push(TenantOp::Demand(next));
                        }
                        *clock = t;
                        calls.push(Call::Demands(shard, t, run));
                    }
                }
                ShardRequest::ForceRelease { tenant, time } => {
                    *clock = time.max(*clock);
                    calls.push(Call::Release(shard, *clock, tenant));
                }
                ShardRequest::ListActive { tenant, time } => {
                    calls.push(Call::Read(shard, tenant as u64, time));
                }
                _ => {}
            }
        }
    }
    calls
}

/// A policy that serves every request by doing nothing: what remains of a
/// replay under it is the engine's own per-request cost.
struct Noop;

impl LeasingAlgorithm for Noop {
    type Request = TenantOp;

    fn on_request(&mut self, _time: TimeStep, _request: TenantOp, _books: Books<'_>) {}
}

/// One shard's engine under replay.
trait Replay {
    fn demands(&mut self, time: TimeStep, run: &[TenantOp]);
    fn release(&mut self, time: TimeStep, tenant: usize);
    fn read(&self, tenant: u64, time: TimeStep) -> usize;
}

impl Replay for (Driver<TenantPermit>, Rc<RefCell<PermitCore>>) {
    fn demands(&mut self, time: TimeStep, run: &[TenantOp]) {
        let _ = self.0.submit_at(time, run.iter().copied());
    }
    fn release(&mut self, time: TimeStep, tenant: usize) {
        let _ = self.0.submit(time, TenantOp::Release(tenant));
    }
    fn read(&self, tenant: u64, time: TimeStep) -> usize {
        list_active(self.0.ledger(), &self.1.borrow(), tenant, time).len()
    }
}

impl Replay for Handle {
    fn demands(&mut self, time: TimeStep, run: &[TenantOp]) {
        let _ = self.0.submit_at(time, run.iter().copied());
    }
    fn release(&mut self, time: TimeStep, tenant: usize) {
        let _ = self.0.submit(time, TenantOp::Release(tenant));
    }
    fn read(&self, tenant: u64, time: TimeStep) -> usize {
        self.1.as_ref().map_or(0, |core| {
            list_active(self.0.ledger(), &core.borrow(), tenant, time).len()
        })
    }
}

/// A type-erased engine and, for policies that have one, the policy core
/// that `list-active` reads.
type Handle = (
    EngineHandle<'static, TenantOp>,
    Option<Rc<RefCell<PermitCore>>>,
);

/// Time spent in one replay of the engine calls.
#[derive(Clone, Copy, Debug, Default)]
struct EngineTime {
    /// Nanoseconds serving demands and releases.
    serve_ns: f64,
    /// Nanoseconds serving reads.
    read_ns: f64,
}

/// Replays `calls` through one fresh engine per shard. Runs of demand and
/// release calls are timed as a whole; each read is timed on its own.
fn replay<E: Replay>(calls: &[Call], mut engines: Vec<E>) -> EngineTime {
    let mut time = EngineTime::default();
    let mut segment: Option<Instant> = None;
    for call in calls {
        match call {
            Call::Demands(shard, t, run) => {
                segment.get_or_insert_with(Instant::now);
                engines[*shard].demands(*t, run);
            }
            Call::Release(shard, t, tenant) => {
                segment.get_or_insert_with(Instant::now);
                engines[*shard].release(*t, *tenant);
            }
            Call::Read(shard, tenant, t) => {
                if let Some(started) = segment.take() {
                    time.serve_ns += started.elapsed().as_nanos() as f64;
                }
                let started = Instant::now();
                black_box(engines[*shard].read(*tenant, *t));
                time.read_ns += started.elapsed().as_nanos() as f64;
            }
        }
    }
    if let Some(started) = segment.take() {
        time.serve_ns += started.elapsed().as_nanos() as f64;
    }
    drop(black_box(engines));
    time
}

/// Median over [`REPEATS`] runs of `run`, field by field.
fn repeated(mut run: impl FnMut() -> EngineTime) -> EngineTime {
    let runs: Vec<EngineTime> = (0..REPEATS).map(|_| run()).collect();
    let field = |get: fn(&EngineTime) -> f64| median(&mut runs.iter().map(get).collect::<Vec<_>>());
    EngineTime {
        serve_ns: field(|t| t.serve_ns),
        read_ns: field(|t| t.read_ns),
    }
}

fn permit_drivers() -> Vec<(Driver<TenantPermit>, Rc<RefCell<PermitCore>>)> {
    (0..SHARDS)
        .map(|_| {
            let policy = TenantPermit::new(structure());
            let core = policy.core();
            (Driver::new(policy, structure()), core)
        })
        .collect()
}

fn permit_handles() -> Vec<Handle> {
    (0..SHARDS)
        .map(|_| {
            let policy = TenantPermit::new(structure());
            let core = policy.core();
            (EngineHandle::new(policy, structure()), Some(core))
        })
        .collect()
}

fn noop_handles() -> Vec<Handle> {
    (0..SHARDS)
        .map(|_| (EngineHandle::new(Noop, structure()), None))
        .collect()
}

/// Nanoseconds to replay every decision of `ledgers` through fresh
/// ledgers with `advance` + `buy` (or the release audit `charge`).
fn ledger_replay_ns(ledgers: &[&Ledger]) -> f64 {
    let mut runs: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let mut total = 0.0;
            for source in ledgers {
                let mut ledger = Ledger::new(structure());
                let started = Instant::now();
                for decision in source.decisions() {
                    ledger.advance(decision.time);
                    match decision.triple() {
                        Some(triple) => {
                            ledger.buy(decision.time, triple);
                        }
                        None => ledger.charge(
                            decision.time,
                            decision.element,
                            decision.cost,
                            CATEGORY_FORCE_RELEASE,
                        ),
                    }
                }
                total += started.elapsed().as_nanos() as f64;
                drop(black_box(ledger));
            }
            total
        })
        .collect();
    median(&mut runs)
}

/// The shard rung: every frame's shard calls against in-process shards.
struct ShardTime {
    /// Nanoseconds of every call.
    calls_ns: Vec<u64>,
    /// Nanoseconds of the calls that `submit`/`submit-batch` frames made.
    submit_calls_ns: f64,
}

fn shard_rung(requests: &[Request]) -> Result<ShardTime, String> {
    let shards: Vec<Shard> = (0..SHARDS)
        .map(|index| {
            Shard::spawn(
                index,
                structure(),
                SHARD_QUEUE,
                None,
                Arc::new(ShardMetrics::new()),
                SHARD_TRACE,
                DecisionRetention::Full,
            )
        })
        .collect();
    let mut time = ShardTime {
        calls_ns: Vec::with_capacity(requests.len() * SHARDS),
        submit_calls_ns: 0.0,
    };
    let mut outcome = Ok(());
    'frames: for request in requests {
        let submit = matches!(
            request,
            Request::Submit { .. } | Request::SubmitBatch { .. }
        );
        for (shard, call) in shard_requests(request) {
            let started = Instant::now();
            if let Err(e) = shards[shard].call(call) {
                outcome = Err(format!("shard call: {e}"));
                break 'frames;
            }
            let ns = started.elapsed().as_nanos() as u64;
            time.calls_ns.push(ns);
            if submit {
                time.submit_calls_ns += ns as f64;
            }
        }
    }
    for shard in shards {
        let _ = shard.call(ShardRequest::Shutdown);
        shard.join();
    }
    outcome.map(|()| time)
}

/// The codec rung: nanoseconds to encode and to decode every frame's
/// request and reply, and the bytes on the wire.
struct CodecTime {
    encode_ns: f64,
    decode_ns: f64,
    bytes: u64,
}

fn codec_rung(phase: &Phase) -> Result<CodecTime, String> {
    let work: Vec<_> = phase.log.iter().filter(|e| is_work(&e.request)).collect();
    let timed = |run: &mut dyn FnMut()| {
        let started = Instant::now();
        run();
        started.elapsed().as_nanos() as f64
    };
    let mut encode_runs = Vec::with_capacity(REPEATS);
    let mut decode_runs = Vec::with_capacity(REPEATS);
    let mut bytes = 0;
    for _ in 0..REPEATS {
        let mut requests: Vec<String> = Vec::new();
        let mut responses: Vec<Response> = Vec::new();
        let mut failed = None;
        let encode_requests = timed(&mut || {
            requests = work.iter().map(|e| protocol::encode(&e.request)).collect();
        });
        let decode_requests = timed(&mut || {
            for payload in &requests {
                black_box(protocol::decode::<Request>(payload).ok());
            }
        });
        let decode_responses = timed(&mut || {
            responses = work
                .iter()
                .filter_map(|e| match protocol::decode::<Response>(&e.reply) {
                    Ok(response) => Some(response),
                    Err(error) => {
                        failed = Some(error.to_string());
                        None
                    }
                })
                .collect();
        });
        let encode_responses = timed(&mut || {
            for response in &responses {
                black_box(protocol::encode(response));
            }
        });
        if let Some(error) = failed {
            return Err(format!("decoding a reply: {error}"));
        }
        encode_runs.push(encode_requests + encode_responses);
        decode_runs.push(decode_requests + decode_responses);
        bytes = requests.iter().map(|r| r.len() as u64 + 4).sum::<u64>()
            + work.iter().map(|e| e.reply.len() as u64 + 4).sum::<u64>();
    }
    Ok(CodecTime {
        encode_ns: median(&mut encode_runs),
        decode_ns: median(&mut decode_runs),
        bytes,
    })
}

/// The transport rung: the frames' bytes bounced over a loopback TCP
/// connection by a thread that only reads each frame and writes its
/// reply, with the workload's frames in flight. Returns nanoseconds per
/// frame: mean round trip with one in flight, wall time per frame
/// otherwise.
fn echo_rung(phase: &Phase, depth: usize) -> Result<f64, String> {
    let frame = |payload: &str| {
        let mut bytes = Vec::with_capacity(payload.len() + 4);
        let _ = protocol::queue_frame(&mut bytes, payload);
        bytes
    };
    let pairs: Vec<(Vec<u8>, Vec<u8>)> = phase
        .log
        .iter()
        .filter(|e| is_work(&e.request))
        .take(ECHO_FRAMES)
        .map(|e| (frame(&protocol::encode(&e.request)), frame(&e.reply)))
        .collect();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("echo bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    std::thread::scope(|scope| {
        let server = scope.spawn(|| -> std::io::Result<()> {
            let (stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let mut reader = BufReader::new(stream.try_clone()?);
            let mut writer = stream;
            for (_, reply) in &pairs {
                protocol::read_frame(&mut reader)?;
                writer.write_all(reply)?;
            }
            Ok(())
        });
        let client = || -> Result<f64, String> {
            let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
            let mut writer = BufWriter::new(stream);
            let mut inflight = std::collections::VecDeque::with_capacity(depth);
            let mut rtt_ns = 0.0;
            let started = Instant::now();
            for (request, _) in &pairs {
                writer.write_all(request).map_err(|e| e.to_string())?;
                inflight.push_back(Instant::now());
                if inflight.len() >= depth {
                    writer.flush().map_err(|e| e.to_string())?;
                    protocol::read_frame(&mut reader).map_err(|e| e.to_string())?;
                    rtt_ns += inflight
                        .pop_front()
                        .map_or(0.0, |t| t.elapsed().as_nanos() as f64);
                }
            }
            writer.flush().map_err(|e| e.to_string())?;
            while let Some(sent) = inflight.pop_front() {
                protocol::read_frame(&mut reader).map_err(|e| e.to_string())?;
                rtt_ns += sent.elapsed().as_nanos() as f64;
            }
            let frames = pairs.len().max(1) as f64;
            Ok(if depth == 1 {
                rtt_ns / frames
            } else {
                started.elapsed().as_nanos() as f64 / frames
            })
        };
        let per_frame = client();
        let served = server
            .join()
            .map_err(|_| "echo server panicked".to_string())?;
        served.map_err(|e| format!("echo server: {e}"))?;
        per_frame
    })
}

/// The time a frame of `phase` takes end to end: mean latency with one
/// frame in flight, wall time per frame when frames overlap.
fn frame_ns(phase: &Phase, workload: Workload) -> f64 {
    if workload.depth() == 1 {
        mean(&phase.latency_ns)
    } else {
        phase.elapsed_s * 1e9 / phase.work_frames().max(1) as f64
    }
}

/// Replays the requests of `phase` on `daemon` in the workload's loop
/// shape, traced.
fn traced_replay(
    launcher: &Launcher,
    workload: Workload,
    phase: &Phase,
) -> Result<(Phase, String), String> {
    let (daemon, _) = launcher.start()?;
    let requests = phase.requests();
    let replayed = match workload.offered_rate() {
        Some(rate) => run_open(daemon.addr(), requests, rate, true)?,
        None => {
            let mut requests = requests.into_iter();
            run_closed(daemon.addr(), workload.depth(), true, None, |_| {
                requests.next()
            })?
        }
    };
    let metrics = metrics_text(&daemon)?;
    daemon.stop()?;
    Ok((replayed, metrics))
}

/// The traced run of `workload`: see the module documentation.
///
/// # Errors
///
/// Daemon, transport and shard failures.
pub fn traced(
    launcher: &Launcher,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let (daemon, _) = launcher.start()?;
    let untraced_seconds = (seconds / 2.0).min(DAEMON_SECONDS);
    let session: Session = drive_workload(&daemon, workload, seed, untraced_seconds)?;
    daemon.stop()?;
    let mut reference = Reference::new();
    let mut verdict = verify(&session, &mut reference);
    let main = &session.main;

    let (replayed, daemon_metrics) = traced_replay(launcher, workload, main)?;
    let differing: u64 = main
        .log
        .iter()
        .zip(&replayed.log)
        .filter(|(a, b)| a.reply != b.reply)
        .map(|(a, _)| ops(&a.request))
        .sum();
    let mut replay_verdict = Verdict {
        attempted: replayed.log.iter().map(|e| ops(&e.request)).sum(),
        failed: replayed.error_ops + differing,
        problems: Vec::new(),
    };
    if differing > 0 {
        replay_verdict
            .problems
            .push(format!("{differing} ops answered differently on replay"));
    }
    verdict.merge(replay_verdict);

    // The engine calls the shards made, and a check that they are the
    // calls the traced daemon counted: one micro-batch per `submit_at` run.
    let requests: Vec<Request> = main.requests();
    let mut calls = engine_calls(&requests);
    let runs: Vec<usize> = calls
        .iter()
        .filter_map(|c| match c {
            Call::Demands(_, _, run) => Some(run.len()),
            _ => None,
        })
        .collect();
    let daemon_runs = metric_sum(&daemon_metrics, "leased_micro_batch_size_count");
    if daemon_runs != runs.len() as f64 {
        verdict.problems.push(format!(
            "the daemon served {daemon_runs} demand runs, the ladder replays {}",
            runs.len()
        ));
    }
    let daemon_demands = metric_sum(&daemon_metrics, "leased_submit_demands_total");
    if daemon_demands != runs.iter().sum::<usize>() as f64 {
        verdict.problems.push(format!(
            "the daemon served {daemon_demands} demands in runs, the ladder replays {}",
            runs.iter().sum::<usize>()
        ));
    }
    // The read probes come last; they only read, so they time
    // `list-active` on the closed-loop workloads without changing the
    // demand calls.
    calls.extend(engine_calls(&session.reads.requests()));

    // The in-process rungs.
    let driver = repeated(|| replay(&calls, permit_drivers()));
    let handle = repeated(|| replay(&calls, permit_handles()));
    let noop = repeated(|| replay(&calls, noop_handles()));
    let ledger_ns = ledger_replay_ns(&reference.ledgers().collect::<Vec<_>>());
    let shard = shard_rung(&requests)?;
    let codec = codec_rung(main)?;
    let echo_ns = echo_rung(main, workload.depth())?;

    // Counts.
    let frames = main.work_frames().max(1) as f64;
    let demands = main.demands().max(1) as f64;
    let engine_requests = calls
        .iter()
        .map(|c| match c {
            Call::Demands(_, _, run) => run.len(),
            Call::Release(..) => 1,
            Call::Read(..) => 0,
        })
        .sum::<usize>()
        .max(1) as f64;
    let reads = calls
        .iter()
        .filter(|c| matches!(c, Call::Read(..)))
        .count()
        .max(1) as f64;
    let list_active_ns = handle.read_ns / reads;
    let frame_reads = requests
        .iter()
        .filter(|r| matches!(r, Request::ListActive { .. }))
        .count() as f64;
    let buys: usize = reference.ledgers().map(Ledger::leases_bought).sum();
    let shift_work: u64 = reference
        .ledgers()
        .map(|l| l.coverage_stats().shift_work)
        .sum();
    let submit_frames = requests
        .iter()
        .filter(|r| matches!(r, Request::Submit { .. } | Request::SubmitBatch { .. }))
        .count()
        .max(1) as f64;
    let mut calls_sorted = shard.calls_ns.clone();
    calls_sorted.sort_unstable();
    let call_count = calls_sorted.len().max(1) as f64;
    let calls_total: f64 = calls_sorted.iter().map(|&ns| ns as f64).sum();

    // Derived layer times.
    let ns_per_buy = ledger_ns / buys.max(1) as f64;
    let policy_self = (handle.serve_ns - noop.serve_ns) / engine_requests;
    let handle_self = (handle.serve_ns - driver.serve_ns) / engine_requests;
    let handoff = (calls_total - handle.serve_ns - handle.read_ns) / call_count;
    let dispatch = metric_sum(&daemon_metrics, "leased_submit_latency_ns_sum")
        / metric_sum(&daemon_metrics, "leased_submit_latency_ns_count").max(1.0);
    let server_self = dispatch - shard.submit_calls_ns / submit_frames;
    let codec_per_frame = (codec.encode_ns + codec.decode_ns) / frames;
    let untraced = frame_ns(main, workload);
    let traced_frame = frame_ns(&replayed, workload);
    let replayed_frames = replayed.log.len().max(1) as f64;
    let mut lag = replayed.gen_lag_ns.clone();
    lag.sort_unstable();

    let ledger_rung = ns_per_buy * buys as f64 / frames;
    let rungs = [
        ("ledger (advance+buy)", ledger_rung),
        (
            "policy (TenantPermit)",
            (handle.serve_ns - noop.serve_ns) / frames - ledger_rung,
        ),
        ("policy list-active", list_active_ns * frame_reads / frames),
        (
            "driver",
            (driver.serve_ns - (handle.serve_ns - noop.serve_ns)) / frames,
        ),
        (
            "handle (dyn dispatch)",
            handle_self * engine_requests / frames,
        ),
        ("shard handoff", handoff * call_count / frames),
        ("server dispatch self", server_self * submit_frames / frames),
        ("protocol codec", codec_per_frame),
        ("loopback transport", echo_ns),
        ("client generator lag", mean(&replayed.gen_lag_ns)),
    ];
    let explained: f64 = rungs.iter().map(|(_, ns)| ns).sum();
    let unexplained_pct = 100.0 * (untraced - explained) / untraced;

    let metrics = vec![
        Metric::new("ledger.ns_per_buy", ns_per_buy, "ns"),
        Metric::new("ledger.buys_per_demand", buys as f64 / demands, "count"),
        Metric::new("ledger.coverage_shift_work", shift_work as f64, "count"),
        Metric::new(
            "driver.ns_per_demand",
            driver.serve_ns / engine_requests,
            "ns",
        ),
        Metric::new("handle.self_ns_per_demand", handle_self, "ns"),
        Metric::new("policy.self_ns_per_demand", policy_self, "ns"),
        Metric::new("policy.list_active_ns", list_active_ns, "ns"),
        Metric::new(
            "shard.call_ns_p50",
            quantile(&calls_sorted, 0.5) as f64,
            "ns",
        ),
        Metric::new(
            "shard.call_ns_p99",
            quantile(&calls_sorted, 0.99) as f64,
            "ns",
        ),
        Metric::new("shard.handoff_ns_per_call", handoff, "ns"),
        Metric::new("shard.calls_per_frame", call_count / frames, "count"),
        Metric::new(
            "shard.micro_batch_mean",
            metric_sum(&daemon_metrics, "leased_micro_batch_size_sum")
                / metric_sum(&daemon_metrics, "leased_micro_batch_size_count").max(1.0),
            "count",
        ),
        Metric::new(
            "shard.mailbox_high_watermark",
            metric_max(&daemon_metrics, "leased_mailbox_high_watermark"),
            "count",
        ),
        Metric::new(
            "protocol.encode_ns_per_frame",
            codec.encode_ns / frames,
            "ns",
        ),
        Metric::new(
            "protocol.decode_ns_per_frame",
            codec.decode_ns / frames,
            "ns",
        ),
        Metric::new(
            "protocol.bytes_per_demand",
            codec.bytes as f64 / main.work_ops().max(1) as f64,
            "B",
        ),
        Metric::new("server.dispatch_ns_mean", dispatch, "ns"),
        Metric::new("server.self_ns_per_frame", server_self, "ns"),
        Metric::new(
            "client.send_ns_per_frame",
            replayed.send_ns as f64 / replayed_frames,
            "ns",
        ),
        Metric::new(
            "client.recv_wait_ns_per_frame",
            replayed.recv_wait_ns as f64 / replayed_frames,
            "ns",
        ),
        Metric::new(
            "client.gen_lag_p99_us",
            quantile(&lag, 0.99) as f64 / 1e3,
            "us",
        ),
        Metric::new(
            "transport.residual_ns_per_frame",
            traced_frame - dispatch - codec_per_frame,
            "ns",
        ),
        Metric::new("transport.echo_ns_per_frame", echo_ns, "ns"),
        Metric::new("ladder.frame_ns", untraced, "ns"),
        Metric::new("ladder.unexplained_pct", unexplained_pct, "%"),
        Metric::new(
            "ladder.tracing_overhead_pct",
            100.0 * (traced_frame - untraced) / untraced,
            "%",
        ),
    ];

    let mut detail = vec![
        format!(
            "layer ladder, {} ({} frames; end-to-end frame time {:.0} ns untraced, \
             {:.0} ns traced)",
            workload.name(),
            frames,
            untraced,
            traced_frame
        ),
        format!(
            "{:<24} {:>12} {:>12} {:>8}",
            "rung", "ns/op", "self ns", "share"
        ),
    ];
    let mut cumulative = 0.0;
    for (name, self_ns) in rungs {
        cumulative += self_ns;
        detail.push(format!(
            "{name:<24} {cumulative:>12.0} {self_ns:>12.1} {:>7.1}%",
            100.0 * self_ns / untraced
        ));
    }
    detail.push(format!(
        "{:<24} {untraced:>12.0} {:>12.1} {unexplained_pct:>7.1}%",
        "unexplained",
        untraced - explained
    ));
    Ok(Outcome {
        verdict,
        metrics,
        detail,
    })
}
