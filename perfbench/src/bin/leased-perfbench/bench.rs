//! One end-to-end run of a workload against a fresh daemon, and the
//! checks that its answers are right.

use crate::daemon::{Daemon, Launcher};
use crate::drive::{metric_sum, run_closed, run_open, Phase};
use crate::reference::{Exchange, Reference};
use crate::report::{describe, median, quantile, Metric};
use crate::workload::{demands, ops, OpStream, Workload};
use leased::protocol::{self, Request, Response};
use leased::Client;

/// Daemons started and stopped unused before each drive. `setup_s` is the
/// median over these launches and those of the driven daemons; spreading
/// the launches over the run, rather than making them all at its start,
/// keeps a short noisy stretch of the machine from moving it.
pub const SETUP_LAUNCHES_PER_DRIVE: usize = 3;

/// Longest one daemon is driven for. A longer run drives fresh daemons in
/// turn and reports medians over them, so the daemons that a noisy
/// stretch of the machine slowed do not move the result; it also keeps
/// each daemon's state, and the reference replay, bounded.
pub const DAEMON_SECONDS: f64 = 3.0;

/// What one drive of a workload against a daemon observed.
#[derive(Debug)]
pub struct Session {
    /// The timed phase.
    pub main: Phase,
    /// The read probes after a closed-loop drive (empty on the open loop).
    pub reads: Phase,
    /// The closing `stats` exchange.
    pub tail: Phase,
    /// The daemon's `metrics` exposition after the drive.
    pub metrics: String,
    /// Daemon peak RSS at the checkpoint, in MB.
    pub rss_mb: f64,
}

impl Session {
    /// Every exchange, in the order the daemon served them.
    pub fn exchanges(&self) -> impl Iterator<Item = &Exchange> {
        self.main
            .log
            .iter()
            .chain(&self.reads.log)
            .chain(&self.tail.log)
    }

    /// Latencies of the workload frames after the first `warmup`, which
    /// leaves at least half of a short drive's frames.
    pub fn timed_latency_ns(&self, warmup: usize) -> &[u64] {
        let latency = &self.main.latency_ns;
        &latency[warmup.min(latency.len() / 2)..]
    }

    /// Latencies of every `list-active` frame: the reads mixed into the
    /// stream, then the read probes.
    pub fn read_latency_ns(&self) -> impl Iterator<Item = &u64> {
        self.main
            .read_latency_ns
            .iter()
            .chain(&self.reads.read_latency_ns)
    }

    /// Cost per demand, from the daemon's `stats` at the checkpoint.
    ///
    /// # Errors
    ///
    /// Fails when that reply is not a `stats` answer.
    pub fn cost_per_demand(&self) -> Result<f64, String> {
        let (reply, served) = match self.main.checkpoint {
            Some(index) => (
                &self.main.log[index].reply,
                self.main.log[..index]
                    .iter()
                    .map(|e| demands(&e.request))
                    .sum(),
            ),
            None => (
                &self.tail.log.first().ok_or("no closing stats")?.reply,
                self.main.demands(),
            ),
        };
        match protocol::decode::<Response>(reply) {
            Ok(Response::Stats(stats)) if served > 0 => Ok(stats.total_cost() / served as f64),
            other => Err(format!("checkpoint stats reply unusable: {other:?}")),
        }
    }
}

/// Drives `workload` against `daemon` for `seconds`, sends the workload's
/// read probes one at a time, then a closing `stats`.
///
/// # Errors
///
/// Transport failures.
pub fn drive_workload(
    daemon: &Daemon,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<Session, String> {
    let addr = daemon.addr();
    let rss = || daemon.peak_rss_mb();
    let mut stream = OpStream::new(workload, seed);
    let (main, rss_mb) = match (
        workload.offered_rate(),
        workload.checkpoint_demands(seconds),
    ) {
        (Some(rate), _) => {
            let count = (rate * seconds).round().max(1.0) as usize;
            let requests = (0..count).map(|_| stream.next_frame()).collect();
            let main = run_open(addr, requests, rate, false)?;
            (main, daemon.peak_rss_mb()?)
        }
        (None, checkpoint) => {
            let checkpoint = checkpoint.unwrap_or(0);
            let mut sampled = false;
            let main = run_closed(addr, workload.depth(), false, Some(&rss), |progress| {
                if !sampled && progress.demands >= checkpoint {
                    sampled = true;
                    return Some(Request::Stats);
                }
                (progress.elapsed_s < seconds || !sampled).then(|| stream.next_frame())
            })?;
            let rss_mb = main
                .checkpoint_rss_mb
                .ok_or("the checkpoint was never reached")?;
            (main, rss_mb)
        }
    };
    let mut probes = 0;
    let reads = run_closed(addr, 1, false, None, |_| {
        probes += 1;
        (probes <= workload.read_probes()).then(|| stream.next_probe())
    })?;
    let mut closing = false;
    let tail = run_closed(addr, 1, false, None, |_| {
        (!std::mem::replace(&mut closing, true)).then_some(Request::Stats)
    })?;
    let metrics = metrics_text(daemon)?;
    Ok(Session {
        main,
        reads,
        tail,
        metrics,
        rss_mb,
    })
}

/// The daemon's `metrics` exposition.
///
/// # Errors
///
/// Transport failures.
pub fn metrics_text(daemon: &Daemon) -> Result<String, String> {
    Client::connect(daemon.addr())
        .and_then(|mut client| client.metrics_text())
        .map_err(|e| format!("metrics: {e}"))
}

/// The outcome of checking a session.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Ops sent.
    pub attempted: u64,
    /// Ops answered with an error or differently from the reference.
    pub failed: u64,
    /// Checks that failed, described.
    pub problems: Vec<String>,
}

impl Verdict {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }
}

/// Checks every answer of `session` against `reference` (replaying it),
/// and the daemon's own counters: no clamped timestamp, and exactly the
/// demands sent.
pub fn verify(session: &Session, reference: &mut Reference) -> Verdict {
    let log: Vec<Exchange> = session.exchanges().cloned().collect();
    let attempted = log.iter().map(|e| ops(&e.request)).sum();
    let errors = session.main.error_ops + session.reads.error_ops + session.tail.error_ops;
    let mismatched = reference.mismatched_ops(&log);
    let mut problems = Vec::new();
    if mismatched > 0 {
        problems.push(format!("{mismatched} ops answered unlike the reference"));
    }
    let clamped = metric_sum(&session.metrics, "leased_clamped_timestamps_total");
    if clamped != 0.0 {
        problems.push(format!("{clamped} timestamps were clamped"));
    }
    let served = metric_sum(&session.metrics, "leased_submit_demands_total");
    let sent = session.main.demands();
    if served != sent as f64 {
        problems.push(format!(
            "the daemon counted {served} demands, the client sent {sent}"
        ));
    }
    Verdict {
        attempted,
        failed: errors + mismatched,
        problems,
    }
}

/// The result of one benchmark run.
#[derive(Debug)]
pub struct Outcome {
    /// The correctness checks.
    pub verdict: Verdict,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable detail printed before the result line.
    pub detail: Vec<String>,
}

/// Exact nearest-rank p50 and p99 of `samples`, in microseconds.
fn p50_p99_us(samples: &[u64]) -> [f64; 2] {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    [0.5, 0.99].map(|q| quantile(&sorted, q) as f64 / 1e3)
}

/// Lines of detail about one driven daemon.
fn session_detail(session: &Session, frames: &[u64], reads: &[u64]) -> Vec<String> {
    let main = &session.main;
    let mut detail = vec![
        describe("frame latency (timed)", frames),
        describe("read latency", reads),
        format!(
            "{} frames, {} ops, {} demands in {:.3}s",
            main.work_frames(),
            main.work_ops(),
            main.demands(),
            main.elapsed_s
        ),
    ];
    if !main.gen_lag_ns.is_empty() {
        detail.push(describe("generator lag", &main.gen_lag_ns));
    }
    detail
}

/// The end-to-end run: fresh daemons driven in turn for at most
/// [`DAEMON_SECONDS`] each until `seconds` are spent, every one checked,
/// each drive preceded by [`SETUP_LAUNCHES_PER_DRIVE`] unused launches.
/// Each daemon's latency percentiles are exact, over its own samples
/// (frames after the workload's warm-up); every metric, those percentiles
/// and throughput (ops over the drive's wall time), memory and cost
/// alike, is the median over the daemons, and `setup_s`, launch to first
/// answer, the median over every launch. A machine stall that slows a few
/// daemons moves none of these medians; a cost of the daemon's own recurs
/// in every drive, since every drive runs the same kind of stream, and
/// moves them all. The percentiles of all daemons' samples pooled are
/// printed in the detail.
///
/// # Errors
///
/// Daemon and transport failures.
pub fn end_to_end(
    launcher: &Launcher,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let drives = (seconds / DAEMON_SECONDS).ceil().max(1.0) as usize;
    let mut setups = Vec::with_capacity(drives * (SETUP_LAUNCHES_PER_DRIVE + 1));
    let mut verdict = Verdict::default();
    let (mut latency, mut reads) = (Vec::new(), Vec::new());
    // Per daemon: frame p50, frame p99, read p50, read p99, throughput,
    // peak memory, cost per demand.
    let mut columns: [Vec<f64>; 7] = Default::default();
    let mut detail = Vec::new();
    for drive in 1..=drives {
        for _ in 0..SETUP_LAUNCHES_PER_DRIVE {
            let (daemon, setup_s) = launcher.start()?;
            setups.push(setup_s);
            daemon.stop()?;
        }
        let (daemon, setup_s) = launcher.start()?;
        setups.push(setup_s);
        let session = drive_workload(&daemon, workload, seed, seconds / drives as f64)?;
        daemon.stop()?;
        verdict.merge(verify(&session, &mut Reference::new()));
        let frames = session.timed_latency_ns(workload.warmup_frames());
        let session_reads: Vec<u64> = session.read_latency_ns().copied().collect();
        let [p50, p99] = p50_p99_us(frames);
        let [read_p50, read_p99] = p50_p99_us(&session_reads);
        let row = [
            p50,
            p99,
            read_p50,
            read_p99,
            session.main.work_ops() as f64 / session.main.elapsed_s,
            session.rss_mb,
            session.cost_per_demand()?,
        ];
        for (column, value) in columns.iter_mut().zip(row) {
            column.push(value);
        }
        detail.extend(
            session_detail(&session, frames, &session_reads)
                .into_iter()
                .map(|line| format!("daemon {drive}: {line}")),
        );
        latency.extend_from_slice(frames);
        reads.extend(session_reads);
    }
    let [p50, p99, read_p50, read_p99, rates, rss, costs] = columns.map(|mut c| median(&mut c));
    let setup_detail = format!("setup launches, in order: {setups:.4?}");
    let metrics = vec![
        Metric::new("throughput_rps", rates, "1/s"),
        Metric::new("latency_p50_us", p50, "us"),
        Metric::new("latency_p99_us", p99, "us"),
        Metric::new("read_latency_p50_us", read_p50, "us"),
        Metric::new("read_latency_p99_us", read_p99, "us"),
        Metric::new("setup_s", median(&mut setups), "s"),
        Metric::new("rss_peak_mb", rss, "MB"),
        Metric::new("cost_per_demand", costs, "count"),
    ];
    detail.push(describe("all daemons pooled, frame latency (timed)", &latency));
    detail.push(describe("all daemons pooled, read latency", &reads));
    detail.push(setup_detail);
    detail.push(format!(
        "error_ratio: {} of {} ops ({:e})",
        verdict.failed,
        verdict.attempted,
        verdict.failed as f64 / verdict.attempted.max(1) as f64
    ));
    Ok(Outcome {
        verdict,
        metrics,
        detail,
    })
}
