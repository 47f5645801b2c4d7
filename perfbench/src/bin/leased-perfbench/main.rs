//! End-to-end and per-layer benchmark of the `leased` daemon.
//!
//! ```text
//! leased-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                  --leased PATH [--commit ID]
//! ```
//!
//! An end-to-end run (`--trace 0`) starts fresh daemons, drives each in
//! turn with a seeded workload from a single connection, checks every
//! answer against an in-process reference, and reports what a user of the
//! daemon sees: throughput, frame and read latency percentiles from exact
//! samples, set-up time, peak memory and cost per demand, each the median
//! over the daemons. A traced run
//! (`--trace 1`) replays the same op stream down a ladder of the daemon's
//! layers (see [`ladder`]).
//!
//! Prints the run's tags, detail and, as its last line, the result JSON.
//! Exits non-zero, printing no result, when the run cannot complete. Run
//! it through `python3 perfbench/run.py`, which builds the daemon and this
//! benchmark first.

mod bench;
mod daemon;
mod drive;
mod ladder;
mod reference;
mod report;
#[cfg(test)]
mod tests;
mod workload;

use bench::end_to_end;
use daemon::Launcher;
use ladder::traced;
use report::{result_line, tags};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Workload, SHARDS};

const USAGE: &str = "usage: leased-perfbench --workload lockstep|pipelined|mixed-open \
                     --seed N --seconds S --trace 0|1 --leased PATH [--commit ID]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    leased: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut leased = None;
    let mut commit = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--leased" => leased = Some(PathBuf::from(value)),
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let missing = |name: &str| format!("{name} is required\n{USAGE}");
    let seconds = seconds.ok_or(missing("--seconds"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: workload.ok_or(missing("--workload"))?,
        seed: seed.ok_or(missing("--seed"))?,
        seconds,
        trace: trace.ok_or(missing("--trace"))?,
        leased: leased.ok_or(missing("--leased"))?,
        commit,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    let offered = workload
        .offered_rate()
        .map_or("closed loop".to_string(), |rate| format!("{rate} ops/s"));
    println!(
        "tags {}",
        tags(&[
            ("workload", workload.name().to_string()),
            ("trace", u8::from(args.trace).to_string()),
            ("seed", args.seed.to_string()),
            ("seconds", args.seconds.to_string()),
            ("shards", SHARDS.to_string()),
            ("connections", "1".to_string()),
            ("in_flight", workload.depth().to_string()),
            ("offered_rate", offered),
            ("tenants", workload.tenants().to_string()),
            ("commit", args.commit.clone()),
        ])
    );
    let launcher = Launcher::Binary(args.leased);
    let outcome = if args.trace {
        traced(&launcher, workload, args.seed, args.seconds)
    } else {
        end_to_end(&launcher, workload, args.seed, args.seconds)
    };
    match outcome {
        Ok(outcome) => {
            for line in &outcome.detail {
                println!("{line}");
            }
            for problem in &outcome.verdict.problems {
                println!("check failed: {problem}");
            }
            println!(
                "{}",
                result_line(
                    outcome.verdict.correct(),
                    outcome.verdict.attempted,
                    outcome.verdict.failed,
                    &outcome.metrics
                )
            );
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("leased-perfbench: {message}");
            ExitCode::from(1)
        }
    }
}
