//! The `leased` daemon binary.
//!
//! ```text
//! leased [--listen ADDR] [--shards N]
//!        [--snapshot-dir DIR] [--lease LEN:COST[,LEN:COST...]]
//!        [--metrics-listen ADDR] [--trace-cap N]
//!        [--retention full|bounded:N|aggregate]
//! ```
//!
//! Defaults: `--listen 127.0.0.1:7878`, no persistence, no metrics
//! endpoint, the three-type structure `1:1,4:2.5,16:6`, and the shard
//! count, trace ring and retention of `ServerConfig::new` (4 shards, 256
//! events per shard, aggregate-only retention: no per-purchase trace).
//! `--retention full` keeps each shard's whole decision trace, so
//! snapshots replay every purchase; `bounded:N` keeps the most recent `N`
//! decisions. `stats` output is bit-identical in every mode. On start the
//! daemon prints `leased: listening on ADDR (N shards)` — scripts wait
//! for that line before driving traffic. With `--metrics-listen` it also prints
//! `leased: metrics on ADDR` and serves Prometheus text exposition at
//! `GET /metrics` on that address.

use leased::metrics::serve_metrics;
use leased::server::{Server, ServerConfig};
use leasing_core::engine::DecisionRetention;
use leasing_core::lease::{LeaseStructure, LeaseType};
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: leased [--listen ADDR] [--shards N] \
                     [--snapshot-dir DIR] [--lease LEN:COST[,LEN:COST...]] \
                     [--metrics-listen ADDR] [--trace-cap N] \
                     [--retention full|bounded:N|aggregate]";

/// The lease structure served without `--lease`.
const DEFAULT_LEASES: &str = "1:1,4:2.5,16:6";

struct Args {
    listen: String,
    metrics_listen: Option<String>,
    config: ServerConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: "127.0.0.1:7878".to_string(),
        metrics_listen: None,
        config: ServerConfig::new(parse_structure(DEFAULT_LEASES)?),
    };
    let config = &mut args.config;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--listen" => args.listen = value("--listen")?,
            "--shards" => {
                config.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--snapshot-dir" => config.snapshot_dir = Some(value("--snapshot-dir")?.into()),
            "--lease" => {
                config.structure = parse_structure(&value("--lease")?)
                    .map_err(|message| format!("leased: bad --lease: {message}"))?
            }
            "--metrics-listen" => args.metrics_listen = Some(value("--metrics-listen")?),
            "--trace-cap" => {
                config.trace_capacity = value("--trace-cap")?
                    .parse()
                    .map_err(|e| format!("--trace-cap: {e}"))?
            }
            "--retention" => config.retention = parse_retention(&value("--retention")?)?,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Parses `full`, `bounded:N`, or `aggregate` into a retention policy.
fn parse_retention(spec: &str) -> Result<DecisionRetention, String> {
    match spec {
        "full" => Ok(DecisionRetention::Full),
        "aggregate" | "aggregate-only" => Ok(DecisionRetention::AggregateOnly),
        other => match other.strip_prefix("bounded:") {
            Some(n) => n
                .parse()
                .map(DecisionRetention::Bounded)
                .map_err(|e| format!("--retention bounded:{n}: {e}")),
            None => Err(format!(
                "--retention {other:?}: expected full, bounded:N, or aggregate"
            )),
        },
    }
}

fn parse_structure(spec: &str) -> Result<LeaseStructure, String> {
    let mut types = Vec::new();
    for part in spec.split(',') {
        let (len, cost) = part
            .split_once(':')
            .ok_or(format!("lease type {part:?} is not LEN:COST"))?;
        let len: u64 = len.trim().parse().map_err(|e| format!("{part:?}: {e}"))?;
        let cost: f64 = cost.trim().parse().map_err(|e| format!("{part:?}: {e}"))?;
        types.push(LeaseType::new(len, cost));
    }
    LeaseStructure::new(types).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let config = args.config;
    let server = match Server::bind(args.listen.as_str(), &config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("leased: bind {}: {e}", args.listen);
            return ExitCode::from(1);
        }
    };
    if let Some(metrics_addr) = &args.metrics_listen {
        let listener = match TcpListener::bind(metrics_addr.as_str()) {
            Ok(listener) => listener,
            Err(e) => {
                eprintln!("leased: bind metrics {metrics_addr}: {e}");
                return ExitCode::from(1);
            }
        };
        match listener.local_addr() {
            Ok(addr) => println!("leased: metrics on {addr}"),
            Err(e) => {
                eprintln!("leased: {e}");
                return ExitCode::from(1);
            }
        }
        let metrics = Arc::clone(server.metrics());
        // Detached on purpose: the scrape loop dies with the process.
        std::thread::spawn(move || serve_metrics(listener, metrics));
    }
    match server.local_addr() {
        Ok(addr) => println!("leased: listening on {addr} ({} shards)", config.shards),
        Err(e) => {
            eprintln!("leased: {e}");
            return ExitCode::from(1);
        }
    }
    if let Err(e) = server.run() {
        eprintln!("leased: {e}");
        return ExitCode::from(1);
    }
    println!("leased: shut down cleanly");
    ExitCode::SUCCESS
}
