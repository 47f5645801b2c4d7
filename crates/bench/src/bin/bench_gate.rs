//! `bench_gate` — the driver hot-path regression gate.
//!
//! Compares a freshly measured benchmark baseline (`--candidate`) against
//! the committed one (`--baseline`) and fails CI when any benchmark whose
//! id starts with the pattern (default `driver/submit_`) regressed its
//! `mean_ns` beyond the tolerance (default 15%).
//!
//! ```text
//! cargo run --release --bin bench_gate -- \
//!     --baseline BENCH_driver.json --candidate BENCH_driver_fresh.json
//! bench_gate --pattern driver/ --tolerance 0.10
//! ```
//!
//! Exit codes follow the `simlab` convention: 0 clean, 2 unusable input
//! (including a gated row measured fewer than twice on either side), 3
//! regression beyond the tolerance.

use leasing_bench::gate::{diff, parse_entries, BenchEntry, MIN_GATED_ITERATIONS};

struct Args {
    baseline: String,
    candidate: String,
    pattern: String,
    tolerance: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        baseline: "BENCH_driver.json".into(),
        candidate: "BENCH_driver_fresh.json".into(),
        pattern: "driver/submit_".into(),
        tolerance: 0.15,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--baseline" => args.baseline = value("--baseline")?,
            "--candidate" => args.candidate = value("--candidate")?,
            "--pattern" => args.pattern = value("--pattern")?,
            "--tolerance" => {
                args.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?;
                if !args.tolerance.is_finite() || args.tolerance < 0.0 {
                    return Err("--tolerance must be a finite non-negative ratio".into());
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn load(path: &str) -> Vec<BenchEntry> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_gate: cannot read {path}: {e}");
        std::process::exit(2);
    });
    parse_entries(&text).unwrap_or_else(|e| {
        eprintln!("bench_gate: {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("bench_gate: {msg}");
            std::process::exit(2);
        }
    };
    let baseline = load(&args.baseline);
    let candidate = load(&args.candidate);
    let outcome = diff(&baseline, &candidate, &args.pattern, args.tolerance);
    if outcome.compared == 0 && outcome.missing.is_empty() {
        eprintln!(
            "bench_gate: baseline {} has no `{}` benchmarks to compare",
            args.baseline, args.pattern
        );
        std::process::exit(2);
    }
    for id in &outcome.missing {
        eprintln!("warning: baseline benchmark {id} is absent from the candidate (not compared)");
    }
    if !outcome.undersampled.is_empty() {
        eprintln!(
            "bench_gate: {} gated benchmark(s) rest on fewer than {MIN_GATED_ITERATIONS} \
             iterations in {} or {}; a single sample cannot be gated:",
            outcome.undersampled.len(),
            args.baseline,
            args.candidate
        );
        for id in &outcome.undersampled {
            eprintln!("  {id}");
        }
        std::process::exit(2);
    }
    if outcome.regressions.is_empty() {
        println!(
            "bench_gate: {} `{}` benchmark(s) within {:.0}% of {}",
            outcome.compared,
            args.pattern,
            args.tolerance * 100.0,
            args.baseline
        );
        return;
    }
    eprintln!(
        "bench_gate: {} regression(s) beyond {:.0}%:",
        outcome.regressions.len(),
        args.tolerance * 100.0
    );
    for r in &outcome.regressions {
        eprintln!("  {r}");
    }
    std::process::exit(3);
}
