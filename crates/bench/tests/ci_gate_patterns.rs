//! Every `bench_gate --pattern P` step in the CI workflow that compares
//! against the committed `BENCH_driver.json` must find at least one
//! baseline id starting with `P`; otherwise the gate has nothing to
//! compare and exits 2, failing the job for a reason unrelated to speed.

use leasing_bench::gate::parse_entries;
use std::path::PathBuf;

fn repo_file(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The `--pattern` of every `bench_gate` command gating against
/// `BENCH_driver.json`, with shell line continuations joined.
fn gated_patterns(workflow: &str) -> Vec<String> {
    let joined = workflow.replace("\\\n", " ");
    joined
        .lines()
        .filter(|line| line.contains("bench_gate"))
        .filter(|line| {
            let words: Vec<&str> = line.split_whitespace().collect();
            words
                .windows(2)
                .any(|pair| pair == ["--baseline", "BENCH_driver.json"])
        })
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            words.find(|&word| word == "--pattern")?;
            words.next().map(str::to_string)
        })
        .collect()
}

#[test]
fn every_ci_gate_pattern_has_a_committed_baseline_entry() {
    let patterns = gated_patterns(&repo_file(".github/workflows/ci.yml"));
    assert!(
        patterns.len() >= 4,
        "expected the driver, streaming and two loadgen gates, found {patterns:?}"
    );
    let baseline = parse_entries(&repo_file("BENCH_driver.json")).expect("valid baseline");
    for pattern in &patterns {
        assert!(
            baseline
                .iter()
                .any(|entry| entry.id.starts_with(pattern.as_str())),
            "CI gates on `--pattern {pattern}` but BENCH_driver.json has no such entry"
        );
    }
}

#[test]
fn patterns_are_read_across_line_continuations() {
    let workflow = "run: |\n  cargo run --bin bench_gate -- \\\n    --baseline BENCH_driver.json \
                    --candidate x.json \\\n    --pattern driver/submit_ --tolerance 0.15\n  \
                    cargo run --bin bench_gate -- --baseline other.json --pattern skipped\n";
    assert_eq!(gated_patterns(workflow), vec!["driver/submit_".to_string()]);
}
