//! `leasing-analysis` — the workspace's repo-specific static-analysis
//! pass.
//!
//! The repository's core contract is *bit determinism*: the `Ledger` JSON
//! schema is golden-tested, `BENCH_simlab.json` must be byte-identical on
//! 1 and N threads, and the `--max-ratio` gate turns the paper's
//! competitive-ratio bounds into CI checks. The hazards that break that
//! contract are syntactic and recurring, so this crate machine-checks
//! them on every change instead of leaving them to review:
//!
//! * **`determinism`** — std `HashMap`/`HashSet` (randomized iteration
//!   order), `Instant`/`SystemTime` (wall clock), and `thread_rng`
//!   (ambient randomness) are banned in the deterministic-output paths
//!   ([`rules::DETERMINISTIC_PATHS`]: `crates/core/src`,
//!   `crates/simlab/src`, `crates/oracle/src`, `crates/bench/src/gate.rs`).
//!   `HashMap<K, V, S>` with an explicit (deterministic) hasher is
//!   allowed.
//! * **`panic`** — `.unwrap()`/`.expect()`, the `panic!` macro family
//!   (`panic!`, `unreachable!`, `todo!`, `unimplemented!`, `assert!`,
//!   `assert_eq!`, `assert_ne!`), and slice/array indexing are flagged in
//!   non-test, non-bench library code. `debug_assert!` is allowed — it
//!   compiles out of release builds.
//! * **`cast`** — potentially narrowing `as` casts (to `u8`/`u16`/`u32`/
//!   `i8`/`i16`/`i32`/`f32`/`usize`) in the `crates/core/src/engine/` hot
//!   path must be `try_into` or carry a documented-bound waiver.
//! * **`unsafe`** — any `unsafe` token fails the gate outright. The
//!   workspace has none; this locks that in (alongside
//!   `unsafe_code = "forbid"` in `[workspace.lints]`).
//!
//! Findings in the first three families can be waived inline with
//! `// lint:allow(family: reason)` on the offending line or the line
//! above; the reason is mandatory and `unsafe` is not waivable.
//!
//! The gate does not demand a clean tree. `check` compares the current
//! scan against a committed [`report::Baseline`] (per-file, per-rule
//! finding *counts*) and fails — exit code 3, mirroring `bench_gate` and
//! `simlab --baseline` — only when a count exceeds the baseline, so the
//! pre-existing backlog burns down incrementally while new violations are
//! rejected immediately.

pub mod report;
pub mod rules;
pub mod walk;

use std::path::Path;

/// A failure while scanning the workspace (I/O or lexing).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScanError {
    /// A source file could not be read or the root could not be walked.
    Io {
        /// Offending path.
        path: String,
        /// OS error description.
        message: String,
    },
    /// A source file failed to lex.
    Lex {
        /// Offending path.
        path: String,
        /// Lexer error description (includes line/column).
        message: String,
    },
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanError::Io { path, message } => write!(f, "{path}: {message}"),
            ScanError::Lex { path, message } => write!(f, "{path}: {message}"),
        }
    }
}

impl std::error::Error for ScanError {}

/// Scans every Rust source under `root` (skipping `vendor/`, `target/`,
/// `fixtures/`, and dot-directories) and aggregates the findings into a
/// deterministic [`report::AnalysisReport`]: files walked in sorted
/// order, findings sorted by (file, line, column, rule).
///
/// # Errors
///
/// Returns [`ScanError`] when the tree cannot be walked, a file cannot
/// be read, or a file fails to lex.
pub fn scan_workspace(root: &Path) -> Result<report::AnalysisReport, ScanError> {
    let sources = walk::collect_sources(root).map_err(|e| ScanError::Io {
        path: root.display().to_string(),
        message: e.to_string(),
    })?;
    let mut findings = Vec::new();
    let mut waived = 0usize;
    let files_scanned = sources.len();
    for source in &sources {
        let text = std::fs::read_to_string(&source.path).map_err(|e| ScanError::Io {
            path: source.rel.clone(),
            message: e.to_string(),
        })?;
        let outcome = rules::scan_source(&source.rel, &text).map_err(|e| ScanError::Lex {
            path: source.rel.clone(),
            message: e.to_string(),
        })?;
        waived += outcome.waived;
        findings.extend(outcome.findings);
    }
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.column, &a.rule).cmp(&(&b.file, b.line, b.column, &b.rule))
    });
    Ok(report::AnalysisReport::new(
        root.display().to_string(),
        files_scanned,
        waived,
        findings,
    ))
}
