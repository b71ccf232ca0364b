//! # cxlg-lint — workspace determinism & unsafety static analysis
//!
//! The repo's core contract — every figure, fidelity check and shard
//! merge is bit-identical at any thread count — was previously enforced
//! only *dynamically* (ci.sh byte-diffs campaign JSON across pool
//! sizes). This crate enforces the same invariants *statically*, at the
//! source level, before any run:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `D1` | no `HashMap`/`HashSet` **iteration** (keyed lookup is fine) |
//! | `D2` | `Instant::now`/`SystemTime` only in `core::runner`/`core::mem` |
//! | `D3` | no RNG construction without an explicit seed |
//! | `D4` | float accumulation only in order-pinned helpers |
//! | `D5` | every `unsafe` carries a `// SAFETY:` comment |
//! | `D6` | no env-dependent output outside `runner`/`cli` |
//!
//! Escape hatch: `// cxlg-lint: allow(<rule>) -- <reason>` — the reason
//! is mandatory and reproduced verbatim in the report (`P0` flags
//! malformed pragmas). See DESIGN.md "Determinism invariants & lint
//! rules" for the full rationale table.
//!
//! The analyzer is **token-level**: [`lexer`] strips comments, strings
//! and raw strings (the vendor set has no `syn`), and [`rules`] matches
//! token patterns with a small per-file symbol table (which identifiers
//! are hash-typed / float-typed). That makes it a fast, dependency-free
//! under-approximation of a type-aware lint: it will miss exotic
//! aliasing, but it catches the hazard classes that actually corrupt
//! reported series — and it runs in milliseconds as CI's first gate.
//!
//! Entry point: [`run_workspace`] (everything the walker finds), with
//! the `cxlg lint` subcommand on top of it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod lexer;
pub mod pragma;
pub mod report;
pub mod rules;
pub mod walk;

use report::LintRun;
use std::path::Path;

/// Lint every workspace `.rs` file under `root` (see
/// [`walk::workspace_rs_files`] for what is skipped).
pub fn run_workspace(root: &Path) -> std::io::Result<LintRun> {
    let files = walk::workspace_rs_files(root)?;
    run_files(root, &files)
}

/// Lint an explicit list of workspace-relative files.
fn run_files(root: &Path, files: &[String]) -> std::io::Result<LintRun> {
    let mut run = LintRun::default();
    for rel in files {
        let source = std::fs::read_to_string(root.join(rel))?;
        run.findings.extend(rules::analyze_source(rel, &source));
        run.files_scanned += 1;
    }
    run.finalize();
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_files_aggregates_and_counts() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let run = run_files(
            root,
            &["src/lib.rs".to_string(), "src/walk.rs".to_string()],
        )
        .unwrap();
        assert_eq!(run.files_scanned, 2);
        assert_eq!(run.active().count(), 0, "lint must lint itself clean");
    }

    #[test]
    fn missing_file_is_an_error_not_a_silent_skip() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        assert!(run_files(root, &["src/definitely_absent.rs".to_string()]).is_err());
    }
}
