//! The lint over the real workspace, pinned byte-for-byte.
//!
//! Two invariants: (a) the workspace is clean — zero unsuppressed
//! findings, every escape carries a written reason; (b) the rendered
//! report is *byte-identical* to the checked-in golden file, so any
//! new finding, new suppression, file addition or report-format drift
//! shows up as a reviewable diff to
//! `tests/golden_workspace_report.txt`. Regenerate with
//! `cargo run -p cxlg-bench --bin cxlg -- lint > crates/lint/tests/golden_workspace_report.txt`
//! from the workspace root.

use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
}

#[test]
fn workspace_is_lint_clean() {
    let run = cxlg_lint::run_workspace(workspace_root()).expect("walk workspace");
    let active: Vec<_> = run.active().collect();
    assert!(
        active.is_empty(),
        "unsuppressed lint findings in the workspace:\n{active:#?}"
    );
    for f in run.suppressed() {
        assert!(
            !f.suppressed.as_deref().unwrap_or("").trim().is_empty(),
            "suppression without a written reason: {f:?}"
        );
    }
}

#[test]
fn workspace_report_matches_golden_bytes() {
    let run = cxlg_lint::run_workspace(workspace_root()).expect("walk workspace");
    let rendered = run.render_text();
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_workspace_report.txt");
    let golden = std::fs::read_to_string(&golden_path).expect("read golden report");
    assert_eq!(
        rendered, golden,
        "lint report drifted from {}; if the change is intentional, \
         regenerate with `cxlg lint` and review the diff",
        golden_path.display()
    );
}

#[test]
fn report_renders_identically_across_repeated_runs() {
    // Determinism of the lint itself: two fresh walks of the same tree
    // must render the same bytes (sorted walk, sorted findings, no
    // timestamps in the report body).
    let a = cxlg_lint::run_workspace(workspace_root()).unwrap().render_text();
    let b = cxlg_lint::run_workspace(workspace_root()).unwrap().render_text();
    assert_eq!(a, b);
}
