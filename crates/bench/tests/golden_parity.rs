//! The `cxlg` binary's command surface: unknown experiments are
//! rejected by name, and `cxlg list` enumerates the whole registry.

use std::path::PathBuf;
use std::process::Command;

const SCALE: &str = "9";

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    // Stale results from a previous run must not mask a missing dump.
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn cxlg_rejects_unknown_experiments() {
    let dir = tmp("golden-unknown");
    let output = Command::new(env!("CARGO_BIN_EXE_cxlg"))
        .args(["run", "fig7"])
        .env("CXLG_SCALE", SCALE)
        .env("CXLG_RESULTS_DIR", &dir)
        .output()
        .expect("launch cxlg");
    assert!(!output.status.success(), "unknown name must fail");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("fig7"), "stderr names the offender: {stderr}");
}

#[test]
fn cxlg_list_enumerates_the_registry() {
    let output = Command::new(env!("CARGO_BIN_EXE_cxlg"))
        .arg("list")
        .output()
        .expect("launch cxlg");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    for e in cxlg_bench::registry::all() {
        assert!(
            stdout.contains(e.name()),
            "`cxlg list` omits {}",
            e.name()
        );
    }
    assert!(cxlg_bench::registry::ALL.len() >= 17);
}
