//! Paper-fidelity subsystem — `cxlg validate`.
//!
//! The campaign reproduces conf_sc_SanoBHKSNTKS23's figures and tables;
//! this module checks the reproduction *against the paper's reported
//! numbers* and renders the comparison as a generated `FIDELITY.md`:
//!
//! * [`reference`](mod@reference) — the paper's series transcribed as machine-readable
//!   data: values, units, axes, tolerance bands, and the scale at which
//!   each comparison binds;
//! * [`engine`] — loads a campaign's result JSONs (`Campaign`), reduces
//!   each figure to named scalars/series (`extract`, interpolating where
//!   the x grids differ and normalizing to per-series baselines where
//!   the paper's absolute axis depends on real hardware), and computes
//!   per-point residuals with PASS / FLAG / SKIP verdicts (`evaluate`);
//! * [`report`] — renders the byte-stable `FIDELITY.md`.
//!
//! `cxlg validate [--campaign-dir=DIR] [--write-report[=PATH]]` drives
//! the pipeline and exits nonzero on any FLAG, which is what turns
//! paper fidelity from a hand-maintained EXPERIMENTS.md diff into a red
//! CI check: ci.sh validates every campaign it runs, and the golden-file
//! test pins the scale-20 report bit for bit.

pub mod engine;
pub mod reference;
pub mod report;

pub use engine::{evaluate, Campaign, FidelityReport, Verdict};
pub use report::render_markdown;

use std::path::{Path, PathBuf};

/// Parsed `cxlg validate` arguments.
#[derive(Debug, PartialEq, Eq)]
pub struct ValidateArgs {
    /// Campaign directory; `None` = the context results dir.
    pub campaign_dir: Option<String>,
    /// `Some(None)` = report at `<campaign-dir>/FIDELITY.md`;
    /// `Some(Some(p))` = at `p`; `None` = stdout summary only.
    pub write_report: Option<Option<String>>,
}

/// Parse the arguments following `cxlg validate`.
pub fn parse_validate_args(args: &[String]) -> Result<ValidateArgs, String> {
    let mut out = ValidateArgs {
        campaign_dir: None,
        write_report: None,
    };
    for a in args {
        if let Some(dir) = a.strip_prefix("--campaign-dir=") {
            if dir.is_empty() {
                return Err("--campaign-dir= requires a path".to_string());
            }
            out.campaign_dir = Some(dir.to_string());
        } else if a == "--write-report" {
            out.write_report = Some(None);
        } else if let Some(path) = a.strip_prefix("--write-report=") {
            if path.is_empty() {
                return Err("--write-report= requires a path".to_string());
            }
            out.write_report = Some(Some(path.to_string()));
        } else {
            return Err(format!("unknown argument `{a}`"));
        }
    }
    Ok(out)
}

/// Validate a campaign directory: evaluate every reference check,
/// optionally write `FIDELITY.md`, print a summary, and return the
/// process exit code (0 = no FLAG verdicts).
pub fn run_validate(args: ValidateArgs) -> i32 {
    let dir = args
        .campaign_dir
        .map(PathBuf::from)
        .unwrap_or_else(crate::results_dir);
    let campaign = match Campaign::load(&dir) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("cxlg validate: {msg}");
            eprintln!(
                "(run `cxlg run --all --json-manifest` first, or point \
                 --campaign-dir= at a captured campaign)"
            );
            return 1;
        }
    };
    let report = evaluate(&campaign);
    println!(
        "fidelity: campaign {} (scale 2^{}, seed {:#x}) — {} PASS, {} FLAG, {} SKIP",
        dir.display(),
        report.scale,
        report.seed,
        report.count(Verdict::Pass),
        report.count(Verdict::Flag),
        report.count(Verdict::Skip),
    );
    for f in report.findings.iter().filter(|f| f.verdict == Verdict::Flag) {
        println!(
            "  FLAG {} / {}: measured {} vs paper {} ({})",
            f.figure,
            f.key,
            f.measured,
            f.paper,
            f.residual_pct
                .map(|r| format!("{r:+.1}%"))
                .unwrap_or_else(|| "no residual".into()),
        );
    }
    if let Some(path) = args.write_report {
        let path = path
            .map(PathBuf::from)
            .unwrap_or_else(|| dir.join("FIDELITY.md"));
        if let Err(e) = write_report(&report, &path) {
            eprintln!("cxlg validate: cannot write {}: {e}", path.display());
            return 1;
        }
        eprintln!("[fidelity report {}]", path.display());
    }
    if report.clean() {
        0
    } else {
        1
    }
}

/// Render and write the report to `path`, creating parent directories.
fn write_report(report: &FidelityReport, path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, render_markdown(report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_validate_forms() {
        let va = parse_validate_args(&s(&[])).unwrap();
        assert_eq!(va, ValidateArgs { campaign_dir: None, write_report: None });

        let va = parse_validate_args(&s(&["--campaign-dir=/tmp/c", "--write-report"])).unwrap();
        assert_eq!(va.campaign_dir, Some("/tmp/c".to_string()));
        assert_eq!(va.write_report, Some(None));

        let va = parse_validate_args(&s(&["--write-report=/tmp/F.md"])).unwrap();
        assert_eq!(va.write_report, Some(Some("/tmp/F.md".to_string())));
    }

    #[test]
    fn parse_validate_rejects_bad_input() {
        assert!(parse_validate_args(&s(&["--campaign-dir="])).is_err());
        assert!(parse_validate_args(&s(&["--write-report="])).is_err());
        assert!(parse_validate_args(&s(&["--frob"])).is_err());
        assert!(parse_validate_args(&s(&["positional"])).is_err());
    }

    #[test]
    fn validating_a_missing_campaign_fails_cleanly() {
        let args = ValidateArgs {
            campaign_dir: Some("/nonexistent/campaign".to_string()),
            write_report: None,
        };
        assert_eq!(run_validate(args), 1);
    }
}
