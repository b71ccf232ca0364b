//! The [`Experiment`] trait — the contract every paper figure, table,
//! and extension study implements.
//!
//! ## Contract
//!
//! * [`name`](Experiment::name) is the stable identifier used by
//!   `cxlg run <name>` and the result file stem
//!   (`<results_dir>/<name>.json`). Names are unique across the
//!   [registry](crate::registry).
//! * [`description`](Experiment::description) is the one-line summary
//!   `cxlg list` prints and the banner repeats.
//! * [`run`](Experiment::run) executes the experiment against an
//!   [`ExperimentCtx`]: it must obtain graphs through
//!   [`ExperimentCtx::graph`] (never `GraphSpec::build` directly, so the
//!   campaign-wide cache sees every build) and write results through
//!   [`ExperimentCtx::dump_json`]. Runs are deterministic for a fixed
//!   `(scale, seed)` — stdout and the JSON `series` member are
//!   byte-identical across thread counts.
//!
//! Experiments are registered as [`FnExperiment`] values: plain function
//! pointers plus metadata, so the registry is a `static` table with no
//! allocation or registration ceremony.

use crate::ctx::ExperimentCtx;
use cxlg_graph::GraphSpec;
use serde::Serialize;

/// One paper figure, table, or extension study.
pub trait Experiment: Sync {
    /// Stable identifier (`fig3`, `table1`, `pagerank_study`, …).
    fn name(&self) -> &'static str;
    /// One-line summary shown by `cxlg list`.
    fn description(&self) -> &'static str;
    /// The graph specs this experiment will request from
    /// [`ExperimentCtx::graph`]. The campaign driver counts, across the
    /// run list, how many experiments consume each spec, and evicts a
    /// graph from the shared cache right after its last declared
    /// consumer — peak RSS is the campaign's binding constraint. An
    /// undeclared request still works (the cache rebuilds on demand),
    /// but the rebuild shows up in the manifest's build counts, which
    /// CI requires to be exactly one per spec.
    fn specs(&self, _ctx: &ExperimentCtx) -> Vec<GraphSpec> {
        Vec::new()
    }
    /// Execute against `ctx`, returning what was produced.
    fn run(&self, ctx: &ExperimentCtx) -> ExperimentReport;
}

/// What one experiment run produced.
#[derive(Debug, Clone, Serialize)]
pub struct ExperimentReport {
    /// The experiment's registered name.
    pub name: String,
    /// Result files written under the context's results directory.
    pub result_files: Vec<String>,
    /// Process peak RSS (kB) sampled when the experiment finished — a
    /// process-wide high-water mark, so per-experiment values are
    /// monotone over a campaign and the *increase* over the previous
    /// experiment is what the experiment itself added. 0 when no source
    /// exists on the platform (see `cxlg_core::mem`).
    pub peak_rss_kb: u64,
}

/// An [`Experiment`] defined by a function pointer — the registry's
/// entry type.
pub struct FnExperiment {
    /// Stable identifier.
    pub name: &'static str,
    /// One-line summary.
    pub description: &'static str,
    /// Graph specs the experiment consumes (for cache eviction planning).
    pub specs: fn(&ExperimentCtx) -> Vec<GraphSpec>,
    /// The experiment body. Obtains graphs and dumps results via `ctx`.
    pub run: fn(&ExperimentCtx),
}

impl Experiment for FnExperiment {
    fn name(&self) -> &'static str {
        self.name
    }

    fn description(&self) -> &'static str {
        self.description
    }

    fn specs(&self, ctx: &ExperimentCtx) -> Vec<GraphSpec> {
        (self.specs)(ctx)
    }

    fn run(&self, ctx: &ExperimentCtx) -> ExperimentReport {
        // Start from a clean slate so files dumped by a previous
        // experiment on this context are never misattributed.
        let _ = ctx.take_written();
        (self.run)(ctx);
        ExperimentReport {
            name: self.name.to_string(),
            result_files: ctx.take_written(),
            peak_rss_kb: cxlg_core::mem::peak_rss_kb(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop(_: &ExperimentCtx) {}

    fn no_specs(_: &ExperimentCtx) -> Vec<GraphSpec> {
        Vec::new()
    }

    fn dumps_one(ctx: &ExperimentCtx) {
        ctx.dump_json("unit_exp", &7u64);
    }

    fn tmp_ctx(tag: &str) -> ExperimentCtx {
        let dir = std::env::temp_dir().join(format!("cxlg-exp-test-{tag}-{}", std::process::id()));
        ExperimentCtx::new(8, 1, 1, dir)
    }

    #[test]
    fn report_attributes_written_files() {
        let exp = FnExperiment {
            name: "unit_exp",
            description: "unit",
            specs: no_specs,
            run: dumps_one,
        };
        let ctx = tmp_ctx("report");
        let report = exp.run(&ctx);
        assert_eq!(report.name, "unit_exp");
        assert_eq!(report.result_files.len(), 1);
        assert!(report.result_files[0].ends_with("unit_exp.json"));
        #[cfg(target_os = "linux")]
        assert!(report.peak_rss_kb > 0, "peak RSS missing on Linux");
    }

    #[test]
    fn report_is_empty_for_print_only_experiments() {
        let exp = FnExperiment {
            name: "noop",
            description: "prints, writes nothing",
            specs: no_specs,
            run: noop,
        };
        let ctx = tmp_ctx("noop");
        assert!(exp.run(&ctx).result_files.is_empty());
    }
}
