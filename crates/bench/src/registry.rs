//! Static registry of every experiment the harness knows.
//!
//! The table is the single source of truth for `cxlg list`, `cxlg run
//! <name>`, `cxlg run --all`, and the docs' per-experiment index.
//! Order matters: `run --all` executes in table order, which mirrors the
//! old `all_figures` sequence (tables, figures, eqcheck, extensions)
//! with the new workload studies appended.

use crate::experiment::{Experiment, FnExperiment};
use crate::experiments as exp;

macro_rules! entry {
    ($module:ident, $name:literal) => {
        FnExperiment {
            name: $name,
            description: exp::$module::DESC,
            specs: exp::$module::specs,
            run: exp::$module::run,
        }
    };
}

/// Every registered experiment, in `run --all` order.
pub static ALL: &[FnExperiment] = &[
    entry!(table1, "table1"),
    entry!(table2, "table2"),
    entry!(fig3, "fig3"),
    entry!(fig4, "fig4"),
    entry!(fig5, "fig5"),
    entry!(fig6, "fig6"),
    entry!(fig9, "fig9"),
    entry!(fig10, "fig10"),
    entry!(fig11, "fig11"),
    entry!(eqcheck, "eqcheck"),
    // Extension experiments (DESIGN.md §8).
    entry!(uvm_compare, "uvm_compare"),
    entry!(reorder_study, "reorder_study"),
    entry!(write_study, "write_study"),
    entry!(ablation, "ablation"),
    // New workloads registered through the Experiment API.
    entry!(pagerank_study, "pagerank_study"),
    entry!(cc_study, "cc_study"),
    entry!(device_scaling, "device_scaling"),
];

/// All experiments as trait objects, in `run --all` order.
pub fn all() -> impl Iterator<Item = &'static dyn Experiment> {
    ALL.iter().map(|e| e as &dyn Experiment)
}

/// Look an experiment up by its registered name.
pub fn find(name: &str) -> Option<&'static dyn Experiment> {
    ALL.iter()
        .find(|e| e.name == name)
        .map(|e| e as &dyn Experiment)
}

/// Registered names, in `run --all` order.
pub fn names() -> Vec<&'static str> {
    ALL.iter().map(|e| e.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_the_campaign() {
        // 14 ported binaries (all_figures is the driver, not an
        // experiment) + the three new workload studies.
        assert!(ALL.len() >= 17, "registry has {} experiments", ALL.len());
        for needed in [
            "table1", "table2", "fig3", "fig4", "fig5", "fig6", "fig9", "fig10", "fig11",
            "eqcheck", "uvm_compare", "reorder_study", "write_study", "ablation",
            "pagerank_study", "cc_study", "device_scaling",
        ] {
            assert!(find(needed).is_some(), "missing {needed}");
        }
    }

    #[test]
    fn names_are_unique_and_descriptions_nonempty() {
        let names = names();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate experiment name");
        for e in all() {
            assert!(!e.description().is_empty(), "{} lacks a description", e.name());
        }
    }

    #[test]
    fn find_rejects_unknown_names() {
        assert!(find("fig7").is_none());
        assert!(find("").is_none());
    }

    #[test]
    fn run_all_order_starts_with_the_tables() {
        assert_eq!(&names()[..3], &["table1", "table2", "fig3"]);
    }
}
