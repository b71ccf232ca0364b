//! Experiment implementations — one module per paper figure, table, or
//! extension study, each exposing `TITLE`, `DESC`, and
//! `run(&ExperimentCtx)` and registered in [`crate::registry`].
//!
//! Run any of them with `cxlg run <name>` (or all with `cxlg run
//! --all`). Stdout and the JSON `series` member are unchanged from the
//! era when each was its own binary.

pub mod ablation;
pub mod cc_study;
pub mod device_scaling;
pub mod eqcheck;
pub mod fig10;
pub mod fig11;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig9;
pub mod pagerank_study;
pub mod reorder_study;
pub mod table1;
pub mod table2;
pub mod uvm_compare;
pub mod write_study;

#[cfg(test)]
mod tests {
    /// The `cxlg_core::runner` items an experiment source names, as
    /// `runner::<name>` or inside a `runner::{..}` group.
    fn runner_items(src: &str) -> Vec<String> {
        src.match_indices("runner::")
            .flat_map(|(at, tag)| {
                let rest = &src[at + tag.len()..];
                let names = match rest.strip_prefix('{') {
                    Some(group) => &group[..group.find('}').unwrap_or(group.len())],
                    None => {
                        let end = rest
                            .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                            .unwrap_or(rest.len());
                        &rest[..end]
                    }
                };
                names
                    .split(',')
                    .map(|n| n.trim().to_string())
                    .filter(|n| !n.is_empty())
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    #[test]
    fn runner_items_reads_paths_and_groups() {
        let src = "use cxlg_core::runner::{geometric_mean,\n    sweep};\nlet x = runner::sweep_systems(g);";
        assert_eq!(runner_items(src), ["geometric_mean", "sweep", "sweep_systems"]);
    }

    #[test]
    fn experiments_sweep_only_through_the_context() {
        // `ExperimentCtx::{sweep, sweep_systems}` run on `ctx.threads`,
        // the worker count every result header records; the runner's
        // sweeps and rayon's parallel iterators run on whatever pool the
        // caller happens to be on.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/experiments");
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .expect("experiments dir")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .collect();
        files.sort();
        assert!(files.len() >= 17, "found {} experiment sources", files.len());
        for path in files.iter().filter(|p| !p.ends_with("mod.rs")) {
            let src = std::fs::read_to_string(path).expect("read experiment source");
            let sweeps: Vec<String> = runner_items(&src)
                .into_iter()
                .filter(|n| n.starts_with("sweep"))
                .collect();
            assert!(
                sweeps.is_empty(),
                "{} calls cxlg_core::runner::{sweeps:?}; use ctx.sweep or ctx.sweep_systems",
                path.display()
            );
            // Matches `par_iter`, `into_par_iter` and `par_iter_mut`.
            assert!(
                !src.contains("par_iter"),
                "{} fans out with a rayon parallel iterator; use ctx.sweep",
                path.display()
            );
        }
    }
}
