//! # cxlg-bench — the experiment API behind the paper campaign
//!
//! The paper's evaluation (Figs. 3–6, 9–11, Tables 1–2 plus extension
//! studies) is modeled as one registry of [`Experiment`]s driven by the
//! `cxlg` binary:
//!
//! * [`experiment`] — the [`Experiment`] trait contract and run reports;
//! * [`registry`] — the static table of every experiment (`cxlg list`);
//! * [`ctx`] — [`ExperimentCtx`]: scale, seed, threads, results dir;
//! * [`cache`] — the [`GraphCache`] that builds each dataset exactly
//!   once per campaign;
//! * [`experiments`] — the per-figure implementations;
//! * [`cli`] — the `cxlg` driver (`list` / `run` / `--json-manifest`)
//!   and its one campaign loop;
//! * [`fidelity`] — `cxlg validate`: the paper's reference series as
//!   data, a residual engine over captured campaigns, and the generated
//!   FIDELITY.md report.
//!
//! `cxlg` is the only binary: `cxlg run fig3` runs one figure. Results
//! are dumped under `target/paper-results/` so EXPERIMENTS.md can be
//! refreshed mechanically.
//!
//! Simulation scale is controlled by the `CXLG_SCALE` environment
//! variable (log2 of the vertex count, default 16). The paper uses
//! scale 27 with ~30 GB edge lists; any scale preserves the *shapes*
//! under study because the model's behaviour is driven by degree
//! structure and byte-level geometry, not absolute size.
//!
//! [`Experiment`]: crate::experiment::Experiment
//! [`ExperimentCtx`]: crate::ctx::ExperimentCtx
//! [`GraphCache`]: crate::cache::GraphCache

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod cli;
pub mod ctx;
pub mod experiment;
pub mod experiments;
pub mod fidelity;
pub mod registry;

use cxlg_core::metrics::RunReport;
use std::path::PathBuf;

/// log2 of the vertex count used by the figure binaries.
#[expect(
    clippy::disallowed_methods,
    reason = "D6: CXLG_SCALE is read once into the context and recorded in every result header"
)]
pub fn bench_scale() -> u32 {
    std::env::var("CXLG_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16)
}

/// Seed shared by the figure binaries (override with `CXLG_SEED`).
#[expect(
    clippy::disallowed_methods,
    reason = "D6: CXLG_SEED is read once into the context and recorded in every result header"
)]
pub fn bench_seed() -> u64 {
    std::env::var("CXLG_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED)
}

/// A BFS/SSSP source that reaches a large component: highest-degree
/// vertex (robust for kron/social graphs with isolated vertices).
/// Accepts any graph storage backend.
pub fn good_source<G: cxlg_graph::CsrView + ?Sized>(g: &G) -> cxlg_graph::VertexId {
    g.max_degree_vertex().unwrap_or(0)
}

/// Output directory for machine-readable results.
#[expect(
    clippy::disallowed_methods,
    reason = "D6: CXLG_RESULTS_DIR picks where results are written, not what they contain"
)]
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("CXLG_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/paper-results"));
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// One-line summary of a run for tables.
pub fn run_summary(r: &RunReport) -> String {
    format!(
        "t={:>10.3} ms  D={:>8.1} MB  RAF={:>5.2}  d̄={:>6.1} B  T={:>8.0} MB/s  reqs={}",
        r.metrics.runtime.as_secs_f64() * 1e3,
        r.metrics.fetched_bytes as f64 / 1e6,
        r.metrics.raf(),
        r.metrics.mean_transfer_bytes(),
        r.metrics.throughput_mb_per_sec(),
        r.metrics.requests,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxlg_graph::spec::GraphSpec;

    #[test]
    fn scale_env_parsing_defaults() {
        // No env manipulation (tests run in parallel); just check the
        // default path yields a sane value.
        let s = bench_scale();
        assert!((8..=30).contains(&s));
    }

    #[test]
    fn good_source_prefers_hubs() {
        let g = GraphSpec::kron(8).seed(1).build();
        let s = good_source(&g);
        assert!(g.degree(s) > 0);
        let max = (0..g.num_vertices() as u32).map(|v| g.degree(v)).max().unwrap();
        assert_eq!(g.degree(s), max);
    }
}
