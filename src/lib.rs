//! # cxl-gpu-graph
//!
//! A full reproduction of **“GPU Graph Processing on CXL-Based
//! Microsecond-Latency External Memory”** (Sano et al., Kioxia; SC-W 2023)
//! as a Rust workspace: graph substrate, discrete-event hardware simulator
//! (GPU warps, PCIe link, CXL memory, microsecond flash), the three
//! external-memory access methods the paper studies (EMOGI zero-copy,
//! BaM software-cache, XLFDD direct), the traversal workloads (BFS, SSSP,
//! plus PageRank/CC extensions), the paper's analytical model, and a bench
//! harness that regenerates every table and figure.
//!
//! This facade crate re-exports the member crates under stable names and
//! hosts the runnable examples and cross-crate integration tests. See
//! `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for
//! paper-vs-measured results.
//!
//! ## Quickstart
//!
//! ```
//! use cxl_gpu_graph::prelude::*;
//!
//! // A small uniform-random graph with the paper's urand average degree.
//! let graph = GraphSpec::uniform(14, 32).seed(1).build();
//!
//! // EMOGI-style zero-copy BFS against latency-adjustable CXL memory.
//! let system = SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5)
//!     .with_added_latency_us(1.0);
//! let report = Traversal::bfs(0).run(&graph, &system);
//! assert!(report.metrics.runtime.as_us_f64() > 0.0);
//! assert!(report.reached > 1);
//! ```

pub use cxlg_core as core;
pub use cxlg_device as device;
pub use cxlg_gpu as gpu;
pub use cxlg_graph as graph;
pub use cxlg_link as link;
pub use cxlg_model as model;
pub use cxlg_sim as sim;

/// Convenient re-exports of the types most programs need.
pub mod prelude {
    pub use cxlg_core::access::AccessMethod;
    pub use cxlg_core::metrics::{RunMetrics, RunReport};
    pub use cxlg_core::system::SystemConfig;
    pub use cxlg_core::traversal::Traversal;
    pub use cxlg_graph::spec::GraphSpec;
    pub use cxlg_graph::{Csr, CsrView};
    pub use cxlg_link::pcie::PcieGen;
    pub use cxlg_sim::{SimDuration, SimTime};
}
