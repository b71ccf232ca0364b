//! # cxlg-graph — graph substrate
//!
//! Compressed Sparse Row storage, synthetic graph generators matching the
//! paper's datasets (Table 1), degree statistics, and the byte-level
//! edge-list layout that external-memory access methods operate on.
//!
//! The paper evaluates three graphs — `urand27` (uniform random, average
//! degree 32), `kron27` (Kronecker/RMAT, average degree 67 over non-isolated
//! vertices), and Friendster (real-world social graph, average degree 55.1).
//! The generators here reproduce those degree structures at configurable
//! scale: [`gen::uniform`], [`gen::kronecker`] (Graph500 parameters) and
//! [`gen::social`] (Chung–Lu power law calibrated to Friendster's mean
//! degree). Generation is deterministic per seed and parallelized with
//! rayon.
//!
//! Vertex IDs occupy **8 bytes** in the external edge list (Table 1
//! footnote) regardless of the in-memory representation; [`layout`] owns
//! that byte math, including the alignment arithmetic behind the paper's
//! read-amplification analysis (§3.1).

#![warn(missing_docs)]

pub mod builder;
pub mod csr;
pub mod gen;
pub mod layout;
pub mod reorder;
pub mod spec;
pub mod stats;
pub mod storage;

pub use csr::Csr;
pub use layout::EdgeListLayout;
pub use spec::{GraphKind, GraphSpec};
pub use stats::DegreeStats;
pub use storage::{CsrStorage, CsrView, SpillConfig, SpillCsr, StorageMode};

/// In-memory vertex identifier. The paper's graphs have fewer than 2^32
/// vertices, and so do all configurable scales here; the *external* layout
/// still uses 8 bytes per ID (see [`layout::BYTES_PER_ID`]).
pub type VertexId = u32;
