//! # cxlg-link — interconnect models
//!
//! The paper's central claim is that the **PCIe link to the GPU is the
//! bottleneck** of external-memory graph processing (§3): its effective
//! bandwidth `W` caps throughput, and its outstanding-read limit `Nmax`
//! (256 for Gen3, 768 for Gen4/5) combines with memory latency `L` through
//! Little's Law into the second cap `Nmax · d / L` of Equation 2.
//!
//! This crate owns those link-level constants and mechanisms:
//!
//! * [`pcie`] — PCIe generations, lane scaling, effective bandwidth, tag
//!   limits, and the request/completion overhead model;
//! * [`cxl`] — CXL.mem framing: 64 B flit granularity (a 96 B or 128 B GPU
//!   read splits into two device-level accesses, §4.2.2) and the port
//!   latency;
//! * [`topology`] — the dual-socket system of Figure 8, where devices
//!   attached to the far socket incur an extra inter-CPU hop (visible in
//!   the latency measurements of Figure 9).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cxl;
pub mod pcie;
pub mod topology;

pub use cxl::{CxlPortConfig, CXL_FLIT_BYTES};
pub use pcie::{PcieGen, PcieLinkConfig};
pub use topology::{DevicePlacement, Socket, Topology};
