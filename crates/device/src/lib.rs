//! # cxlg-device — external memory device models
//!
//! Timing models for every external-memory backend the paper evaluates:
//!
//! * [`dram::HostDram`] — the EMOGI baseline target: effectively unlimited
//!   random-read rate, ~0.3 µs device-side latency (the GPU observes
//!   ~1.1–1.2 µs through the PCIe link, Fig. 9);
//! * [`cxl_mem::CxlMemDevice`] — the Agilex-7 FPGA CXL.mem prototype of
//!   §4.2.1/Fig. 7: 64 B access granularity, 128 device tags, a
//!   single-channel DRAM capped near 5,700 MB/s, and the Appendix-A
//!   **latency bridge** ([`latency_bridge`]) that delays responses through
//!   a timestamped FIFO to emulate slower media;
//! * [`xlfdd::XlfddDrive`] — the microsecond-latency flash prototype of
//!   §4.1 \[38\]: 16 B alignment, transfers up to 2 kB, 11 MIOPS per drive,
//!   built on a multi-die flash array ([`flash`]);
//! * [`nvme::NvmeSsd`] — a conventional NVMe SSD as used by BaM: 512 B
//!   blocks, 4 kB-optimal access, ~1.5 MIOPS per drive.
//!
//! Devices are *passive timing calculators* with one method,
//! [`MemoryTarget::read`]: the discrete-event driver in `cxlg-core` hands
//! them a read arriving at time `t` and they return when the response
//! data leaves the device, having internally accounted for tag limits,
//! service rates, internal bandwidth, and response ordering. They report
//! nothing else: alignment and transfer limits belong to the access
//! method that plans the reads, and each drive asserts its own contract
//! in `read`. The write study's posted writes go through
//! [`write::WritableTarget`].
//! Multi-device configurations (5 CXL expanders, 16 XLFDD drives, 4 SSDs)
//! are assembled with [`interleave::Interleave`] address routing.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cxl_mem;
pub mod dram;
pub mod flash;
pub mod interleave;
pub mod latency_bridge;
pub mod nvme;
pub mod target;
pub mod write;
pub mod xlfdd;

pub use cxl_mem::{CxlMemConfig, CxlMemDevice};
pub use dram::{HostDram, HostDramConfig};
pub use flash::{FlashArray, FlashConfig};
pub use interleave::Interleave;
pub use latency_bridge::{BridgeOrdering, LatencyBridge};
pub use nvme::{NvmeConfig, NvmeSsd};
pub use target::{MemoryTarget, ReadSegment};
pub use write::WritableTarget;
pub use xlfdd::{XlfddConfig, XlfddDrive};
