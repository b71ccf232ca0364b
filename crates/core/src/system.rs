//! Whole-system configuration: one GPU + link + topology + external
//! memory backend + access method, with presets for every configuration
//! the paper evaluates.

use crate::access::AccessMethod;
use crate::engine::{Engine, EngineConfig, RequestPath};
use cxlg_device::cxl_mem::{CxlMemConfig, CxlMemDevice};
use cxlg_device::dram::{HostDram, HostDramConfig};
use cxlg_device::interleave::{DeviceArray, Interleave};
use cxlg_device::nvme::{NvmeConfig, NvmeSsd};
use cxlg_device::xlfdd::{XlfddConfig, XlfddDrive};
use cxlg_gpu::bar::SubmissionQueueModel;
use cxlg_gpu::config::GpuConfig;
use cxlg_gpu::uvm::UvmConfig;
use cxlg_link::pcie::{PcieGen, PcieLinkConfig};
use cxlg_link::topology::{DevicePlacement, Topology};
use serde::{Deserialize, Serialize};

/// Which external memory backs the edge list.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BackendConfig {
    /// Host DRAM (EMOGI's native target).
    HostDram {
        /// DRAM parameters.
        dram: HostDramConfig,
        /// Socket placement (DRAM 0 vs DRAM 1 in Fig. 8).
        placement: DevicePlacement,
    },
    /// CXL memory expanders (the §4.2 prototype), page-interleaved.
    CxlMem {
        /// Per-device parameters (including the added latency).
        dev: CxlMemConfig,
        /// Number of devices (the paper uses 5).
        devices: u32,
        /// Interleave granularity (4 kB NUMA pages).
        interleave_bytes: u64,
        /// Socket placement.
        placement: DevicePlacement,
    },
    /// XLFDD microsecond-flash drives (§4.1), striped.
    Xlfdd {
        /// Per-drive parameters.
        dev: XlfddConfig,
        /// Number of drives (the paper uses 16).
        drives: u32,
        /// Stripe granularity.
        interleave_bytes: u64,
    },
    /// Conventional NVMe SSDs (BaM's storage), striped.
    Nvme {
        /// Per-drive parameters.
        dev: NvmeConfig,
        /// Number of drives (BaM uses 4).
        drives: u32,
        /// Stripe granularity.
        interleave_bytes: u64,
    },
}

impl BackendConfig {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            BackendConfig::HostDram { .. } => "host-dram",
            BackendConfig::CxlMem { .. } => "cxl-mem",
            BackendConfig::Xlfdd { .. } => "xlfdd",
            BackendConfig::Nvme { .. } => "nvme",
        }
    }

    /// Whether the device carries no state across a drained batch — true
    /// for DRAM and CXL memory (busy-until timestamps only, all at or
    /// before the batch end), false for the flash-backed targets whose
    /// media keeps plane page registers, plane busy times, and a latency
    /// jitter RNG between batches. Quiescent backends are exactly the
    /// ones the round-shard decomposition reproduces bit-for-bit
    /// (`cxlg_core::engine` module docs); the traversal layer dispatches
    /// on this.
    pub fn quiesces_between_batches(&self) -> bool {
        match self {
            BackendConfig::HostDram { .. } | BackendConfig::CxlMem { .. } => true,
            BackendConfig::Xlfdd { .. } | BackendConfig::Nvme { .. } => false,
        }
    }
}

/// How the GPU turns sublist reads into device requests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AccessConfig {
    /// EMOGI zero-copy (memory backends).
    ZeroCopy,
    /// BaM software cache with line size `line_bytes` and optional
    /// explicit capacity (default: a quarter of the edge list, modelling
    /// a GPU-memory cache smaller than the graph).
    SoftwareCache {
        /// Cache line size = device access alignment.
        line_bytes: u64,
        /// Capacity override in bytes.
        capacity_bytes: Option<u64>,
    },
    /// XLFDD-direct whole-sublist reads at the given alignment.
    Direct {
        /// Request address alignment.
        alignment: u64,
    },
    /// Unified-virtual-memory paging (the pre-EMOGI baseline, §6): the
    /// software cache at 4 kB pages with a quarter of the edge list
    /// resident, plus a per-fault issue overhead.
    Uvm,
}

/// A complete simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// GPU parameters.
    pub gpu: GpuConfig,
    /// The GPU's PCIe link.
    pub link: PcieLinkConfig,
    /// Socket topology.
    pub topology: Topology,
    /// External memory backend.
    pub backend: BackendConfig,
    /// Access method.
    pub access: AccessConfig,
}

impl SystemConfig {
    /// EMOGI on host DRAM attached to the GPU's socket — the baseline
    /// every figure normalizes against.
    pub fn emogi_on_dram(gen: PcieGen) -> Self {
        SystemConfig {
            gpu: GpuConfig::default(),
            link: PcieLinkConfig::x16(gen),
            topology: Topology::default(),
            backend: BackendConfig::HostDram {
                dram: HostDramConfig::default(),
                placement: DevicePlacement::near(),
            },
            access: AccessConfig::ZeroCopy,
        }
    }

    /// UVM paging on host DRAM — the Related-Work baseline that EMOGI's
    /// zero-copy access replaces.
    pub fn uvm_on_dram(gen: PcieGen) -> Self {
        SystemConfig {
            gpu: GpuConfig::default(),
            link: PcieLinkConfig::x16(gen),
            topology: Topology::default(),
            backend: BackendConfig::HostDram {
                dram: HostDramConfig::default(),
                placement: DevicePlacement::near(),
            },
            access: AccessConfig::Uvm,
        }
    }

    /// EMOGI on `devices` CXL memory expanders (§4.2.3 uses Gen3 + 5
    /// devices so the PCIe link, not the prototype, is the concurrency
    /// bottleneck).
    pub fn emogi_on_cxl(gen: PcieGen, devices: u32) -> Self {
        SystemConfig {
            gpu: GpuConfig::default(),
            link: PcieLinkConfig::x16(gen),
            topology: Topology::default(),
            backend: BackendConfig::CxlMem {
                dev: CxlMemConfig::default(),
                devices,
                interleave_bytes: 4096,
                placement: DevicePlacement::near(),
            },
            access: AccessConfig::ZeroCopy,
        }
    }

    /// BaM on NVMe SSDs with a 4 kB software cache line (§3.3.2).
    pub fn bam_on_nvme(gen: PcieGen, drives: u32) -> Self {
        SystemConfig {
            gpu: GpuConfig::default(),
            link: PcieLinkConfig::x16(gen),
            topology: Topology::default(),
            backend: BackendConfig::Nvme {
                dev: NvmeConfig::default(),
                drives,
                interleave_bytes: 4096,
            },
            access: AccessConfig::SoftwareCache {
                line_bytes: 4096,
                capacity_bytes: None,
            },
        }
    }

    /// The XLFDD system of §4.1: 16 drives, direct access at 16 B.
    pub fn xlfdd(gen: PcieGen, drives: u32) -> Self {
        SystemConfig {
            gpu: GpuConfig::default(),
            link: PcieLinkConfig::x16(gen),
            topology: Topology::default(),
            backend: BackendConfig::Xlfdd {
                dev: XlfddConfig::default(),
                drives,
                interleave_bytes: 4096,
            },
            access: AccessConfig::Direct { alignment: 16 },
        }
    }

    /// Adjust the CXL latency bridge (no-op for other backends).
    pub fn with_added_latency_us(mut self, us: f64) -> Self {
        if let BackendConfig::CxlMem { dev, .. } = &mut self.backend {
            *dev = dev.with_added_latency_us(us);
        }
        self
    }

    /// Override the access alignment: for `Direct` and `SoftwareCache`
    /// methods this is the Fig. 5 sweep variable.
    pub fn with_alignment(mut self, alignment: u64) -> Self {
        match &mut self.access {
            AccessConfig::ZeroCopy | AccessConfig::Uvm => {}
            AccessConfig::SoftwareCache { line_bytes, .. } => *line_bytes = alignment,
            AccessConfig::Direct { alignment: a } => *a = alignment,
        }
        self
    }

    /// Override the active warp count (ablation).
    pub fn with_active_warps(mut self, warps: u32) -> Self {
        self.gpu = self.gpu.with_active_warps(warps);
        self
    }

    /// Place the backend on the far socket (Fig. 9's DRAM 0 / CXL 0).
    pub fn on_far_socket(mut self) -> Self {
        match &mut self.backend {
            BackendConfig::HostDram { placement, .. }
            | BackendConfig::CxlMem { placement, .. } => *placement = DevicePlacement::far(),
            _ => {}
        }
        self
    }

    /// Human-readable label.
    pub fn label(&self) -> String {
        format!("{}:{}", self.backend.name(), self.access_name())
    }

    fn access_name(&self) -> &'static str {
        match self.access {
            AccessConfig::ZeroCopy => "emogi",
            AccessConfig::SoftwareCache { .. } => "bam",
            AccessConfig::Direct { .. } => "direct",
            AccessConfig::Uvm => "uvm",
        }
    }

    /// Concurrency credits for the engine: PCIe `Nmax` for memory
    /// backends, aggregate queue depth for storage (§3.2).
    pub fn credits(&self) -> u64 {
        match &self.backend {
            BackendConfig::HostDram { .. } | BackendConfig::CxlMem { .. } => self.link.nmax(),
            BackendConfig::Xlfdd { drives, .. } => {
                SubmissionQueueModel::xlfdd().total_depth(*drives)
            }
            BackendConfig::Nvme { drives, .. } => {
                SubmissionQueueModel::nvme().total_depth(*drives)
            }
        }
    }

    /// Build the execution engine (device instances + link state).
    pub fn build_engine(&self) -> Engine {
        let (backend, path, placement): (Box<dyn cxlg_device::target::MemoryTarget>, _, _) =
            match &self.backend {
                BackendConfig::HostDram { dram, placement } => (
                    Box::new(HostDram::new(*dram)),
                    RequestPath::Memory,
                    Some(*placement),
                ),
                BackendConfig::CxlMem {
                    dev,
                    devices,
                    interleave_bytes,
                    placement,
                } => {
                    let devs: Vec<CxlMemDevice> =
                        (0..*devices).map(|_| CxlMemDevice::new(*dev)).collect();
                    (
                        Box::new(DeviceArray::new(
                            devs,
                            Interleave::new(*interleave_bytes, *devices),
                        )),
                        RequestPath::Memory,
                        Some(*placement),
                    )
                }
                BackendConfig::Xlfdd {
                    dev,
                    drives,
                    interleave_bytes,
                } => {
                    let sq = SubmissionQueueModel::xlfdd();
                    let devs: Vec<XlfddDrive> = (0..*drives)
                        .map(|i| XlfddDrive::new(*dev, i as u64 + 1))
                        .collect();
                    (
                        Box::new(DeviceArray::new(
                            devs,
                            Interleave::new(*interleave_bytes, *drives),
                        )),
                        RequestPath::Storage {
                            entry_bytes: sq.entry_bytes,
                        },
                        None,
                    )
                }
                BackendConfig::Nvme {
                    dev,
                    drives,
                    interleave_bytes,
                } => {
                    let sq = SubmissionQueueModel::nvme();
                    let devs: Vec<NvmeSsd> = (0..*drives)
                        .map(|i| NvmeSsd::new(*dev, i as u64 + 1))
                        .collect();
                    (
                        Box::new(DeviceArray::new(
                            devs,
                            Interleave::new(*interleave_bytes, *drives),
                        )),
                        RequestPath::Storage {
                            entry_bytes: sq.entry_bytes,
                        },
                        None,
                    )
                }
            };
        let socket_penalty = placement
            .map(|p| self.topology.socket_penalty(p))
            .unwrap_or(cxlg_sim::SimDuration::ZERO);
        // Every UVM request is a page fault.
        let issue_overhead = match self.access {
            AccessConfig::Uvm => UvmConfig::default().fault_overhead(),
            _ => cxlg_sim::SimDuration::ZERO,
        };
        Engine::new(
            EngineConfig {
                gpu: self.gpu,
                link: self.link,
                credits: self.credits(),
                socket_penalty,
                path,
                issue_overhead,
            },
            backend,
        )
    }

    /// Build the access method. `edge_list_bytes` sizes the default BaM
    /// cache and the UVM residency budget (a quarter of the edge list).
    pub fn build_access(&self, edge_list_bytes: u64) -> AccessMethod {
        match self.access {
            AccessConfig::ZeroCopy => AccessMethod::emogi(),
            AccessConfig::SoftwareCache {
                line_bytes,
                capacity_bytes,
            } => {
                let capacity =
                    capacity_bytes.unwrap_or((edge_list_bytes / 4).max(line_bytes * 64));
                AccessMethod::bam(capacity, line_bytes)
            }
            AccessConfig::Direct { alignment } => AccessMethod::xlfdd_direct(alignment),
            AccessConfig::Uvm => {
                let page = UvmConfig::default().page_bytes;
                AccessMethod::bam((edge_list_bytes / 4).max(page * 256), page)
            }
        }
    }
}

/// Behavioral probes of a built engine, for tests: what it charges is
/// read off its simulated timelines.
#[cfg(test)]
impl SystemConfig {
    /// When a batch of one 512 B read at address 0 ends on a fresh engine.
    pub(crate) fn one_read_end(&self) -> cxlg_sim::SimTime {
        let read = crate::access::DeviceRequest {
            addr: 0,
            bytes: 512,
        };
        self.build_engine()
            .run_batch(cxlg_sim::SimTime::ZERO, &[read])
            .end
    }

    /// How much later a one-read batch ends on this system's UVM twin
    /// (the same machine with every request a page fault) than on this
    /// system: the fault overhead minus this engine's own issue overhead.
    pub(crate) fn uvm_twin_delay(&self) -> cxlg_sim::SimDuration {
        let twin = SystemConfig {
            access: AccessConfig::Uvm,
            ..*self
        };
        twin.one_read_end().saturating_since(self.one_read_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The highest number of requests `sys`'s engine keeps outstanding
    /// when `2·credits()` warps pull `2·credits()` reads at once.
    fn peak_outstanding_when_flooded(sys: &SystemConfig) -> u64 {
        let n = 2 * sys.credits();
        let mut sys = *sys;
        // Enough warps to ask for every credit and more, beyond the
        // GPU's resident-warp limit if need be.
        sys.gpu.active_warps = n as u32;
        let reads: Vec<crate::access::DeviceRequest> = (0..n)
            .map(|i| crate::access::DeviceRequest {
                addr: i * 4096,
                bytes: 512,
            })
            .collect();
        sys.build_engine().run_shard(&reads).peak_outstanding
    }

    #[test]
    fn presets_have_paper_credit_limits() {
        assert_eq!(SystemConfig::emogi_on_dram(PcieGen::Gen4).credits(), 768);
        assert_eq!(SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5).credits(), 256);
        // Storage concurrency comes from queue depth, not Nmax.
        assert!(SystemConfig::xlfdd(PcieGen::Gen4, 16).credits() > 768);
        assert!(SystemConfig::bam_on_nvme(PcieGen::Gen4, 4).credits() > 768);
    }

    #[test]
    fn added_latency_applies_to_cxl_only() {
        let cxl = SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5).with_added_latency_us(2.0);
        match cxl.backend {
            BackendConfig::CxlMem { dev, .. } => {
                assert!((dev.added_latency().as_us_f64() - 2.0).abs() < 1e-9)
            }
            _ => panic!("wrong backend"),
        }
        // No-op on DRAM.
        let dram = SystemConfig::emogi_on_dram(PcieGen::Gen4).with_added_latency_us(2.0);
        assert!(matches!(dram.backend, BackendConfig::HostDram { .. }));
    }

    #[test]
    fn alignment_override_applies_to_direct_and_bam() {
        let x = SystemConfig::xlfdd(PcieGen::Gen4, 16).with_alignment(256);
        assert!(matches!(x.access, AccessConfig::Direct { alignment: 256 }));
        let b = SystemConfig::bam_on_nvme(PcieGen::Gen4, 4).with_alignment(512);
        assert!(matches!(
            b.access,
            AccessConfig::SoftwareCache {
                line_bytes: 512,
                ..
            }
        ));
        // Zero-copy alignment is fixed by the GPU architecture.
        let e = SystemConfig::emogi_on_dram(PcieGen::Gen4).with_alignment(64);
        assert!(matches!(e.access, AccessConfig::ZeroCopy));
    }

    #[test]
    fn engines_build_for_all_backends() {
        for sys in [
            SystemConfig::emogi_on_dram(PcieGen::Gen4),
            SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5),
            SystemConfig::bam_on_nvme(PcieGen::Gen4, 4),
            SystemConfig::xlfdd(PcieGen::Gen4, 16),
        ] {
            // The engine holds exactly `credits()` requests outstanding
            // when more are asked for.
            assert_eq!(
                peak_outstanding_when_flooded(&sys),
                sys.credits(),
                "{}",
                sys.label()
            );
        }
    }

    #[test]
    fn only_uvm_engines_charge_an_issue_overhead() {
        // A one-read batch on UVM ends exactly one fault overhead after
        // the same batch on the same host DRAM without it.
        let uvm = SystemConfig::uvm_on_dram(PcieGen::Gen4);
        let dram = SystemConfig::emogi_on_dram(PcieGen::Gen4);
        let fault = uvm.one_read_end().saturating_since(dram.one_read_end());
        assert_eq!(fault, UvmConfig::default().fault_overhead());
        assert!(fault > cxlg_sim::SimDuration::ZERO);
        // Every other engine charges nothing: its UVM twin ends a whole
        // fault overhead later.
        for sys in [
            SystemConfig::emogi_on_dram(PcieGen::Gen4),
            SystemConfig::emogi_on_cxl(PcieGen::Gen3, 5),
            SystemConfig::bam_on_nvme(PcieGen::Gen4, 4),
            SystemConfig::xlfdd(PcieGen::Gen4, 16),
        ] {
            assert_eq!(sys.uvm_twin_delay(), fault, "{}", sys.label());
        }
    }

    #[test]
    fn uvm_pages_are_4k_with_a_tens_of_microseconds_fault() {
        let uvm = SystemConfig::uvm_on_dram(PcieGen::Gen4);
        assert_eq!(uvm.build_access(400 << 20).alignment(), 4096);
        let fault = uvm
            .one_read_end()
            .saturating_since(SystemConfig::emogi_on_dram(PcieGen::Gen4).one_read_end());
        let us = fault.as_us_f64();
        assert!((5.0..50.0).contains(&us), "{us}");
    }

    #[test]
    fn bam_cache_defaults_to_quarter_of_edge_list() {
        let sys = SystemConfig::bam_on_nvme(PcieGen::Gen4, 4);
        let access = sys.build_access(400 << 20);
        match access {
            crate::access::AccessMethod::SoftwareCache { cache } => {
                assert_eq!(cache.config().capacity_bytes, 100 << 20);
                assert_eq!(cache.config().line_bytes, 4096);
            }
            _ => panic!("expected software cache"),
        }
    }

    #[test]
    fn far_socket_placement() {
        let sys = SystemConfig::emogi_on_dram(PcieGen::Gen4).on_far_socket();
        match sys.backend {
            BackendConfig::HostDram { placement, .. } => {
                assert_eq!(placement, DevicePlacement::far())
            }
            _ => panic!(),
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            SystemConfig::emogi_on_dram(PcieGen::Gen4).label(),
            "host-dram:emogi"
        );
        assert_eq!(SystemConfig::xlfdd(PcieGen::Gen4, 16).label(), "xlfdd:direct");
        assert_eq!(
            SystemConfig::bam_on_nvme(PcieGen::Gen4, 4).label(),
            "nvme:bam"
        );
    }
}
