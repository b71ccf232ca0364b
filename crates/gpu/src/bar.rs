//! Submission-queue cost model for GPU-initiated storage access.
//!
//! §4.1.1: "As with BaM, we place submission queues (SQs) and data buffers
//! in the base address register (BAR) section of the GPU memory in order
//! to control storage devices directly from the GPU. Note that we do not
//! have completion queues \[42\]." The GPU writes an SQ entry; the drive
//! fetches it from BAR memory and later DMAs the payload back into the
//! BAR data buffer. The costs that matter to the simulation are the SQ
//! entry's traversal of the PCIe request path and the per-drive queue
//! depth that bounds storage concurrency (§3.2: for storage "the limit
//! comes from the queue depth of the storage interface, which is
//! typically much larger than Nmax when multiple drives are used").

use serde::{Deserialize, Serialize};

/// Submission queue parameters for one storage interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubmissionQueueModel {
    /// Bytes per SQ entry crossing the link when the drive fetches it
    /// (NVMe: 64 B commands; XLFDD's lightweight interface: 16 B).
    pub entry_bytes: u64,
    /// Queue depth per drive (outstanding commands the drive accepts).
    pub queue_depth_per_drive: u32,
}

impl SubmissionQueueModel {
    /// BaM's NVMe queues: 64 B SQ entries, deep queues. (NVMe's 16 B CQ
    /// entries are not modelled; see DESIGN.md §"Access methods".)
    pub fn nvme() -> Self {
        SubmissionQueueModel {
            entry_bytes: 64,
            queue_depth_per_drive: 1024,
        }
    }

    /// XLFDD's lightweight interface: small SQ entries, no CQ (§4.1.1).
    pub fn xlfdd() -> Self {
        SubmissionQueueModel {
            entry_bytes: 16,
            queue_depth_per_drive: 1024,
        }
    }

    /// Total storage concurrency with `drives` drives.
    pub fn total_depth(&self, drives: u32) -> u64 {
        self.queue_depth_per_drive as u64 * drives as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxlg_link::pcie::PcieGen;

    #[test]
    fn xlfdd_has_no_completion_queue() {
        // The payload DMA itself signals completion: no CQ to model, and
        // its SQ entries are a quarter of NVMe's.
        let sq = SubmissionQueueModel::xlfdd();
        assert_eq!(sq.entry_bytes, 16);
        assert!(sq.entry_bytes < SubmissionQueueModel::nvme().entry_bytes);
    }

    #[test]
    fn nvme_entries_are_64_bytes() {
        let sq = SubmissionQueueModel::nvme();
        assert_eq!(sq.entry_bytes, 64);
    }

    #[test]
    fn storage_concurrency_exceeds_pcie_nmax() {
        // §3.2: storage queue depth >> Nmax with multiple drives.
        let sq = SubmissionQueueModel::xlfdd();
        assert!(sq.total_depth(16) > PcieGen::Gen4.nmax_outstanding());
        let nvme = SubmissionQueueModel::nvme();
        assert!(nvme.total_depth(4) > PcieGen::Gen4.nmax_outstanding());
    }
}
