//! Write paths — the Discussion section's "read-only workloads" future
//! direction.
//!
//! The paper's workloads never write to external memory, and it flags the
//! open questions: coherency overhead on CXL, and "write characteristics
//! of flash memory", both with possible dependence on alignment and
//! transfer size. These models make those effects measurable:
//!
//! * host DRAM / CXL DRAM: writes are posted — they consume channel
//!   bandwidth but complete at the device without a data response;
//! * flash: a page **program** is an order of magnitude slower than a
//!   read (`tPROG` ≈ 100 µs vs `tR` ≈ 4 µs) and occupies the plane, so
//!   even a small write fraction collapses read IOPS — exactly the
//!   asymmetry the Discussion warns about. `XlfddDrive`'s impl lives
//!   with the drive, which owns its flash array.

use crate::cxl_mem::CxlMemDevice;
use crate::dram::HostDram;
use cxlg_link::cxl::CXL_FLIT_BYTES;
use cxlg_sim::SimTime;

/// Default flash page-program time (`tPROG`), ps. Low-latency flash
/// programs faster than conventional TLC but still ~25x its read time.
pub const FLASH_PROGRAM_PS: u64 = 100_000_000; // 100 us

/// Write acceptance: when the device has absorbed the data (posted
/// semantics — no data returns).
pub trait WritableTarget {
    /// Accept a write of `bytes` at `addr` arriving at `t`; returns when
    /// the device has durably accepted it.
    fn write(&mut self, t_arrive: SimTime, addr: u64, bytes: u64) -> SimTime;
}

impl WritableTarget for HostDram {
    fn write(&mut self, t_arrive: SimTime, addr: u64, bytes: u64) -> SimTime {
        // Same channel as reads; posted, so acceptance = serialization +
        // access latency (no return trip).
        let mut sink = Vec::with_capacity(1);
        use crate::target::MemoryTarget;
        self.read(t_arrive, addr, bytes, &mut sink)
    }
}

impl WritableTarget for CxlMemDevice {
    fn write(&mut self, t_arrive: SimTime, addr: u64, bytes: u64) -> SimTime {
        // CXL.mem writes (M2S RwD) move 64 B flits through the same
        // port, bridge and DRAM channel as reads; the NDR completion is
        // subject to the same added latency (the bridge delays all
        // responses). Reuse the read path timing: data-in instead of
        // data-out is symmetric for the single shared channel.
        let mut sink = Vec::with_capacity((bytes / CXL_FLIT_BYTES + 1) as usize);
        use crate::target::MemoryTarget;
        self.read(t_arrive, addr, bytes, &mut sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cxl_mem::CxlMemConfig;
    use crate::flash::{FlashArray, FlashConfig};
    use crate::xlfdd::XlfddDrive;

    #[test]
    fn dram_write_is_cheap_and_posted() {
        let mut d = HostDram::default();
        let done = d.write(SimTime::ZERO, 0, 128);
        assert!(done.as_us_f64() < 0.5, "{done:?}");
    }

    #[test]
    fn cxl_write_pays_bridge_latency() {
        let mut base = CxlMemDevice::new(CxlMemConfig::default());
        let mut slow = CxlMemDevice::new(CxlMemConfig::default().with_added_latency_us(2.0));
        let t0 = base.write(SimTime::ZERO, 0, 64);
        let t2 = slow.write(SimTime::ZERO, 0, 64);
        assert!(t2 > t0, "bridge latency must apply to writes too");
        assert!(t2.saturating_since(t0).as_us_f64() > 1.0);
    }

    #[test]
    fn flash_program_is_much_slower_than_read() {
        let mut f = FlashArray::new(FlashConfig {
            jitter_mean_ps: 0,
            ..FlashConfig::default()
        });
        let read = f.read_page(SimTime::ZERO, 1 << 20);
        let mut f2 = FlashArray::new(FlashConfig {
            jitter_mean_ps: 0,
            ..FlashConfig::default()
        });
        let prog = f2.program_page(SimTime::ZERO, 1 << 20);
        assert!(
            prog.as_us_f64() > 20.0 * read.as_us_f64(),
            "program {prog:?} vs read {read:?}"
        );
    }

    #[test]
    fn writes_stall_subsequent_reads_on_the_same_plane() {
        // The Discussion's warning, reproduced: one program blocks the
        // plane for ~100 us, so a following read to the same plane waits.
        let mut f = FlashArray::new(FlashConfig {
            jitter_mean_ps: 0,
            ..FlashConfig::default()
        });
        let addr = 0u64;
        f.program_page(SimTime::ZERO, addr);
        let read_after = f.read_page(SimTime::ZERO, addr);
        assert!(
            read_after.as_us_f64() > 100.0,
            "read should queue behind the program: {read_after:?}"
        );
    }

    #[test]
    fn drive_write_spans_pages() {
        let mut d = XlfddDrive::default();
        let done = d.write(SimTime::ZERO, 4096 - 512, 1024);
        // Two pages programmed (parallel if planes differ, serial if not).
        assert!(done.as_us_f64() >= 100.0);
        assert!(done.as_us_f64() <= 210.0, "{done:?}");
    }
}
