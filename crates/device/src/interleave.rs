//! Address interleaving across a homogeneous device array.
//!
//! The paper's configurations all gang multiple devices: 16 XLFDD drives
//! (§4.1.1), 4 NVMe SSDs, and 5 CXL memory expanders interleaved by the
//! NUMA policy (§4.2.2). `Interleave` maps a flat external address to a
//! `(device, local address)` pair at a configurable power-of-two
//! granularity (a 4 kB page for `set_mempolicy` interleaving; a stripe
//! block for storage arrays), and [`DeviceArray`] wraps `Vec<T>` with that
//! routing.

use crate::target::{MemoryTarget, ReadSegment};
use cxlg_sim::SimTime;
use serde::{Deserialize, Serialize};

/// Power-of-two block interleaving over `n` devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Interleave {
    /// Stripe block size in bytes (power of two).
    pub granularity: u64,
    /// Number of devices.
    pub n: u32,
}

impl Interleave {
    /// New interleaving; panics unless `granularity` is a power of two and
    /// `n >= 1`.
    pub fn new(granularity: u64, n: u32) -> Self {
        assert!(granularity.is_power_of_two(), "granularity must be 2^k");
        assert!(n >= 1, "need at least one device");
        Interleave { granularity, n }
    }

    /// Route a flat address: which device, and the device-local address.
    #[inline]
    pub fn route(&self, addr: u64) -> (u32, u64) {
        let block = addr / self.granularity;
        let dev = (block % self.n as u64) as u32;
        let local_block = block / self.n as u64;
        (dev, local_block * self.granularity + addr % self.granularity)
    }

    /// Split a read `(addr, bytes)` into per-device pieces along stripe
    /// boundaries, invoking `f(device, local_addr, len)` for each piece in
    /// address order.
    pub fn split_read(&self, addr: u64, bytes: u64, mut f: impl FnMut(u32, u64, u64)) {
        let mut cur = addr;
        let end = addr + bytes;
        while cur < end {
            let stripe_end = (cur / self.granularity + 1) * self.granularity;
            let len = stripe_end.min(end) - cur;
            let (dev, local) = self.route(cur);
            f(dev, local, len);
            cur += len;
        }
    }
}

/// A homogeneous array of devices behind one interleaved address space.
#[derive(Debug, Clone)]
pub struct DeviceArray<T> {
    devices: Vec<T>,
    interleave: Interleave,
}

impl<T: MemoryTarget> DeviceArray<T> {
    /// Build from devices and an interleaving whose `n` matches.
    pub fn new(devices: Vec<T>, interleave: Interleave) -> Self {
        assert_eq!(
            devices.len() as u32,
            interleave.n,
            "interleave width must match device count"
        );
        DeviceArray {
            devices,
            interleave,
        }
    }
}

impl<T: MemoryTarget> MemoryTarget for DeviceArray<T> {
    fn read(
        &mut self,
        t_arrive: SimTime,
        addr: u64,
        bytes: u64,
        out: &mut Vec<ReadSegment>,
    ) -> SimTime {
        let mut last = SimTime::ZERO;
        let interleave = self.interleave;
        let devices = &mut self.devices;
        interleave.split_read(addr, bytes, |dev, local, len| {
            let r = devices[dev as usize].read(t_arrive, local, len, out);
            last = last.max(r);
        });
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::HostDram;

    /// A device that answers at once and logs each `(local addr, bytes)`.
    #[derive(Default)]
    struct Logged(Vec<(u64, u64)>);

    impl MemoryTarget for Logged {
        fn read(
            &mut self,
            t: SimTime,
            addr: u64,
            bytes: u64,
            out: &mut Vec<ReadSegment>,
        ) -> SimTime {
            self.0.push((addr, bytes));
            out.push(ReadSegment { ready: t, bytes });
            t
        }
    }

    #[test]
    fn route_round_robins_blocks() {
        let il = Interleave::new(4096, 4);
        assert_eq!(il.route(0), (0, 0));
        assert_eq!(il.route(4096), (1, 0));
        assert_eq!(il.route(8192), (2, 0));
        assert_eq!(il.route(12288), (3, 0));
        assert_eq!(il.route(16384), (0, 4096));
        assert_eq!(il.route(16384 + 100), (0, 4196));
    }

    #[test]
    fn route_preserves_offset_within_block() {
        let il = Interleave::new(4096, 5);
        let (dev, local) = il.route(4096 * 7 + 123);
        assert_eq!(dev, 2);
        assert_eq!(local % 4096, 123);
    }

    #[test]
    fn split_read_within_one_stripe() {
        let il = Interleave::new(4096, 4);
        let mut pieces = Vec::new();
        il.split_read(100, 200, |d, a, l| pieces.push((d, a, l)));
        assert_eq!(pieces, vec![(0, 100, 200)]);
    }

    #[test]
    fn split_read_across_stripes() {
        let il = Interleave::new(4096, 2);
        let mut pieces = Vec::new();
        il.split_read(4000, 200, |d, a, l| pieces.push((d, a, l)));
        // 96 bytes in stripe 0 (device 0), 104 in stripe 1 (device 1).
        assert_eq!(pieces.len(), 2);
        assert_eq!(pieces[0], (0, 4000, 96));
        assert_eq!(pieces[1], (1, 0, 104));
        assert_eq!(pieces.iter().map(|p| p.2).sum::<u64>(), 200);
    }

    #[test]
    fn split_read_covers_exactly_the_request() {
        let il = Interleave::new(128, 3);
        let mut total = 0;
        il.split_read(1000, 1000, |_, _, l| total += l);
        assert_eq!(total, 1000);
    }

    #[test]
    fn array_routes_reads_to_devices() {
        let devices: Vec<Logged> = (0..4).map(|_| Logged::default()).collect();
        let mut arr = DeviceArray::new(devices, Interleave::new(4096, 4));
        let mut out = Vec::new();
        arr.read(SimTime::ZERO, 0, 128, &mut out);
        arr.read(SimTime::ZERO, 4096, 128, &mut out);
        arr.read(SimTime::ZERO, 4 * 4096 + 64, 64, &mut out);
        assert_eq!(arr.devices[0].0, [(0, 128), (4096 + 64, 64)]);
        assert_eq!(arr.devices[1].0, [(0, 128)]);
        assert!(arr.devices[2].0.is_empty() && arr.devices[3].0.is_empty());
        assert_eq!(out.iter().map(|s| s.bytes).sum::<u64>(), 320);
    }

    #[test]
    #[should_panic(expected = "match device count")]
    fn array_rejects_width_mismatch() {
        let devices = vec![HostDram::default()];
        DeviceArray::new(devices, Interleave::new(4096, 2));
    }
}
