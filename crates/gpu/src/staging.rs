//! Staging modes and column addressing for kernel inputs.
//!
//! PacketShader's kernels read only a few bytes of each packet (the
//! IPv4 kernel: a 4-byte destination address; the flow kernels: the
//! canonical 5-tuple), so *how* those bytes reach device memory is a
//! modeling axis of its own:
//!
//! * [`Staging::Frames`] ships whole frames and lets each thread pick
//!   its field out of a 2 KB frame slot — the naive layout, paying
//!   full frame bytes on PCIe and an uncoalesced access per thread;
//! * [`Staging::Soa`] gathers just the kernel's input column into a
//!   densely packed struct-of-arrays batch on the host (§4.3.1
//!   "copies only the destination IP addresses") — the default, and
//!   what the seed always modeled;
//! * [`Staging::DirectDma`] lands the column in device memory straight
//!   from NIC RX DMA (a NaNet/GPUDirect-style peer-to-peer path), so
//!   no host gather copy crosses the IOH a second time.
//!
//! [`Slots`] is the device-side half of the same choice: it tells a
//! kernel where thread `tid`'s input record lives, so one kernel body
//! serves both the packed and the frame-resident layouts.

use crate::device::DeviceBuffer;
use crate::kernel::ThreadCtx;

/// How kernel input columns reach device memory. See the module docs
/// for the three layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Staging {
    /// Whole-frame staging: every gathered frame occupies a
    /// fixed-size device slot and PCIe pays the full frame bytes.
    Frames,
    /// Struct-of-arrays columnar staging (the default): only the
    /// bytes the kernel reads are gathered and copied.
    Soa,
    /// NIC→GPU direct DMA: the column materializes in device memory
    /// with the RX DMA itself; no host staging copy is charged.
    DirectDma,
}

impl Staging {
    /// Stable lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Staging::Frames => "frames",
            Staging::Soa => "soa",
            Staging::DirectDma => "direct-dma",
        }
    }
}

/// Where thread `tid` finds its input record inside a staging buffer:
/// records sit `stride` bytes apart starting at byte `offset`.
///
/// Packed columns use `stride == record width` (consecutive threads
/// read consecutive bytes → warp accesses coalesce into few 128 B
/// segments); frame-resident records use the frame-slot stride (each
/// thread touches its own segment → no coalescing), which is exactly
/// the cost difference the staging ablation measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slots {
    /// Byte distance between consecutive threads' records.
    pub stride: u32,
    /// Byte offset of the record within its slot.
    pub offset: u32,
}

impl Slots {
    /// Densely packed records of `width` bytes each (SoA layout).
    pub const fn packed(width: u32) -> Slots {
        Slots {
            stride: width,
            offset: 0,
        }
    }

    /// Frame-resident records: one `slot`-byte frame cell per thread,
    /// with the field at byte `offset` inside the cell.
    pub const fn frames(slot: u32, offset: u32) -> Slots {
        Slots {
            stride: slot,
            offset,
        }
    }

    /// Device byte address of thread `tid`'s record.
    pub fn at(&self, tid: u32) -> usize {
        tid as usize * self.stride as usize + self.offset as usize
    }

    /// Read thread `tid`'s `N`-byte record through the coalescing
    /// tracker (a convenience over [`ThreadCtx::read`]).
    pub fn read<const N: usize>(
        &self,
        ctx: &mut ThreadCtx<'_>,
        buf: &DeviceBuffer,
        tid: u32,
    ) -> [u8; N] {
        ctx.read::<N>(buf, self.at(tid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_addresses_are_dense() {
        let s = Slots::packed(4);
        assert_eq!(s.at(0), 0);
        assert_eq!(s.at(7), 28);
    }

    #[test]
    fn frame_addresses_stride_by_slot() {
        let s = Slots::frames(2048, 30);
        assert_eq!(s.at(0), 30);
        assert_eq!(s.at(3), 3 * 2048 + 30);
    }

    #[test]
    fn labels_are_the_report_names() {
        let labels = [Staging::Frames, Staging::Soa, Staging::DirectDma].map(Staging::label);
        assert_eq!(labels, ["frames", "soa", "direct-dma"]);
    }
}
