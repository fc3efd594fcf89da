//! Simulated device (GPU) memory and the device descriptor.

use ps_hw::spec::GpuSpec;

/// A handle to an allocation in device memory. Plain offsets — device
/// pointers are opaque to the host, exactly like CUDA `devptr`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceBuffer {
    offset: usize,
    len: usize,
}

impl DeviceBuffer {
    /// Allocation length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for zero-length buffers.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Absolute device address of `off` within this buffer, for
    /// coalescing analysis.
    pub(crate) fn addr(&self, off: usize) -> usize {
        debug_assert!(off <= self.len);
        self.offset + off
    }
}

/// Flat device memory with a bump allocator.
///
/// PacketShader allocates long-lived table images at startup and
/// reuses fixed I/O staging buffers per chunk slot, so a bump
/// allocator plus whole-buffer reuse is a faithful (and simple)
/// model; there is no free-list because the real system never frees.
#[derive(Debug, Clone)]
pub struct DeviceMemory {
    data: Vec<u8>,
    next: usize,
}

/// Largest device memory, one 128 B segment short of 512 GiB: every
/// address's segment id, plus one, fits the `u32` the cost recording
/// keeps (`kernel::SegmentSet`).
pub(crate) const MAX_DEVICE_BYTES: usize = (1 << 39) - 128;

impl DeviceMemory {
    /// Device memory of `capacity` bytes (lazily zeroed), at most
    /// 512 GiB less 128 B.
    pub fn new(capacity: usize) -> DeviceMemory {
        assert!(
            capacity <= MAX_DEVICE_BYTES,
            "device memory over 512 GiB less 128 B"
        );
        DeviceMemory {
            data: vec![0; capacity],
            next: 0,
        }
    }

    /// Bytes still unallocated.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.next
    }

    /// Allocate `len` bytes, 256-byte aligned (CUDA's allocation
    /// granularity guarantee that makes coalesced access possible).
    ///
    /// # Panics
    /// Panics on device-memory exhaustion: the workloads size their
    /// tables up front, so exhaustion is a configuration bug.
    pub fn alloc(&mut self, len: usize) -> DeviceBuffer {
        let offset = (self.next + 255) & !255;
        assert!(
            offset + len <= self.data.len(),
            "device memory exhausted: want {} at {}, capacity {}",
            len,
            offset,
            self.data.len()
        );
        self.next = offset + len;
        DeviceBuffer { offset, len }
    }

    /// Host-side write into device memory (the payload action of a
    /// host→device DMA copy).
    pub fn write(&mut self, buf: &DeviceBuffer, off: usize, src: &[u8]) {
        assert!(off + src.len() <= buf.len, "device write out of bounds");
        self.data[buf.offset + off..buf.offset + off + src.len()].copy_from_slice(src);
    }

    /// Host-side read out of device memory (device→host DMA).
    pub fn read(&self, buf: &DeviceBuffer, off: usize, dst: &mut [u8]) {
        assert!(off + dst.len() <= buf.len, "device read out of bounds");
        dst.copy_from_slice(&self.data[buf.offset + off..buf.offset + off + dst.len()]);
    }

    /// Borrow an allocation's bytes.
    pub fn slice(&self, buf: &DeviceBuffer) -> &[u8] {
        &self.data[buf.offset..buf.offset + buf.len]
    }

    /// Borrow an allocation's bytes mutably.
    pub(crate) fn slice_mut(&mut self, buf: &DeviceBuffer) -> &mut [u8] {
        &mut self.data[buf.offset..buf.offset + buf.len]
    }

    pub(crate) fn raw(&self) -> &[u8] {
        &self.data
    }

    pub(crate) fn raw_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

/// One GPU: its spec and its memory.
#[derive(Debug)]
pub struct GpuDevice {
    /// Architecture constants.
    pub spec: GpuSpec,
    /// Device memory.
    pub mem: DeviceMemory,
}

impl GpuDevice {
    /// A device with the given spec and its full memory capacity.
    pub fn new(spec: GpuSpec) -> GpuDevice {
        let mem = DeviceMemory::new(spec.mem_bytes as usize);
        GpuDevice { spec, mem }
    }

    /// A GTX480 with a reduced memory capacity — test configurations
    /// use this to avoid multi-GB allocations.
    pub fn gtx480_with_mem(mem_bytes: usize) -> GpuDevice {
        GpuDevice {
            spec: GpuSpec::gtx480(),
            mem: DeviceMemory::new(mem_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut m = DeviceMemory::new(4096);
        let a = m.alloc(100);
        let b = m.alloc(100);
        assert_eq!(a.addr(0) % 256, 0);
        assert_eq!(b.addr(0) % 256, 0);
        assert!(b.addr(0) >= a.addr(0) + 100);
    }

    #[test]
    fn write_read_round_trip() {
        let mut m = DeviceMemory::new(4096);
        let buf = m.alloc(16);
        m.write(&buf, 4, &[1, 2, 3, 4]);
        let mut out = [0u8; 4];
        m.read(&buf, 4, &mut out);
        assert_eq!(out, [1, 2, 3, 4]);
        assert_eq!(&m.slice(&buf)[4..8], &[1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn write_out_of_bounds_panics() {
        let mut m = DeviceMemory::new(4096);
        let buf = m.alloc(8);
        m.write(&buf, 4, &[0; 8]);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let mut m = DeviceMemory::new(1024);
        let _ = m.alloc(512);
        let _ = m.alloc(1024);
    }

    #[test]
    fn remaining_shrinks() {
        let mut m = DeviceMemory::new(4096);
        let before = m.remaining();
        m.alloc(256);
        assert!(m.remaining() < before);
    }

    #[test]
    fn gtx480_shape() {
        let d = GpuDevice::gtx480_with_mem(1 << 20);
        assert_eq!(d.spec.total_lanes(), 480);
        assert_eq!(d.mem.remaining(), 1 << 20);
    }
}
