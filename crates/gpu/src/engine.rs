//! The per-device execution engine: copy engines, the kernel engine
//! and the stream semantics of §5.4.
//!
//! A GTX480 has one kernel engine and a DMA copy engine. Operations
//! belonging to one chunk are strictly ordered (copy-in → kernel →
//! copy-out). Across chunks:
//!
//! * **without** concurrent copy & execution (the default, used for
//!   lightweight kernels like IPv4 lookup where extra per-call stream
//!   overhead hurts, §5.4), all operations serialize on the device;
//! * **with** it (used for IPsec), copies of chunk *i+1* overlap the
//!   kernel of chunk *i*, because copies and kernels run on different
//!   engines (Figure 10(c)).
//!
//! Copies also consume IOH capacity so GPU traffic competes with
//! packet I/O — the coupling §6.3 blames for IPv4's 39 Gbps being
//! "slightly lower than 41 Gbps of minimal forwarding".

use std::collections::VecDeque;

use ps_hw::ioh::{Direction, Ioh};
use ps_hw::pcie::{CopyDir, PcieModel};
use ps_sim::time::Time;

use crate::device::{DeviceBuffer, GpuDevice};
use crate::kernel::{self, Kernel, LaunchStats, WarpAccumulator};
use crate::timing;

/// Extra host-side driver cost per CUDA library call when stream
/// support is enabled ("having multiple streams adds non-trivial
/// overhead for each CUDA library function call", §5.4).
const STREAM_CALL_OVERHEAD_NS: Time = 2_000;

/// One GPU plus its engine state.
pub struct GpuEngine {
    /// The device (spec + memory).
    pub dev: GpuDevice,
    pcie: PcieModel,
    /// Concurrent copy & execution enabled (multi-stream mode).
    pub concurrent_copy: bool,
    /// Upload (host->device) engine horizon in stream mode.
    h2d_free: Time,
    /// Download (device->host) engine horizon in stream mode.
    d2h_free: Time,
    exec_free: Time,
    /// Serialization horizon used when streams are disabled.
    serial_free: Time,
    /// Totals for reports.
    pub kernels_launched: u64,
    /// Trace lane for this device's `gpu`-category spans (set to the
    /// NUMA node index by the router; engine 0 by default).
    pub trace_lane: u32,
    /// Completion times of in-flight uploads, oldest first — drained
    /// against each new copy's start to report `queue_depth`.
    h2d_inflight: VecDeque<Time>,
    /// Completion times of in-flight downloads, oldest first.
    d2h_inflight: VecDeque<Time>,
    /// Reusable per-launch warp scratch: allocated to its high-water
    /// mark by the first launches, then recycled so steady-state
    /// launches are allocation-free.
    scratch: WarpAccumulator,
}

impl GpuEngine {
    /// An engine over `dev` using the PCIe transfer model `pcie`.
    pub fn new(dev: GpuDevice, pcie: PcieModel) -> GpuEngine {
        GpuEngine {
            dev,
            pcie,
            concurrent_copy: false,
            h2d_free: 0,
            d2h_free: 0,
            exec_free: 0,
            serial_free: 0,
            kernels_launched: 0,
            trace_lane: 0,
            h2d_inflight: VecDeque::new(),
            d2h_inflight: VecDeque::new(),
            scratch: WarpAccumulator::default(),
        }
    }

    fn stream_overhead(&self) -> Time {
        if self.concurrent_copy {
            STREAM_CALL_OVERHEAD_NS
        } else {
            0
        }
    }

    /// Copy `data` into device memory at `buf[off..]`, starting no
    /// earlier than `ready`. Returns the completion time. A
    /// [`GpuEngine::copy_h2d_with`] whose `fill` copies `data`.
    pub fn copy_h2d(
        &mut self,
        ready: Time,
        ioh: &mut Ioh,
        buf: &DeviceBuffer,
        off: usize,
        data: &[u8],
    ) -> Time {
        self.copy_h2d_with(ready, ioh, buf, off, data.len(), |dst| {
            dst.copy_from_slice(data)
        })
    }

    /// A host→device copy of `len` bytes to `buf[off..]` whose bytes
    /// `fill` writes straight into device memory, so a staging pass
    /// needs no host buffer of its own. The one call both writes the
    /// bytes and charges their transfer, so the charge is always for
    /// exactly the bytes that arrived. Returns the completion time.
    ///
    /// The copy occupies the copy engine, the PCIe link (timing per
    /// Table 1) and the node's IOH (host→device direction). IOH
    /// capacity is charged at `ready` — the CPU-side submission time —
    /// so fabric occupancy reflects when the transfer is queued, not
    /// when a backlogged engine eventually starts it.
    pub fn copy_h2d_with(
        &mut self,
        ready: Time,
        ioh: &mut Ioh,
        buf: &DeviceBuffer,
        off: usize,
        len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> Time {
        assert!(off + len <= buf.len(), "device write out of bounds");
        fill(&mut self.dev.mem.slice_mut(buf)[off..off + len]);
        self.copy(ready, ready, ioh, CopyDir::HostToDevice, len as u64)
    }

    /// Materialize `data` in device memory at `buf[off..]` with *no*
    /// modeled transfer cost. Used by staging modes whose bytes do not
    /// cross host PCIe as a gather copy: the frame-staging ablation
    /// deposits per-packet fields and charges the frame bytes once via
    /// [`GpuEngine::charge_h2d`], and the direct-DMA ablation's
    /// columns arrived with NIC RX DMA (costed by the NIC model).
    pub fn deposit(&mut self, buf: &DeviceBuffer, off: usize, data: &[u8]) {
        self.dev.mem.write(buf, off, data);
    }

    /// Charge a host→device copy of `bytes` (copy engine, PCIe link,
    /// IOH capacity) without writing device memory — the cost half of
    /// a transfer whose functional half went through
    /// [`GpuEngine::deposit`]. Returns the completion time.
    pub fn charge_h2d(&mut self, ready: Time, ioh: &mut Ioh, bytes: u64) -> Time {
        self.copy(ready, ready, ioh, CopyDir::HostToDevice, bytes)
    }

    /// Copy device memory at `buf[off..]` out to `dst`, starting no
    /// earlier than `ready` (typically the kernel completion);
    /// `submit_at` is when the CPU queued the asynchronous call and
    /// is used for IOH capacity accounting. A
    /// [`GpuEngine::copy_d2h_with`] whose `read` copies into `dst`.
    pub fn copy_d2h(
        &mut self,
        submit_at: Time,
        ready: Time,
        ioh: &mut Ioh,
        buf: &DeviceBuffer,
        off: usize,
        dst: &mut [u8],
    ) -> Time {
        self.copy_d2h_with(submit_at, ready, ioh, buf, off, dst.len(), |src| {
            dst.copy_from_slice(src)
        })
    }

    /// The device→host twin of [`GpuEngine::copy_h2d_with`]: charges
    /// a copy of `len` bytes from `buf[off..]` and hands those bytes,
    /// in device memory, to `read`, which consumes them where they
    /// lie instead of through a host copy. Returns the completion
    /// time.
    #[allow(clippy::too_many_arguments)]
    pub fn copy_d2h_with(
        &mut self,
        submit_at: Time,
        ready: Time,
        ioh: &mut Ioh,
        buf: &DeviceBuffer,
        off: usize,
        len: usize,
        read: impl FnOnce(&[u8]),
    ) -> Time {
        assert!(off + len <= buf.len(), "device read out of bounds");
        read(&self.dev.mem.slice(buf)[off..off + len]);
        self.copy(submit_at, ready, ioh, CopyDir::DeviceToHost, len as u64)
    }

    fn copy(
        &mut self,
        submit_at: Time,
        ready: Time,
        ioh: &mut Ioh,
        dir: CopyDir,
        bytes: u64,
    ) -> Time {
        // With streams, uploads and downloads queue on separate DMA
        // engines (Figure 10(c)); without, every operation serializes
        // on the device.
        let engine_gate = if self.concurrent_copy {
            match dir {
                CopyDir::HostToDevice => self.h2d_free,
                CopyDir::DeviceToHost => self.d2h_free,
            }
        } else {
            self.serial_free
        };
        let start = ready.max(engine_gate) + self.stream_overhead();
        let pcie_done = start + self.pcie.copy_time(dir, bytes);
        let ioh_dir = match dir {
            CopyDir::HostToDevice => Direction::HostToDevice,
            CopyDir::DeviceToHost => Direction::DeviceToHost,
        };
        let ioh_done = ioh.dma_priority(submit_at.min(start), ioh_dir, bytes);
        let done = pcie_done.max(ioh_done);
        match dir {
            CopyDir::HostToDevice => self.h2d_free = done,
            CopyDir::DeviceToHost => self.d2h_free = done,
        }
        if !self.concurrent_copy {
            self.serial_free = done;
        }
        // Copies of this direction still in flight when this one
        // starts. Measured at `start` (not `submit_at`) so serial-mode
        // depth is honest: the engine drained everything before us.
        let inflight = match dir {
            CopyDir::HostToDevice => &mut self.h2d_inflight,
            CopyDir::DeviceToHost => &mut self.d2h_inflight,
        };
        while inflight.front().is_some_and(|&d| d <= start) {
            inflight.pop_front();
        }
        let queue_depth = inflight.len() as u64;
        inflight.push_back(done);
        ps_trace::complete(
            ps_trace::Category::Gpu,
            match dir {
                CopyDir::HostToDevice => "copy_h2d",
                CopyDir::DeviceToHost => "copy_d2h",
            },
            self.trace_lane,
            start,
            done,
            // `submit` is the CPU-side queueing time, `wait` the delay
            // from data-ready to engine start — emitted for both
            // directions so a d2h queued before its kernel finished
            // (`submit_at < ready`) is no longer misread as waiting.
            || {
                vec![
                    ("bytes", bytes),
                    ("submit", submit_at),
                    ("wait", start - ready.max(submit_at).min(start)),
                    ("queue_depth", queue_depth),
                ]
            },
        );
        done
    }

    /// Launch `kernel` over `threads` threads, starting no earlier
    /// than `ready` (normally the copy-in completion). Executes the
    /// kernel functionally against device memory immediately and
    /// returns `(completion_time, stats)`.
    pub fn launch<K: Kernel + ?Sized>(
        &mut self,
        ready: Time,
        kernel: &K,
        threads: u32,
    ) -> (Time, LaunchStats) {
        let stats = kernel::execute_with(kernel, &mut self.dev.mem, threads, &mut self.scratch);
        let cost = kernel::cost_of(&stats);
        let duration = timing::launch_overhead(&self.dev.spec, threads)
            + timing::kernel_time(&self.dev.spec, &cost);
        let engine_gate = if self.concurrent_copy {
            self.exec_free
        } else {
            self.serial_free
        };
        let start = ready.max(engine_gate) + self.stream_overhead();
        let done = start + duration;
        self.exec_free = done;
        if !self.concurrent_copy {
            self.serial_free = done;
        }
        self.kernels_launched += 1;
        ps_trace::complete(
            ps_trace::Category::Gpu,
            "kernel",
            self.trace_lane,
            start,
            done,
            || vec![("threads", threads as u64), ("wait", start - ready)],
        );
        (done, stats)
    }

    /// Hold the execution engines `extra` ns past their current
    /// horizon — an injected slow-warp straggler still occupying the
    /// SMs after the batch's modeled completion, so the *next* launch
    /// queues behind the overrun.
    pub fn delay_engines(&mut self, extra: Time) {
        self.exec_free += extra;
        self.serial_free += extra;
    }

    /// Earliest time a newly submitted chunk could start its copy-in
    /// (in stream mode: when the upload engine frees — the moment the
    /// async CUDA calls of the previous chunk have been queued and its
    /// inputs are on the device).
    pub fn next_copy_slot(&self) -> Time {
        if self.concurrent_copy {
            self.h2d_free
        } else {
            self.serial_free
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_hw::spec::{IohSpec, PcieSpec};

    struct Touch {
        buf: DeviceBuffer,
        per_thread_bytes: usize,
        alu: u32,
    }

    impl Kernel for Touch {
        fn name(&self) -> &str {
            "touch"
        }
        fn thread(&self, tid: u32, ctx: &mut crate::kernel::ThreadCtx<'_>) {
            let off = tid as usize * self.per_thread_bytes;
            let v = ctx.read_u32(&self.buf, off);
            ctx.write_u32(&self.buf, off, v.wrapping_add(1));
            ctx.alu(self.alu);
        }
    }

    fn engine(concurrent: bool) -> (GpuEngine, Ioh) {
        let dev = GpuDevice::gtx480_with_mem(1 << 22);
        let mut e = GpuEngine::new(dev, PcieModel::new(PcieSpec::dual_ioh_x16()));
        e.concurrent_copy = concurrent;
        (e, Ioh::new(IohSpec::intel_5520_dual()))
    }

    #[test]
    fn chunk_ops_are_ordered() {
        let (mut e, mut ioh) = engine(false);
        let buf = e.dev.mem.alloc(4096);
        let t1 = e.copy_h2d(0, &mut ioh, &buf, 0, &[7; 4096]);
        let (t2, _) = e.launch(
            t1,
            &Touch {
                buf,
                per_thread_bytes: 8,
                alu: 50,
            },
            512,
        );
        let mut out = vec![0u8; 4096];
        let t3 = e.copy_d2h(t1, t2, &mut ioh, &buf, 0, &mut out);
        assert!(t1 < t2 && t2 < t3);
        // Functional result: first u32 of each 8B cell incremented.
        assert_eq!(
            u32::from_le_bytes(out[0..4].try_into().unwrap()),
            u32::from_le_bytes([7, 7, 7, 7]) + 1
        );
    }

    #[test]
    fn serial_mode_serializes_independent_chunks() {
        let (mut e, mut ioh) = engine(false);
        let a = e.dev.mem.alloc(4096);
        let b = e.dev.mem.alloc(4096);
        let a_done = e.copy_h2d(0, &mut ioh, &a, 0, &[1; 4096]);
        let (a_kernel, _) = e.launch(
            a_done,
            &Touch {
                buf: a,
                per_thread_bytes: 8,
                alu: 50,
            },
            512,
        );
        // Chunk B's copy cannot start before chunk A's kernel is done.
        let b_done = e.copy_h2d(0, &mut ioh, &b, 0, &[2; 4096]);
        assert!(b_done > a_kernel);
    }

    #[test]
    fn concurrent_mode_overlaps_copy_with_kernel() {
        // Same two-chunk schedule in both modes; the second chunk's
        // copy-in must finish earlier when streams allow it to overlap
        // the first chunk's kernel (Figure 10(c)).
        let run = |concurrent: bool| {
            let (mut e, mut ioh) = engine(concurrent);
            let a = e.dev.mem.alloc(1 << 20);
            let b = e.dev.mem.alloc(1 << 20);
            let big = vec![3u8; 1 << 20];
            let a_done = e.copy_h2d(0, &mut ioh, &a, 0, &big);
            let (a_kernel, _) = e.launch(
                a_done,
                &Touch {
                    buf: a,
                    per_thread_bytes: 128,
                    alu: 5000,
                },
                8192,
            );
            let b_copy = e.copy_h2d(a_done, &mut ioh, &b, 0, &big);
            (a_kernel, b_copy)
        };
        let (serial_kernel, serial_b) = run(false);
        let (_, overlap_b) = run(true);
        // Serial: b's copy starts only after a's kernel.
        assert!(serial_b > serial_kernel);
        // Concurrent: b's copy finished sooner than in serial mode by
        // more than the stream call overhead it paid.
        assert!(
            overlap_b + 10 * STREAM_CALL_OVERHEAD_NS < serial_b,
            "overlap={overlap_b} serial={serial_b}"
        );
    }

    #[test]
    fn stream_mode_adds_per_call_overhead() {
        // §5.4: streams hurt lightweight kernels.
        let (mut e_plain, mut ioh1) = engine(false);
        let (mut e_stream, mut ioh2) = engine(true);
        let buf1 = e_plain.dev.mem.alloc(1024);
        let buf2 = e_stream.dev.mem.alloc(1024);
        let t_plain = {
            let t = e_plain.copy_h2d(0, &mut ioh1, &buf1, 0, &[0; 1024]);
            let (t, _) = e_plain.launch(
                t,
                &Touch {
                    buf: buf1,
                    per_thread_bytes: 4,
                    alu: 50,
                },
                256,
            );
            t
        };
        let t_stream = {
            let t = e_stream.copy_h2d(0, &mut ioh2, &buf2, 0, &[0; 1024]);
            let (t, _) = e_stream.launch(
                t,
                &Touch {
                    buf: buf2,
                    per_thread_bytes: 4,
                    alu: 50,
                },
                256,
            );
            t
        };
        assert!(t_stream > t_plain);
    }

    #[test]
    fn copies_consume_ioh_capacity() {
        let (mut e, mut ioh) = engine(false);
        let buf = e.dev.mem.alloc(1 << 20);
        let data = vec![0u8; 1 << 20];
        e.copy_h2d(0, &mut ioh, &buf, 0, &data);
        assert_eq!(ioh.h2d_bytes(), 1 << 20);
        let mut out = vec![0u8; 1 << 20];
        e.copy_d2h(0, 0, &mut ioh, &buf, 0, &mut out);
        assert_eq!(ioh.d2h_bytes(), 1 << 20);
    }

    #[test]
    fn kernel_accounting() {
        let (mut e, mut ioh) = engine(false);
        let buf = e.dev.mem.alloc(4096);
        let t = e.copy_h2d(0, &mut ioh, &buf, 0, &[0; 4096]);
        e.launch(
            t,
            &Touch {
                buf,
                per_thread_bytes: 8,
                alu: 50,
            },
            512,
        );
        assert_eq!(e.kernels_launched, 1);
    }
}
