//! # ps-gpu — SIMT GPU simulator
//!
//! A functional-plus-analytic model of the NVIDIA GTX480 (§2.1) that
//! plays CUDA's role in the reproduction:
//!
//! * **Functional**: kernels are real Rust code executed once per GPU
//!   thread against simulated device memory ([`DeviceMemory`]), so the
//!   forwarding tables, crypto and flow lookups produce *real*
//!   results — the router's output is bit-exact regardless of timing.
//!   A kernel may do a warp's work in bulk ([`Kernel::warp`]) when
//!   that leaves the same bytes and the same recorded costs.
//! * **Analytic timing**: each thread's memory accesses and ALU work
//!   are traced per warp (32 lanes, lockstep, divergence counted,
//!   per-warp coalescing into 128 B segments) and converted into a
//!   kernel duration by [`timing::kernel_time`] — the maximum of an
//!   instruction-issue bound, a memory-latency bound, an
//!   outstanding-transaction (latency-hiding) bound and a device
//!   bandwidth bound. This is the mechanism behind Figure 2: few
//!   threads leave the latency term exposed; many threads amortize it
//!   and shift the bottleneck to throughput terms.
//! * **Transfers**: copies ride the PCIe model fitted to Table 1 and
//!   also consume IOH capacity, coupling GPU traffic with packet I/O
//!   exactly as §6.3 observes ("IOH gets more overloaded due to
//!   copying IP addresses...").
//! * **Streams**: [`engine::GpuEngine`] serializes copy-in, kernel and
//!   copy-out per chunk, with optional concurrent copy & execution
//!   (Figure 10(c)) that lets different chunks overlap engines.

#![deny(missing_docs)]

pub mod device;
pub mod engine;
pub mod kernel;
pub mod staging;
pub mod timing;

pub use device::{DeviceBuffer, DeviceMemory, GpuDevice};
pub use engine::GpuEngine;
pub use kernel::{Kernel, LaunchStats, ThreadCtx, WarpCtx};
pub use staging::{Slots, Staging};
pub use timing::KernelCost;
