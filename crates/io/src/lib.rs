//! # ps-io — the optimized packet I/O engine (paper §4)
//!
//! The paper's first contribution: user-level multi-10G packet I/O.
//! This crate holds the engine's data structures and cost models; the
//! event-driven router that drives them lives in `ps-core`.
//!
//! * [`packet`] — the owned packet record that moves through the
//!   simulated pipeline (pooled `Vec<u8>` frames; the huge packet
//!   buffer's savings are charged by [`cost`], see DESIGN.md);
//! * [`cost`] — the calibrated CPU-cycle model: the legacy Linux skb
//!   path with Table 3's bins, and the batched engine path whose
//!   per-packet + per-batch split reproduces Figure 5;
//! * [`config`] — engine knobs: batch cap and NUMA placement policy;
//! * [`trace`] — `io`-category trace events for batch assembly (see
//!   OBSERVABILITY.md).

pub mod config;
pub mod cost;
pub mod packet;
pub mod trace;

pub use config::IoConfig;
pub use cost::{CostModel, LinuxBaseline};
pub use packet::Packet;

/// DMA bytes a frame of `len` costs on the fabric: payload rounded up
/// to whole 64 B cache lines (DMA writes full lines, §4.1) plus a
/// 16 B descriptor write-back/fetch.
#[inline]
pub fn dma_bytes(len: usize) -> u64 {
    (len.div_ceil(64) * 64 + 16) as u64
}

#[cfg(test)]
mod tests {
    #[test]
    fn dma_rounding() {
        assert_eq!(super::dma_bytes(64), 80);
        assert_eq!(super::dma_bytes(65), 144);
        assert_eq!(super::dma_bytes(1514), 1536 + 16);
    }
}
