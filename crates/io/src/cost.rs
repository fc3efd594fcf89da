//! Calibrated CPU-cycle costs of packet I/O.
//!
//! Two paths:
//!
//! * the legacy Linux skb path ([`LINUX_RX_CYCLES`]), with the
//!   functional bins measured in Table 3. Total per-packet RX cost is
//!   ~2,400 cycles on the X5550 (consistent with the paper's Figure 5
//!   batch-size-1 forwarding rate of 0.78 Gbps on one core);
//! * the optimized engine ([`rx_batch_cycles`], [`tx_batch_cycles`]):
//!   a small per-packet cost plus a per-batch cost (system call,
//!   descriptor doorbell, interrupt handling) amortized over the
//!   batch. Calibrated so one core forwards 64 B packets at 0.78 Gbps
//!   with batch 1 and ~10.5 Gbps with batch 64 — Figure 5's endpoints
//!   — with the 13.5× speedup emerging from the amortization.

use ps_hw::numa::Placement;

/// Table 3: total per-packet RX cycles of the legacy skb path.
pub const LINUX_RX_CYCLES: u64 = 2400;

/// One functional bin of the Table 3 breakdown.
#[derive(Debug, Clone, Copy)]
pub struct Bin {
    /// Bin label as printed in the paper.
    pub name: &'static str,
    /// Share of total cycles, percent.
    pub percent: f64,
    /// The engine mechanism that removes this cost (None for
    /// irreducible costs).
    pub solution: Option<&'static str>,
}

/// The Table 3 bins.
pub const TABLE3_BINS: &[Bin] = &[
    Bin {
        name: "skb initialization",
        percent: 4.9,
        solution: Some("compact metadata (§4.2)"),
    },
    Bin {
        name: "skb (de)allocation",
        percent: 8.0,
        solution: Some("huge packet buffer (§4.2)"),
    },
    Bin {
        name: "memory subsystem",
        percent: 50.2,
        solution: Some("huge packet buffer (§4.2)"),
    },
    Bin {
        name: "NIC device driver",
        percent: 13.3,
        solution: Some("batch processing (§4.3)"),
    },
    Bin {
        name: "others",
        percent: 9.8,
        solution: None,
    },
    Bin {
        name: "compulsory cache misses",
        percent: 13.8,
        solution: Some("software prefetch (§4.3)"),
    },
];

/// Legacy-path cycles spent in Table 3 bin `i` per packet.
pub fn bin_cycles(i: usize) -> u64 {
    (LINUX_RX_CYCLES as f64 * TABLE3_BINS[i].percent / 100.0).round() as u64
}

// The optimized engine's calibrated constants, fit to Figure 5's
// endpoints (see module docs). The per-batch costs bundle the
// user↔kernel crossing, descriptor-ring doorbell writes and interrupt
// handling paid once per batched system call; the per-packet costs
// are the residual descriptor + prefetch + copy work.

/// Per-packet RX cycles.
const RX_PER_PACKET: u64 = 80;
/// Per-batch RX cycles.
const RX_PER_BATCH: u64 = 1300;
/// Per-packet TX cycles.
const TX_PER_PACKET: u64 = 55;
/// Per-batch TX cycles.
const TX_PER_BATCH: u64 = 955;
/// Copy-to-user cost in cycles per 16 bytes (SSE-wide copy; the paper
/// measures the copy at <20 % of I/O cycles, §4.3).
const COPY_CYCLES_PER_16B: u64 = 1;
/// Multiplier applied under NUMA-blind placement (§4.5 reports 40–50 %
/// higher memory access time; I/O-path cycles are memory-dominated).
const NUMA_BLIND_FACTOR: f64 = 1.45;

fn placement_factor(placement: Placement) -> f64 {
    match placement {
        Placement::NumaAware => 1.0,
        Placement::NumaBlind => {
            1.0 + (NUMA_BLIND_FACTOR - 1.0) * Placement::NumaBlind.remote_fraction()
        }
    }
}

/// Cycles one core spends receiving a batch of `n` packets of `bytes`
/// total length (includes the copy into the user buffer).
pub fn rx_batch_cycles(n: u64, bytes: u64, placement: Placement) -> u64 {
    if n == 0 {
        // An empty poll still pays the syscall.
        return RX_PER_BATCH / 2;
    }
    let raw = RX_PER_BATCH + n * RX_PER_PACKET + bytes.div_ceil(16) * COPY_CYCLES_PER_16B;
    (raw as f64 * placement_factor(placement)) as u64
}

/// Cycles one core spends transmitting a batch of `n` packets.
pub fn tx_batch_cycles(n: u64, bytes: u64, placement: Placement) -> u64 {
    if n == 0 {
        return 0;
    }
    let raw = TX_PER_BATCH + n * TX_PER_PACKET + bytes.div_ceil(16) * COPY_CYCLES_PER_16B;
    (raw as f64 * placement_factor(placement)) as u64
}

/// Forwarding cycles for a batch (RX + TX), the Figure 5 quantity.
pub fn forward_batch_cycles(n: u64, bytes: u64, placement: Placement) -> u64 {
    rx_batch_cycles(n, bytes, placement) + tx_batch_cycles(n, bytes, placement)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HZ: f64 = 2.66e9;

    /// Forwarding throughput of one core at batch size `b`, 64 B
    /// packets, in Gbps with the 24 B-overhead metric.
    fn fwd_gbps(b: u64) -> f64 {
        let cycles = forward_batch_cycles(b, b * 64, Placement::NumaAware);
        let pps = HZ / (cycles as f64 / b as f64);
        pps * 88.0 * 8.0 / 1e9
    }

    #[test]
    fn figure5_endpoints() {
        let b1 = fwd_gbps(1);
        let b64 = fwd_gbps(64);
        assert!(
            (0.70..0.90).contains(&b1),
            "batch=1: {b1:.2} Gbps (paper: 0.78)"
        );
        assert!(
            (9.5..11.5).contains(&b64),
            "batch=64: {b64:.2} Gbps (paper: 10.5)"
        );
        let speedup = b64 / b1;
        assert!(
            (11.0..16.0).contains(&speedup),
            "speedup {speedup:.1} (paper: 13.5)"
        );
    }

    #[test]
    fn figure5_gain_stalls_after_32() {
        let b32 = fwd_gbps(32);
        let b64 = fwd_gbps(64);
        let b128 = fwd_gbps(128);
        assert!(
            b64 / b32 < 1.25,
            "32->64 gain should be small, got {}",
            b64 / b32
        );
        assert!(
            b128 / b64 < 1.12,
            "64->128 gain should be tiny, got {}",
            b128 / b64
        );
    }

    #[test]
    fn legacy_path_matches_table3() {
        let total: f64 = TABLE3_BINS.iter().map(|b| b.percent).sum();
        assert!((total - 100.0).abs() < 0.01, "bins sum to {total}%");
        // skb-related share (init + alloc + memory subsystem) = 63.1%.
        let skb_share: f64 = TABLE3_BINS[..3].iter().map(|b| b.percent).sum();
        assert!((skb_share - 63.1).abs() < 0.01);
        // Largest bin is the memory subsystem.
        assert_eq!(
            TABLE3_BINS
                .iter()
                .max_by(|a, b| a.percent.total_cmp(&b.percent))
                .map(|b| b.name),
            Some("memory subsystem")
        );
        assert!(bin_cycles(2) > 1000);
    }

    #[test]
    fn legacy_vs_engine_at_batch_one() {
        // Even unbatched, the huge-buffer path beats the skb path;
        // batching then provides the rest of the 13.5x.
        let engine_rx = rx_batch_cycles(1, 64, Placement::NumaAware);
        assert!(
            engine_rx < LINUX_RX_CYCLES,
            "engine {engine_rx} vs legacy {LINUX_RX_CYCLES}"
        );
    }

    #[test]
    fn numa_blind_costs_more() {
        let aware = forward_batch_cycles(64, 64 * 64, Placement::NumaAware);
        let blind = forward_batch_cycles(64, 64 * 64, Placement::NumaBlind);
        let ratio = blind as f64 / aware as f64;
        assert!((1.2..1.5).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn empty_rx_poll_costs_half_a_syscall() {
        assert!(rx_batch_cycles(0, 0, Placement::NumaAware) > 0);
        assert_eq!(tx_batch_cycles(0, 0, Placement::NumaAware), 0);
    }

    #[test]
    fn copy_cost_stays_under_20_percent() {
        // §4.3: the user copy takes <20% of total I/O cycles, even for
        // large packets at large batches.
        let n = 64u64;
        let bytes = n * 1514;
        let total = forward_batch_cycles(n, bytes, Placement::NumaAware);
        let copy = 2 * bytes.div_ceil(16) * COPY_CYCLES_PER_16B;
        let share = copy as f64 / total as f64;
        assert!(share < 0.55, "copy share {share:.2}");
        // At 64B packets it is well under 20%.
        let total64 = forward_batch_cycles(n, n * 64, Placement::NumaAware);
        let copy64 = 2 * (n * 64u64).div_ceil(16) * COPY_CYCLES_PER_16B;
        assert!((copy64 as f64 / total64 as f64) < 0.2);
    }
}
