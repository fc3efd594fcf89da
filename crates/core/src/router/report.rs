//! [`RouterReport`]: the public result of one router run.

use ps_fault::FaultStats;
use ps_pktgen::DropLedger;
use ps_sim::stats::{Histogram, PacketCounter, ETHERNET_OVERHEAD_BYTES};
use ps_sim::time::Time;

/// Aggregated run statistics.
#[derive(Debug)]
pub struct RouterReport {
    /// Virtual-time window simulated.
    pub window: Time,
    /// Packets offered by the generator.
    pub offered: PacketCounter,
    /// Packets delivered back to the sink.
    pub delivered: PacketCounter,
    /// Round-trip latency (ns).
    pub latency: Histogram,
    /// Round-trip latency of priority-lane packets only (ns); empty
    /// without a priority classifier.
    pub prio_latency: Histogram,
    /// Per-packet RX→TX sojourn (ns): RX DMA completion to last TX
    /// bit on the wire — the residence time queue depths and batching
    /// govern. Merged bucket-wise across shards, so `p99()`/`p999()`
    /// over the merged histogram equal a sequential run's exactly.
    pub sojourn: Histogram,
    /// Sojourn of priority-lane packets only (ns).
    pub prio_sojourn: Histogram,
    /// Every drop decomposed by cause (generator-side backpressure
    /// and far-future discards; NIC-side admission, fault and
    /// ring-tail drops). The NIC side is [`RouterReport::rx_drops`];
    /// gen-side causes are extra (those packets never hit the wire).
    pub drops: DropLedger,
    /// Deepest RX-ring occupancy any worker ring reached — the
    /// queue-growth gauge (a peak at ring capacity means the run was
    /// admission-limited).
    pub peak_ring_depth: usize,
    /// Packets dropped by the application (no route, TTL, checksum).
    pub app_drops: u64,
    /// Packets diverted to the host stack.
    pub slow_path: u64,
    /// GPU kernels launched (both devices).
    pub gpu_kernels: u64,
    /// Shading launches (master gathers that reached `App::shade` or
    /// its CPU fallback).
    pub shade_batches: u64,
    /// Packets across all shading launches.
    pub shade_packets: u64,
    /// Mean packets per shading launch.
    pub mean_shade_batch: f64,
    /// Mean packets per RX fetch.
    pub mean_rx_batch: f64,
    /// Bytes served per IOH, device->host (Gbit over the window).
    pub ioh_d2h_gbit: Vec<f64>,
    /// Bytes served per IOH, host->device.
    pub ioh_h2d_gbit: Vec<f64>,
    /// Fault-injection ledger (all zero when no plan was armed).
    pub faults: FaultStats,
    /// Cumulative column-staging PCIe traffic `(h2d_bytes, d2h_bytes,
    /// staged_packets)` from [`crate::app::App::staging_totals`], or
    /// [`None`] for apps without a column stage (IPsec, CPU-only runs
    /// still report the gather bytes they *would* have moved as 0).
    pub staging: Option<(u64, u64, u64)>,
}

impl RouterReport {
    /// Frames the receive side lost: NIC admission and fault drops
    /// plus RX-ring tail drops ([`DropLedger::nic_side`]).
    pub fn rx_drops(&self) -> u64 {
        self.drops.nic_side()
    }

    /// Delivered throughput in the paper's metric.
    pub fn out_gbps(&self) -> f64 {
        self.delivered
            .gbps_with_overhead(self.window, ETHERNET_OVERHEAD_BYTES)
    }

    /// Offered load in the paper's metric.
    pub fn in_gbps(&self) -> f64 {
        self.offered
            .gbps_with_overhead(self.window, ETHERNET_OVERHEAD_BYTES)
    }

    /// Delivered throughput measured at the *input* frame size — the
    /// paper's IPsec metric ("we take input throughput as a metric
    /// rather than output throughput", §6.2.4), which factors out the
    /// ESP expansion.
    pub fn out_gbps_input_sized(&self, input_frame_len: usize) -> f64 {
        let bits = self.delivered.packets * (ps_net::wire_len(input_frame_len) as u64) * 8;
        ps_sim::time::rate_per_sec(bits, self.window) / 1e9
    }

    /// Host→device staging bytes per staged packet, or [`None`] when
    /// the app has no column stage or staged nothing.
    pub fn h2d_bytes_per_pkt(&self) -> Option<f64> {
        match self.staging {
            Some((h2d, _, pkts)) if pkts > 0 => Some(h2d as f64 / pkts as f64),
            _ => None,
        }
    }

    /// Device→host staging bytes per staged packet.
    pub fn d2h_bytes_per_pkt(&self) -> Option<f64> {
        match self.staging {
            Some((_, d2h, pkts)) if pkts > 0 => Some(d2h as f64 / pkts as f64),
            _ => None,
        }
    }

    /// Delivered fraction.
    pub fn delivery_ratio(&self) -> f64 {
        if self.offered.packets == 0 {
            return 1.0;
        }
        self.delivered.packets as f64 / self.offered.packets as f64
    }
}
