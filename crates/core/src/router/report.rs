//! [`RouterReport`]: the public result of one router run, and the
//! [`DropLedger`] every undelivered packet is counted in.

use ps_fault::FaultStats;
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
    /// Every packet that was offered and not delivered, by cause:
    /// generator-side backpressure and far-future discards; NIC-side
    /// admission, fault and ring-tail drops; application drops and
    /// slow-path diversions. The NIC side is
    /// [`RouterReport::rx_drops`].
    pub drops: DropLedger,
    /// Deepest RX-ring occupancy any worker ring reached — the
    /// queue-growth gauge (a peak at ring capacity means the run was
    /// admission-limited).
    pub peak_ring_depth: usize,
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

/// Where every non-delivered packet went, decomposed by cause into
/// three disjoint families: the generator side (the frame never
/// touched the wire), the NIC side (the frame was lost on receive)
/// and the application side (the app dropped or diverted it). Every
/// cause is counted where the packet leaves the router, so offered =
/// delivered + [`DropLedger::total`] + in flight.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DropLedger {
    /// Dropped at the source by closed-loop backpressure
    /// ([`ps_pktgen::LoadMode::ClosedLoop`]); the frame was never built.
    pub backpressure: u64,
    /// Dropped at the source because the packet could only complete
    /// past the run horizon (the far-future flood guard; only
    /// QPI-crossing traffic can land here).
    pub far_future: u64,
    /// Dropped in the NIC FIFO: descriptor starvation (the inbound
    /// DMA backlog exceeded the posted-descriptor horizon).
    pub nic_admission: u64,
    /// Dropped at the MAC by an injected NIC fault (link-flap window
    /// or starvation burst); equals the fault plan's `flap_drops +
    /// nic_starved`, which it keeps on its own.
    pub nic_fault: u64,
    /// Tail-dropped from a full RX descriptor ring.
    pub ring_tail: u64,
    /// Dropped by the application: marked `Verdict::Drop` by the
    /// pre-shader (malformed, TTL expired, bad checksum) or marked by
    /// the shader or its CPU path (no route, unparseable key).
    pub app: u64,
    /// Marked `Verdict::SlowPath` by the pre-shader: diverted to the
    /// host stack (local destination, IP options, non-IP).
    pub slow_path: u64,
}

impl DropLedger {
    /// Drops charged to the generator side of the seam.
    pub fn gen_side(&self) -> u64 {
        self.backpressure + self.far_future
    }

    /// Drops charged to the NIC side of the seam.
    pub fn nic_side(&self) -> u64 {
        self.nic_admission + self.nic_fault + self.ring_tail
    }

    /// All drops, every cause.
    pub fn total(&self) -> u64 {
        self.gen_side() + self.nic_side() + self.app + self.slow_path
    }

    /// Fold another ledger into this one (commutative sums, so the
    /// sharded data plane can merge per-shard ledgers exactly).
    pub fn merge(&mut self, other: &DropLedger) {
        self.backpressure += other.backpressure;
        self.far_future += other.far_future;
        self.nic_admission += other.nic_admission;
        self.nic_fault += other.nic_fault;
        self.ring_tail += other.ring_tail;
        self.app += other.app;
        self.slow_path += other.slow_path;
    }
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
