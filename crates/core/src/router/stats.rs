//! Per-run counters and the one report builder.
//!
//! All of the router's scalar statistics live in [`RunStats`] so that
//! a replicated run can combine replicas with plain commutative sums —
//! the merged [`super::RouterReport`] is a pure function of the
//! per-replica virtual-time results, independent of thread timing. A
//! single router's report is the merge of that one router.

use ps_fault::FaultStats;
use ps_pktgen::DropLedger;
use ps_sim::stats::{Histogram, PacketCounter};
use ps_sim::time::Time;

use crate::app::App;

use super::report::RouterReport;
use super::Router;

/// The counters the data plane accumulates during a run. Every field
/// is a sum (or a counter of sums), so merging replicas is field-wise
/// addition.
#[derive(Debug, Default)]
pub(crate) struct RunStats {
    /// Packets offered by the generator inside the measurement window.
    pub offered: PacketCounter,
    /// Drops in the NIC FIFO (descriptor starvation under overload).
    pub nic_drops: u64,
    /// Packets dropped by the application.
    pub app_drops: u64,
    /// Packets diverted to the host slow path.
    pub slow_path: u64,
    /// Shading launches and the packets they carried.
    pub shade_batches: u64,
    /// Packets across all shading launches.
    pub shade_packets: u64,
    /// RX fetches and the packets they carried.
    pub rx_batches: u64,
    /// Packets across all RX fetches.
    pub rx_packets: u64,
    /// Decomposed drop causes. `ring_tail` stays zero here (rings
    /// count their own tail drops); the report fills it in. The
    /// NIC-side counters satisfy `nic_fault + nic_admission ==
    /// nic_drops` by construction.
    pub drops: DropLedger,
    /// Per-packet RX→TX sojourn (RX DMA completion to last TX bit).
    pub sojourn: Histogram,
    /// Sojourn of priority-lane packets only.
    pub prio_sojourn: Histogram,
}

fn mean(packets: u64, batches: u64) -> f64 {
    if batches == 0 {
        0.0
    } else {
        packets as f64 / batches as f64
    }
}

impl<A: App> Router<A> {
    /// Build the report over measurement window `window`: the merge of
    /// this one router plus its fault ledger.
    pub fn report(&self, window: Time) -> RouterReport {
        RouterReport {
            faults: match &self.plan {
                Some(p) => p.stats.clone(),
                None => FaultStats::default(),
            },
            ..merged_report(std::slice::from_ref(self), window)
        }
    }
}

/// Deterministically merge the replicas of a run into one report.
/// Every combined quantity is a commutative, associative fold
/// (counter sums, bucket-wise histogram addition, element-wise IOH
/// byte sums), so the result does not depend on replica count or
/// thread interleaving — `tests/shards.rs` pins reports at shards ∈
/// {1,2,4,8} against each other.
///
/// The fault ledger stays all-zero: replicated runs never arm a fault
/// plan (faulted runs are planned sequential), and
/// [`Router::report`] fills in its own.
pub(crate) fn merged_report<A: App>(shards: &[Router<A>], window: Time) -> RouterReport {
    let mut offered = PacketCounter::default();
    let mut delivered = PacketCounter::default();
    let mut latency = Histogram::new();
    let mut prio_latency = Histogram::new();
    let mut sojourn = Histogram::new();
    let mut prio_sojourn = Histogram::new();
    let mut drops = DropLedger::default();
    let mut peak_ring_depth = 0usize;
    let mut nic_drops = 0u64;
    let mut ring_drops = 0u64;
    let mut app_drops = 0u64;
    let mut slow_path = 0u64;
    let mut gpu_kernels = 0u64;
    let mut shade = (0u64, 0u64); // (packets, batches)
    let mut rx = (0u64, 0u64);
    let nodes = shards.first().map_or(0, |s| s.nodes.len());
    let mut d2h = vec![0.0f64; nodes];
    let mut h2d = vec![0.0f64; nodes];
    let mut staging: Option<(u64, u64, u64)> = None;
    for s in shards {
        offered.merge(&s.stats.offered);
        delivered.merge(&s.sink.delivered);
        latency.merge(&s.sink.latency);
        prio_latency.merge(&s.sink.prio_latency);
        sojourn.merge(&s.stats.sojourn);
        prio_sojourn.merge(&s.stats.prio_sojourn);
        debug_assert_eq!(
            s.stats.drops.nic_fault + s.stats.drops.nic_admission,
            s.stats.nic_drops,
            "NIC ledger counters must decompose the NIC-drop total"
        );
        nic_drops += s.stats.nic_drops;
        let shard_ring_drops = s
            .nodes
            .iter()
            .flat_map(|n| n.rings.iter().chain(n.prio_rings.iter()))
            .map(|r| r.drops)
            .sum::<u64>();
        ring_drops += shard_ring_drops;
        drops.merge(&DropLedger {
            ring_tail: shard_ring_drops,
            ..s.stats.drops
        });
        peak_ring_depth = peak_ring_depth.max(
            s.nodes
                .iter()
                .flat_map(|n| n.rings.iter().chain(n.prio_rings.iter()))
                .map(|r| r.peak)
                .max()
                .unwrap_or(0),
        );
        app_drops += s.stats.app_drops;
        slow_path += s.stats.slow_path;
        gpu_kernels += s
            .nodes
            .iter()
            .filter_map(|n| n.gpu.as_ref())
            .map(|g| g.kernels_launched)
            .sum::<u64>();
        shade.0 += s.stats.shade_packets;
        shade.1 += s.stats.shade_batches;
        rx.0 += s.stats.rx_packets;
        rx.1 += s.stats.rx_batches;
        // A replica only moves bytes through the IOHs of nodes it
        // hosts; non-hosted entries are zero, so element-wise sums
        // recover the per-node totals.
        for (i, n) in s.nodes.iter().enumerate() {
            d2h[i] += n.ioh.d2h_bytes() as f64 * 8.0 / window as f64;
            h2d[i] += n.ioh.h2d_bytes() as f64 * 8.0 / window as f64;
        }
        if let Some((sh, sd, sp)) = s.app.staging_totals() {
            let (h, d, p) = staging.unwrap_or((0, 0, 0));
            staging = Some((h + sh, d + sd, p + sp));
        }
    }
    RouterReport {
        window,
        offered,
        delivered,
        latency,
        prio_latency,
        sojourn,
        prio_sojourn,
        drops,
        peak_ring_depth,
        rx_drops: nic_drops + ring_drops,
        app_drops,
        slow_path,
        gpu_kernels,
        shade_batches: shade.1,
        shade_packets: shade.0,
        mean_shade_batch: mean(shade.0, shade.1),
        mean_rx_batch: mean(rx.0, rx.1),
        ioh_d2h_gbit: d2h,
        ioh_h2d_gbit: h2d,
        drop_split: (nic_drops, ring_drops),
        faults: FaultStats::default(),
        staging,
    }
}
