//! Packet I/O engine artifacts: Table 3 (Linux RX cycle breakdown),
//! Figure 5 (batching), Figure 6 (engine throughput by packet size)
//! and the §4.5 NUMA-placement comparison.

use ps_core::apps::{ForwardPattern, MinimalApp};
use ps_core::{Router, RouterConfig};
use ps_hw::ioh::Direction;
use ps_hw::spec::Testbed;
use ps_io::cost::{CostModel, LinuxBaseline, TABLE3_BINS};
use ps_io::dma_bytes;
use ps_io::IoConfig;
use ps_pktgen::{TrafficKind, TrafficSpec};
use ps_sim::{MILLIS, SECONDS};

use crate::{header, window_ms};

/// Table 3: the legacy skb-path breakdown.
pub(crate) fn table3_breakdown() -> Vec<(String, f64, u64)> {
    header("Table 3 — CPU cycle breakdown in packet RX (legacy skb path)");
    let l = LinuxBaseline::default();
    println!(
        "{:<26} {:>7} {:>8}  solution",
        "functional bin", "%", "cycles"
    );
    let mut rows = Vec::new();
    for (i, bin) in TABLE3_BINS.iter().enumerate() {
        println!(
            "{:<26} {:>6.1}% {:>8}  {}",
            bin.name,
            bin.percent,
            l.bin_cycles(i),
            bin.solution.unwrap_or("-")
        );
        rows.push((bin.name.to_string(), bin.percent, l.bin_cycles(i)));
    }
    println!(
        "total {} cycles/packet; engine path: {} cycles/packet at batch 64",
        l.total_cycles,
        {
            let m = CostModel::default();
            m.forward_batch_cycles(64, 64 * 64, ps_hw::numa::Placement::NumaAware) / 64
        }
    );
    rows
}

fn spec(kind: TrafficKind, frame_len: usize, gbps: f64, ports: u16) -> TrafficSpec {
    TrafficSpec {
        kind,
        frame_len,
        offered_bits: (gbps * 1e9) as u64,
        ports,
        seed: 42,
        flows: None,
        ..TrafficSpec::default()
    }
}

/// Figure 5 rows: `(batch, forward Gbps)`.
pub fn fig5_batching() -> Vec<(usize, f64)> {
    header("Figure 5 — batching, 1 core / 2 ports, 64 B (paper: 0.78 -> 10.5 Gbps)");
    let mut rows = Vec::new();
    println!("{:>6} | {:>9}", "batch", "fwd Gbps");
    for &batch in &[1usize, 2, 4, 8, 16, 32, 64, 128] {
        let cfg = RouterConfig::fig5(batch);
        let app = MinimalApp::new(ForwardPattern::SameNode, 2);
        let report = Router::run(
            cfg,
            app,
            spec(TrafficKind::Ipv4Udp, 64, 20.0, 2),
            window_ms() * MILLIS,
        );
        let gbps = report.out_gbps();
        println!("{batch:>6} | {gbps:>9.2}");
        rows.push((batch, gbps));
    }
    let speedup = rows.last().map(|r| r.1).unwrap_or(0.0) / rows[0].1;
    println!("speedup batch 1 -> 128: {speedup:.1}x (paper: 13.5x at 64)");
    rows
}

/// Figure 6 rows per packet size:
/// `(size, rx Gbps, tx Gbps, forward Gbps, node-crossing Gbps)`.
pub(crate) fn fig6_io_engine() -> Vec<(usize, f64, f64, f64, f64)> {
    header("Figure 6 — packet I/O engine (paper: TX ~80, RX 53-60, fwd >40)");
    let sizes = [64usize, 128, 256, 512, 1024, 1514];
    println!(
        "{:>6} | {:>8} {:>8} {:>8} {:>10}",
        "size", "RX", "TX", "forward", "crossing"
    );
    let mut rows = Vec::new();
    for &size in &sizes {
        let rx = rx_only_ceiling(size);
        let tx = tx_only_ceiling(size);
        let fwd = forward_gbps(size, ForwardPattern::SameNode);
        let cross = forward_gbps(size, ForwardPattern::NodeCrossing);
        println!("{size:>6} | {rx:>8.1} {tx:>8.1} {fwd:>8.1} {cross:>10.1}");
        rows.push((size, rx, tx, fwd, cross));
    }
    rows
}

/// RX-only: every arriving packet is DMA'd to host and dropped by the
/// application. The binding resource is the device→host DMA capacity
/// of the two IOHs (§4.6 attributes the RX/TX asymmetry to exactly
/// this, §3.2). Computed by saturating the component models.
pub fn rx_only_ceiling(size: usize) -> f64 {
    let tb = Testbed::paper();
    // Per-IOH d2h saturation with this packet size.
    let mut ioh = ps_hw::ioh::Ioh::new(tb.ioh);
    let mut pkts = 0u64;
    loop {
        let done = ioh.dma(0, Direction::DeviceToHost, dma_bytes(size));
        if done > SECONDS {
            break;
        }
        pkts += 1;
    }
    let per_ioh = pkts as f64 * ps_net::wire_len(size) as f64 * 8.0 / 1e9;
    // CPU ceiling: 8 cores of batched RX.
    let m = CostModel::default();
    let cyc =
        m.rx_batch_cycles(64, 64 * size as u64, ps_hw::numa::Placement::NumaAware) as f64 / 64.0;
    let cpu_pps = 8.0 * tb.cpu.hz as f64 / cyc;
    let cpu = cpu_pps * ps_net::wire_len(size) as f64 * 8.0 / 1e9;
    // Wire ceiling: 8 ports.
    let wire = 80.0;
    (2.0 * per_ioh).min(cpu).min(wire)
}

/// TX-only ceiling: host→device DMA + wire + CPU.
pub fn tx_only_ceiling(size: usize) -> f64 {
    let tb = Testbed::paper();
    let mut ioh = ps_hw::ioh::Ioh::new(tb.ioh);
    let mut pkts = 0u64;
    loop {
        let done = ioh.dma(0, Direction::HostToDevice, dma_bytes(size));
        if done > SECONDS {
            break;
        }
        pkts += 1;
    }
    let per_ioh = pkts as f64 * ps_net::wire_len(size) as f64 * 8.0 / 1e9;
    let m = CostModel::default();
    let cyc =
        m.tx_batch_cycles(64, 64 * size as u64, ps_hw::numa::Placement::NumaAware) as f64 / 64.0;
    let cpu_pps = 8.0 * tb.cpu.hz as f64 / cyc;
    let cpu = cpu_pps * ps_net::wire_len(size) as f64 * 8.0 / 1e9;
    (2.0 * per_ioh).min(cpu).min(80.0)
}

/// Full forwarding throughput from the event simulation.
pub fn forward_gbps(size: usize, pattern: ForwardPattern) -> f64 {
    let cfg = RouterConfig::paper_cpu();
    let app = MinimalApp::new(pattern, 8);
    let report = Router::run(
        cfg,
        app,
        spec(TrafficKind::Ipv4Udp, size, 80.0, 8),
        window_ms() * MILLIS,
    );
    report.out_gbps()
}

/// §4.5: NUMA-aware vs NUMA-blind forwarding (paper: ~40 vs <25).
pub fn numa_placement() -> (f64, f64) {
    header("§4.5 — NUMA-aware vs NUMA-blind I/O (paper: ~40 vs <25 Gbps)");
    let aware = forward_gbps(64, ForwardPattern::SameNode);
    let blind = {
        let mut cfg = RouterConfig::paper_cpu();
        cfg.io = IoConfig::numa_blind();
        let app = MinimalApp::new(ForwardPattern::SameNode, 8);
        Router::run(
            cfg,
            app,
            spec(TrafficKind::Ipv4Udp, 64, 80.0, 8),
            window_ms() * MILLIS,
        )
        .out_gbps()
    };
    println!("NUMA-aware : {aware:.1} Gbps");
    println!(
        "NUMA-blind : {blind:.1} Gbps ({:.0}% of aware)",
        blind / aware * 100.0
    );
    (aware, blind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_ceilings_match_paper_bands() {
        for &size in &[64usize, 1514] {
            let rx = rx_only_ceiling(size);
            let tx = tx_only_ceiling(size);
            assert!((50.0..64.0).contains(&rx), "RX {rx} at {size}B");
            assert!((70.0..81.0).contains(&tx), "TX {tx} at {size}B");
            assert!(tx > rx, "TX must exceed RX (dual-IOH asymmetry)");
        }
    }
}
