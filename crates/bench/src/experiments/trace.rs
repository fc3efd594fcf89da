//! The per-stage breakdown report: where a packet's time goes —
//! pre-shading, gather, GPU copies, kernel, post-shading — as the
//! I/O batch size sweeps. The Figure 6 counterpart for the *inside*
//! of the pipeline, computed entirely from the trace rather than from
//! dedicated counters.

use ps_core::{Router, RouterConfig};
use ps_pktgen::{TrafficKind, TrafficSpec};
use ps_sim::trace_summary::summarize_collector;
use ps_sim::MILLIS;

use crate::{header, window_ms, workloads};

/// The stages the breakdown reports, in pipeline order.
pub(crate) const BREAKDOWN_STAGES: [&str; 6] = [
    "pre_shade",
    "gather",
    "copy_h2d",
    "kernel",
    "copy_d2h",
    "post_shade",
];

/// One row of the breakdown: aggregate nanoseconds per packet spent
/// in each stage at a given I/O batch cap.
#[derive(Debug, Clone)]
pub struct StageBreakdownRow {
    /// The swept `IoConfig::batch_cap`.
    pub batch: usize,
    /// Packets that entered the pipeline (sum of `pre_shade` spans'
    /// `pkts` argument) — the normalization denominator.
    pub packets: u64,
    /// `(stage name, total ns, ns per packet)` in
    /// `BREAKDOWN_STAGES` order.
    pub stages: Vec<(&'static str, u64, f64)>,
}

impl StageBreakdownRow {
    /// ns/packet for a named stage (0.0 when absent).
    pub fn ns_per_pkt(&self, stage: &str) -> f64 {
        self.stages
            .iter()
            .find(|(n, _, _)| *n == stage)
            .map_or(0.0, |&(_, _, v)| v)
    }
}

/// Run the IPv4 app in the paper's CPU+GPU configuration across batch
/// caps, tracing every run, and print copy vs. kernel vs. CPU time
/// per packet.
pub(crate) fn stage_breakdown() -> Vec<StageBreakdownRow> {
    header("Per-stage breakdown — copy vs kernel vs CPU per batch size (IPv4, GPU)");
    let batches = [16usize, 64, 256];
    println!(
        "{:>6} | {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}  (ns/pkt)",
        "batch", "pre", "gather", "copy_h2d", "kernel", "copy_d2h", "post"
    );
    let mut rows = Vec::new();
    for &batch in &batches {
        let row = breakdown_for_batch(batch);
        println!(
            "{:>6} | {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            row.batch,
            row.ns_per_pkt("pre_shade"),
            row.ns_per_pkt("gather"),
            row.ns_per_pkt("copy_h2d"),
            row.ns_per_pkt("kernel"),
            row.ns_per_pkt("copy_d2h"),
            row.ns_per_pkt("post_shade"),
        );
        rows.push(row);
    }
    rows
}

/// One traced run at the given batch cap, reduced to a breakdown row.
pub(crate) fn breakdown_for_batch(batch: usize) -> StageBreakdownRow {
    let mut cfg = RouterConfig::paper_gpu();
    cfg.io.batch_cap = batch;
    let spec = TrafficSpec {
        kind: TrafficKind::Ipv4Udp,
        frame_len: 64,
        offered_bits: 40_000_000_000,
        ports: 8,
        seed: 42,
        flows: None,
        ..TrafficSpec::default()
    };
    let app = workloads::ipv4_app(50_000, 1);
    let (_, collector) = crate::trace::traced(ps_trace::TraceConfig::all(), || {
        Router::run(cfg, app, spec, window_ms() * MILLIS)
    });
    breakdown_from_collector(batch, &collector)
}

/// Reduce a filled collector to a breakdown row.
pub(crate) fn breakdown_from_collector(
    batch: usize,
    collector: &ps_trace::Collector,
) -> StageBreakdownRow {
    // The window only scales resource utilization, which is unused here.
    let summary = summarize_collector(collector, 0);
    let packets = summary.stage("pre_shade").map_or(0, |s| s.pkts);
    let denom = packets.max(1) as f64;
    let stages = BREAKDOWN_STAGES
        .iter()
        .map(|&name| {
            let total = summary.stage(name).map_or(0, |s| s.total_ns);
            (name, total, total as f64 / denom)
        })
        .collect();
    StageBreakdownRow {
        batch,
        packets,
        stages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_covers_every_stage() {
        let row = breakdown_for_batch(64);
        assert!(row.packets > 0, "no packets traced");
        for &stage in &BREAKDOWN_STAGES {
            assert!(
                row.ns_per_pkt(stage) > 0.0,
                "stage {stage} has no trace time"
            );
        }
        // A 64 B IPv4 lookup spends far less than 100 us/pkt anywhere.
        for &(name, _, per_pkt) in &row.stages {
            assert!(per_pkt < 100_000.0, "{name}: {per_pkt} ns/pkt");
        }
    }
}
