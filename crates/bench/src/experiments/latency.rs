//! Figure 12: round-trip latency vs offered load, IPv6 forwarding,
//! 64 B packets, for three configurations.

use ps_core::{Router, RouterConfig};
use ps_pktgen::{TrafficKind, TrafficSpec};
use ps_sim::MILLIS;

use crate::{header, window_ms, workloads};

/// One row: `(offered Gbps, cpu-nobatch us, cpu-batch us, gpu us)`.
pub(crate) type Fig12Row = (f64, f64, f64, f64);

fn spec(gbps: f64) -> TrafficSpec {
    workloads::spec(TrafficKind::Ipv6Udp, 64, gbps)
}

fn mean_latency_us(cfg: RouterConfig, prefixes: usize, gbps: f64) -> f64 {
    let app = workloads::ipv6_app(prefixes, 2);
    let report = Router::run(cfg, app, spec(gbps), window_ms() * MILLIS);
    report.latency.mean() / 1000.0
}

/// Run Figure 12 with a scaled table.
pub(crate) fn fig12_with(prefixes: usize, loads: &[f64]) -> Vec<Fig12Row> {
    header("Figure 12 — avg RTT latency vs offered load, IPv6 64 B (us)");
    println!(
        "{:>8} | {:>14} {:>12} {:>10}",
        "offered", "CPU (batch=1)", "CPU (batch)", "CPU+GPU"
    );
    let mut rows = Vec::new();
    for &gbps in loads {
        let nobatch = mean_latency_us(cpu_nobatch(), prefixes, gbps);
        let batch = mean_latency_us(RouterConfig::paper_cpu(), prefixes, gbps);
        let gpu = mean_latency_us(RouterConfig::paper_gpu(), prefixes, gbps);
        println!("{gbps:>7.0}G | {nobatch:>14.0} {batch:>12.0} {gpu:>10.0}");
        rows.push((gbps, nobatch, batch, gpu));
    }
    println!("(paper: GPU adds latency over batched CPU but stays 200-400 us)");
    rows
}

/// The paper-scale run.
pub fn fig12() -> Vec<Fig12Row> {
    fig12_with(200_000, &[1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0])
}

/// Figure 12's unbatched CPU configuration: CPU-only with batch
/// size 1.
fn cpu_nobatch() -> RouterConfig {
    let mut cfg = RouterConfig::paper_cpu();
    cfg.io.batch_cap = 1;
    cfg
}
