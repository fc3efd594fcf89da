//! Ablations of the §5.4 optimization strategies and the §7
//! opportunistic-offloading extension.

use ps_core::apps::IpsecApp;
use ps_core::{Router, RouterConfig};
use ps_pktgen::TrafficKind;
use ps_sim::MILLIS;

use crate::workloads::{self, spec};
use crate::{header, window_ms};

/// Gather/scatter (Figure 10(b)): with it the master exposes more
/// parallelism per kernel launch; without it every chunk launches
/// alone and the per-launch overhead dominates. IPv6 64 B.
pub(crate) fn gather_scatter() -> (f64, f64) {
    gather_scatter_with(200_000)
}

/// Scaled variant.
pub(crate) fn gather_scatter_with(prefixes: usize) -> (f64, f64) {
    header("Ablation — gather/scatter (§5.4), IPv6 64 B");
    let on_cfg = RouterConfig::paper_gpu();
    let off_cfg = RouterConfig {
        max_gather_chunks: 1,
        ..RouterConfig::paper_gpu()
    };
    let run = |cfg| {
        Router::run(
            cfg,
            workloads::ipv6_app(prefixes, 2),
            spec(TrafficKind::Ipv6Udp, 64, 80.0),
            window_ms() * MILLIS,
        )
        .out_gbps()
    };
    let on = run(on_cfg);
    let off = run(off_cfg);
    println!("gather ON : {on:.1} Gbps");
    println!("gather OFF: {off:.1} Gbps");
    (on, off)
}

/// Concurrent copy & execution (Figure 10(c)): §5.4 uses it only for
/// IPsec — it helps the copy-heavy workload and hurts lightweight
/// kernels via per-call stream overhead. We show both.
pub fn concurrent_copy() -> ((f64, f64), (f64, f64)) {
    header("Ablation — concurrent copy & execution (§5.4)");
    let run_ipsec = |concurrent| {
        let mut cfg = RouterConfig::paper_gpu();
        cfg.concurrent_copy = concurrent;
        Router::run(
            cfg,
            IpsecApp::new([0x42; 16], 0xD00D, b"ablation-key"),
            spec(TrafficKind::Ipv4Udp, 512, 40.0),
            window_ms() * MILLIS,
        )
        .out_gbps()
    };
    let run_ipv4 = |concurrent| {
        let mut cfg = RouterConfig::paper_gpu();
        cfg.concurrent_copy = concurrent;
        Router::run(
            cfg,
            workloads::ipv4_app(50_000, 1),
            spec(TrafficKind::Ipv4Udp, 64, 80.0),
            window_ms() * MILLIS,
        )
        .out_gbps()
    };
    let ipsec = (run_ipsec(true), run_ipsec(false));
    let ipv4 = (run_ipv4(true), run_ipv4(false));
    println!(
        "IPsec 512B: streams ON {:.1} / OFF {:.1} Gbps",
        ipsec.0, ipsec.1
    );
    println!(
        "IPv4   64B: streams ON {:.1} / OFF {:.1} Gbps",
        ipv4.0, ipv4.1
    );
    (ipsec, ipv4)
}

/// Opportunistic offloading (§7): CPU path under light load for
/// latency, GPU path under heavy load for throughput.
pub fn opportunistic() -> ((f64, f64), (f64, f64)) {
    opportunistic_with(200_000)
}

/// Scaled variant. Returns `((lat_off, lat_on), (tput_off, tput_on))`.
pub(crate) fn opportunistic_with(prefixes: usize) -> ((f64, f64), (f64, f64)) {
    header("Ablation — opportunistic offloading (§7), IPv6 64 B");
    let run = |opportunistic, gbps: f64| {
        let mut cfg = RouterConfig::paper_gpu();
        cfg.opportunistic = opportunistic;
        let r = Router::run(
            cfg,
            workloads::ipv6_app(prefixes, 2),
            spec(TrafficKind::Ipv6Udp, 64, gbps),
            window_ms() * MILLIS,
        );
        (r.latency.mean() / 1000.0, r.out_gbps())
    };
    let (lat_off, _) = run(false, 1.0);
    let (lat_on, _) = run(true, 1.0);
    let (_, tput_off) = run(false, 80.0);
    let (_, tput_on) = run(true, 80.0);
    println!("light load (1G):  latency OFF {lat_off:.0} us / ON {lat_on:.0} us");
    println!("heavy load (80G): throughput OFF {tput_off:.1} / ON {tput_on:.1} Gbps");
    ((lat_off, lat_on), (tput_off, tput_on))
}
