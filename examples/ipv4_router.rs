//! A full 8-port IPv4 router with a RouteViews-shaped table under
//! saturating load — the Figure 11(a) experiment in miniature, with a
//! CPU-only vs CPU+GPU comparison and per-drop accounting.
//!
//! ```sh
//! cargo run --release --example ipv4_router [prefixes] [gbps]
//! ```

use packetshader::core::apps::Ipv4App;
use packetshader::core::{Router, RouterConfig};
use packetshader::lookup::route::Route4;
use packetshader::lookup::synth;
use packetshader::pktgen::TrafficSpec;
use packetshader::sim::MILLIS;

fn table(prefixes: usize) -> Vec<Route4> {
    // Two /1 provider-default routes guarantee coverage; the synthetic
    // RouteViews-shaped set provides realistic lookup behaviour.
    let mut routes = vec![Route4::new(0, 1, 0), Route4::new(0x8000_0000, 1, 4)];
    routes.extend(synth::routeviews_like(prefixes, 8, 2010));
    routes
}

fn main() {
    let mut args = std::env::args().skip(1);
    let prefixes: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(100_000);
    let gbps: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(80.0);

    println!("building DIR-24-8 table from {prefixes} prefixes...");
    let routes = table(prefixes);

    for (label, cfg) in [
        ("CPU-only", RouterConfig::paper_cpu()),
        ("CPU+GPU ", RouterConfig::paper_gpu()),
    ] {
        let app = Ipv4App::new(&routes);
        let report = Router::run(cfg, app, TrafficSpec::ipv4_64b(gbps, 1), 2 * MILLIS);
        println!(
            "{label}: {:.1} / {:.1} Gbps, NIC+ring drops {}, app drops {}, \
             slow path {}, p50 {} us, p99 {} us",
            report.out_gbps(),
            report.in_gbps(),
            report.rx_drops(),
            report.drops.app,
            report.drops.slow_path,
            report.latency.p50() / 1000,
            report.p99_us(),
        );
    }
}

trait P99 {
    fn p99_us(&self) -> u64;
}

impl P99 for packetshader::core::RouterReport {
    fn p99_us(&self) -> u64 {
        self.latency.p99() / 1000
    }
}
