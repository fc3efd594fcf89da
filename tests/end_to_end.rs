//! End-to-end router runs: packets in, correctly forwarded packets
//! out, across the four stateless applications and both execution modes
//! (the stateful NFV pair has its own suites in nfv.rs/shards.rs).

use packetshader::core::apps::{ForwardPattern, IpsecApp, Ipv4App, Ipv6App, MinimalApp};
use packetshader::core::{Router, RouterConfig};
use packetshader::lookup::route::{Route4, Route6};
use packetshader::lookup::synth;
use packetshader::pktgen::{TrafficKind, TrafficSpec};
use packetshader::sim::MILLIS;

fn v4_routes() -> Vec<Route4> {
    let mut routes = vec![Route4::new(0, 1, 0), Route4::new(0x8000_0000, 1, 4)];
    routes.extend(synth::routeviews_like(5_000, 8, 1));
    routes
}

fn v6_routes() -> Vec<Route6> {
    let mut routes: Vec<Route6> = (0..8u16)
        .map(|i| Route6::new((0b001u128 << 125) | (u128::from(i) << 122), 6, i))
        .collect();
    routes.extend(synth::random_ipv6(2_000, 8, 1));
    routes
}

fn spec(kind: TrafficKind, gbps: f64) -> TrafficSpec {
    TrafficSpec {
        kind,
        frame_len: 64,
        offered_bits: (gbps * 1e9) as u64,
        ports: 8,
        seed: 42,
        flows: None,
        ..TrafficSpec::default()
    }
}

#[test]
fn minimal_forwarding_is_lossless_at_light_load() {
    let report = Router::run(
        RouterConfig::paper_cpu(),
        MinimalApp::new(ForwardPattern::SameNode, 8),
        spec(TrafficKind::Ipv4Udp, 2.0),
        MILLIS,
    );
    assert!(
        report.delivery_ratio() > 0.999,
        "{}",
        report.delivery_ratio()
    );
    assert_eq!(report.rx_drops(), 0);
    assert_eq!(report.drops.app, 0);
}

#[test]
fn ipv4_router_delivers_on_both_modes() {
    for cfg in [RouterConfig::paper_cpu(), RouterConfig::paper_gpu()] {
        let report = Router::run(
            cfg,
            Ipv4App::new(&v4_routes()),
            spec(TrafficKind::Ipv4Udp, 2.0),
            MILLIS,
        );
        assert!(
            report.delivery_ratio() > 0.99,
            "mode {:?}: ratio {}",
            cfg.mode,
            report.delivery_ratio()
        );
    }
}

#[test]
fn ipv6_router_delivers_on_both_modes() {
    for cfg in [RouterConfig::paper_cpu(), RouterConfig::paper_gpu()] {
        let report = Router::run(
            cfg,
            Ipv6App::new(&v6_routes()),
            spec(TrafficKind::Ipv6Udp, 2.0),
            MILLIS,
        );
        assert!(
            report.delivery_ratio() > 0.99,
            "mode {:?}: ratio {}",
            cfg.mode,
            report.delivery_ratio()
        );
    }
}

#[test]
fn ipsec_gateway_encrypts_everything_it_forwards() {
    let mut cfg = RouterConfig::paper_gpu();
    cfg.concurrent_copy = true;
    let app = IpsecApp::new([7; 16], 9, b"e2e-key");
    let router = Router::new(cfg, app, spec(TrafficKind::Ipv4Udp, 2.0), MILLIS);
    let mut sim = packetshader::sim::Simulation::new(router);
    sim.schedule(0, packetshader::core::router::Ev::Gen);
    sim.run_until(MILLIS);
    let report = sim.model.report(MILLIS);
    assert!(report.delivered.packets > 1000);
    // Every delivered packet went through the SA.
    assert!(sim.model.app().encrypted >= report.delivered.packets);
}

#[test]
fn gpu_mode_actually_uses_the_gpu() {
    let report = Router::run(
        RouterConfig::paper_gpu(),
        Ipv4App::new(&v4_routes()),
        spec(TrafficKind::Ipv4Udp, 8.0),
        MILLIS,
    );
    assert!(report.gpu_kernels > 0, "no kernels launched");
    assert!(report.mean_shade_batch >= 1.0);
}

#[test]
fn overload_sheds_at_the_nic_not_the_app() {
    let report = Router::run(
        RouterConfig::paper_cpu(),
        MinimalApp::new(ForwardPattern::SameNode, 8),
        spec(TrafficKind::Ipv4Udp, 80.0),
        MILLIS,
    );
    assert!(report.rx_drops() > 0);
    assert_eq!(report.drops.app, 0);
    // Still forwards at the fabric ceiling.
    assert!(report.out_gbps() > 35.0, "{}", report.out_gbps());
}
