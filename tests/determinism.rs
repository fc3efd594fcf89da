//! Reproducibility: identical seeds must replay identical virtual-time
//! results, in both modes — the property every experiment in
//! EXPERIMENTS.md rests on. Fingerprints cover the four stateless applications
//! (IPv4, Minimal, IPsec, OpenFlow), and a different-seed test guards
//! against a seed being silently ignored anywhere in the pipeline.

use packetshader::core::apps::{ForwardPattern, IpsecApp, Ipv4App, MinimalApp, OpenFlowApp};
use packetshader::core::{App, Router, RouterConfig};
use packetshader::lookup::route::Route4;
use packetshader::lookup::synth;
use packetshader::pktgen::TrafficSpec;
use packetshader::sim::MILLIS;
use ps_bench::workloads;

/// The cross-run fingerprint: every seed-dependent aggregate the
/// report exposes. Byte-stable across runs for a fixed (config, app,
/// seed) triple.
type Fingerprint = (u64, u64, u64, u64, u64, u64);

fn run_fingerprint<A: App + Send>(cfg: RouterConfig, app: A, spec: TrafficSpec) -> Fingerprint {
    let report = Router::run(cfg, app, spec, MILLIS);
    (
        report.offered.packets,
        report.delivered.packets,
        report.rx_drops(),
        report.drops.slow_path,
        report.latency.p50(),
        report.latency.max(),
    )
}

fn fingerprint(cfg: RouterConfig, seed: u64) -> Fingerprint {
    let mut routes = vec![Route4::new(0, 1, 0), Route4::new(0x8000_0000, 1, 4)];
    routes.extend(synth::routeviews_like(2_000, 8, 3));
    run_fingerprint(
        cfg,
        Ipv4App::new(&routes),
        TrafficSpec::ipv4_64b(30.0, seed),
    )
}

fn fingerprint_ipsec(cfg: RouterConfig, seed: u64) -> Fingerprint {
    let app = IpsecApp::new([7u8; 16], 0xABCD, b"determinism-key");
    run_fingerprint(cfg, app, TrafficSpec::ipv4_64b(10.0, seed))
}

fn fingerprint_openflow(cfg: RouterConfig, seed: u64) -> Fingerprint {
    let mut spec = TrafficSpec::ipv4_64b(20.0, seed);
    spec.flows = Some(64);
    let app = OpenFlowApp::new(workloads::openflow_switch(&spec, 64, 16));
    run_fingerprint(cfg, app, spec)
}

#[test]
fn cpu_mode_is_deterministic() {
    assert_eq!(
        fingerprint(RouterConfig::paper_cpu(), 5),
        fingerprint(RouterConfig::paper_cpu(), 5)
    );
}

#[test]
fn gpu_mode_is_deterministic() {
    assert_eq!(
        fingerprint(RouterConfig::paper_gpu(), 5),
        fingerprint(RouterConfig::paper_gpu(), 5)
    );
}

#[test]
fn ipsec_app_is_deterministic_both_modes() {
    assert_eq!(
        fingerprint_ipsec(RouterConfig::paper_cpu(), 5),
        fingerprint_ipsec(RouterConfig::paper_cpu(), 5)
    );
    assert_eq!(
        fingerprint_ipsec(RouterConfig::paper_gpu(), 5),
        fingerprint_ipsec(RouterConfig::paper_gpu(), 5)
    );
}

#[test]
fn openflow_app_is_deterministic_both_modes() {
    assert_eq!(
        fingerprint_openflow(RouterConfig::paper_cpu(), 5),
        fingerprint_openflow(RouterConfig::paper_cpu(), 5)
    );
    assert_eq!(
        fingerprint_openflow(RouterConfig::paper_gpu(), 5),
        fingerprint_openflow(RouterConfig::paper_gpu(), 5)
    );
}

/// Two different seeds must produce different fingerprints in every
/// app — a seed that stops reaching the generator would freeze the
/// traffic and silently void every "deterministic per seed" claim.
#[test]
fn different_seeds_differ() {
    assert_ne!(
        fingerprint(RouterConfig::paper_cpu(), 5),
        fingerprint(RouterConfig::paper_cpu(), 6)
    );
}

#[test]
fn different_seeds_differ_ipsec_and_openflow() {
    assert_ne!(
        fingerprint_ipsec(RouterConfig::paper_cpu(), 5),
        fingerprint_ipsec(RouterConfig::paper_cpu(), 6)
    );
    assert_ne!(
        fingerprint_openflow(RouterConfig::paper_cpu(), 5),
        fingerprint_openflow(RouterConfig::paper_cpu(), 6)
    );
}

/// Tracing must be a pure observer: running the exact same (config,
/// app, seed) triple with a trace collector installed yields the same
/// fingerprint as running untraced. A span that perturbed the virtual
/// clock or consumed RNG draws would show up here immediately.
#[test]
fn tracing_does_not_perturb_results() {
    use packetshader::trace::TraceConfig;
    for cfg in [RouterConfig::paper_cpu(), RouterConfig::paper_gpu()] {
        let untraced = fingerprint(cfg, 5);
        let (traced, collector) =
            ps_bench::trace::traced(TraceConfig::all(), || fingerprint(cfg, 5));
        assert_eq!(untraced, traced, "tracing perturbed the simulation");
        assert!(!collector.is_empty(), "tracer saw no events");
    }
}

/// Identical seeds must replay to a byte-identical Chrome trace dump:
/// the exporter's integer-only µs formatting plus the collector's
/// stable (timestamp, emission-order) sort make the whole timeline —
/// not just the report aggregates — part of the determinism contract.
#[test]
fn trace_dump_is_byte_identical_per_seed() {
    use packetshader::trace::{chrome, TraceConfig};
    let dump = |seed: u64| {
        let (_, collector) = ps_bench::trace::traced(TraceConfig::all(), || {
            fingerprint(RouterConfig::paper_gpu(), seed)
        });
        chrome::export(&collector)
    };
    assert_eq!(dump(5), dump(5), "same seed produced different trace bytes");
    assert_ne!(
        dump(5),
        dump(6),
        "different seeds produced identical traces"
    );
}

#[test]
fn minimal_app_deterministic_under_overload() {
    let run = || {
        let r = Router::run(
            RouterConfig::paper_cpu(),
            MinimalApp::new(ForwardPattern::NodeCrossing, 8),
            TrafficSpec::ipv4_64b(80.0, 9),
            MILLIS,
        );
        (r.delivered.packets, r.rx_drops())
    };
    assert_eq!(run(), run());
}
