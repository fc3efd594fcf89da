//! Figure 11: the four applications, CPU-only vs CPU+GPU.

use ps_core::apps::IpsecApp;
use ps_core::{Router, RouterConfig};
use ps_pktgen::{TrafficKind, TrafficSpec};
use ps_sim::MILLIS;

use crate::workloads::{self, spec};
use crate::{header, window_ms};

/// The standard packet-size sweep.
pub(crate) const SIZES: [usize; 6] = [64, 128, 256, 512, 1024, 1514];

/// Generic CPU-vs-GPU sweep over packet sizes.
fn sweep<FA, FB>(
    title: &str,
    kind: TrafficKind,
    sizes: &[usize],
    mut cpu_app: FA,
    mut gpu_app: FB,
    gpu_cfg: RouterConfig,
    input_sized: bool,
) -> Vec<(usize, f64, f64)>
where
    FA: FnMut() -> Box<dyn RunApp>,
    FB: FnMut() -> Box<dyn RunApp>,
{
    header(title);
    println!(
        "{:>6} | {:>9} | {:>9} | {:>6}",
        "size", "CPU-only", "CPU+GPU", "gain"
    );
    let mut rows = Vec::new();
    for &size in sizes {
        let run = |app: Box<dyn RunApp>, cfg| {
            if input_sized {
                app.run_input_sized(cfg, spec(kind, size, 80.0))
            } else {
                app.run(cfg, spec(kind, size, 80.0))
            }
        };
        let cpu = run(cpu_app(), RouterConfig::paper_cpu());
        let gpu = run(gpu_app(), gpu_cfg);
        println!(
            "{size:>6} | {cpu:>9.1} | {gpu:>9.1} | {:>5.2}x",
            gpu / cpu.max(1e-9)
        );
        rows.push((size, cpu, gpu));
    }
    rows
}

/// Object-safe adapter so the sweep can run different app types.
pub(crate) trait RunApp {
    /// Run the router and return delivered Gbps.
    fn run(self: Box<Self>, cfg: RouterConfig, spec: TrafficSpec) -> f64;
    /// Run and report at the *input* frame size (the IPsec metric).
    fn run_input_sized(self: Box<Self>, cfg: RouterConfig, spec: TrafficSpec) -> f64;
}

impl<A: ps_core::App + Send + 'static> RunApp for A {
    fn run(self: Box<Self>, cfg: RouterConfig, spec: TrafficSpec) -> f64 {
        Router::run(cfg, *self, spec, window_ms() * MILLIS).out_gbps()
    }
    fn run_input_sized(self: Box<Self>, cfg: RouterConfig, spec: TrafficSpec) -> f64 {
        Router::run(cfg, *self, spec, window_ms() * MILLIS).out_gbps_input_sized(spec.frame_len)
    }
}

/// Figure 11(a): IPv4 forwarding (paper: 28 vs 39 Gbps at 64 B).
pub(crate) fn fig11a_ipv4() -> Vec<(usize, f64, f64)> {
    fig11a_with(ps_lookup::synth::ROUTEVIEWS_PREFIXES, &SIZES)
}

/// Scaled variant for tests.
pub fn fig11a_with(prefixes: usize, sizes: &[usize]) -> Vec<(usize, f64, f64)> {
    sweep(
        "Figure 11(a) — IPv4 forwarding (Gbps; paper: CPU ~28, GPU ~39 @64B)",
        TrafficKind::Ipv4Udp,
        sizes,
        || Box::new(workloads::ipv4_app(prefixes, 1)) as Box<dyn RunApp>,
        || Box::new(workloads::ipv4_app(prefixes, 1)) as Box<dyn RunApp>,
        RouterConfig::paper_gpu(),
        false,
    )
}

/// Figure 11(b): IPv6 forwarding (paper: ~8 vs 38 Gbps at 64 B).
pub(crate) fn fig11b_ipv6() -> Vec<(usize, f64, f64)> {
    fig11b_with(200_000, &SIZES)
}

/// Scaled variant for tests.
pub fn fig11b_with(prefixes: usize, sizes: &[usize]) -> Vec<(usize, f64, f64)> {
    sweep(
        "Figure 11(b) — IPv6 forwarding (Gbps; paper: CPU ~8, GPU ~38 @64B)",
        TrafficKind::Ipv6Udp,
        sizes,
        || Box::new(workloads::ipv6_app(prefixes, 2)) as Box<dyn RunApp>,
        || Box::new(workloads::ipv6_app(prefixes, 2)) as Box<dyn RunApp>,
        RouterConfig::paper_gpu(),
        false,
    )
}

/// Figure 11(c): OpenFlow, 64 B packets, sweeping table sizes.
/// Returns `(label, exact, wildcard, cpu Gbps, gpu Gbps)`.
pub(crate) fn fig11c_openflow() -> Vec<(String, u32, usize, f64, f64)> {
    header("Figure 11(c) — OpenFlow switch, 64 B (paper: GPU ~32 Gbps @32K+32)");
    let mut rows = Vec::new();
    println!(
        "{:>8} {:>9} | {:>9} | {:>9}",
        "exact", "wildcard", "CPU-only", "CPU+GPU"
    );
    // Exact-match sweep (traffic hits exact entries; 32 decoy
    // wildcards are scanned only on the rare miss).
    for &exact in &[1024u32, 8192, 32_768, 65_536] {
        let (cpu, gpu) = run_openflow(exact, 32);
        println!("{exact:>8} {:>9} | {cpu:>9.1} | {gpu:>9.1}", 32);
        rows.push((format!("exact-{exact}"), exact, 32, cpu, gpu));
    }
    // Wildcard sweep (no exact entries: every packet scans the table).
    for &wild in &[16usize, 64, 256] {
        let (cpu, gpu) = run_openflow(0, wild);
        println!("{:>8} {wild:>9} | {cpu:>9.1} | {gpu:>9.1}", 0);
        rows.push((format!("wild-{wild}"), 0, wild, cpu, gpu));
    }
    rows
}

/// One OpenFlow configuration, both modes.
pub fn run_openflow(exact: u32, wildcards: usize) -> (f64, f64) {
    let mut s = spec(TrafficKind::Ipv4Udp, 64, 80.0);
    if exact > 0 {
        s.flows = Some(exact);
    }
    let cpu =
        Box::new(workloads::openflow_app(&s, exact, wildcards)).run(RouterConfig::paper_cpu(), s);
    let gpu =
        Box::new(workloads::openflow_app(&s, exact, wildcards)).run(RouterConfig::paper_gpu(), s);
    (cpu, gpu)
}

/// Figure 11(d): IPsec gateway (paper: ~2.8 vs 10.2 Gbps at 64 B,
/// ~5.7 vs 20 Gbps at 1514 B; GPU gain ~3.5x).
pub(crate) fn fig11d_ipsec() -> Vec<(usize, f64, f64)> {
    fig11d_with(&SIZES)
}

/// Scaled variant for tests.
pub fn fig11d_with(sizes: &[usize]) -> Vec<(usize, f64, f64)> {
    let mut gpu_cfg = RouterConfig::paper_gpu();
    gpu_cfg.concurrent_copy = true; // §5.4: streams pay off for IPsec
    sweep(
        "Figure 11(d) — IPsec gateway (input Gbps; paper: ~3.5x GPU gain)",
        TrafficKind::Ipv4Udp,
        sizes,
        || Box::new(IpsecApp::new([0x42; 16], 0xD00D, b"ps-bench-hmac-key")) as Box<dyn RunApp>,
        || Box::new(IpsecApp::new([0x42; 16], 0xD00D, b"ps-bench-hmac-key")) as Box<dyn RunApp>,
        gpu_cfg,
        true,
    )
}
