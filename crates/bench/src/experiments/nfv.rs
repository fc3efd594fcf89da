//! The stateful NFV tier (DESIGN.md §10): NAT and the L4 load
//! balancer on the cuckoo flow cache, measured like the paper apps.
//!
//! Two artifacts:
//!
//! * `cross_nf` — IPv4 forwarding vs NAT vs LB under the *identical*
//!   IMIX + heavy-tail offered load, CPU-only and CPU+GPU. The gap to
//!   plain forwarding is the price of per-packet state; the GPU column
//!   shows what offloading the flow hash buys back.
//! * `flow_pressure` — NAT throughput and flow-cache health while
//!   the per-node table shrinks from comfortable to thrashing under an
//!   ephemeral-flow storm (every packet a new flow, nothing expires).

use ps_core::apps::{Backend, LbApp, NatApp};
use ps_core::{App, RouterConfig};
use ps_net::Verdict;
use ps_pktgen::{Generator, TrafficSpec};

use crate::header;

/// The standard stateful-NFV offered load: IMIX frame blend, 512
/// heavy-tailed keyed flows at concentration exponent 3.
pub(crate) fn nfv_spec(gbps: f64, seed: u64) -> TrafficSpec {
    TrafficSpec::imix(gbps, seed).with_heavy_tail(512, 3)
}

/// A 16-server backend pool for the load balancer runs.
pub(crate) fn backend_pool() -> Vec<Backend> {
    (0..16)
        .map(|i| Backend {
            ip: 0x0A63_0001 + i,
            port: 8080,
        })
        .collect()
}

/// Cross-NF comparison under identical load. Returns
/// `(name, cpu_gbps, gpu_gbps)` rows.
pub(crate) fn cross_nf() -> Vec<(&'static str, f64, f64)> {
    header("Stateful NFV — IPv4 vs NAT vs LB, identical IMIX load (Gbps)");
    println!(
        "{:>6} | {:>9} | {:>9} | {:>6}",
        "app", "CPU-only", "CPU+GPU", "gain"
    );
    type MkApp = Box<dyn Fn() -> Box<dyn super::apps::RunApp>>;
    let spec = nfv_spec(40.0, 11);
    let run = |mk: &dyn Fn() -> Box<dyn super::apps::RunApp>, cfg| mk().run(cfg, spec);
    let apps: Vec<(&str, MkApp)> = vec![
        (
            "ipv4",
            Box::new(|| Box::new(crate::workloads::ipv4_app(50_000, 1)) as _),
        ),
        (
            "nat",
            Box::new(|| Box::new(NatApp::new(8, 2, 1 << 20, 0)) as _),
        ),
        (
            "lb",
            Box::new(|| Box::new(LbApp::new(backend_pool(), 8, 2, 1 << 20, 0)) as _),
        ),
    ];
    let mut rows = Vec::new();
    for (name, mk) in &apps {
        let cpu = run(mk, RouterConfig::paper_cpu());
        let gpu = run(mk, RouterConfig::paper_gpu());
        println!(
            "{name:>6} | {cpu:>9.1} | {gpu:>9.1} | {:>5.2}x",
            gpu / cpu.max(1e-9)
        );
        rows.push((*name, cpu, gpu));
    }
    rows
}

/// Drive `n` ephemeral flows (IMIX, per-packet random tuples) straight
/// through a NAT at several per-node table sizes. No router around it:
/// this isolates the cache, so the eviction and displacement columns
/// are the table's own, not backpressure artifacts.
pub(crate) fn flow_pressure() {
    header("Stateful NFV — NAT flow-table pressure (ephemeral-flow storm)");
    println!(
        "{:>10} | {:>10} | {:>10} | {:>10} | {:>6}",
        "capacity", "occupancy", "evictions", "hit rate", "depth"
    );
    const N: usize = 400_000;
    for shift in [14usize, 16, 18, 20] {
        let capacity = 1usize << shift;
        let mut nat = NatApp::new(8, 2, capacity, 0);
        let mut gen = Generator::new(TrafficSpec::imix(40.0, 13));
        let mut batch = Vec::with_capacity(4096);
        let mut left = N;
        while left > 0 {
            batch.clear();
            for _ in 0..4096.min(left) {
                batch.push(gen.next_packet().1);
            }
            left -= batch.len();
            nat.pre_shade(&mut batch);
            batch.retain(|p| p.verdict == Verdict::FastPath);
            nat.process_cpu(&mut batch);
        }
        let occupancy = nat.occupancy();
        let stats = nat.cache_stats();
        println!(
            "{capacity:>10} | {occupancy:>10} | {:>10} | {:>9.1}% | {:>6}",
            stats.evictions,
            100.0 * stats.hits as f64 / (stats.lookups.max(1)) as f64,
            stats.max_depth,
        );
    }
}

/// Run both NFV artifacts (the `ps-bench nfv` entry point).
pub fn run() {
    cross_nf();
    flow_pressure();
}
