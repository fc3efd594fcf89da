//! Cross-shard parity suite (ISSUE 5).
//!
//! The contract of DESIGN.md §9: virtual-time results are a pure
//! function of (config, app, seed) — **never** of the shard count.
//! Every test here compares *full* `RouterReport`s (the Debug
//! rendering covers every counter, every histogram bucket, the
//! per-node IOH gigabit vectors and the fault ledger) across
//! `shards ∈ {1, 2, 4, 8}`, exercising both execution regimes:
//!
//! * **Sequential collapse** — the four real applications (no
//!   `shard_replica`), faulted runs, traced runs and cross-node
//!   traffic must all ignore the shard request and reproduce the
//!   single-threaded result.
//! * **Replicated** — node-local traffic actually runs one replica per
//!   NUMA domain on the shard threads; the merged report must equal
//!   the sequential one byte for byte.

use packetshader::core::apps::{
    Backend, ForwardPattern, IpsecApp, Ipv4App, LbApp, MinimalApp, NatApp, OpenFlowApp,
};
use packetshader::core::{App, Router, RouterConfig, RouterReport};
use packetshader::fault::FaultSpec;
use packetshader::lookup::route::Route4;
use packetshader::lookup::synth;
use packetshader::pktgen::{TrafficKind, TrafficSpec};
use packetshader::sim::MILLIS;
use packetshader::trace::TraceConfig;
use ps_bench::workloads;

/// The duration for parity runs: long enough to fill pipelines, GPU
/// batches and drop paths, short enough to run twelve times.
const DUR: u64 = MILLIS / 2;

/// Byte-level report fingerprint. `RouterReport`'s Debug output
/// renders every field — counters, drop split, full latency
/// histogram, per-node IOH throughput, GPU kernel count, fault
/// ledger — so string equality is report identity, not a sampled
/// tuple like the fastpath pins.
fn full_fp(r: &RouterReport) -> String {
    format!("{r:?}")
}

/// Run the same (config, app, traffic) at shard counts 1, 2, 4 and 8
/// and assert the reports are byte-identical. `mk` builds a fresh app
/// per run (apps are consumed and not all of them clone). Counts
/// beyond `cfg.nodes` clamp, so on the two-node paper box 4 and 8
/// re-exercise the two-shard path; the wide configs below make them
/// real four- and eight-way runs.
fn assert_parity<A: App + Send>(
    label: &str,
    cfg: RouterConfig,
    mk: impl Fn() -> A,
    spec: TrafficSpec,
) {
    let base = full_fp(&Router::run_with_shards(cfg, mk(), spec, DUR, 1));
    for shards in [2usize, 4, 8] {
        let fp = full_fp(&Router::run_with_shards(cfg, mk(), spec, DUR, shards));
        assert_eq!(base, fp, "{label}: shards=1 vs shards={shards}");
    }
}

/// A wider box than the paper's: `nodes` NUMA domains, two ports and
/// one worker core per domain. This is the configuration the scaling
/// matrix (`ps-bench --scaling`) measures, so its cross-count parity
/// is pinned here at real shard counts 4 and 8 — not the clamped
/// two-way runs the paper configs produce.
fn wide_cfg(nodes: usize) -> RouterConfig {
    let mut cfg = RouterConfig::paper_cpu();
    cfg.nodes = nodes;
    cfg.workers_per_node = 1;
    cfg.ports = 2 * nodes as u16;
    cfg
}

/// 64-byte IPv4 traffic across all of a wide config's ports.
fn wide_spec(nodes: usize, gbps: f64, seed: u64) -> TrafficSpec {
    TrafficSpec {
        kind: TrafficKind::Ipv4Udp,
        frame_len: 64,
        offered_bits: (gbps * 1e9) as u64,
        ports: 2 * nodes as u16,
        seed,
        flows: None,
        ..TrafficSpec::default()
    }
}

// ---------------------------------------------------------------------------
// 1. The four real applications: sequential collapse at any count.
// ---------------------------------------------------------------------------

/// IPv4, both modes: the flagship fastpath configuration must not
/// move when `PS_SHARDS` (here: the explicit shard argument) changes.
#[test]
fn ipv4_identical_across_shard_counts() {
    let mk = || {
        let mut routes = vec![Route4::new(0, 1, 0), Route4::new(0x8000_0000, 1, 4)];
        routes.extend(synth::routeviews_like(2_000, 8, 3));
        Ipv4App::new(&routes)
    };
    let spec = TrafficSpec::ipv4_64b(30.0, 5);
    assert_parity("ipv4 cpu", RouterConfig::paper_cpu(), mk, spec);
    assert_parity("ipv4 gpu", RouterConfig::paper_gpu(), mk, spec);
}

/// IPv6 forwarding (the fourth app; GPU mode, where timing is most
/// intricate: gather/scatter plus the two-stage Waldvogel kernel).
#[test]
fn ipv6_identical_across_shard_counts() {
    let spec = TrafficSpec {
        kind: TrafficKind::Ipv6Udp,
        frame_len: 64,
        offered_bits: 20_000_000_000,
        ports: 8,
        seed: 5,
        flows: None,
        ..TrafficSpec::default()
    };
    assert_parity(
        "ipv6 gpu",
        RouterConfig::paper_gpu(),
        || workloads::ipv6_app(2_000, 2),
        spec,
    );
}

/// IPsec: the crypto pipeline (slow-path heavy in CPU mode).
#[test]
fn ipsec_identical_across_shard_counts() {
    assert_parity(
        "ipsec gpu",
        RouterConfig::paper_gpu(),
        || IpsecApp::new([7u8; 16], 0xABCD, b"determinism-key"),
        TrafficSpec::ipv4_64b(10.0, 5),
    );
}

/// OpenFlow: per-flow state plus the wildcard scan path.
#[test]
fn openflow_identical_across_shard_counts() {
    let mut spec = TrafficSpec::ipv4_64b(20.0, 5);
    spec.flows = Some(64);
    assert_parity(
        "openflow cpu",
        RouterConfig::paper_cpu(),
        || OpenFlowApp::new(workloads::openflow_switch(&spec, 64, 16)),
        spec,
    );
}

// ---------------------------------------------------------------------------
// 1b. The stateful NFV tier (ISSUE 7): per-node flow state must make
//     replicated runs byte-identical to sequential ones.
// ---------------------------------------------------------------------------

/// NAT under the realistic stateful-NFV load: IMIX frames, 512
/// heavy-tailed keyed flows. The connection tracker, the external
/// port allocator and the cuckoo cache are all per-RX-node, so every
/// shard count must reproduce the sequential binding history exactly.
#[test]
fn nat_identical_across_shard_counts() {
    let spec = TrafficSpec::imix(20.0, 5).with_heavy_tail(512, 3);
    let mk = || NatApp::new(8, 2, 1 << 16, 0);
    assert_parity("nat cpu", RouterConfig::paper_cpu(), mk, spec);
    assert_parity("nat gpu", RouterConfig::paper_gpu(), mk, spec);
}

/// The L4 load balancer under the same load: rendezvous selection is
/// stateless, but the stickiness pins live in per-node caches whose
/// hit/miss history feeds the cycle budget — so timing parity requires
/// state parity.
#[test]
fn lb_identical_across_shard_counts() {
    let spec = TrafficSpec::imix(20.0, 5).with_heavy_tail(512, 3);
    let backends: Vec<Backend> = (0..16)
        .map(|i| Backend {
            ip: 0x0A63_0001 + i,
            port: 8080,
        })
        .collect();
    let mk = || LbApp::new(backends.clone(), 8, 2, 1 << 16, 0);
    assert_parity("lb cpu", RouterConfig::paper_cpu(), mk, spec);
    assert_parity("lb gpu", RouterConfig::paper_gpu(), mk, spec);
}

/// Four real NAT replicas on a four-node box (shards 4 and 8 are not
/// clamped): four independent allocators and caches merge into the
/// sequential report byte for byte.
#[test]
fn nat_parity_on_four_nodes() {
    let mut spec = TrafficSpec::imix(20.0, 7).with_heavy_tail(512, 3);
    spec.ports = 8;
    assert_parity(
        "nat 4-node",
        wide_cfg(4),
        || NatApp::new(8, 4, 1 << 16, 0),
        spec,
    );
}

// ---------------------------------------------------------------------------
// 2. Faulted runs: the fault ledger forces sequential, at any count.
// ---------------------------------------------------------------------------

/// Fault plans draw from global per-class RNG streams, so a faulted
/// run must collapse to sequential no matter what shard count is
/// requested — and the ledger fingerprint must not move either.
#[test]
fn faulted_run_identical_across_shard_counts() {
    let run = |shards: usize| {
        let mut cfg = RouterConfig::paper_cpu();
        cfg.faults = FaultSpec::scenario("all")
            .expect("known scenario")
            .with_seed(0xDECAF);
        let app = MinimalApp::new(ForwardPattern::SameNode, 8);
        let r = Router::run_with_shards(cfg, app, TrafficSpec::ipv4_64b(20.0, 9), DUR, shards);
        (r.faults.fingerprint(), full_fp(&r))
    };
    let (ledger1, fp1) = run(1);
    for shards in [2usize, 4, 8] {
        let (ledger, fp) = run(shards);
        assert_eq!(ledger1, ledger, "fault ledger at shards={shards}");
        assert_eq!(fp1, fp, "faulted report at shards={shards}");
    }
}

// ---------------------------------------------------------------------------
// 3. Replicated regime: real threads, byte-identical merge.
// ---------------------------------------------------------------------------

/// Node-local traffic at shards=2 runs one full replica per NUMA
/// domain on its own OS thread; the merged report must equal the
/// sequential shards=1 run exactly. This is the core tentpole claim.
#[test]
fn replicated_shards_match_sequential_cpu() {
    assert_parity(
        "minimal same-node cpu",
        RouterConfig::paper_cpu(),
        || MinimalApp::new(ForwardPattern::SameNode, 8),
        TrafficSpec::ipv4_64b(35.0, 7),
    );
}

/// Same, in CPU+GPU mode: gather/scatter, kernel launches and DMA
/// timing all merge deterministically across threads.
#[test]
fn replicated_shards_match_sequential_gpu() {
    assert_parity(
        "minimal same-node gpu",
        RouterConfig::paper_gpu(),
        || MinimalApp::new(ForwardPattern::SameNode, 8),
        TrafficSpec::ipv4_64b(35.0, 7),
    );
}

/// Four real replicas on a four-node box: shards 4 and 8 are no
/// longer clamped to 2, so the merge sums four per-shard reports.
#[test]
fn replicated_parity_on_four_nodes() {
    assert_parity(
        "minimal same-node 4-node",
        wide_cfg(4),
        || MinimalApp::new(ForwardPattern::SameNode, 8),
        wide_spec(4, 35.0, 7),
    );
}

/// Eight real replicas — the full scaling-matrix configuration. Every
/// packet is admitted by exactly one of eight shards and the merged
/// report must still match the sequential run byte for byte.
#[test]
fn replicated_parity_on_eight_nodes() {
    assert_parity(
        "minimal same-node 8-node",
        wide_cfg(8),
        || MinimalApp::new(ForwardPattern::SameNode, 16),
        wide_spec(8, 40.0, 7),
    );
}

// ---------------------------------------------------------------------------
// 4. Cross-node traffic collapses to sequential, hop priced or not.
// ---------------------------------------------------------------------------

/// Cross-node traffic with a priced QPI hop (`qpi_hop_ns > 0`) is
/// never replicated: every shard count runs the one sequential loop,
/// so the `CrossArrive` path and the far-future ledger entry must
/// give identical reports at every count.
#[test]
fn windowed_shards_identical_across_counts() {
    let mut cfg = RouterConfig::paper_cpu();
    cfg.testbed.ioh = cfg.testbed.ioh.with_qpi_hop(300);
    assert_parity(
        "minimal node-crossing qpi",
        cfg,
        || MinimalApp::new(ForwardPattern::NodeCrossing, 8),
        TrafficSpec::ipv4_64b(25.0, 11),
    );
}

/// The same collapse on a four-node box, where shard requests 4 and
/// 8 are not clamped to 2: crossings fan in from three remote nodes.
#[test]
fn windowed_parity_on_four_nodes() {
    let mut cfg = wide_cfg(4);
    cfg.testbed.ioh = cfg.testbed.ioh.with_qpi_hop(300);
    assert_parity(
        "minimal node-crossing 4-node qpi",
        cfg,
        || MinimalApp::new(ForwardPattern::NodeCrossing, 8),
        wide_spec(4, 20.0, 11),
    );
}

/// With the hop priced at zero (the calibrated paper testbed)
/// crossings take the plain TX path; the run stays sequential and
/// shard-count-independent.
#[test]
fn unpriced_cross_traffic_identical_across_counts() {
    assert_parity(
        "minimal node-crossing qpi=0",
        RouterConfig::paper_cpu(),
        || MinimalApp::new(ForwardPattern::NodeCrossing, 8),
        TrafficSpec::ipv4_64b(25.0, 11),
    );
}

// ---------------------------------------------------------------------------
// 5. Traced runs collapse to sequential.
// ---------------------------------------------------------------------------

/// Trace collectors are thread-local sinks, so an installed collector
/// forces sequential execution; a traced shards=2 run must reproduce
/// the untraced sequential report byte for byte.
#[test]
fn traced_run_collapses_to_sequential() {
    let cfg = RouterConfig::paper_gpu();
    let spec = TrafficSpec::ipv4_64b(35.0, 7);
    let mk = || MinimalApp::new(ForwardPattern::SameNode, 8);
    let seq = full_fp(&Router::run_with_shards(cfg, mk(), spec, DUR, 1));
    let (traced_fp, _collector) = ps_bench::trace::traced(TraceConfig::all(), || {
        full_fp(&Router::run_with_shards(cfg, mk(), spec, DUR, 2))
    });
    assert_eq!(seq, traced_fp, "traced shards=2 vs untraced sequential");
}

/// The exported trace *dump* — not just the report — must be
/// byte-identical at every shard count. The Chrome serialization is
/// deterministic by construction (integer-only timestamp formatting,
/// virtual-time sort), so any divergence here means the collapsed run
/// itself emitted different events.
#[test]
fn trace_dumps_byte_identical_across_shard_counts() {
    let cfg = RouterConfig::paper_gpu();
    let spec = TrafficSpec::ipv4_64b(35.0, 7);
    let dump = |shards: usize| {
        let (_, collector) = ps_bench::trace::traced(TraceConfig::all(), || {
            Router::run_with_shards(
                cfg,
                MinimalApp::new(ForwardPattern::SameNode, 8),
                spec,
                DUR,
                shards,
            )
        });
        packetshader::trace::chrome::export(&collector)
    };
    let base = dump(1);
    assert!(
        base.contains("\"traceEvents\""),
        "dump should be a Chrome trace object"
    );
    for shards in [2usize, 4, 8] {
        let d = dump(shards);
        assert!(
            base == d,
            "trace dump diverged at shards={shards}: {} vs {} bytes",
            base.len(),
            d.len()
        );
    }
}
