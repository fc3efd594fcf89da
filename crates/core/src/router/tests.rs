//! Router-level behavior tests (throughput envelopes, determinism,
//! RSS hashing), relocated unchanged from the pre-split monolith, and
//! packet conservation across slice cuts.

use super::*;
use crate::apps::{ForwardPattern, MinimalApp};
use crate::config::RouterConfig;
use ps_pktgen::{Generator, TrafficSpec};
use ps_sim::{MICROS, MILLIS, SECONDS};

use crate::app::App;

fn spec(gbps: f64, ports: u16) -> TrafficSpec {
    let mut s = TrafficSpec::ipv4_64b(gbps, 42);
    s.ports = ports;
    s
}

#[test]
fn light_load_is_delivered_losslessly() {
    let cfg = RouterConfig::paper_cpu();
    let app = MinimalApp::new(ForwardPattern::SameNode, 8);
    let report = Router::run(cfg, app, spec(4.0, 8), 4 * MILLIS);
    assert!(
        report.delivery_ratio() > 0.999,
        "ratio {}",
        report.delivery_ratio()
    );
    assert_eq!(report.rx_drops(), 0);
    let out = report.out_gbps();
    assert!((3.8..4.2).contains(&out), "out {out} Gbps");
}

#[test]
fn forwarding_saturates_near_40_gbps() {
    // Figure 6: minimal forwarding tops out just above 40 Gbps,
    // bound by the dual-IOH fabric.
    let cfg = RouterConfig::paper_cpu();
    let app = MinimalApp::new(ForwardPattern::SameNode, 8);
    let report = Router::run(cfg, app, spec(80.0, 8), 4 * MILLIS);
    let out = report.out_gbps();
    assert!((38.0..46.0).contains(&out), "saturated at {out} Gbps");
    assert!(report.rx_drops() > 0, "overload must shed load");
}

#[test]
fn node_crossing_still_forwards_above_40() {
    let cfg = RouterConfig::paper_cpu();
    let app = MinimalApp::new(ForwardPattern::NodeCrossing, 8);
    let report = Router::run(cfg, app, spec(80.0, 8), 4 * MILLIS);
    let out = report.out_gbps();
    assert!(out > 36.0, "node-crossing {out} Gbps");
}

#[test]
fn numa_blind_loses_throughput() {
    let mut blind = RouterConfig::paper_cpu();
    blind.io = ps_io::IoConfig::numa_blind();
    let aware = RouterConfig::paper_cpu();
    let r_blind = Router::run(
        blind,
        MinimalApp::new(ForwardPattern::SameNode, 8),
        spec(80.0, 8),
        4 * MILLIS,
    );
    let r_aware = Router::run(
        aware,
        MinimalApp::new(ForwardPattern::SameNode, 8),
        spec(80.0, 8),
        4 * MILLIS,
    );
    assert!(
        r_blind.out_gbps() < r_aware.out_gbps() * 0.72,
        "blind {} vs aware {}",
        r_blind.out_gbps(),
        r_aware.out_gbps()
    );
}

#[test]
fn fig5_single_core_batching() {
    for (batch, lo, hi) in [(1usize, 0.6, 1.0), (64, 9.0, 11.5)] {
        let cfg = RouterConfig::fig5(batch);
        let app = MinimalApp::new(ForwardPattern::SameNode, 2);
        let report = Router::run(cfg, app, spec(20.0, 2), 4 * MILLIS);
        let out = report.out_gbps();
        assert!(
            (lo..hi).contains(&out),
            "batch {batch}: {out} Gbps not in [{lo},{hi}]"
        );
    }
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let cfg = RouterConfig::paper_cpu();
        let app = MinimalApp::new(ForwardPattern::SameNode, 8);
        let r = Router::run(cfg, app, spec(30.0, 8), 2 * MILLIS);
        (r.delivered.packets, r.latency.p50(), r.rx_drops())
    };
    assert_eq!(run(), run());
}

/// `RxReady` and `TxDone` name runs of the router's completion set;
/// one scheduled by hand must fail loudly, not emit a generator packet.
#[test]
#[should_panic(expected = "RxReady was not queued by the router's completion set")]
fn a_stray_rx_ready_panics() {
    let cfg = RouterConfig::paper_cpu();
    let app = MinimalApp::new(ForwardPattern::SameNode, 8);
    let mut sim = Simulation::new(Router::new(cfg, app, spec(10.0, 8), MILLIS));
    sim.schedule(0, Ev::RxReady);
    sim.run_until(MILLIS);
}

#[test]
fn latency_reasonable_at_moderate_load() {
    let cfg = RouterConfig::paper_cpu();
    let app = MinimalApp::new(ForwardPattern::SameNode, 8);
    let report = Router::run(cfg, app, spec(20.0, 8), 4 * MILLIS);
    let p50 = report.latency.p50();
    assert!(
        (10 * MICROS..SECONDS).contains(&p50),
        "p50 latency {p50} ns"
    );
}

#[test]
fn meta_hash_matches_frame_parse() {
    use ps_pktgen::TrafficKind;
    for kind in [TrafficKind::Ipv4Udp, TrafficKind::Ipv6Udp] {
        for flows in [None, Some(8)] {
            let mut g = Generator::new(TrafficSpec {
                kind,
                frame_len: 64,
                offered_bits: 1_000_000_000,
                ports: 4,
                seed: 9,
                flows,
                ..TrafficSpec::default()
            });
            for _ in 0..200 {
                let meta = g.next_meta();
                let p = g.materialize_into(&meta, Vec::new());
                assert_eq!(
                    meta.rss_hash(),
                    rss_hash(&p.data),
                    "kind {kind:?} flows {flows:?}"
                );
            }
        }
    }
}

#[test]
fn rss_hash_is_flow_stable() {
    let f1 = ps_net::PacketBuilder::udp_v4(
        ps_net::ethernet::MacAddr::local(1),
        ps_net::ethernet::MacAddr::local(2),
        "10.0.0.1".parse().expect("fixture src addr parses"),
        "10.0.0.2".parse().expect("fixture dst addr parses"),
        100,
        200,
        64,
    );
    assert_eq!(rss_hash(&f1), rss_hash(&f1));
    let f2 = ps_net::PacketBuilder::udp_v4(
        ps_net::ethernet::MacAddr::local(1),
        ps_net::ethernet::MacAddr::local(2),
        "10.0.0.1".parse().expect("fixture src addr parses"),
        "10.0.0.2".parse().expect("fixture dst addr parses"),
        100,
        201,
        64,
    );
    assert_ne!(rss_hash(&f1), rss_hash(&f2));
}

/// Every hosted packet the generator has emitted, by where it is now:
/// `generated` against delivered + every drop-ledger cause + in
/// flight, with the parts named for the failure message. In flight
/// are the pending RX and TX completions, the RX rings, the chunks
/// queued at workers and masters, and the packets crossing a priced
/// QPI hop in `CrossArrive` events.
fn conservation<A: App>(sim: &Simulation<Router<A>>) -> (u64, u64, String) {
    let r = &sim.model;
    let crossing = sim
        .pending_events()
        .filter(|ev| matches!(ev, Ev::CrossArrive { .. }))
        .count() as u64;
    let (mut rx_done, mut tx_done) = (0u64, 0u64);
    for d in r.due.iter() {
        match d {
            Due::Arrival => {}
            Due::Rx { .. } => rx_done += 1,
            Due::Tx(_) => tx_done += 1,
        }
    }
    let queued: u64 = r
        .workers
        .iter()
        .map(|w| (w.ring.len() + w.prio_ring.len()) as u64)
        .sum();
    let at_workers: u64 = r
        .workers
        .iter()
        .flat_map(|w| &w.done_queue)
        .map(|(_, c)| c.len() as u64)
        .sum();
    let at_masters: u64 = r
        .nodes
        .iter()
        .flat_map(|n| &n.master.input)
        .map(|c| c.len() as u64)
        .sum();
    let drops = r.stats.drops;
    let delivered = r.sink.delivered.packets;
    let parts = format!(
        "delivered {delivered}, drops {drops:?}, RX completions {rx_done}, rings {queued}, \
         at workers {at_workers}, at masters {at_masters}, crossing {crossing}, \
         TX completions {tx_done}"
    );
    let accounted =
        delivered + drops.total() + rx_done + queued + at_workers + at_masters + crossing + tx_done;
    (r.stats.offered.packets, accounted, parts)
}

/// A router at time zero with its generator armed, counting from the
/// first packet rather than from the end of warm-up.
fn started<A: App>(
    cfg: RouterConfig,
    app: A,
    spec: TrafficSpec,
    duration: Time,
) -> Simulation<Router<A>> {
    let mut r = Router::new(cfg, app, spec, duration);
    r.measure_from = 0;
    r.armed()
}

/// Run `start()` through `cuts` (ascending, the last one the window
/// end); at every cut, hosted generated = delivered + Σ drop-ledger
/// causes + in flight, and the cut run ends with the report of an
/// uncut one. A completion lost or settled twice at a slice edge
/// breaks the identity.
fn conserves_at_cuts<A: App>(
    start: impl Fn() -> Simulation<Router<A>>,
    cuts: &[Time],
) -> ps_check::CaseResult {
    use ps_check::{ensure, ensure_eq};
    let end = *cuts.last().expect("at least the window end");
    let mut sim = start();
    for &cut in cuts {
        sim.run_until(cut);
        let (generated, accounted, parts) = conservation(&sim);
        ensure_eq!(accounted, generated, "at {} ns: {}", cut, parts);
    }
    ensure!(sim.model.stats.offered.packets > 0);
    let mut whole = start();
    whole.run_until(end);
    ensure_eq!(
        format!("{:?}", sim.model.report(end)),
        format!("{:?}", whole.model.report(end)),
        "a run cut at {:?} ends where an uncut one does",
        cuts
    );
    Ok(())
}

/// [`conserves_at_cuts`] over `duration`, cut at 3–6 random instants,
/// for a few random traffic seeds.
fn check_conservation<A: App>(
    name: &str,
    cfg: RouterConfig,
    app: impl Fn() -> A,
    spec: impl Fn(u64) -> TrafficSpec,
    duration: Time,
) {
    use ps_check::{check_with, Config};
    let mut config = Config::from_env(name);
    config.cases = config.cases.min(3);
    check_with(name, &config, |g| {
        let seed = g.int_in(0u64..1000);
        let mut cuts = g.vec_of(3, 6, |g| g.int_in(1..duration));
        cuts.sort_unstable();
        cuts.push(duration);
        conserves_at_cuts(|| started(cfg, app(), spec(seed), duration), &cuts)
    });
}

fn fixed(frame_len: usize, gbps: f64, seed: u64) -> TrafficSpec {
    TrafficSpec {
        frame_len,
        offered_bits: (gbps * 1e9) as u64,
        seed,
        ..TrafficSpec::default()
    }
}

#[test]
fn conservation_holds_at_every_slice_cut() {
    use crate::apps::{IpsecApp, Ipv4App, NatApp};
    // The five benchmark workloads (benchmark/src/workloads.rs), over
    // short windows and a small route table.
    let mut routes = vec![
        ps_lookup::route::Route4::new(0, 1, 0),
        ps_lookup::route::Route4::new(0x8000_0000, 1, 4),
    ];
    routes.extend(ps_lookup::synth::routeviews_like(2000, 8, 1));
    for (name, gbps) in [("ipv4-64B-gpu-knee", 38.0), ("ipv4-64B-gpu-overload", 80.0)] {
        check_conservation(
            name,
            RouterConfig::paper_gpu(),
            || Ipv4App::new(&routes),
            |seed| fixed(64, gbps, seed),
            300 * MICROS,
        );
    }
    check_conservation(
        "ipsec-1514B-gpu",
        RouterConfig {
            concurrent_copy: true,
            ..RouterConfig::paper_gpu()
        },
        || IpsecApp::new([0x42; 16], 0xD00D, b"ps-bench-hmac-key"),
        |seed| fixed(1514, 20.0, seed),
        MILLIS,
    );
    check_conservation(
        "nat-imix-cpu",
        RouterConfig::paper_cpu(),
        || NatApp::new(8, 2, 1 << 20, 0),
        |seed| TrafficSpec::imix(30.0, seed).with_heavy_tail(65_536, 3),
        500 * MICROS,
    );
    check_conservation(
        "minimal-64B-cpu",
        RouterConfig::paper_cpu(),
        || MinimalApp::new(ForwardPattern::SameNode, 8),
        |seed| fixed(64, 30.0, seed),
        300 * MICROS,
    );
    // App drops: IPv4 over a table with no default route drops most
    // of its traffic, marked by `process_cpu` in CPU-only mode, by the
    // shader in CPU+GPU mode, and by the master's CPU fallback when
    // the `gpu` fault scenario aborts a batch.
    let no_default = ps_lookup::synth::routeviews_like(2000, 8, 1);
    let faulted = RouterConfig {
        faults: ps_fault::FaultSpec::scenario("gpu")
            .expect("known scenario")
            .with_seed(3)
            .with_rate(0.05),
        ..RouterConfig::paper_gpu()
    };
    for (name, cfg) in [
        ("ipv4-no-default-cpu", RouterConfig::paper_cpu()),
        ("ipv4-no-default-gpu", RouterConfig::paper_gpu()),
        ("ipv4-no-default-gpu-faults", faulted),
    ] {
        check_conservation(
            name,
            cfg,
            || Ipv4App::new(&no_default),
            |seed| fixed(64, 20.0, seed),
            300 * MICROS,
        );
    }
    // The faulted case exercises what it claims: batches fell back to
    // the CPU, and the app dropped packets.
    let mut sim = started(
        faulted,
        Ipv4App::new(&no_default),
        fixed(64, 20.0, 3),
        300 * MICROS,
    );
    sim.run_until(300 * MICROS);
    let faults = &sim.model.plan.as_ref().expect("plan armed").stats;
    assert!(faults.cpu_fallbacks > 0, "{}", faults.summary_table());
    assert!(sim.model.stats.drops.app > 0);
    // Every packet crosses a priced QPI hop: crossings wait in
    // `CrossArrive` events, and those due past the window end go to
    // the far-future ledger entry. Under load and overloaded past the
    // ~40 Gbps ceiling.
    let mut qpi = RouterConfig::paper_cpu();
    qpi.testbed.ioh = qpi.testbed.ioh.with_qpi_hop(300);
    let crossing = || MinimalApp::new(ForwardPattern::NodeCrossing, 8);
    for (name, gbps) in [
        ("minimal-64B-qpi", 25.0),
        ("minimal-64B-qpi-overload", 60.0),
    ] {
        check_conservation(
            name,
            qpi,
            crossing,
            |seed| fixed(64, gbps, seed),
            300 * MICROS,
        );
    }
    // A crossing due past the window end is ledgered at the source:
    // find a window end, past warm-up, that falls within one hop of a
    // worker's TX, and check that case conserves too.
    let overloaded = |d| started(qpi, crossing(), fixed(64, 60.0, 7), d);
    let far_future = |d| {
        let mut sim = overloaded(d);
        sim.run_until(d);
        sim.model.stats.drops.far_future
    };
    let end = (0..40)
        .map(|k| 400 * MICROS + k * 250)
        .find(|&d| far_future(d) > 0)
        .expect("some window end cuts a crossing short");
    conserves_at_cuts(|| overloaded(end), &[end / 2, end]).unwrap();
}

#[test]
fn drop_ledger_sides_are_disjoint_and_sum() {
    let mut a = DropLedger {
        backpressure: 5,
        far_future: 2,
        nic_admission: 11,
        nic_fault: 3,
        ring_tail: 1,
        app: 4,
        slow_path: 6,
    };
    assert_eq!(a.gen_side(), 7);
    assert_eq!(a.nic_side(), 15);
    assert_eq!(a.total(), 32);
    let b = DropLedger {
        backpressure: 1,
        slow_path: 2,
        ..DropLedger::default()
    };
    a.merge(&b);
    assert_eq!((a.backpressure, a.slow_path), (6, 8));
    assert_eq!(a.total(), 35);
}

/// A run drained to completion leaves no corrupted packet in flight:
/// every frame the plan corrupted settles as a counted drop or a
/// delivery. This is the check that sees a settling site the router
/// misses. Same-node
/// forwarding, and node-crossing forwarding over a priced QPI hop,
/// whose crossings due past the horizon are ledgered at the source;
/// under load and overloaded past the ~40 Gbps ceiling (ring tail
/// drops).
#[test]
fn drained_runs_settle_every_corrupted_packet() {
    let mut qpi = RouterConfig::paper_cpu();
    qpi.testbed.ioh = qpi.testbed.ioh.with_qpi_hop(300);
    for (name, cfg, pattern) in [
        (
            "same-node",
            RouterConfig::paper_cpu(),
            ForwardPattern::SameNode,
        ),
        ("node-crossing qpi", qpi, ForwardPattern::NodeCrossing),
    ] {
        for gbps in [25.0, 60.0] {
            let faults = ps_fault::FaultSpec::scenario("corrupt")
                .expect("known scenario")
                .with_seed(3)
                .with_rate(0.05);
            let cfg = RouterConfig { faults, ..cfg };
            let app = MinimalApp::new(pattern, 8);
            let mut sim = started(cfg, app, fixed(64, gbps, 3), 300 * MICROS);
            sim.run_to_completion();
            let f = &sim.model.plan.as_ref().expect("plan armed").stats;
            let at = format!("{name} at {gbps} Gbps:\n{}", f.summary_table());
            assert!(f.corrupt_injected > 0, "{at}");
            assert_eq!(f.corrupt_in_flight, 0, "{at}");
            assert_eq!(
                f.corrupt_injected,
                f.corrupt_dropped + f.corrupt_delivered,
                "{at}"
            );
        }
    }
}

/// Pre-shade verdicts leave through the retire path too. Under the
/// `corrupt` fault scenario the IPv4 pre-shader rejects truncated,
/// empty and bad-checksum frames (`drops.app`) and diverts frames
/// whose EtherType flipped (`drops.slow_path`). In CPU-only and
/// CPU+GPU modes the run conserves at every slice cut, and a drained
/// run settles every corrupted frame as a drop or a delivery.
#[test]
fn pre_shade_verdicts_conserve_and_settle_under_corruption() {
    use crate::apps::Ipv4App;
    use ps_lookup::route::Route4;
    // Two /1 routes cover every address, so the pre-shader is what
    // rejects the damaged frames.
    let routes = [Route4::new(0, 1, 0), Route4::new(0x8000_0000, 1, 4)];
    let faults = ps_fault::FaultSpec::scenario("corrupt")
        .expect("known scenario")
        .with_seed(3)
        .with_rate(0.2);
    for (name, cfg) in [
        ("ipv4-corrupt-cpu", RouterConfig::paper_cpu()),
        ("ipv4-corrupt-gpu", RouterConfig::paper_gpu()),
    ] {
        let cfg = RouterConfig { faults, ..cfg };
        let app = || Ipv4App::new(&routes);
        check_conservation(name, cfg, app, |seed| fixed(64, 20.0, seed), 300 * MICROS);
        let mut sim = started(cfg, app(), fixed(64, 20.0, 3), 300 * MICROS);
        sim.run_to_completion();
        let (generated, accounted, parts) = conservation(&sim);
        assert_eq!(accounted, generated, "{name} drained: {parts}");
        let drops = sim.model.stats.drops;
        assert!(drops.app > 0 && drops.slow_path > 0, "{name}: {drops:?}");
        let f = &sim.model.plan.as_ref().expect("plan armed").stats;
        let at = format!("{name}:\n{}", f.summary_table());
        assert_eq!(f.corrupt_in_flight, 0, "{at}");
        assert_eq!(
            f.corrupt_injected,
            f.corrupt_dropped + f.corrupt_delivered,
            "{at}"
        );
    }
}

fn layout(nodes: usize, workers_per_node: usize, ports: u16) -> RouterConfig {
    RouterConfig {
        nodes,
        workers_per_node,
        ports,
        ..RouterConfig::paper_cpu()
    }
}

fn build(cfg: RouterConfig) -> Router<MinimalApp> {
    let app = MinimalApp::new(ForwardPattern::SameNode, cfg.ports);
    Router::new(cfg, app, spec(10.0, cfg.ports), MILLIS)
}

#[test]
#[should_panic(expected = "RouterConfig: nodes must be >= 1")]
fn zero_nodes_rejected() {
    build(layout(0, 4, 8));
}

#[test]
#[should_panic(expected = "RouterConfig: workers_per_node must be >= 1")]
fn zero_workers_rejected() {
    build(layout(2, 0, 8));
}

#[test]
#[should_panic(expected = "RouterConfig: ports (6) must be a nonzero multiple of nodes (4)")]
fn ports_not_split_over_nodes_rejected() {
    build(layout(4, 1, 6));
}

#[test]
#[should_panic(expected = "RouterConfig: max_gather_chunks must be >= 1")]
fn zero_gather_cap_rejected() {
    build(RouterConfig {
        max_gather_chunks: 0,
        ..layout(2, 3, 8)
    });
}

#[test]
#[should_panic(expected = "RouterConfig: ports (0) must be a nonzero multiple of nodes (1)")]
fn zero_ports_rejected() {
    let cfg = layout(1, 1, 0);
    let app = crate::apps::Ipv4App::new(&[ps_lookup::route::Route4::new(0, 0, 0)]);
    Router::new(cfg, app, spec(10.0, 0), MILLIS);
}

/// A CPU+GPU IPv4 router holds one DIR-24-8 image: both nodes' GPUs
/// map the table the host lookup reads instead of copying it.
#[test]
fn both_gpus_map_the_hosts_ipv4_image() {
    let routes = [
        ps_lookup::route::Route4::new(0, 1, 0),
        ps_lookup::route::Route4::new(0x8000_0000, 1, 4),
    ];
    let router = Router::new(
        RouterConfig::paper_gpu(),
        crate::apps::Ipv4App::new(&routes),
        spec(10.0, 8),
        MILLIS,
    );
    let host = router.app.table.image();
    assert_eq!(router.nodes.len(), 2);
    for (node, gpu) in router.nodes.iter().enumerate() {
        let eng = gpu.gpu.as_ref().expect("CPU+GPU mode");
        let tables = &router.app.gpu[node].as_ref().expect("setup_gpu ran").tables;
        let device = eng.dev.mem.slice(tables);
        assert!(std::ptr::eq(device, host), "node {node} copied the table");
    }
}

#[test]
fn both_gpus_map_one_wildcard_image() {
    use ps_openflow::{Action, OpenFlowSwitch, WildcardEntry};
    let mut switch = OpenFlowSwitch::new();
    switch.add_wildcard(WildcardEntry {
        fields: 0,
        priority: 0,
        key: ps_net::FlowKey::default(),
        nw_src_mask: 0,
        nw_dst_mask: 0,
        action: Action::Output(0),
    });
    let router = Router::new(
        RouterConfig::paper_gpu(),
        crate::apps::OpenFlowApp::new(switch),
        spec(10.0, 8),
        MILLIS,
    );
    let bytes: Vec<&[u8]> = (0..2)
        .map(|node| {
            let eng = router.nodes[node].gpu.as_ref().expect("CPU+GPU mode");
            let tables = &router.app.gpu[node].as_ref().expect("setup_gpu ran").tables;
            eng.dev.mem.slice(&tables.image)
        })
        .collect();
    assert_eq!(router.nodes.len(), 2);
    assert!(
        std::ptr::eq(bytes[0], bytes[1]),
        "each node serialized its own wildcard image"
    );
}

/// Small random layouts either fail at construction with the message
/// that names the first offending field, or run to the window end and
/// conserve packets at every slice cut. Nothing panics mid-run. The
/// window outlasts the 200 µs interrupt-moderation floor, so workers
/// fetch, forward and transmit before it ends.
#[test]
fn small_layouts_are_rejected_or_conserve() {
    const WINDOW: Time = 300 * MICROS;
    // 4 × 4 × 9 × 3 = 432 layouts, most rejected at construction; a
    // valid one runs in a few milliseconds of host time.
    let name = "small_layouts_are_rejected_or_conserve";
    let mut config = ps_check::Config::from_env(name);
    config.cases = config.cases.max(512);
    ps_check::check_with(name, &config, |g| {
        let cfg = layout(
            g.int_in(0usize..=3),
            g.int_in(0usize..=3),
            g.int_in(0u16..=8),
        );
        let pattern = [
            ForwardPattern::Echo,
            ForwardPattern::SameNode,
            ForwardPattern::NodeCrossing,
        ][g.int_in(0usize..3)];
        let seed = g.int_in(0u64..1000);
        let case = format!(
            "nodes {}, workers_per_node {}, ports {}, {pattern:?}",
            cfg.nodes, cfg.workers_per_node, cfg.ports
        );
        // The first check each constructor makes that this layout fails.
        let expected = if cfg.ports < 2 || cfg.ports % 2 == 1 {
            Some("minimal forwarding needs an even port count >= 2")
        } else if cfg.nodes == 0 {
            Some("RouterConfig: nodes must be >= 1")
        } else if cfg.workers_per_node == 0 {
            Some("RouterConfig: workers_per_node must be >= 1")
        } else if usize::from(cfg.ports) % cfg.nodes != 0 {
            Some("must be a nonzero multiple of nodes")
        } else {
            None
        };
        let traffic = || TrafficSpec {
            ports: cfg.ports,
            ..TrafficSpec::ipv4_64b(10.0, seed)
        };
        let start = || started(cfg, MinimalApp::new(pattern, cfg.ports), traffic(), WINDOW);
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(start));
        match (built, expected) {
            (Err(payload), Some(want)) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                ps_check::ensure!(
                    msg.contains(want),
                    "{}: rejected with {:?}, expected {:?}",
                    case,
                    msg,
                    want
                );
                Ok(())
            }
            (Err(_), None) => Err(format!("{case}: a valid layout was rejected")),
            (Ok(_), Some(want)) => Err(format!("{case}: accepted, expected {want:?}")),
            (Ok(_), None) => {
                let mut cuts = g.vec_of(1, 4, |g| g.int_in(1..WINDOW));
                cuts.sort_unstable();
                cuts.push(WINDOW);
                conserves_at_cuts(start, &cuts).map_err(|e| format!("{case}: {e}"))
            }
        }
    });
}
