//! CPU-path vs GPU-path functional parity: both modes must make the
//! same forwarding decisions and emit identical bytes, packet for
//! packet — the core guarantee that the offload is transparent.
//!
//! The five column-staged apps run through one driver
//! (`ColumnApp<P>`), so one generic property covers them all: random
//! traffic, damaged after `pre_shade`, CPU path vs GPU path under
//! every staging mode. IPsec keeps its own bit-exact check.

use packetshader::check::{check, ensure_eq, Gen};
use packetshader::core::apps::{Backend, IpsecApp, Ipv4App, Ipv6App, LbApp, NatApp, OpenFlowApp};
use packetshader::core::{App, ColumnApp, ColumnProgram, Staging};
use packetshader::gpu::{GpuDevice, GpuEngine};
use packetshader::hw::ioh::Ioh;
use packetshader::hw::pcie::PcieModel;
use packetshader::hw::spec::{IohSpec, PcieSpec};
use packetshader::io::Packet;
use packetshader::lookup::route::{Route4, Route6};
use packetshader::lookup::synth;
use packetshader::net::ethernet::MacAddr;
use packetshader::net::{FlowKey, PacketBuilder};
use packetshader::nic::port::PortId;
use packetshader::openflow::wildcard::wc;
use packetshader::openflow::{Action, OpenFlowSwitch, WildcardEntry};
use packetshader::pktgen::{Generator, TrafficKind, TrafficSpec};

fn gpu_env() -> (GpuEngine, Ioh) {
    (
        GpuEngine::new(
            GpuDevice::gtx480_with_mem(96 << 20),
            PcieModel::new(PcieSpec::dual_ioh_x16()),
        ),
        Ioh::new(IohSpec::intel_5520_dual()),
    )
}

fn traffic(kind: TrafficKind, n: usize, seed: u64) -> Vec<Packet> {
    let mut g = Generator::new(TrafficSpec {
        kind,
        frame_len: 64,
        offered_bits: 1_000_000_000,
        ports: 8,
        seed,
        flows: None,
        ..TrafficSpec::default()
    });
    (0..n).map(|_| g.next_packet().1).collect()
}

/// Run the same packet set through both paths of `app_a`/`app_b` and
/// compare `(id, out_port, bytes)`.
fn assert_parity<A: App>(mut cpu_app: A, mut gpu_app: A, pkts: Vec<Packet>) {
    let (mut eng, mut ioh) = gpu_env();
    gpu_app.setup_gpu(0, &mut eng);

    let mut via_cpu = pkts.clone();
    cpu_app.pre_shade(&mut via_cpu);
    cpu_app.process_cpu(&mut via_cpu);

    let mut via_gpu = pkts;
    gpu_app.pre_shade(&mut via_gpu);
    gpu_app.shade(0, &mut eng, &mut ioh, 0, &mut via_gpu);
    via_gpu.retain(|p| p.out_port.is_some());

    let a: Vec<_> = via_cpu
        .iter()
        .map(|p| (p.id, p.out_port, p.data.clone()))
        .collect();
    let b: Vec<_> = via_gpu
        .iter()
        .map(|p| (p.id, p.out_port, p.data.clone()))
        .collect();
    assert_eq!(a.len(), b.len(), "packet counts differ");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.0, y.0, "packet order");
        assert_eq!(x.1, y.1, "out port of packet {}", x.0);
        assert_eq!(x.2, y.2, "bytes of packet {}", x.0);
    }
}

/// What a path did to a batch: `(id, out_port, bytes)` per survivor.
type Outcome = Vec<(u64, Option<PortId>, Vec<u8>)>;

fn outcome(pkts: &[Packet]) -> Outcome {
    pkts.iter()
        .filter(|p| p.out_port.is_some())
        .map(|p| (p.id, p.out_port, p.data.clone()))
        .collect()
}

/// Damage a frame the way wire/DMA corruption can after
/// classification: cut it short, or flip bits in one header byte.
#[derive(Clone, Copy)]
enum Damage {
    Truncate(usize),
    Flip(usize, u8),
}

impl Damage {
    fn apply(self, p: &mut Packet) {
        match self {
            Damage::Truncate(len) => p.data.truncate(len),
            Damage::Flip(at, bits) => p.data[at] ^= bits,
        }
    }
}

/// The generic column-program property. One CPU-path app and one
/// GPU-path app per staging mode see the same random batches, damaged
/// identically after `pre_shade`; every GPU app must produce the CPU
/// app's `(id, out_port, bytes)`, `malformed` count and `state`
/// digest (a program-specific counter over host-side tables). The
/// apps persist across cases, so stateful programs are compared over
/// an evolving table.
fn column_parity<P: ColumnProgram>(
    name: &str,
    mk: impl Fn() -> ColumnApp<P>,
    kind: TrafficKind,
    state: impl Fn(&ColumnApp<P>) -> u64,
) {
    let mut cpu = mk();
    let mut gpus: Vec<_> = [Staging::Frames, Staging::Soa, Staging::DirectDma]
        .into_iter()
        .map(|mode| {
            let (mut eng, ioh) = gpu_env();
            let mut app = mk();
            app.set_staging(mode);
            app.setup_gpu(0, &mut eng);
            (mode, app, eng, ioh)
        })
        .collect();

    // Pinned: one frame damaged after classification is one counted
    // drop on either path — never forwarded, never a panic (NAT and
    // LB used to count it twice on the GPU path).
    let mut batch = traffic(kind, 4, 1);
    cpu.pre_shade(&mut batch);
    assert_eq!(batch.len(), 4, "{name}: generated traffic is fast-path");
    batch[1].data.truncate(17);
    let damaged = batch[1].id;
    let mut via_cpu = batch.clone();
    cpu.process_cpu(&mut via_cpu);
    assert_eq!(cpu.malformed, 1, "{name}: CPU path counts the damage once");
    assert!(
        via_cpu.iter().all(|p| p.id != damaged),
        "{name}: damaged frame removed as a drop"
    );
    for (mode, app, eng, ioh) in &mut gpus {
        let mut via_gpu = batch.clone();
        app.shade(0, eng, ioh, 0, &mut via_gpu);
        assert_eq!(app.malformed, 1, "{name}/{mode:?}: GPU path counts it once");
        assert_eq!(outcome(&via_gpu), outcome(&via_cpu), "{name}/{mode:?}");
    }

    check(name, |g: &mut Gen| {
        let n = g.int_in(1usize..=96);
        let mut pkts = traffic(kind, n, g.value::<u64>());
        // Repeat some flows so stateful programs hit as well as miss.
        for i in 0..n {
            if g.int_in(0u32..4) == 0 {
                let earlier = g.int_in(0..=i);
                pkts[i].data = pkts[earlier].data.clone();
                pkts[i].in_port = pkts[earlier].in_port;
            }
        }
        cpu.pre_shade(&mut pkts);
        let damage: Vec<Option<Damage>> = pkts
            .iter()
            .map(|p| match g.int_in(0u32..6) {
                0 => Some(Damage::Truncate(g.int_in(0..p.data.len()))),
                1 => Some(Damage::Flip(
                    g.int_in(0..p.data.len().min(54)),
                    g.int_in(1u8..=255),
                )),
                _ => None,
            })
            .collect();
        for (p, d) in pkts.iter_mut().zip(&damage) {
            if let Some(d) = d {
                d.apply(p);
            }
        }

        let mut via_cpu = pkts.clone();
        cpu.process_cpu(&mut via_cpu);
        let want = outcome(&via_cpu);
        for (mode, app, eng, ioh) in &mut gpus {
            let mut via_gpu = pkts.clone();
            app.shade(0, eng, ioh, 0, &mut via_gpu);
            ensure_eq!(outcome(&via_gpu), want, "{:?}: (id, out_port, bytes)", mode);
            ensure_eq!(app.malformed, cpu.malformed, "{:?}: malformed", mode);
            ensure_eq!(state(app), state(&cpu), "{:?}: host-side state", mode);
        }
        Ok(())
    });
}

#[test]
fn ipv4_column_parity() {
    let mut routes = vec![Route4::new(0, 1, 0), Route4::new(0x8000_0000, 1, 4)];
    routes.extend(synth::routeviews_like(3_000, 8, 2));
    column_parity(
        "ipv4_column_parity",
        || Ipv4App::new(&routes),
        TrafficKind::Ipv4Udp,
        |a| a.lookups,
    );
}

#[test]
fn ipv6_column_parity() {
    let mut routes: Vec<Route6> = (0..8u16)
        .map(|i| Route6::new((0b001u128 << 125) | (u128::from(i) << 122), 6, i))
        .collect();
    routes.extend(synth::random_ipv6(1_500, 8, 2));
    column_parity(
        "ipv6_column_parity",
        || Ipv6App::new(&routes),
        TrafficKind::Ipv6Udp,
        |a| a.lookups,
    );
}

#[test]
fn openflow_column_parity() {
    let build = || {
        let mut sw = OpenFlowSwitch::new();
        // Exact entry for one specific constructed flow.
        let f = PacketBuilder::udp_v4(
            MacAddr::local(1),
            MacAddr::local(2),
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            1000,
            2000,
            64,
        );
        sw.add_exact(FlowKey::extract(0, &f).unwrap(), Action::Output(6));
        // Wildcards: UDP to low ports -> 1, 10/8 -> 2, the rest by /3.
        sw.add_wildcard(WildcardEntry {
            fields: wc::NW_PROTO | wc::TP_DST,
            priority: 50,
            key: FlowKey {
                nw_proto: 17,
                tp_dst: 53,
                ..FlowKey::default()
            },
            nw_src_mask: 0,
            nw_dst_mask: 0,
            action: Action::Output(1),
        });
        for i in 0..8u16 {
            sw.add_wildcard(WildcardEntry {
                fields: wc::NW_DST,
                priority: 0,
                key: FlowKey {
                    nw_dst: u32::from(i) << 29,
                    ..FlowKey::default()
                },
                nw_src_mask: 0,
                nw_dst_mask: 0xE000_0000,
                action: Action::Output(i),
            });
        }
        OpenFlowApp::new(sw)
    };
    column_parity("openflow_column_parity", build, TrafficKind::Ipv4Udp, |a| {
        a.switch.misses
    });
}

#[test]
fn nat_column_parity() {
    column_parity(
        "nat_column_parity",
        || NatApp::new(8, 2, 1 << 12, 0),
        TrafficKind::Ipv4Udp,
        |a| a.occupancy() as u64 + a.cache_stats().hits,
    );
}

#[test]
fn lb_column_parity() {
    let backends: Vec<Backend> = (0..8)
        .map(|i| Backend {
            ip: 0x0A63_0001 + i,
            port: 8080,
        })
        .collect();
    column_parity(
        "lb_column_parity",
        || LbApp::new(backends.clone(), 8, 2, 1 << 12, 0),
        TrafficKind::Ipv4Udp,
        |a| a.occupancy() as u64 + a.cache_stats().hits,
    );
}

#[test]
fn ipsec_parity_bit_exact() {
    assert_parity(
        IpsecApp::new([0x11; 16], 0xBEEF, b"parity-key"),
        IpsecApp::new([0x11; 16], 0xBEEF, b"parity-key"),
        traffic(TrafficKind::Ipv4Udp, 200, 5),
    );
}

#[test]
fn per_flow_order_is_preserved_through_the_gpu_pipeline() {
    // One flow (fixed 5-tuple) must come out in generation order.
    use packetshader::core::{Router, RouterConfig};
    use packetshader::sim::MILLIS;
    let mut spec = TrafficSpec::ipv4_64b(2.0, 11);
    spec.flows = Some(8); // all packets of a flow share a worker
    let mut routes = vec![Route4::new(0, 1, 0), Route4::new(0x8000_0000, 1, 4)];
    routes.extend(synth::routeviews_like(1_000, 8, 2));
    let mut router = Router::new(
        RouterConfig::paper_gpu(),
        Ipv4App::new(&routes),
        spec,
        MILLIS,
    );
    router.sink.track_flows = Some(8);
    let mut sim = packetshader::sim::Simulation::new(router);
    sim.schedule(0, packetshader::core::router::Ev::Gen);
    sim.run_until(MILLIS + MILLIS / 2);
    assert!(sim.model.sink.delivered.packets > 1_000);
    assert_eq!(
        sim.model.sink.flow_inversions, 0,
        "per-flow FIFO order violated (§5.3)"
    );
}
