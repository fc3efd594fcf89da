//! Staging-mode parity suite (ISSUE 8).
//!
//! Three invariants of the columnar staging layer:
//!
//! 1. **Functional parity** — the kernels read the same bytes whether
//!    the column arrived packed (SoA), buried inside a 2 KB frame
//!    slot (frames ablation), or via NIC→GPU direct DMA. Shading the
//!    same packets under every mode must yield byte-identical frames
//!    and ports; only modeled time moves (frames ≥ soa ≥ direct-dma).
//! 2. **Per-mode shard stability** — within any one staging mode the
//!    virtual-time result is a pure function of (config, app, seed),
//!    never of the shard count, for every column-staged app at
//!    shards ∈ {1, 2, 4, 8}, CPU and GPU configs.
//! 3. **CPU-path independence** — CPU-only runs never stage columns,
//!    so their reports must be byte-identical across staging modes.
//!
//! (The *default-mode* GPU fingerprints — SoA reproducing the seed
//! implementation bit for bit — are pinned in `tests/fastpath.rs`.)
//!
//! A `ps-check` property at the bottom drives the gather itself:
//! random columns staged under SoA and frames must be read back
//! identically through each mode's `Slots` addressing, with the PCIe
//! ledger charging packed bytes vs whole-frame bytes respectively.

use packetshader::check::{check, ensure, ensure_eq, Gen};
use packetshader::core::apps::{Backend, Ipv4App, LbApp, NatApp, OpenFlowApp};
use packetshader::core::columns::{ColumnStage, FLOW_COLUMNS, FRAME_SLOT, IPV4_COLUMNS};
use packetshader::core::kernels::KernelIo;
use packetshader::core::{App, Router, RouterConfig, RouterReport, Staging};
use packetshader::gpu::{GpuDevice, GpuEngine};
use packetshader::hw::ioh::Ioh;
use packetshader::hw::pcie::PcieModel;
use packetshader::hw::spec::{IohSpec, PcieSpec};
use packetshader::io::Packet;
use packetshader::lookup::route::Route4;
use packetshader::lookup::synth;
use packetshader::net::ethernet::MacAddr;
use packetshader::net::PacketBuilder;
use packetshader::nic::port::PortId;
use packetshader::pktgen::{TrafficKind, TrafficSpec};
use packetshader::sim::MILLIS;
use ps_bench::workloads;
use std::net::Ipv4Addr;

const DUR: u64 = MILLIS / 2;

const MODES: [Staging; 3] = [Staging::Frames, Staging::Soa, Staging::DirectDma];

fn full_fp(r: &RouterReport) -> String {
    format!("{r:?}")
}

fn rig() -> (GpuEngine, Ioh) {
    let dev = GpuDevice::gtx480_with_mem(64 << 20);
    (
        GpuEngine::new(dev, PcieModel::new(PcieSpec::dual_ioh_x16())),
        Ioh::new(IohSpec::intel_5520_dual()),
    )
}

fn udp(src: u32, dst: u32, sport: u16, in_port: u16) -> Packet {
    let f = PacketBuilder::udp_v4(
        MacAddr::local(1),
        MacAddr::local(2),
        Ipv4Addr::from(src),
        Ipv4Addr::from(dst),
        sport,
        80,
        64,
    );
    Packet::new(0, f, PortId(in_port), 0)
}

/// What shading did to each packet: final frame bytes + egress port.
type Outcome = Vec<(Vec<u8>, Option<PortId>)>;

/// Shade one batch under `mode` and return the functional outcome
/// (frames + ports) plus the completion time.
fn shade_under<A: App>(mut app: A, mode: Staging, mut pkts: Vec<Packet>) -> (Outcome, u64) {
    let (mut eng, mut ioh) = rig();
    app.set_staging(mode);
    app.setup_gpu(0, &mut eng);
    app.pre_shade(&mut pkts);
    let done = app.shade(0, &mut eng, &mut ioh, 0, &mut pkts);
    (
        pkts.iter().map(|p| (p.data.clone(), p.out_port)).collect(),
        done,
    )
}

/// Functional parity + honest cost ordering for one app: identical
/// frames/ports in every mode, with frames-staging never finishing
/// before SoA and SoA never before direct DMA.
fn assert_mode_parity<A: App>(label: &str, mk: impl Fn() -> A, pkts: Vec<Packet>) {
    let (frames_res, t_frames) = shade_under(mk(), Staging::Frames, pkts.clone());
    let (soa_res, t_soa) = shade_under(mk(), Staging::Soa, pkts.clone());
    let (direct_res, t_direct) = shade_under(mk(), Staging::DirectDma, pkts);
    assert_eq!(soa_res, frames_res, "{label}: soa vs frames results");
    assert_eq!(soa_res, direct_res, "{label}: soa vs direct-dma results");
    assert!(
        t_frames >= t_soa && t_soa >= t_direct,
        "{label}: cost order frames({t_frames}) >= soa({t_soa}) >= direct({t_direct})"
    );
}

#[test]
fn ipv4_results_identical_across_modes() {
    let routes = vec![
        Route4::new(0x0A00_0000, 8, 1),
        Route4::new(0x0B00_0000, 8, 3),
        Route4::new(0, 0, 0),
    ];
    let pkts: Vec<Packet> = (0..192u32)
        .map(|i| {
            let dst = if i % 3 == 0 {
                0x0A00_0000 + i
            } else {
                0x0B00_0000 + i
            };
            udp(0x0C00_0001 + i, dst, 5000, (i % 8) as u16)
        })
        .collect();
    assert_mode_parity("ipv4", || Ipv4App::new(&routes), pkts);
}

#[test]
fn ipv6_results_identical_across_modes() {
    let pkts: Vec<Packet> = (0..128u32)
        .map(|i| {
            let f = PacketBuilder::udp_v6(
                MacAddr::local(1),
                MacAddr::local(2),
                std::net::Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1 + i as u16),
                std::net::Ipv6Addr::new(0x2001, 0xdb8, 1 + i as u16, 0, 0, 0, 0, 9),
                5000,
                80,
                64,
            );
            Packet::new(0, f, PortId((i % 8) as u16), 0)
        })
        .collect();
    assert_mode_parity("ipv6", || workloads::ipv6_app(2_000, 2), pkts);
}

#[test]
fn openflow_results_identical_across_modes() {
    let mut spec = TrafficSpec::ipv4_64b(20.0, 5);
    spec.flows = Some(64);
    let pkts: Vec<Packet> = (0..128u32)
        .map(|i| {
            udp(
                0x0A00_0001 + (i % 64),
                0x0A63_0001,
                4000 + (i % 64) as u16,
                0,
            )
        })
        .collect();
    assert_mode_parity(
        "openflow",
        || OpenFlowApp::new(workloads::openflow_switch(&spec, 64, 16)),
        pkts,
    );
}

#[test]
fn nat_results_identical_across_modes() {
    let pkts: Vec<Packet> = (0..128u32)
        .map(|i| udp(0x0A00_0001 + (i % 40), 0x0C63_0001, 5000, 0))
        .collect();
    assert_mode_parity("nat", || NatApp::new(8, 2, 1 << 16, 0), pkts);
}

#[test]
fn lb_results_identical_across_modes() {
    let backends: Vec<Backend> = (0..8)
        .map(|i| Backend {
            ip: 0x0A63_0001 + i,
            port: 8080,
        })
        .collect();
    let pkts: Vec<Packet> = (0..128u32)
        .map(|i| udp(0x0A00_0001 + (i % 40), 0xC633_6401, 5000, 0))
        .collect();
    assert_mode_parity(
        "lb",
        || LbApp::new(backends.clone(), 8, 2, 1 << 16, 0),
        pkts,
    );
}

// ---------------------------------------------------------------------------
// Per-mode shard stability: within a mode, shard count changes nothing.
// ---------------------------------------------------------------------------

fn assert_shard_stable<A: App + Send>(
    label: &str,
    mut cfg: RouterConfig,
    mk: impl Fn() -> A,
    spec: TrafficSpec,
) {
    for mode in MODES {
        cfg.staging = mode;
        let base = full_fp(&Router::run_with_shards(cfg, mk(), spec, DUR, 1));
        for shards in [2usize, 4, 8] {
            let fp = full_fp(&Router::run_with_shards(cfg, mk(), spec, DUR, shards));
            assert_eq!(
                base,
                fp,
                "{label} [{}]: shards=1 vs shards={shards}",
                mode.label()
            );
        }
    }
}

#[test]
fn ipv4_shard_stable_in_every_mode() {
    let mk = || {
        let mut routes = vec![Route4::new(0, 1, 0), Route4::new(0x8000_0000, 1, 4)];
        routes.extend(synth::routeviews_like(2_000, 8, 3));
        Ipv4App::new(&routes)
    };
    let spec = TrafficSpec::ipv4_64b(30.0, 5);
    assert_shard_stable("ipv4 gpu", RouterConfig::paper_gpu(), mk, spec);
}

#[test]
fn ipv6_shard_stable_in_every_mode() {
    let spec = TrafficSpec {
        kind: TrafficKind::Ipv6Udp,
        frame_len: 64,
        offered_bits: 20_000_000_000,
        ports: 8,
        seed: 5,
        flows: None,
        ..TrafficSpec::default()
    };
    assert_shard_stable(
        "ipv6 gpu",
        RouterConfig::paper_gpu(),
        || workloads::ipv6_app(2_000, 2),
        spec,
    );
}

#[test]
fn openflow_shard_stable_in_every_mode() {
    let mut spec = TrafficSpec::ipv4_64b(20.0, 5);
    spec.flows = Some(64);
    assert_shard_stable(
        "openflow gpu",
        RouterConfig::paper_gpu(),
        || OpenFlowApp::new(workloads::openflow_switch(&spec, 64, 16)),
        spec,
    );
}

#[test]
fn nat_shard_stable_in_every_mode() {
    let spec = TrafficSpec::imix(20.0, 5).with_heavy_tail(512, 3);
    assert_shard_stable(
        "nat gpu",
        RouterConfig::paper_gpu(),
        || NatApp::new(8, 2, 1 << 16, 0),
        spec,
    );
}

#[test]
fn lb_shard_stable_in_every_mode() {
    let spec = TrafficSpec::imix(20.0, 5).with_heavy_tail(512, 3);
    let backends: Vec<Backend> = (0..16)
        .map(|i| Backend {
            ip: 0x0A63_0001 + i,
            port: 8080,
        })
        .collect();
    assert_shard_stable(
        "lb gpu",
        RouterConfig::paper_gpu(),
        || LbApp::new(backends.clone(), 8, 2, 1 << 16, 0),
        spec,
    );
}

// ---------------------------------------------------------------------------
// CPU path: staging mode is a GPU concern and must not leak.
// ---------------------------------------------------------------------------

#[test]
fn cpu_path_ignores_staging_mode() {
    let mk = || {
        let mut routes = vec![Route4::new(0, 1, 0), Route4::new(0x8000_0000, 1, 4)];
        routes.extend(synth::routeviews_like(2_000, 8, 3));
        Ipv4App::new(&routes)
    };
    let spec = TrafficSpec::ipv4_64b(30.0, 5);
    let mut cfg = RouterConfig::paper_cpu();
    cfg.staging = Staging::Soa;
    let base = full_fp(&Router::run(cfg, mk(), spec, DUR));
    for mode in [Staging::Frames, Staging::DirectDma] {
        cfg.staging = mode;
        let fp = full_fp(&Router::run(cfg, mk(), spec, DUR));
        assert_eq!(base, fp, "cpu path must not see staging mode {mode:?}");
    }
}

// ---------------------------------------------------------------------------
// The gather itself, property-checked against the Slots addressing.
// ---------------------------------------------------------------------------

/// Random columns staged under SoA and frames modes must read back
/// identically through each mode's `Slots` addressing, and the IOH
/// ledgers must charge packed bytes (SoA) vs whole frames (frames)
/// vs nothing host-side (direct DMA).
#[test]
fn column_gather_reads_back_identically_in_every_mode() {
    check("column_gather_modes_agree", |g: &mut Gen| {
        let n = g.int_in(1usize..=64);
        let set = if g.int_in(0u32..=1) == 0 {
            IPV4_COLUMNS
        } else {
            FLOW_COLUMNS
        };
        let w = set.input.width;
        let col: Vec<u8> = (0..n * w).map(|_| g.value::<u8>()).collect();
        let frame_len = g.int_in(60usize..=256);
        let pkts: Vec<Packet> = (0..n)
            .map(|i| Packet::new(i as u64, vec![0xEE; frame_len], PortId(0), 0))
            .collect();
        for mode in MODES {
            let (mut eng, mut ioh) = rig();
            let mut stage = ColumnStage::new(set);
            stage.set_mode(mode);
            let KernelIo {
                input: buf, slots, ..
            } = stage.alloc(&mut eng, n.max(1));
            stage.upload(&mut eng, &mut ioh, 0, &buf, &pkts, |p, slot| {
                slot.copy_from_slice(&col[p.id as usize * w..][..w])
            });
            // Read every record back through the mode's addressing.
            let mut got = Vec::with_capacity(n * w);
            for tid in 0..n {
                let mut rec = vec![0u8; w];
                eng.dev.mem.read(&buf, slots.at(tid as u32), &mut rec);
                got.extend_from_slice(&rec);
            }
            ensure_eq!(got, col, "mode {:?} read-back", mode);
            // Ledger honesty per mode.
            match mode {
                Staging::Soa => {
                    ensure_eq!(ioh.h2d_bytes(), (n * w) as u64, "soa charges the column");
                    ensure_eq!(ioh.direct_bytes(), 0, "soa is host-staged");
                }
                Staging::Frames => {
                    ensure_eq!(
                        ioh.h2d_bytes(),
                        (n * frame_len) as u64,
                        "frames charge whole frames"
                    );
                    ensure!(FRAME_SLOT >= frame_len, "slot holds the frame");
                }
                Staging::DirectDma => {
                    ensure_eq!(ioh.h2d_bytes(), 0, "direct DMA skips the host copy");
                    ensure_eq!(
                        ioh.direct_bytes(),
                        (n * w) as u64,
                        "ledger notes the column"
                    );
                }
            }
        }
        Ok(())
    });
}
