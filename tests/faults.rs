//! The adversarial corpus and fault-determinism suite (ISSUE 4).
//!
//! Three contracts are pinned here:
//!
//! 1. **Drops, not panics.** Every application survives frames that
//!    arrive bit-flipped, truncated, zero-length, or with broken
//!    checksums/ICVs — on both the CPU path and the GPU path — and
//!    still routes the healthy traffic mixed in with the garbage.
//! 2. **Fault plans are deterministic.** Any `FaultSpec` seed yields
//!    a byte-identical stats fingerprint on re-run, and a plan with
//!    every rate forced to zero reproduces the *pinned* fault-free
//!    fingerprints from `tests/fastpath.rs` exactly: arming the
//!    fault layer costs nothing when nothing fires.
//! 3. **Fallback is transparent.** When a GPU batch faults and
//!    re-runs on the CPU, the functional output — forwarding
//!    decisions, ciphertext bytes — is what the GPU would have
//!    produced. The properties shrink, so a violation reports a
//!    minimal failing batch.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use packetshader::check::{check_with, ensure, ensure_eq, Config};
use packetshader::core::apps::{IpsecApp, Ipv4App, Ipv6App, OpenFlowApp};
use packetshader::core::{App, Router, RouterConfig, RouterReport};
use packetshader::crypto::esp::{decrypt_tunnel, EspError};
use packetshader::fault::{corrupt_in_place, CorruptKind, FaultSpec};
use packetshader::gpu::{GpuDevice, GpuEngine};
use packetshader::hw::ioh::Ioh;
use packetshader::hw::pcie::PcieModel;
use packetshader::hw::spec::{IohSpec, PcieSpec};
use packetshader::io::Packet;
use packetshader::lookup::route::{Route4, Route6};
use packetshader::lookup::synth;
use packetshader::net::ethernet::{EthernetFrame, MacAddr};
use packetshader::net::ipv4::Ipv4Packet;
use packetshader::net::{FlowKey, PacketBuilder};
use packetshader::nic::port::PortId;
use packetshader::openflow::wildcard::wc;
use packetshader::openflow::{Action, OpenFlowSwitch, WildcardEntry};
use packetshader::pktgen::{TrafficKind, TrafficSpec};
use packetshader::rng::Rng;
use packetshader::sim::MILLIS;
use packetshader::trace::{Category, Phase, TraceConfig};
use ps_bench::workloads;

const ETH_LEN: usize = 14;

fn gpu_env() -> (GpuEngine, Ioh) {
    (
        GpuEngine::new(
            GpuDevice::gtx480_with_mem(96 << 20),
            PcieModel::new(PcieSpec::dual_ioh_x16()),
        ),
        Ioh::new(IohSpec::intel_5520_dual()),
    )
}

// ---------------------------------------------------------------------------
// 1. Adversarial corpus: damaged frames are counted drops, never panics.
// ---------------------------------------------------------------------------

fn v4_frame(i: u64) -> Vec<u8> {
    PacketBuilder::udp_v4(
        MacAddr::local(1),
        MacAddr::local(2),
        Ipv4Addr::new(10, 0, 0, 1),
        // Spread over unicast space so routes and flow keys differ.
        Ipv4Addr::from(((i as u32).wrapping_mul(0x9E37_79B9) >> 4) | 0x0100_0000),
        1000 + i as u16,
        53,
        64 + (i as usize % 60),
    )
}

fn v6_frame(i: u64) -> Vec<u8> {
    let dst = (0b001u128 << 125) | (u128::from(i).wrapping_mul(0x9E37_79B9) << 64) | u128::from(i);
    PacketBuilder::udp_v6(
        MacAddr::local(1),
        MacAddr::local(2),
        std::net::Ipv6Addr::from(0x2001_0db8_0000_0000_0000_0000_0000_0001u128),
        std::net::Ipv6Addr::from(dst),
        1000 + i as u16,
        53,
        78 + (i as usize % 40),
    )
}

/// Every [`CorruptKind`] applied to every base frame, plus the runts
/// corruption cannot produce from a healthy frame: an empty buffer, a
/// single octet, and a bare Ethernet header with no payload at all.
fn damaged(base: &[Vec<u8>], seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut out = Vec::new();
    for kind in CorruptKind::ALL {
        for f in base {
            let mut d = f.clone();
            corrupt_in_place(&mut rng, kind, &mut d);
            out.push(d);
        }
    }
    out.push(Vec::new());
    out.push(vec![0x45]);
    out.push(base[0][..ETH_LEN].to_vec());
    out
}

/// Drive `frames` (garbage first, `healthy` known-good frames last)
/// through both paths of an app pair. Asserts the accounting identity
/// on pre-shade, that survivors carry forwarding decisions, and that
/// the healthy tail still routes — amid the garbage, not instead of it.
fn assert_survives<A: App>(mut cpu: A, mut gpu: A, frames: &[Vec<u8>], healthy: usize) {
    let total = frames.len();
    let mk = || -> Vec<Packet> {
        frames
            .iter()
            .enumerate()
            .map(|(i, f)| Packet::new(i as u64, f.clone(), PortId((i % 2) as u16), 0))
            .collect()
    };

    // CPU path: pre-shade accounting must be exact, survivors routed.
    let mut a = mk();
    let pre = cpu.pre_shade(&mut a);
    assert_eq!(
        pre.dropped + pre.slow_path + a.len() as u64,
        total as u64,
        "pre_shade lost packets without counting them"
    );
    cpu.process_cpu(&mut a);
    let routed: BTreeMap<u64, PortId> = a
        .iter()
        .filter_map(|p| p.out_port.map(|port| (p.id, port)))
        .collect();
    for h in (total - healthy)..total {
        assert!(
            routed.contains_key(&(h as u64)),
            "healthy frame {h} was not routed on the CPU path"
        );
    }

    // GPU path on a fresh copy of the same corpus.
    let (mut eng, mut ioh) = gpu_env();
    gpu.setup_gpu(0, &mut eng);
    let mut b = mk();
    gpu.pre_shade(&mut b);
    gpu.shade(0, &mut eng, &mut ioh, 0, &mut b);
    let shaded: BTreeMap<u64, PortId> = b
        .iter()
        .filter_map(|p| p.out_port.map(|port| (p.id, port)))
        .collect();
    for h in (total - healthy)..total {
        assert_eq!(
            shaded.get(&(h as u64)),
            routed.get(&(h as u64)),
            "healthy frame {h} routed differently on the GPU path"
        );
    }
}

#[test]
fn ipv4_survives_adversarial_corpus() {
    let base: Vec<Vec<u8>> = (0..8).map(v4_frame).collect();
    let mut frames = damaged(&base, 0xC0FFEE);
    frames.extend(base.iter().take(4).cloned());
    let mut routes = vec![Route4::new(0, 0, 0)];
    routes.extend(synth::routeviews_like(500, 4, 9));
    assert_survives(Ipv4App::new(&routes), Ipv4App::new(&routes), &frames, 4);
}

#[test]
fn ipv6_survives_adversarial_corpus() {
    let base: Vec<Vec<u8>> = (0..8).map(v6_frame).collect();
    let mut frames = damaged(&base, 0xC0FFEE);
    frames.extend(base.iter().take(4).cloned());
    let mut routes = vec![Route6::new(0, 0, 0)];
    routes.extend(synth::random_ipv6(500, 4, 9));
    assert_survives(Ipv6App::new(&routes), Ipv6App::new(&routes), &frames, 4);
}

#[test]
fn ipsec_survives_adversarial_corpus() {
    let base: Vec<Vec<u8>> = (0..8).map(v4_frame).collect();
    let mut frames = damaged(&base, 0xC0FFEE);
    frames.extend(base.iter().take(4).cloned());
    let mk = || IpsecApp::new([0x42; 16], 0xDEAD, b"corpus-hmac-key");
    assert_survives(mk(), mk(), &frames, 4);
}

#[test]
fn openflow_survives_adversarial_corpus() {
    let base: Vec<Vec<u8>> = (0..8).map(v4_frame).collect();
    let mut frames = damaged(&base, 0xC0FFEE);
    frames.extend(base.iter().take(4).cloned());
    let build = || {
        let mut sw = OpenFlowSwitch::new();
        // Eight /3 wildcards on nw_dst cover the whole address space,
        // so every parseable frame matches something.
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
    assert_survives(build(), build(), &frames, 4);
}

/// A frame damaged *after* classification (what on-the-wire fault
/// injection does between RX and shading) must become a counted drop
/// in both paths, and — for IPsec, whose GPU batch layout compacts
/// around the hole — must not desynchronize the SA sequence numbers
/// the two paths share: the surviving packets stay bit-identical.
#[test]
fn ipsec_malformed_mid_batch_keeps_gpu_cpu_parity() {
    let mk_app = || IpsecApp::new([0x11; 16], 0xBEEF, b"mid-batch-key");
    let mk_pkts = || -> Vec<Packet> {
        (0..5u64)
            .map(|i| Packet::new(i, v4_frame(i), PortId(0), 0))
            .collect()
    };
    let (mut eng, mut ioh) = gpu_env();
    let mut cpu = mk_app();
    let mut gpu = mk_app();
    gpu.setup_gpu(0, &mut eng);

    let mut a = mk_pkts();
    cpu.pre_shade(&mut a);
    a[2].data.truncate(10); // damage lands post-classification
    cpu.process_cpu(&mut a);

    let mut b = mk_pkts();
    gpu.pre_shade(&mut b);
    b[2].data.truncate(10);
    gpu.shade(0, &mut eng, &mut ioh, 0, &mut b);

    assert_eq!(cpu.malformed, 1, "CPU path must count the damaged frame");
    assert_eq!(gpu.malformed, 1, "GPU path must count the damaged frame");
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.out_port, y.out_port, "packet {}", x.id);
        if x.id == 2 {
            assert_eq!(x.out_port, None, "damaged frame must not be forwarded");
        } else {
            assert_eq!(x.data, y.data, "ciphertext of packet {}", x.id);
        }
    }
}

/// ESP authentication is the last line of defense: damage inside the
/// authenticated region that parses fine must still be rejected — as
/// an `Err`, not a panic, and never as silently decrypted garbage.
#[test]
fn esp_rejects_flipped_icv_and_ciphertext() {
    let mut app = IpsecApp::new([0x42; 16], 0xDEAD, b"icv-test-key");
    let mut pkts = vec![Packet::new(1, v4_frame(1), PortId(0), 0)];
    app.pre_shade(&mut pkts);
    app.process_cpu(&mut pkts);

    let eth = EthernetFrame::new_checked(&pkts[0].data[..]).expect("outer frame parses");
    let ip = Ipv4Packet::new_checked(eth.payload()).expect("outer IP parses");
    let peer = app.peer_sa();
    let clean = ip.payload().to_vec();
    assert!(
        decrypt_tunnel(&peer, &clean).is_ok(),
        "clean payload decrypts"
    );

    let mut bad_icv = clean.clone();
    *bad_icv.last_mut().expect("payload nonempty") ^= 0x01;
    assert!(
        matches!(decrypt_tunnel(&peer, &bad_icv), Err(EspError::BadIcv)),
        "flipped ICV must fail authentication"
    );

    let mut bad_ct = clean.clone();
    let mid = bad_ct.len() / 2;
    bad_ct[mid] ^= 0x80;
    assert!(
        decrypt_tunnel(&peer, &bad_ct).is_err(),
        "flipped ciphertext must fail authentication"
    );

    assert!(
        matches!(decrypt_tunnel(&peer, &[]), Err(EspError::Malformed)),
        "empty payload is malformed, not a panic"
    );
    assert!(
        decrypt_tunnel(&peer, &clean[..clean.len() / 2]).is_err(),
        "truncated payload must be rejected"
    );
}

// ---------------------------------------------------------------------------
// 2. Determinism: any fault seed replays exactly; rate-0 plans are free.
// ---------------------------------------------------------------------------

/// Same aggregate tuple as tests/fastpath.rs.
type Fp = (u64, u64, u64, u64, u64, u64);

fn report_fp(r: &RouterReport) -> Fp {
    (
        r.offered.packets,
        r.delivered.packets,
        r.rx_drops,
        r.slow_path,
        r.latency.p50(),
        r.latency.max(),
    )
}

/// A small CPU-only run (Figure-5 shape) under `faults`, cheap enough
/// to re-run inside a property.
fn faulted_fingerprint(traffic_seed: u64, faults: FaultSpec) -> (Fp, u64) {
    let mut cfg = RouterConfig::fig5(64);
    cfg.faults = faults;
    let mut routes = vec![Route4::new(0, 1, 0), Route4::new(0x8000_0000, 1, 1)];
    routes.extend(synth::routeviews_like(500, 2, 3));
    let spec = TrafficSpec {
        kind: TrafficKind::Ipv4Udp,
        frame_len: 64,
        offered_bits: 5_000_000_000,
        ports: 2,
        seed: traffic_seed,
        flows: None,
        ..TrafficSpec::default()
    };
    let r = Router::run(cfg, Ipv4App::new(&routes), spec, MILLIS / 4);
    (report_fp(&r), r.faults.fingerprint())
}

/// Any FaultPlan seed preserves determinism: running the same (traffic
/// seed, fault seed) twice yields the same stats fingerprint *and* the
/// same fault-ledger fingerprint, for randomly drawn seeds.
#[test]
fn any_fault_seed_replays_byte_identically() {
    let cfg = Config {
        cases: 6,
        seed: 0x5EED_FA17,
    };
    check_with("any_fault_seed_replays_byte_identically", &cfg, |g| {
        let fault_seed = g.value::<u64>();
        let traffic_seed = g.int_in(0u64..1 << 20);
        let spec = FaultSpec::scenario("all")
            .expect("known scenario")
            .with_seed(fault_seed)
            .with_rate(0.02);
        let (fp1, ledger1) = faulted_fingerprint(traffic_seed, spec);
        let (fp2, ledger2) = faulted_fingerprint(traffic_seed, spec);
        ensure_eq!(fp1, fp2, "stats diverged for fault seed {fault_seed:#x}");
        ensure_eq!(
            ledger1,
            ledger2,
            "fault ledger diverged for fault seed {fault_seed:#x}"
        );
        Ok(())
    });
}

/// The GPU-owned classes (PCIe stalls, kernel aborts, stragglers) are
/// deterministic through the full CPU+GPU pipeline, fallbacks and all.
#[test]
fn gpu_fault_classes_replay_byte_identically() {
    let run = || {
        let mut cfg = RouterConfig::paper_gpu();
        cfg.faults = FaultSpec::scenario("all")
            .expect("known scenario")
            .with_seed(0xDECAF)
            .with_rate(0.05);
        let r = Router::run(
            cfg,
            workloads::ipv4_app(5_000, 1),
            TrafficSpec::ipv4_64b(30.0, 7),
            MILLIS,
        );
        let gpu_class = r.faults.pcie_stalls + r.faults.gpu_aborts + r.faults.gpu_stragglers;
        (report_fp(&r), r.faults.fingerprint(), gpu_class)
    };
    let (fp1, ledger1, gpu1) = run();
    let (fp2, ledger2, gpu2) = run();
    assert!(
        gpu1 > 0,
        "no GPU-class fault fired at 5% over a full window"
    );
    assert_eq!(fp1, fp2, "stats fingerprint");
    assert_eq!(ledger1, ledger2, "fault-ledger fingerprint");
    assert_eq!(gpu1, gpu2, "GPU-class fault counts");
}

/// A plan whose every rate is zero must be indistinguishable from no
/// plan at all: for random fault seeds, the run reproduces the pinned
/// seed-implementation fingerprint from tests/fastpath.rs *exactly*.
#[test]
fn rate_zero_plans_reproduce_pinned_fingerprints() {
    let cfg = Config {
        cases: 3,
        seed: 0xFA17_0000,
    };
    check_with("rate_zero_plans_reproduce_pinned_fingerprints", &cfg, |g| {
        let fault_seed = g.value::<u64>();
        let mut c = RouterConfig::paper_gpu();
        c.faults = FaultSpec::scenario("all")
            .expect("known scenario")
            .with_seed(fault_seed)
            .with_rate(0.0);
        let mut routes = vec![Route4::new(0, 1, 0), Route4::new(0x8000_0000, 1, 4)];
        routes.extend(synth::routeviews_like(2_000, 8, 3));
        let r = Router::run(
            c,
            Ipv4App::new(&routes),
            TrafficSpec::ipv4_64b(30.0, 5),
            MILLIS,
        );
        ensure_eq!(
            report_fp(&r),
            (34091, 23115, 2375, 0, 294911, 429719),
            "rate-0 plan perturbed the pinned ipv4 gpu fingerprint (fault seed {fault_seed:#x})"
        );
        ensure_eq!(r.faults.injected(), 0);
        ensure_eq!(r.faults.handled() + r.faults.dropped(), 0, "nonzero ledger");
        Ok(())
    });
}

// ---------------------------------------------------------------------------
// 3. GPU→CPU fallback parity (shrinking): faulted batches lose nothing.
// ---------------------------------------------------------------------------

/// The forwarding decisions a faulted batch gets from the CPU fallback
/// are exactly the decisions the GPU would have produced. Shrinks: a
/// violation is reported on a minimal batch.
#[test]
fn gpu_fallback_preserves_ipv4_decisions() {
    let mut routes = vec![Route4::new(0, 0, 0), Route4::new(0x0A00_0000, 8, 3)];
    routes.extend(synth::routeviews_like(500, 4, 9));
    let cfg = Config {
        cases: 12,
        seed: 0xFA11_BACC,
    };
    check_with("gpu_fallback_preserves_ipv4_decisions", &cfg, |g| {
        let n = g.len_in(1, 48);
        let pkts: Vec<Packet> = (0..n)
            .map(|i| {
                let f = PacketBuilder::udp_v4(
                    MacAddr::local(1),
                    MacAddr::local(2),
                    Ipv4Addr::new(10, 0, 0, 1),
                    Ipv4Addr::from(g.value::<u32>()),
                    1000 + i as u16,
                    53,
                    64,
                );
                Packet::new(i as u64, f, PortId(0), 0)
            })
            .collect();
        let mut cpu = Ipv4App::new(&routes);
        let mut gpu = Ipv4App::new(&routes);
        let (mut eng, mut ioh) = gpu_env();
        gpu.setup_gpu(0, &mut eng);

        let mut a = pkts.clone();
        cpu.pre_shade(&mut a);
        cpu.process_cpu(&mut a);
        let mut b = pkts;
        gpu.pre_shade(&mut b);
        gpu.shade(0, &mut eng, &mut ioh, 0, &mut b);

        let decided: BTreeMap<u64, Option<PortId>> = a.iter().map(|p| (p.id, p.out_port)).collect();
        for p in &b {
            let via_cpu = decided.get(&p.id).copied().flatten();
            ensure_eq!(p.out_port, via_cpu, "decision differs for packet {}", p.id);
        }
        Ok(())
    });
}

/// Same property for IPsec, where parity must hold down to the bytes:
/// ciphertext and ICV from the fallback match the GPU's bit for bit.
#[test]
fn gpu_fallback_preserves_ipsec_ciphertext() {
    let cfg = Config {
        cases: 16,
        seed: 0x0FA1_1E5B,
    };
    check_with("gpu_fallback_preserves_ipsec_ciphertext", &cfg, |g| {
        let n = g.len_in(1, 12);
        let pkts: Vec<Packet> = (0..n)
            .map(|i| {
                let len = g.int_in(60usize..=300);
                let f = PacketBuilder::udp_v4(
                    MacAddr::local(1),
                    MacAddr::local(2),
                    Ipv4Addr::new(10, 0, 0, 1),
                    Ipv4Addr::new(10, 0, 0, 2),
                    1000 + i as u16,
                    2000,
                    len,
                );
                Packet::new(i as u64, f, PortId(0), 0)
            })
            .collect();
        let mut cpu = IpsecApp::new([0x33; 16], 0xFEED, b"fallback-parity-key");
        let mut gpu = IpsecApp::new([0x33; 16], 0xFEED, b"fallback-parity-key");
        let (mut eng, mut ioh) = gpu_env();
        gpu.setup_gpu(0, &mut eng);

        let mut a = pkts.clone();
        cpu.pre_shade(&mut a);
        cpu.process_cpu(&mut a);
        let mut b = pkts;
        gpu.pre_shade(&mut b);
        gpu.shade(0, &mut eng, &mut ioh, 0, &mut b);

        ensure_eq!(a.len(), b.len(), "batch sizes diverged");
        for (x, y) in a.iter().zip(b.iter()) {
            ensure_eq!(x.out_port, y.out_port, "out port of packet {}", x.id);
            ensure!(x.data == y.data, "ciphertext differs for packet {}", x.id);
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------------
// 4. Graceful degradation end to end: all faults, every app, full router.
// ---------------------------------------------------------------------------

fn assert_degrades(name: &str, r: &RouterReport) {
    assert!(
        r.delivered.packets > 0,
        "{name}: zero throughput under 1% faults"
    );
    assert!(r.faults.injected() > 0, "{name}: armed plan never fired");
    assert!(
        r.faults.reconciles(),
        "{name}: ledger does not reconcile\n{}",
        r.faults.summary_table()
    );
}

/// The acceptance run: every application, both modes, the `all`
/// scenario at its headline 1% rate — nonzero throughput, zero
/// panics, and `injected == handled + dropped` holds exactly.
#[test]
fn every_app_degrades_gracefully_under_all_faults() {
    let base = FaultSpec::scenario("all").expect("known scenario");
    let spec4 = |seed| TrafficSpec {
        kind: TrafficKind::Ipv4Udp,
        frame_len: 64,
        offered_bits: 20_000_000_000,
        ports: 8,
        seed,
        flows: None,
        ..TrafficSpec::default()
    };
    let mut cell = 0u64;
    for mode in ["cpu", "gpu"] {
        let cfg_for = |c: &mut u64| {
            let mut cfg = if mode == "cpu" {
                RouterConfig::paper_cpu()
            } else {
                RouterConfig::paper_gpu()
            };
            // Per-cell derived seeds, like the ps-bench sweep: short
            // windows sample only a prefix of each class's stream, and
            // identical prefixes would correlate what fires where.
            cfg.faults = base.with_seed(base.seed ^ c.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            *c += 1;
            cfg
        };

        let r = Router::run(
            cfg_for(&mut cell),
            workloads::ipv4_app(10_000, 1),
            spec4(11),
            MILLIS,
        );
        assert_degrades(&format!("ipv4/{mode}"), &r);

        let mut s6 = spec4(12);
        s6.kind = TrafficKind::Ipv6Udp;
        s6.frame_len = 78;
        let r = Router::run(
            cfg_for(&mut cell),
            workloads::ipv6_app(5_000, 2),
            s6,
            MILLIS,
        );
        assert_degrades(&format!("ipv6/{mode}"), &r);

        let mut sof = spec4(13);
        sof.flows = Some(512);
        let r = Router::run(
            cfg_for(&mut cell),
            workloads::openflow_app(&sof, 512, 16),
            sof,
            MILLIS,
        );
        assert_degrades(&format!("openflow/{mode}"), &r);

        let r = Router::run(
            cfg_for(&mut cell),
            IpsecApp::new([0x42; 16], 0xD00D, b"degradation-key"),
            spec4(14),
            MILLIS,
        );
        assert_degrades(&format!("ipsec/{mode}"), &r);
    }
}

/// Every fired fault leaves a trace: armed runs emit
/// `Category::Fault` instants, unarmed runs emit none at all.
#[test]
fn fault_trace_instants_track_the_plan() {
    let run = |faults: FaultSpec| {
        let mut cfg = RouterConfig::paper_gpu();
        cfg.faults = faults;
        ps_bench::trace::traced(TraceConfig::all(), || {
            Router::run(
                cfg,
                workloads::ipv4_app(2_000, 1),
                TrafficSpec::ipv4_64b(20.0, 9),
                MILLIS / 2,
            )
        })
    };

    let (report, collector) = run(FaultSpec::scenario("all").expect("known scenario"));
    let (events, _) = collector.resolved();
    let fault_events: Vec<_> = events.iter().filter(|e| e.cat == Category::Fault).collect();
    assert!(report.faults.injected() > 0, "armed plan never fired");
    assert!(!fault_events.is_empty(), "fired faults left no trace");
    assert!(
        fault_events
            .iter()
            .all(|e| matches!(e.phase, Phase::Instant)),
        "fault events must be instants"
    );

    let (report, collector) = run(FaultSpec::none());
    let (events, _) = collector.resolved();
    assert_eq!(report.faults.injected(), 0);
    assert_eq!(
        events.iter().filter(|e| e.cat == Category::Fault).count(),
        0,
        "fault-free run emitted fault events"
    );
}
