//! The five workloads. Each fixes an application, a router
//! configuration, a traffic spec (only its seed varies) and a
//! *virtual* duration — host cost is super-linear in simulated time,
//! so the durations are part of the definition and never float.

use ps_bench::workloads::ipv4_routes_paper;
use ps_core::apps::{ForwardPattern, IpsecApp, Ipv4App, MinimalApp, NatApp};
use ps_core::{App, RouterConfig};
use ps_crypto::esp::{decrypt_tunnel, SecurityAssociation};
use ps_io::Packet;
use ps_lookup::route::{lpm4, Route4};
use ps_net::ethernet::HEADER_LEN as ETH_LEN;
use ps_net::ipv4::{Ipv4Packet, HEADER_LEN as IP_LEN};
use ps_net::udp::UdpDatagram;
use ps_nic::port::PortId;
use ps_pktgen::{TrafficKind, TrafficSpec};
use ps_sim::time::Time;
use ps_sim::MILLIS;

use crate::probes;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 5] = [
    "ipv4-64B-gpu-knee",
    "ipv4-64B-gpu-overload",
    "ipsec-1514B-gpu",
    "nat-imix-cpu",
    "minimal-64B-cpu",
];

/// Seed of the synthetic RouteViews table. Table seeds stay fixed;
/// `--seed` moves only the traffic.
const TABLE_SEED: u64 = 1;

/// One benchmark workload.
pub trait Workload {
    type App: App + Send;

    fn name(&self) -> &'static str;
    fn cfg(&self) -> RouterConfig;
    /// The offered traffic; `seed` is the only free input.
    fn spec(&self, seed: u64) -> TrafficSpec;
    /// Virtual time one repeat simulates.
    fn duration(&self) -> Time;
    /// A fresh application (timed as set-up).
    fn app(&self) -> Self::App;
    /// How many of the workload's first packets the micro-probes use.
    fn probe_packets(&self) -> usize {
        65_536
    }
    /// Check one forwarded packet against a reference that shares no
    /// code with the application's lookup/transform path. `out` is
    /// what `pre_shade` + `process_cpu` produced for `input`, or
    /// `None` if they dropped it.
    fn reference(&self, input: &Packet, out: Option<&Packet>) -> Result<(), String>;
    /// Micro-probes of the layers only this workload has objects for,
    /// as `(metric name, value)`, over its first packets.
    fn layer_probes(&self, _pkts: &[Packet]) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

fn fixed(frame_len: usize, gbps: f64, seed: u64) -> TrafficSpec {
    TrafficSpec {
        kind: TrafficKind::Ipv4Udp,
        frame_len,
        offered_bits: (gbps * 1e9) as u64,
        seed,
        ..TrafficSpec::default()
    }
}

fn ip(data: &[u8]) -> Result<Ipv4Packet<&[u8]>, String> {
    let l3 = data.get(ETH_LEN..).ok_or("frame shorter than Ethernet")?;
    Ipv4Packet::new_checked(l3).map_err(|e| format!("IPv4 parse: {e:?}"))
}

fn require(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

/// `Ipv4App` over the full 282,797-prefix table at a fixed offered
/// load. Knee and overload differ only in that load and the duration.
pub struct Ipv4Gpu {
    name: &'static str,
    gbps: f64,
    duration: Time,
    routes: Vec<Route4>,
}

impl Ipv4Gpu {
    /// 38 Gbps, just under the ~40 Gbps ceiling: the paper's headline
    /// operating point (Fig. 11a). Small batches and many wake-ups.
    pub fn knee() -> Ipv4Gpu {
        Ipv4Gpu::with_routes(NAMES[0], 38.0, 25 * MILLIS, ipv4_routes_paper(TABLE_SEED))
    }

    /// 80 Gbps, twice the ceiling: half the load dies at NIC
    /// admission, large gathers. The load `BENCH_baseline.json` uses.
    pub fn overload() -> Ipv4Gpu {
        Ipv4Gpu::with_routes(NAMES[1], 80.0, 30 * MILLIS, ipv4_routes_paper(TABLE_SEED))
    }

    /// The same workload over any route list (tests use a small one).
    pub fn with_routes(
        name: &'static str,
        gbps: f64,
        duration: Time,
        routes: Vec<Route4>,
    ) -> Ipv4Gpu {
        Ipv4Gpu {
            name,
            gbps,
            duration,
            routes,
        }
    }
}

impl Workload for Ipv4Gpu {
    type App = Ipv4App;

    fn name(&self) -> &'static str {
        self.name
    }
    fn cfg(&self) -> RouterConfig {
        RouterConfig::paper_gpu()
    }
    fn spec(&self, seed: u64) -> TrafficSpec {
        fixed(64, self.gbps, seed)
    }
    fn duration(&self) -> Time {
        self.duration
    }
    fn app(&self) -> Ipv4App {
        Ipv4App::new(&self.routes)
    }

    fn reference(&self, input: &Packet, out: Option<&Packet>) -> Result<(), String> {
        let out = out.ok_or("dropped a routable packet")?;
        let (before, after) = (ip(&input.data)?, ip(&out.data)?);
        require(
            after.verify_checksum(),
            "header checksum invalid after TTL update",
        )?;
        require(
            after.ttl() + 1 == before.ttl(),
            "TTL not decremented by one",
        )?;
        require(after.dst() == before.dst(), "destination rewritten")?;
        require(
            out.data[ETH_LEN + IP_LEN..] == input.data[ETH_LEN + IP_LEN..],
            "payload changed",
        )?;
        // `lpm4` is a linear scan over all 282,799 routes, so only
        // every eighth packet pays for it.
        if input.id.is_multiple_of(8) {
            let want = lpm4(&self.routes, u32::from(before.dst())).map(PortId);
            require(
                out.out_port == want,
                "next hop disagrees with linear-scan LPM",
            )?;
        }
        Ok(())
    }

    fn layer_probes(&self, pkts: &[Packet]) -> Vec<(&'static str, f64)> {
        let app = self.app();
        vec![(
            "lookup.dir24_ns",
            probes::dir24(|dst| app.lookup_host(dst), pkts),
        )]
    }
}

/// The gateway with the static keys `BENCH_baseline.json` uses.
fn ipsec_app() -> IpsecApp {
    IpsecApp::new([0x42; 16], 0xD00D, b"ps-bench-hmac-key")
}

/// `IpsecApp` at 1514 B: per-byte work (AES-CTR + HMAC-SHA1 inside
/// `App::shade`) dominates; framework changes should barely move it.
pub struct IpsecGpu {
    /// The decrypting peer of the gateway's static SA.
    peer: SecurityAssociation,
}

impl IpsecGpu {
    pub fn new() -> IpsecGpu {
        IpsecGpu {
            peer: ipsec_app().peer_sa(),
        }
    }
}

impl Workload for IpsecGpu {
    type App = IpsecApp;

    fn name(&self) -> &'static str {
        NAMES[2]
    }
    fn cfg(&self) -> RouterConfig {
        RouterConfig {
            concurrent_copy: true, // §5.4: streams pay off for IPsec
            ..RouterConfig::paper_gpu()
        }
    }
    fn spec(&self, seed: u64) -> TrafficSpec {
        fixed(1514, 20.0, seed)
    }
    fn duration(&self) -> Time {
        250 * MILLIS
    }
    fn app(&self) -> IpsecApp {
        ipsec_app()
    }
    fn probe_packets(&self) -> usize {
        // 65,536 × 1514 B would be 99 MB of frames and ~3 s of crypto
        // per probe batch.
        4_096
    }

    fn reference(&self, input: &Packet, out: Option<&Packet>) -> Result<(), String> {
        let out = out.ok_or("dropped an encryptable packet")?;
        require(
            out.out_port == Some(PortId(input.in_port.0 ^ 1)),
            "tunnel out port is not the in-port's pair",
        )?;
        let outer = ip(&out.data)?;
        require(outer.verify_checksum(), "outer header checksum invalid")?;
        let inner = decrypt_tunnel(&self.peer, outer.payload())
            .map_err(|e| format!("peer SA rejects the tunnel packet: {e:?}"))?;
        require(
            inner == input.data[ETH_LEN..],
            "decrypted inner packet differs from the input",
        )
    }

    fn layer_probes(&self, pkts: &[Packet]) -> Vec<(&'static str, f64)> {
        vec![(
            "crypto.esp_ns_per_byte",
            probes::esp(|| ipsec_app().peer_sa(), pkts),
        )]
    }
}

/// `NatApp` in CPU-only mode under IMIX with 65,536 heavy-tailed
/// keyed flows: no master, no GPU, no staging — the bypass workload
/// for every GPU-side change. The flow working set is far above the
/// 512-flow default the repo's NFV experiments use.
pub struct NatCpu;

impl Workload for NatCpu {
    type App = NatApp;

    fn name(&self) -> &'static str {
        NAMES[3]
    }
    fn cfg(&self) -> RouterConfig {
        RouterConfig::paper_cpu()
    }
    fn spec(&self, seed: u64) -> TrafficSpec {
        TrafficSpec::imix(30.0, seed).with_heavy_tail(65_536, 3)
    }
    fn duration(&self) -> Time {
        250 * MILLIS
    }
    fn app(&self) -> NatApp {
        NatApp::new(8, 2, 1 << 20, 0)
    }

    fn reference(&self, input: &Packet, out: Option<&Packet>) -> Result<(), String> {
        let out = out.ok_or("dropped a translatable packet")?;
        require(
            out.out_port == Some(PortId(input.in_port.0 ^ 1)),
            "out port is not the in-port's pair",
        )?;
        require(out.data.len() == input.data.len(), "frame length changed")?;
        let (before, after) = (ip(&input.data)?, ip(&out.data)?);
        require(
            after.verify_checksum(),
            "header checksum invalid after rewrite",
        )?;
        require(after.dst() == before.dst(), "destination rewritten")?;
        // Node-private external pools: 203.113.0.0/16 for node 0,
        // 203.114.0.0/16 for node 1 (ports 0-3 / 4-7).
        let node = u32::from(input.in_port.0 / 4);
        let src = u32::from(after.src());
        require(
            src >> 16 == (0xCB71_0000u32 >> 16) + node,
            "translated source outside the RX node's external pool",
        )?;
        let (udp_before, udp_after) = (
            UdpDatagram::new_checked(before.payload()).map_err(|e| format!("{e:?}"))?,
            UdpDatagram::new_checked(after.payload()).map_err(|e| format!("{e:?}"))?,
        );
        require(udp_after.src_port() >= 1024, "external port below 1024")?;
        require(
            udp_after.dst_port() == udp_before.dst_port(),
            "destination port rewritten",
        )?;
        require(
            udp_after.verify_checksum_v4(after.src().octets(), after.dst().octets()),
            "UDP checksum invalid after incremental update",
        )?;
        require(
            udp_after.payload() == udp_before.payload(),
            "payload changed",
        )
    }

    fn layer_probes(&self, pkts: &[Packet]) -> Vec<(&'static str, f64)> {
        let (hit, insert) = probes::flow_cache(pkts);
        vec![("flow.lookup_hit_ns", hit), ("flow.insert_ns", insert)]
    }
}

/// `MinimalApp` in CPU-only mode at 64 B: pktgen → NIC → ring →
/// worker → TX → sink and the scheduler, with no application work.
pub struct MinimalCpu;

impl Workload for MinimalCpu {
    type App = MinimalApp;

    fn name(&self) -> &'static str {
        NAMES[4]
    }
    fn cfg(&self) -> RouterConfig {
        RouterConfig::paper_cpu()
    }
    fn spec(&self, seed: u64) -> TrafficSpec {
        fixed(64, 30.0, seed)
    }
    fn duration(&self) -> Time {
        125 * MILLIS
    }
    fn app(&self) -> MinimalApp {
        MinimalApp::new(ForwardPattern::SameNode, 8)
    }

    fn reference(&self, input: &Packet, out: Option<&Packet>) -> Result<(), String> {
        let out = out.ok_or("dropped a packet")?;
        require(
            out.out_port == Some(PortId(input.in_port.0 ^ 1)),
            "out port is not the in-port's pair",
        )?;
        require(
            out.data == input.data,
            "minimal forwarding changed the frame",
        )?;
        require(ip(&out.data)?.verify_checksum(), "header checksum invalid")
    }

    fn layer_probes(&self, _pkts: &[Packet]) -> Vec<(&'static str, f64)> {
        vec![("shard.x2_wall_ratio", probes::shard_x2_wall_ratio())]
    }
}
