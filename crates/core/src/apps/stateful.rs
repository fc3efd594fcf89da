//! The shared packet program of the stateful NFs (NAT and the L4
//! load balancer): 5-tuple extraction, the flow-hash offload, the
//! per-node flow caches, and incremental header rewrites.
//!
//! Both NFs follow the same offload split as OpenFlow (§6.2.3): the
//! GPU computes the per-packet flow hash over the staged canonical
//! tuple bytes, and the host applies the stateful table operation in
//! arrival order with the hash precomputed — so the CPU path and the
//! GPU path run the *same* table code on the *same* hash function and
//! stay functionally identical. [`FlowNf`] is that program, written
//! once; an NF is its [`FlowOp`] — the table operation and the state
//! it keeps besides the cache.
//!
//! State is partitioned by *RX NUMA node* (`in_port / ports_per_node`)
//! — never global — which is what makes replicated execution
//! deterministic: each node's packet order is identical in sequential
//! and sharded runs, so each node's table evolves identically
//! (DESIGN.md §10.3). Translated packets leave through the node-local
//! port pair, so both NFs replicate per node
//! ([`ShardAffinity::NodeLocal`]).

use std::ops::{Deref, DerefMut};

use ps_flow::{FlowCache, FlowCacheStats, FlowTuple};
use ps_gpu::{GpuEngine, Kernel};
use ps_io::Packet;
use ps_net::ethernet::HEADER_LEN as ETH_LEN;
use ps_net::ipv4::protocol;
use ps_net::verdict::{SlowPathReason, Verdict};
use ps_net::{checksum, classify, EtherType, EthernetFrame, Ipv4Packet, TcpSegment, UdpDatagram};
use ps_sim::time::Time;

use crate::app::ShardAffinity;
use crate::columns::{ColumnSet, FLOW_COLUMNS};
use crate::kernels::{FlowHashKernel, KernelIo};
use crate::program::{ColumnProgram, Lookahead};

/// Flow-hash cost on the CPU path (the work the GPU absorbs).
const HASH_CYCLES: u64 = 160;
/// Cuckoo probe (two buckets, LLC-resident ways).
pub(super) const PROBE_CYCLES: u64 = 60;
/// Header rewrite + incremental checksum updates.
pub(super) const REWRITE_CYCLES: u64 = 45;
/// Per-relocation cost when an insert kicks residents around.
pub(super) const KICK_CYCLES: u64 = 35;

/// What distinguishes one stateful NF from another: the table
/// operation applied to each packet, over the value type its flow
/// cache pins.
pub trait FlowOp: Sized {
    /// What the flow cache stores per flow.
    type Entry: Copy;
    /// Application name for reports.
    const NAME: &'static str;

    /// Process one packet of RX node `node` against that node's
    /// `cache`, with the packet's flow hash already computed: look
    /// up / insert / release, rewrite the headers, set `out_port`.
    /// Returns the cycle charge.
    fn op(
        &mut self,
        cache: &mut FlowCache<Self::Entry>,
        node: usize,
        p: &mut Packet,
        pf: &ParsedFlow,
        hash: u64,
    ) -> u64;

    /// Node `node`'s cache was flushed by a GPU fault; drop whatever
    /// side state was synchronized with it.
    fn state_lost(&mut self, _node: usize) {}

    /// A fresh, equivalent (pre-run) copy for one shard of a parallel
    /// run.
    fn replica(&self) -> Self;
}

/// The stateful-NF packet program: a 16-byte canonical 5-tuple column
/// in, a flow-hash column out, and `O`'s table operation applied on
/// the host against per-RX-node flow caches. Dereferences to the
/// operation, so NF-specific counters and controls stay reachable.
pub struct FlowNf<O: FlowOp> {
    pub(super) op: O,
    pub(super) per_node: Vec<FlowCache<O::Entry>>,
    ports_per_node: u16,
}

impl<O: FlowOp> FlowNf<O> {
    /// `op` for a machine with `total_ports` ports split over `nodes`
    /// NUMA nodes, keeping up to `capacity` flows per node that
    /// expire after `idle_ns` of virtual-clock silence (`0` = never).
    pub(super) fn new(
        op: O,
        total_ports: u16,
        nodes: usize,
        capacity: usize,
        idle_ns: Time,
    ) -> FlowNf<O> {
        assert!(nodes > 0 && total_ports as usize >= nodes * 2);
        FlowNf {
            op,
            per_node: (0..nodes)
                .map(|_| FlowCache::new(capacity, idle_ns))
                .collect(),
            ports_per_node: total_ports / nodes as u16,
        }
    }

    /// The RX node whose state `p` touches.
    fn node(&self, p: &Packet) -> usize {
        (p.in_port.0 / self.ports_per_node) as usize % self.per_node.len()
    }

    /// Live flow entries across all nodes.
    pub fn occupancy(&self) -> usize {
        self.per_node.iter().map(FlowCache::occupancy).sum()
    }

    /// Flow-cache counters summed over nodes.
    pub fn cache_stats(&self) -> FlowCacheStats {
        let mut s = FlowCacheStats::default();
        for c in &self.per_node {
            s.merge(c.stats());
        }
        s
    }
}

impl<O: FlowOp> Deref for FlowNf<O> {
    type Target = O;
    fn deref(&self) -> &O {
        &self.op
    }
}

impl<O: FlowOp> DerefMut for FlowNf<O> {
    fn deref_mut(&mut self) -> &mut O {
        &mut self.op
    }
}

impl<O: FlowOp> ColumnProgram for FlowNf<O> {
    type Key = ParsedFlow;
    type Row = u64;
    type Tables = ();

    const NAME: &'static str = O::NAME;
    const COLUMNS: ColumnSet = FLOW_COLUMNS;
    /// Classification + 5-tuple parse.
    const PRE_SHADE_CYCLES: u64 = 70;

    fn admit(&self, p: &mut Packet) -> Verdict {
        match classify(&p.data, &[]) {
            // Non-IPv4 / non-UDP/TCP traffic is not translated; the
            // host stack handles it.
            Verdict::FastPath if parse_flow(&p.data).is_none() => {
                Verdict::SlowPath(SlowPathReason::NonIp)
            }
            v => v,
        }
    }

    fn key(&self, p: &Packet, slot: &mut [u8]) -> Option<ParsedFlow> {
        let pf = parse_flow(&p.data)?;
        // 13 canonical tuple bytes + 3 pad, so device reads stay
        // 4-aligned.
        slot[..13].copy_from_slice(&ps_flow::tuple_bytes(&pf.tuple));
        Some(pf)
    }

    fn upload_tables(&self, _eng: &mut GpuEngine) {}

    fn kernel<'a>(&'a self, _tables: &'a (), io: KernelIo) -> impl Kernel + 'a {
        FlowHashKernel { io }
    }

    fn decode(row: &[u8]) -> u64 {
        u64::from_le_bytes(row.try_into().expect("fixed"))
    }

    fn host(&self, slot: &[u8]) -> (u64, u64) {
        let key = slot[..13].try_into().expect("16 B column");
        (ps_flow::flow_hash_bytes(key), HASH_CYCLES)
    }

    fn apply(&mut self, p: &mut Packet, pf: ParsedFlow, hash: u64) -> u64 {
        let node = self.node(p);
        self.op.op(&mut self.per_node[node], node, p, &pf, hash)
    }

    fn prefetch(&self, p: &Packet, &hash: &u64, stage: Lookahead) {
        let cache = &self.per_node[self.node(p)];
        match stage {
            Lookahead::Far => cache.prefetch_bucket(hash),
            Lookahead::Near => cache.prefetch_entry(hash),
        }
    }

    fn post_shade_cycles(&self, n: usize) -> u64 {
        (PROBE_CYCLES + REWRITE_CYCLES) * n as u64
    }

    fn shaded(&self, node: usize, done: Time) {
        let cache = &self.per_node[node];
        let st = cache.stats();
        for (name, value) in [
            ("flow_occupancy", cache.occupancy() as u64),
            ("flow_evictions", st.evictions),
            ("flow_expiries", st.expiries),
            ("flow_kick_depth", st.max_depth),
        ] {
            ps_trace::counter(ps_trace::Category::Flow, name, node as u32, done, value);
        }
    }

    fn on_gpu_fault(&mut self, node: usize) {
        // The device context reset takes the node's synchronized flow
        // state with it: every entry is lost, flows re-establish
        // through the miss path.
        if let Some(cache) = self.per_node.get_mut(node) {
            cache.flush();
            self.op.state_lost(node);
        }
    }

    fn replica(&self) -> Option<(Self, ShardAffinity)> {
        let fresh = |c: &FlowCache<_>| FlowCache::new(c.capacity(), c.idle_timeout());
        let replica = FlowNf {
            op: self.op.replica(),
            per_node: self.per_node.iter().map(fresh).collect(),
            ports_per_node: self.ports_per_node,
        };
        Some((replica, ShardAffinity::NodeLocal))
    }
}

/// Byte offsets of the IPv4 fields the rewrites patch (no options on
/// the fast path, so the layout is fixed).
const IP_CKSUM: usize = ETH_LEN + 10;
const IP_SRC: usize = ETH_LEN + 12;
const IP_DST: usize = ETH_LEN + 16;

/// A parsed fast-path flow: the cuckoo key plus what the rewrite and
/// the connection tracker need.
#[derive(Debug, Clone, Copy)]
pub struct ParsedFlow {
    /// The 5-tuple `(src, dst, sport, dport, proto)`.
    pub tuple: FlowTuple,
    /// Byte offset of the L4 header within the frame.
    pub l4: usize,
    /// Raw TCP flag byte (`0` for UDP).
    pub tcp_flags: u8,
}

/// Extract the 5-tuple of an IPv4 UDP/TCP frame. Anything else —
/// IPv6, other protocols, truncated L4 headers — returns [`None`]:
/// the stateful NFs divert those to the slow path.
pub(super) fn parse_flow(data: &[u8]) -> Option<ParsedFlow> {
    let eth = EthernetFrame::new_checked(data).ok()?;
    if eth.ethertype() != EtherType::Ipv4 {
        return None;
    }
    let ip = Ipv4Packet::new_checked(eth.payload()).ok()?;
    if ip.has_options() {
        return None;
    }
    let proto = ip.protocol();
    let (sport, dport, tcp_flags) = match proto {
        protocol::UDP => {
            let u = UdpDatagram::new_checked(ip.payload()).ok()?;
            (u.src_port(), u.dst_port(), 0)
        }
        protocol::TCP => {
            let t = TcpSegment::new_checked(ip.payload()).ok()?;
            (t.src_port(), t.dst_port(), t.flags().0)
        }
        _ => return None,
    };
    Some(ParsedFlow {
        tuple: (
            u32::from(ip.src()),
            u32::from(ip.dst()),
            sport,
            dport,
            proto,
        ),
        l4: ETH_LEN + ps_net::ipv4::HEADER_LEN,
        tcp_flags,
    })
}

fn read16(data: &[u8], off: usize) -> u16 {
    u16::from_be_bytes([data[off], data[off + 1]])
}

fn write16(data: &mut [u8], off: usize, v: u16) {
    data[off..off + 2].copy_from_slice(&v.to_be_bytes());
}

/// Fold a 32-bit address change into a 16-bit checksum (two RFC 1624
/// halfword updates).
fn update_addr(ck: u16, old: u32, new: u32) -> u16 {
    let ck = checksum::update16(ck, (old >> 16) as u16, (new >> 16) as u16);
    checksum::update16(ck, old as u16, new as u16)
}

/// Offset of the L4 checksum field, if the frame carries one that
/// must track the pseudo-header (a UDP checksum of 0 means "none").
fn l4_cksum_off(data: &[u8], l4: usize, proto: u8) -> Option<usize> {
    match proto {
        protocol::TCP => Some(l4 + 16),
        protocol::UDP if read16(data, l4 + 6) != 0 => Some(l4 + 6),
        _ => None,
    }
}

/// Rewrite one address + port pair (source for SNAT, destination for
/// the load balancer's DNAT), updating the IP header checksum and the
/// L4 checksum incrementally — never a full re-sum.
fn rewrite(
    data: &mut [u8],
    l4: usize,
    proto: u8,
    addr_off: usize,
    port_off: usize,
    ip: u32,
    port: u16,
) {
    let old_ip = u32::from_be_bytes(data[addr_off..addr_off + 4].try_into().expect("fixed"));
    let old_port = read16(data, port_off);
    data[addr_off..addr_off + 4].copy_from_slice(&ip.to_be_bytes());
    write16(data, port_off, port);
    let ipck = update_addr(read16(data, IP_CKSUM), old_ip, ip);
    write16(data, IP_CKSUM, ipck);
    if let Some(off) = l4_cksum_off(data, l4, proto) {
        // The addresses feed the pseudo-header sum; the port is a
        // covered payload halfword.
        let ck = update_addr(read16(data, off), old_ip, ip);
        let mut ck = checksum::update16(ck, old_port, port);
        if proto == protocol::UDP && ck == 0 {
            ck = 0xFFFF; // RFC 768: computed 0 transmits as 0xFFFF
        }
        write16(data, off, ck);
    }
}

/// SNAT: rewrite the source address and port.
pub(super) fn rewrite_src(data: &mut [u8], pf: &ParsedFlow, ip: u32, port: u16) {
    rewrite(data, pf.l4, pf.tuple.4, IP_SRC, pf.l4, ip, port);
}

/// DNAT: rewrite the destination address and port.
pub(super) fn rewrite_dst(data: &mut [u8], pf: &ParsedFlow, ip: u32, port: u16) {
    rewrite(data, pf.l4, pf.tuple.4, IP_DST, pf.l4 + 2, ip, port);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{Backend, LbApp, NatApp};
    use crate::program::ColumnApp;
    use crate::App;
    use ps_check::{check, ensure_eq, Gen};
    use ps_gpu::GpuDevice;
    use ps_hw::ioh::Ioh;
    use ps_hw::pcie::PcieModel;
    use ps_hw::spec::{IohSpec, PcieSpec};
    use ps_net::ethernet::MacAddr;
    use ps_net::tcp::TcpFlags;
    use ps_net::PacketBuilder;
    use ps_nic::port::PortId;
    use std::net::Ipv4Addr;

    fn udp_frame() -> Vec<u8> {
        PacketBuilder::udp_v4(
            MacAddr::local(1),
            MacAddr::local(2),
            Ipv4Addr::new(10, 1, 2, 3),
            Ipv4Addr::new(192, 168, 9, 9),
            4000,
            53,
            96,
        )
    }

    #[test]
    fn parses_the_5_tuple() {
        let pf = parse_flow(&udp_frame()).expect("udp parses");
        assert_eq!(pf.tuple, (0x0A010203, 0xC0A80909, 4000, 53, protocol::UDP));
        assert_eq!(pf.tcp_flags, 0);
    }

    #[test]
    fn rejects_non_ip_and_non_l4() {
        let mut arp = udp_frame();
        arp[12..14].copy_from_slice(&0x0806u16.to_be_bytes());
        assert!(parse_flow(&arp).is_none());
        let mut icmp = udp_frame();
        {
            let mut ip = Ipv4Packet::new_unchecked(&mut icmp[ETH_LEN..]);
            ip.set_protocol(protocol::ICMP);
            ip.fill_checksum();
        }
        assert!(parse_flow(&icmp).is_none());
    }

    #[test]
    fn incremental_rewrites_keep_checksums_valid() {
        let mut f = udp_frame();
        let pf = parse_flow(&f).expect("parses");
        rewrite_src(&mut f, &pf, 0xCB007101, 61_234);
        let ip = Ipv4Packet::new_unchecked(&f[ETH_LEN..]);
        assert_eq!(u32::from(ip.src()), 0xCB007101);
        assert!(ip.verify_checksum(), "IP checksum tracks the rewrite");
        let udp = UdpDatagram::new_unchecked(&f[pf.l4..]);
        assert_eq!(udp.src_port(), 61_234);
        assert!(
            udp.verify_checksum_v4(0xCB007101u32.to_be_bytes(), ip.dst().octets()),
            "UDP checksum tracks the pseudo-header"
        );

        let mut g = udp_frame();
        let pf = parse_flow(&g).expect("parses");
        rewrite_dst(&mut g, &pf, 0x0A0A0A0A, 8080);
        let ip = Ipv4Packet::new_unchecked(&g[ETH_LEN..]);
        assert_eq!(u32::from(ip.dst()), 0x0A0A0A0A);
        assert!(ip.verify_checksum());
        let udp = UdpDatagram::new_unchecked(&g[pf.l4..]);
        assert_eq!(udp.dst_port(), 8080);
        assert!(udp.verify_checksum_v4(ip.src().octets(), 0x0A0A0A0Au32.to_be_bytes()));
    }

    /// Flow `f`'s packet with TCP flags `flags` (UDP when `None`),
    /// arriving on `in_port` at `arrival`; `damaged` truncates it
    /// inside the IP header, so it no longer parses.
    fn flow_packet(
        f: u32,
        flags: Option<u8>,
        in_port: u16,
        arrival: Time,
        damaged: bool,
    ) -> Packet {
        let (sport, dport) = (1024 + (f % 7) as u16, 80 + (f % 3) as u16);
        let mut data = PacketBuilder::udp_v4(
            MacAddr::local(1),
            MacAddr::local(2),
            Ipv4Addr::from(0x0A00_0000 + f / 21),
            Ipv4Addr::new(198, 51, 100, 1),
            sport,
            dport,
            74,
        );
        if let Some(flags) = flags {
            let mut ip = Ipv4Packet::new_unchecked(&mut data[ETH_LEN..]);
            ip.set_protocol(protocol::TCP);
            ip.fill_checksum();
            let l4 = ETH_LEN + ps_net::ipv4::HEADER_LEN;
            data[l4 + 4..].fill(0);
            data[l4 + 12] = 5 << 4; // data offset
            data[l4 + 13] = flags;
        }
        if damaged {
            data.truncate(ETH_LEN + 10);
        }
        let mut p = Packet::new(0, data, PortId(in_port), 0);
        p.arrival = arrival;
        p
    }

    /// What a run leaves behind that apply order could change: each
    /// packet's frame and out port, then the cache counters, the
    /// occupancy and the app's lookup and malformed counts.
    type Outcome = (
        Vec<(Vec<u8>, Option<PortId>)>,
        (FlowCacheStats, usize, u64, u64),
    );

    /// Feed `batches` to `app` through `process_cpu`, or through
    /// `shade` on one GPU node.
    fn run<O: FlowOp>(
        mut app: ColumnApp<FlowNf<O>>,
        gpu: bool,
        batches: &[Vec<Packet>],
    ) -> Outcome {
        let mut eng = GpuEngine::new(
            GpuDevice::gtx480_with_mem(16 << 20),
            PcieModel::new(PcieSpec::dual_ioh_x16()),
        );
        let mut ioh = Ioh::new(IohSpec::intel_5520_dual());
        if gpu {
            app.setup_gpu(0, &mut eng);
        }
        let mut frames = Vec::new();
        for batch in batches {
            let mut batch = batch.clone();
            if gpu {
                app.shade(0, &mut eng, &mut ioh, 0, &mut batch);
            } else {
                app.process_cpu(&mut batch);
            }
            frames.extend(batch.into_iter().map(|p| (p.data, p.out_port)));
        }
        let counts = (
            app.cache_stats(),
            app.occupancy(),
            app.lookups,
            app.malformed,
        );
        (frames, counts)
    }

    /// NAT and LB over tiny per-node tables (kicks, LRU eviction and,
    /// with the idle timeout on, expiry all happen), UDP and TCP
    /// traffic with SYN, ACK, FIN and RST and a few damaged frames,
    /// in batches of 1–70 packets, so the apply loop's lookahead runs
    /// past both ends of a batch: one batch through `process_cpu` or
    /// `shade` leaves the same frames, out ports, counters and
    /// occupancy as the same packets fed one per call.
    #[test]
    fn batch_applies_like_one_packet_at_a_time() {
        let flags = [
            TcpFlags::SYN,
            TcpFlags::ACK,
            TcpFlags::ACK | TcpFlags::PSH,
            TcpFlags::FIN | TcpFlags::ACK,
            TcpFlags::RST,
        ];
        check("batch_applies_like_one_packet_at_a_time", |g: &mut Gen| {
            let nat = g.int_in(0u32..2) == 0;
            let gpu = g.int_in(0u32..2) == 0;
            let capacity = g.int_in(8usize..=64);
            let idle = if g.int_in(0u32..2) == 0 {
                0
            } else {
                g.int_in(20u64..=300)
            };
            let backends = g.int_in(1u32..=6);
            let pool = g.int_in(4u32..=160);
            let mut now: Time = 0;
            let batches: Vec<Vec<Packet>> = g.vec_of(1, 8, |g| {
                g.vec_of(1, 70, |g| {
                    now += g.int_in(0u64..=40);
                    let f = g.int_in(0..pool);
                    let tcp = (f % 2 == 0).then(|| flags[g.int_in(0..flags.len())]);
                    let damaged = g.int_in(0u32..40) == 0;
                    flow_packet(f, tcp, g.int_in(0u16..8), now, damaged)
                })
            });
            let singles: Vec<Vec<Packet>> =
                batches.iter().flatten().map(|p| vec![p.clone()]).collect();
            let (batched, one_by_one) = if nat {
                let app = || NatApp::new(8, 2, capacity, idle);
                (run(app(), gpu, &batches), run(app(), gpu, &singles))
            } else {
                let set: Vec<Backend> = (0..backends)
                    .map(|i| Backend {
                        ip: 0x0A63_0001 + i,
                        port: 8080,
                    })
                    .collect();
                let app = || LbApp::new(set.clone(), 8, 2, capacity, idle);
                (run(app(), gpu, &batches), run(app(), gpu, &singles))
            };
            let ((frames, counts), (want_frames, want_counts)) = (batched, one_by_one);
            for (i, (got, want)) in frames.iter().zip(&want_frames).enumerate() {
                ensure_eq!(got, want, "nat={nat} gpu={gpu}: packet {i}");
            }
            ensure_eq!(counts, want_counts, "nat={nat} gpu={gpu}");
            Ok(())
        });
    }
}
