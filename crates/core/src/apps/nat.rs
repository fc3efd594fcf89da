//! Source NAT with connection tracking — the first stateful NF of
//! the NFV tier (DESIGN.md §10).
//!
//! Every outbound IPv4 UDP/TCP flow gets a binding in its RX node's
//! cuckoo [`FlowCache`]: an external `(address, port)` drawn from the
//! node's public pool, plus a coarse connection state driven by TCP
//! flags (UDP flows promote to established on their second packet).
//! The source fields are rewritten in place with incremental
//! checksums. Parsing, the hash offload and the per-node state
//! partitioning are the shared [`FlowNf`] program; this file is the
//! translator's table operation.

use ps_flow::FlowCache;
use ps_io::Packet;
use ps_net::tcp::TcpFlags;
use ps_nic::port::PortId;
use ps_sim::time::Time;

use super::stateful::{
    rewrite_src, FlowNf, FlowOp, ParsedFlow, KICK_CYCLES, PROBE_CYCLES, REWRITE_CYCLES,
};
use crate::program::ColumnApp;

/// Usable external ports per public address (1024..=65535).
const PORTS_PER_IP: u32 = 64_512;
/// First usable external port.
const PORT_MIN: u16 = 1024;

/// Coarse connection state the tracker keeps per binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// First packet seen (TCP SYN, or any first UDP datagram).
    New,
    /// Bidirectional-capable: second packet (UDP) or first non-SYN
    /// segment (TCP) observed.
    Established,
    /// A FIN passed; the binding is released on the closing ACK.
    FinWait,
}

/// One NAT binding: which external `(address, port)` the flow owns,
/// encoded as an allocation index into the node's pool.
#[derive(Debug, Clone, Copy)]
pub struct NatBinding {
    ext_id: u32,
    /// Tracker state.
    pub state: ConnState,
}

/// One node's external address/port allocator (LIFO free list over a
/// monotonic high-water counter — both pure functions of the node's
/// packet order).
struct Pool {
    free: Vec<u32>,
    next_id: u32,
    /// Base of the node's public pool (`203.0.113.0`-style). A /16
    /// stride per node: room for the multi-address pool a
    /// million-flow table needs (~16 addresses per node).
    base: u32,
}

impl Pool {
    fn alloc(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            let id = self.next_id;
            self.next_id += 1;
            id
        })
    }

    fn ext_addr(&self, id: u32) -> (u32, u16) {
        (
            self.base + id / PORTS_PER_IP,
            PORT_MIN + (id % PORTS_PER_IP) as u16,
        )
    }
}

/// The NAT / connection-tracker application.
pub type NatApp = ColumnApp<FlowNf<Nat>>;

/// The translator's table operation: per-node external pools beside
/// the binding cache.
pub struct Nat {
    pools: Vec<Pool>,
}

impl Nat {
    fn new(nodes: usize) -> Nat {
        Nat {
            pools: (0..nodes as u32)
                .map(|node| Pool {
                    free: Vec::new(),
                    next_id: 0,
                    base: 0xCB71_0000 + (node << 16),
                })
                .collect(),
        }
    }
}

impl NatApp {
    /// A translator for a machine with `total_ports` ports split over
    /// `nodes` NUMA nodes, keeping up to `capacity` bindings per node
    /// that expire after `idle_ns` of virtual-clock silence (`0` =
    /// never).
    pub fn new(total_ports: u16, nodes: usize, capacity: usize, idle_ns: Time) -> NatApp {
        ColumnApp::over(FlowNf::new(
            Nat::new(nodes),
            total_ports,
            nodes,
            capacity,
            idle_ns,
        ))
    }
}

impl FlowOp for Nat {
    type Entry = NatBinding;
    const NAME: &'static str = "nat";

    fn op(
        &mut self,
        cache: &mut FlowCache<NatBinding>,
        node: usize,
        p: &mut Packet,
        pf: &ParsedFlow,
        hash: u64,
    ) -> u64 {
        let pool = &mut self.pools[node];
        let now = p.arrival;
        let flags = TcpFlags(pf.tcp_flags);
        let mut cycles = PROBE_CYCLES + REWRITE_CYCLES;

        let binding = match cache.lookup_prehash(hash, &pf.tuple, now) {
            Some(b) => {
                // Tracker transitions on the observed packet.
                if flags.0 & TcpFlags::RST != 0 {
                    let b = *b;
                    cache.remove(&pf.tuple);
                    pool.free.push(b.ext_id);
                    b
                } else if flags.0 & TcpFlags::FIN != 0 {
                    b.state = ConnState::FinWait;
                    *b
                } else if b.state == ConnState::FinWait && flags.ack() {
                    // The closing ACK: translate it, then release.
                    let b = *b;
                    cache.remove(&pf.tuple);
                    pool.free.push(b.ext_id);
                    b
                } else {
                    if b.state == ConnState::New {
                        b.state = ConnState::Established;
                    }
                    *b
                }
            }
            None => {
                let binding = NatBinding {
                    ext_id: pool.alloc(),
                    state: ConnState::New,
                };
                let r = cache.insert_prehash(hash, pf.tuple, now, binding);
                cycles += KICK_CYCLES * u64::from(r.displaced);
                if let Some((_, old)) = r.evicted {
                    // The LRU victim's external address returns to the
                    // pool — bounded state, no leaks under churn.
                    pool.free.push(old.ext_id);
                }
                binding
            }
        };
        let (ip, port) = pool.ext_addr(binding.ext_id);
        rewrite_src(&mut p.data, pf, ip, port);
        p.out_port = Some(PortId(p.in_port.0 ^ 1));
        cycles
    }

    fn state_lost(&mut self, node: usize) {
        // The allocator's high-water mark survives (fresh bindings
        // never collide with lost ones); the free list is part of the
        // lost state.
        self.pools[node].free.clear();
    }

    fn replica(&self) -> Nat {
        Nat::new(self.pools.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::App;
    use ps_net::ethernet::MacAddr;
    use ps_net::ethernet::HEADER_LEN as ETH_LEN;
    use ps_net::{Ipv4Packet, PacketBuilder, UdpDatagram};
    use std::net::Ipv4Addr;

    fn udp(src: u32, sport: u16, in_port: u16) -> Packet {
        let f = PacketBuilder::udp_v4(
            MacAddr::local(1),
            MacAddr::local(2),
            Ipv4Addr::from(src),
            Ipv4Addr::new(8, 8, 8, 8),
            sport,
            443,
            64,
        );
        Packet::new(0, f, PortId(in_port), 0)
    }

    fn tcp(src: u32, sport: u16, flags: u8, in_port: u16) -> Packet {
        // Hand-built TCP: reuse the UDP builder's IP framing, then
        // overwrite the L4 header (the builder has no TCP variant).
        let mut f = PacketBuilder::udp_v4(
            MacAddr::local(1),
            MacAddr::local(2),
            Ipv4Addr::from(src),
            Ipv4Addr::new(8, 8, 8, 8),
            sport,
            443,
            74,
        );
        {
            let mut ip = Ipv4Packet::new_unchecked(&mut f[ETH_LEN..]);
            ip.set_protocol(ps_net::ipv4::protocol::TCP);
            ip.fill_checksum();
        }
        let l4 = ETH_LEN + 20;
        f[l4..].fill(0);
        f[l4..l4 + 2].copy_from_slice(&sport.to_be_bytes());
        f[l4 + 2..l4 + 4].copy_from_slice(&443u16.to_be_bytes());
        f[l4 + 12] = 5 << 4; // data offset
        f[l4 + 13] = flags;
        Packet::new(0, f, PortId(in_port), 0)
    }

    fn app() -> NatApp {
        NatApp::new(8, 2, 1 << 16, 0)
    }

    #[test]
    fn first_packet_binds_and_rewrites_source() {
        let mut a = app();
        let mut pkts = vec![udp(0x0A000001, 5000, 0)];
        a.pre_shade(&mut pkts);
        a.process_cpu(&mut pkts);
        let ip = Ipv4Packet::new_unchecked(&pkts[0].data[ETH_LEN..]);
        assert_eq!(u32::from(ip.src()), 0xCB71_0000, "node 0 pool base");
        assert!(ip.verify_checksum());
        let udp = UdpDatagram::new_unchecked(&pkts[0].data[ETH_LEN + 20..]);
        assert_eq!(udp.src_port(), PORT_MIN);
        assert_eq!(pkts[0].out_port, Some(PortId(1)), "node-local pair");
        assert_eq!(a.occupancy(), 1);
    }

    #[test]
    fn same_flow_reuses_its_binding_distinct_flows_do_not() {
        let mut a = app();
        let mut pkts = vec![
            udp(0x0A000001, 5000, 0),
            udp(0x0A000001, 5000, 0),
            udp(0x0A000002, 5000, 0),
        ];
        a.pre_shade(&mut pkts);
        a.process_cpu(&mut pkts);
        let port = |p: &Packet| UdpDatagram::new_unchecked(&p.data[ETH_LEN + 20..]).src_port();
        assert_eq!(port(&pkts[0]), port(&pkts[1]), "sticky binding");
        assert_ne!(
            port(&pkts[0]),
            port(&pkts[2]),
            "distinct flow, distinct port"
        );
        assert_eq!(a.occupancy(), 2);
        assert_eq!(a.cache_stats().hits, 1);
    }

    #[test]
    fn udp_flows_promote_to_established() {
        let mut a = app();
        let mut first = vec![udp(0x0A000001, 5000, 0)];
        a.process_cpu(&mut first);
        let t = (0x0A000001u32, 0x08080808u32, 5000u16, 443u16, 17u8);
        assert_eq!(
            a.per_node[0].lookup(&t, 0).map(|b| b.state),
            Some(ConnState::New)
        );
        let mut second = vec![udp(0x0A000001, 5000, 0)];
        a.process_cpu(&mut second);
        assert_eq!(
            a.per_node[0].lookup(&t, 0).map(|b| b.state),
            Some(ConnState::Established)
        );
    }

    #[test]
    fn tcp_lifecycle_releases_the_binding() {
        let mut a = app();
        let syn = TcpFlags::SYN;
        let ack = TcpFlags::ACK;
        let fin = TcpFlags::FIN | TcpFlags::ACK;
        for flags in [syn, ack, ack] {
            let mut p = vec![tcp(0x0A000001, 6000, flags, 0)];
            a.process_cpu(&mut p);
            assert_eq!(p.len(), 1);
        }
        assert_eq!(a.occupancy(), 1);
        let mut p = vec![tcp(0x0A000001, 6000, fin, 0)];
        a.process_cpu(&mut p); // FIN -> FinWait
        assert_eq!(a.occupancy(), 1);
        let mut p = vec![tcp(0x0A000001, 6000, ack, 0)];
        a.process_cpu(&mut p); // closing ACK -> released
        assert_eq!(a.occupancy(), 0, "binding released after close");
        // The external port returns to the pool: the next flow gets it.
        let mut p = vec![udp(0x0A000009, 7000, 0)];
        a.process_cpu(&mut p);
        let port = UdpDatagram::new_unchecked(&p[0].data[ETH_LEN + 20..]).src_port();
        assert_eq!(port, PORT_MIN, "LIFO free list recycles the port");
    }

    #[test]
    fn rst_releases_immediately() {
        let mut a = app();
        let mut p = vec![tcp(0x0A000001, 6000, TcpFlags::SYN, 0)];
        a.process_cpu(&mut p);
        assert_eq!(a.occupancy(), 1);
        let mut p = vec![tcp(0x0A000001, 6000, TcpFlags::RST, 0)];
        a.process_cpu(&mut p);
        assert_eq!(a.occupancy(), 0);
    }

    #[test]
    fn state_is_partitioned_per_node() {
        let mut a = app();
        // Same 5-tuple arriving on both nodes: two independent
        // bindings from two independent pools.
        let mut pkts = vec![udp(0x0A000001, 5000, 0), udp(0x0A000001, 5000, 4)];
        a.pre_shade(&mut pkts);
        a.process_cpu(&mut pkts);
        let src = |p: &Packet| u32::from(Ipv4Packet::new_unchecked(&p.data[ETH_LEN..]).src());
        assert_eq!(src(&pkts[0]) >> 16, 0xCB71, "node 0 pool");
        assert_eq!(src(&pkts[1]) >> 16, 0xCB72, "node 1 pool");
        assert_eq!(a.per_node[0].occupancy(), 1);
        assert_eq!(a.per_node[1].occupancy(), 1);
    }

    #[test]
    fn gpu_fault_loses_state_and_flows_reestablish() {
        let mut a = app();
        let mut pkts = vec![udp(0x0A000001, 5000, 0), udp(0x0A000002, 5001, 0)];
        a.process_cpu(&mut pkts);
        assert_eq!(a.occupancy(), 2);
        a.on_gpu_fault(0);
        assert_eq!(a.occupancy(), 0);
        // Graceful re-sync: the same flow comes back through the miss
        // path with a fresh binding from the untouched high-water mark.
        let mut again = vec![udp(0x0A000001, 5000, 0)];
        a.process_cpu(&mut again);
        assert_eq!(a.occupancy(), 1);
        let port = UdpDatagram::new_unchecked(&again[0].data[ETH_LEN + 20..]).src_port();
        assert_eq!(port, PORT_MIN + 2, "post-loss bindings never collide");
    }

    #[test]
    fn idle_bindings_expire_on_the_virtual_clock() {
        let mut a = NatApp::new(8, 2, 1 << 10, 1_000);
        let mut p0 = vec![udp(0x0A000001, 5000, 0)];
        a.process_cpu(&mut p0); // arrival 0

        // The same flow's next packet, past the timeout, finds its
        // binding expired and gets a fresh one.
        let mut late = vec![udp(0x0A000001, 5000, 0)];
        late[0].arrival = 10_000;
        a.process_cpu(&mut late);
        assert_eq!(a.cache_stats().expiries, 1, "first flow idled out");
        assert_eq!(a.occupancy(), 1);
        let port = |p: &Packet| UdpDatagram::new_unchecked(&p.data[ETH_LEN + 20..]).src_port();
        assert_eq!(port(&p0[0]), PORT_MIN);
        assert_eq!(port(&late[0]), PORT_MIN + 1, "fresh binding");
    }
}
