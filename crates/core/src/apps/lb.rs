//! L4 load balancer — the second stateful NF of the NFV tier
//! (DESIGN.md §10).
//!
//! Incoming IPv4 UDP/TCP flows are spread over a backend set by
//! rendezvous (highest-random-weight) hashing: each flow scores every
//! backend with a deterministic mix of its cuckoo hash and the
//! backend's index, and the highest score wins. The chosen backend is
//! pinned in the RX node's [`FlowCache`], so a flow stays on its
//! backend for its whole lifetime (*stickiness*), and a lost pin
//! re-derives the same winner. The destination fields are
//! DNAT-rewritten in place with incremental checksums.
//!
//! Parsing, the hash offload, state partitioning, fault-induced state
//! loss and shard replication are the shared [`FlowNf`] program; this
//! file is the balancer's table operation.

use ps_flow::FlowCache;
use ps_io::Packet;
use ps_nic::port::PortId;
use ps_rng::splitmix64;
use ps_sim::time::Time;

use super::stateful::{
    rewrite_dst, FlowNf, FlowOp, ParsedFlow, KICK_CYCLES, PROBE_CYCLES, REWRITE_CYCLES,
};
use crate::program::ColumnApp;

/// Per-backend rendezvous score on a cache miss.
const SCORE_CYCLES: u64 = 8;

/// One backend server: where DNAT points the flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backend {
    /// Backend address.
    pub ip: u32,
    /// Backend L4 port.
    pub port: u16,
}

/// The L4 load-balancer application.
pub type LbApp = ColumnApp<FlowNf<Lb>>;

/// The balancer's table operation: the backend set beside the
/// flow→backend pins.
pub struct Lb {
    backends: Vec<Backend>,
}

/// Rendezvous winner for flow hash `h` among `n` backends: the index
/// with the highest per-(flow, backend) score (first wins ties).
/// Removing any *other* backend cannot change a flow's winner — the
/// consistent-hashing property.
fn rendezvous(h: u64, n: usize) -> u16 {
    let mut best: Option<(u64, u16)> = None;
    for i in 0..n {
        let mut s = h ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let score = splitmix64(&mut s);
        if best.is_none_or(|(b, _)| score > b) {
            best = Some((score, i as u16));
        }
    }
    best.map_or(0, |(_, i)| i)
}

impl LbApp {
    /// A balancer over `backends` for a machine with `total_ports`
    /// ports split over `nodes` NUMA nodes, pinning up to `capacity`
    /// flows per node with `idle_ns` virtual-clock expiry (`0` =
    /// never).
    pub fn new(
        backends: Vec<Backend>,
        total_ports: u16,
        nodes: usize,
        capacity: usize,
        idle_ns: Time,
    ) -> LbApp {
        assert!(!backends.is_empty());
        let lb = Lb { backends };
        ColumnApp::over(FlowNf::new(lb, total_ports, nodes, capacity, idle_ns))
    }
}

impl FlowOp for Lb {
    type Entry = u16;
    const NAME: &'static str = "lb";

    fn op(
        &mut self,
        cache: &mut FlowCache<u16>,
        _node: usize,
        p: &mut Packet,
        pf: &ParsedFlow,
        hash: u64,
    ) -> u64 {
        let now = p.arrival;
        let mut cycles = PROBE_CYCLES + REWRITE_CYCLES;
        let pinned = cache.lookup_prehash(hash, &pf.tuple, now).copied();
        let idx = match pinned {
            Some(idx) => idx,
            None => {
                cycles += SCORE_CYCLES * self.backends.len() as u64;
                let idx = rendezvous(hash, self.backends.len());
                let r = cache.insert_prehash(hash, pf.tuple, now, idx);
                cycles += KICK_CYCLES * u64::from(r.displaced);
                idx
            }
        };
        let b = self.backends[idx as usize];
        rewrite_dst(&mut p.data, pf, b.ip, b.port);
        p.out_port = Some(PortId(p.in_port.0 ^ 1));
        cycles
    }

    fn replica(&self) -> Lb {
        Lb {
            backends: self.backends.clone(),
        }
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

    fn backends(n: u32) -> Vec<Backend> {
        (0..n)
            .map(|i| Backend {
                ip: 0x0A63_0001 + i,
                port: 8080,
            })
            .collect()
    }

    fn udp(src: u32, sport: u16, in_port: u16) -> Packet {
        let f = PacketBuilder::udp_v4(
            MacAddr::local(1),
            MacAddr::local(2),
            Ipv4Addr::from(src),
            Ipv4Addr::new(198, 51, 100, 1), // the VIP
            sport,
            80,
            64,
        );
        Packet::new(0, f, PortId(in_port), 0)
    }

    fn app(n: u32) -> LbApp {
        LbApp::new(backends(n), 8, 2, 1 << 16, 0)
    }

    fn dst(p: &Packet) -> (u32, u16) {
        let ip = Ipv4Packet::new_unchecked(&p.data[ETH_LEN..]);
        let udp = UdpDatagram::new_unchecked(&p.data[ETH_LEN + 20..]);
        (u32::from(ip.dst()), udp.dst_port())
    }

    #[test]
    fn flows_spread_over_backends_and_stick() {
        let mut a = app(8);
        let mut pkts: Vec<Packet> = (0..256u32).map(|i| udp(0x0A000000 + i, 5000, 0)).collect();
        a.pre_shade(&mut pkts);
        a.process_cpu(&mut pkts);
        let used: std::collections::HashSet<u32> = pkts.iter().map(|p| dst(p).0).collect();
        assert!(used.len() >= 6, "256 flows spread over most of 8 backends");
        for p in &pkts {
            assert!(Ipv4Packet::new_unchecked(&p.data[ETH_LEN..]).verify_checksum());
        }
        // Stickiness: the same flows dispatch to the same backends.
        let first: Vec<(u32, u16)> = pkts.iter().map(dst).collect();
        let mut again: Vec<Packet> = (0..256u32).map(|i| udp(0x0A000000 + i, 5000, 0)).collect();
        a.process_cpu(&mut again);
        assert_eq!(first, again.iter().map(dst).collect::<Vec<_>>());
        assert_eq!(a.cache_stats().hits, 256);
    }

    #[test]
    fn rendezvous_is_consistent() {
        // Dropping the *last* backend only remaps flows it owned.
        for h in [1u64, 99, 0xDEAD_BEEF, u64::MAX] {
            let with8 = rendezvous(h, 8);
            let with7 = rendezvous(h, 7);
            if with8 != 7 {
                assert_eq!(with8, with7, "hash {h:#x}");
            }
        }
    }

    #[test]
    fn gpu_fault_loses_pins_but_rendezvous_heals_them() {
        let mut a = app(4);
        let mut pkts: Vec<Packet> = (0..32u32).map(|i| udp(0x0A000000 + i, 5000, 0)).collect();
        a.process_cpu(&mut pkts);
        let before: Vec<(u32, u16)> = pkts.iter().map(dst).collect();
        a.on_gpu_fault(0);
        assert_eq!(a.occupancy(), 0);
        // The backend set is intact, so rendezvous re-derives the
        // same winners: state loss degrades nothing here.
        let mut again: Vec<Packet> = (0..32u32).map(|i| udp(0x0A000000 + i, 5000, 0)).collect();
        a.process_cpu(&mut again);
        assert_eq!(before, again.iter().map(dst).collect::<Vec<_>>());
    }
}
