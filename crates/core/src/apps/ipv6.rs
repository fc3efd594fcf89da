//! IPv6 forwarding (§6.2.2): binary search on prefix lengths, the
//! memory-intensive workload where GPU latency hiding shines.

use ps_gpu::{DeviceBuffer, GpuEngine, Kernel};
use ps_io::Packet;
use ps_lookup::mem::{CountingMem, SliceMem};
use ps_lookup::route::Route6;
use ps_lookup::waldvogel::{self, V6Table};
use ps_net::ethernet::HEADER_LEN as ETH_LEN;
use ps_net::ipv6::Ipv6Packet;
use ps_net::{classify, Verdict};

use crate::columns::{ColumnSet, IPV6_COLUMNS};
use crate::kernels::{Ipv6Kernel, KernelIo};
use crate::program::{ColumnApp, ColumnProgram};

/// The IPv6 router application.
pub type Ipv6App = ColumnApp<Ipv6Program>;

/// The IPv6 packet program: a 16-byte destination-address column in,
/// a next-hop column out, over a Waldvogel table.
pub struct Ipv6Program {
    table: V6Table,
}

impl Ipv6App {
    /// Build over a route list whose hops are output-port indices.
    pub fn new(routes: &[Route6]) -> Ipv6App {
        ColumnApp::over(Ipv6Program {
            table: V6Table::build(routes),
        })
    }
}

impl Ipv6Program {
    /// Host-side lookup.
    pub fn lookup_host(&self, addr: u128) -> u16 {
        self.table.lookup_host(addr)
    }
}

impl ColumnProgram for Ipv6Program {
    type Key = ();
    type Row = u16;
    type Tables = DeviceBuffer;

    const NAME: &'static str = "ipv6";
    const COLUMNS: ColumnSet = IPV6_COLUMNS;
    /// IPv6 parses a bigger header and stages 16 B per packet.
    const PRE_SHADE_CYCLES: u64 = 65;

    fn admit(&self, p: &mut Packet) -> Verdict {
        let v = classify(&p.data, &[]);
        if v == Verdict::FastPath {
            Ipv6Packet::new_unchecked(&mut p.data[ETH_LEN..]).decrement_hop_limit();
        }
        v
    }

    fn key(&self, p: &Packet, slot: &mut [u8]) -> Option<()> {
        let ip = Ipv6Packet::new_checked(p.data.get(ETH_LEN..)?).ok()?;
        // Big-endian octets: the staged layout.
        slot.copy_from_slice(&ip.dst().octets());
        Some(())
    }

    fn upload_tables(&self, eng: &mut GpuEngine) -> DeviceBuffer {
        let table = eng.dev.mem.alloc(self.table.image().len().max(64));
        eng.dev.mem.write(&table, 0, self.table.image());
        table
    }

    fn kernel<'a>(&'a self, table: &'a DeviceBuffer, io: KernelIo) -> impl Kernel + 'a {
        Ipv6Kernel {
            table: *table,
            layout: self.table.layout(),
            io,
        }
    }

    fn decode(row: &[u8]) -> u16 {
        super::decode_hop(row)
    }

    fn host(&self, slot: &[u8]) -> (u16, u64) {
        let dst = u128::from_be_bytes(slot.try_into().expect("16 B column"));
        let mut mem = CountingMem::new(SliceMem::new(self.table.image()));
        let hop = waldvogel::lookup(self.table.layout(), &mut mem, dst);
        (hop, mem.accesses)
    }

    fn apply(&mut self, p: &mut Packet, _: (), hop: u16) -> u64 {
        super::forward_to_hop(p, hop);
        0
    }

    fn cpu_cycles(&self, accesses: u64, survivors: usize) -> u64 {
        // Seven dependent probes per packet, each a table miss plus
        // ~16 hash ops.
        super::lpm_cycles(accesses, 16, survivors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::App;
    use ps_net::ethernet::MacAddr;
    use ps_net::PacketBuilder;
    use ps_nic::port::PortId;
    use std::net::Ipv6Addr;

    fn routes() -> Vec<Route6> {
        vec![
            Route6::new(0x2001_0db8u128 << 96, 32, 2),
            Route6::new(0x2000u128 << 112, 4, 1), // 2000::/4 covers GUA
        ]
    }

    fn packet(dst: Ipv6Addr) -> Packet {
        let f = PacketBuilder::udp_v6(
            MacAddr::local(1),
            MacAddr::local(2),
            "2001:db8::99".parse().unwrap(),
            dst,
            100,
            200,
            80,
        );
        Packet::new(0, f, PortId(0), 0)
    }

    #[test]
    fn cpu_path_routes_and_decrements_hop_limit() {
        let mut app = Ipv6App::new(&routes());
        let mut pkts = vec![packet("2001:db8::1".parse().unwrap())];
        app.pre_shade(&mut pkts);
        let cycles = app.process_cpu(&mut pkts);
        assert!(cycles > 100, "probes should cost real cycles: {cycles}");
        assert_eq!(pkts[0].out_port, Some(PortId(2)));
        let ip = Ipv6Packet::new_unchecked(&pkts[0].data[ETH_LEN..]);
        assert_eq!(ip.hop_limit(), 63);
    }
}
