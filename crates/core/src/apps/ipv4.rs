//! IPv4 forwarding (§6.2.1): DIR-24-8 lookup, GPU-offloaded or on
//! the CPU.

use ps_gpu::{DeviceBuffer, GpuEngine, Kernel};
use ps_io::Packet;
use ps_lookup::dir24::{self, Dir24Table};
use ps_lookup::mem::{CountingMem, SliceMem};
use ps_lookup::route::Route4;
use ps_net::ethernet::HEADER_LEN as ETH_LEN;
use ps_net::ipv4::Ipv4Packet;
use ps_net::{classify, Verdict};

use crate::columns::{ColumnSet, IPV4_COLUMNS};
use crate::kernels::{Ipv4Kernel, KernelIo};
use crate::program::{ColumnApp, ColumnProgram};

/// The IPv4 router application.
pub type Ipv4App = ColumnApp<Ipv4Program>;

/// The IPv4 packet program: a 4-byte destination-address column in,
/// a next-hop column out, over a DIR-24-8 table.
pub struct Ipv4Program {
    pub(crate) table: Dir24Table,
}

impl Ipv4App {
    /// Build over a route list whose hops are output-port indices.
    pub fn new(routes: &[Route4]) -> Ipv4App {
        Ipv4App::from_table(Dir24Table::build(routes))
    }

    /// Route over an already built table; clones of one table share
    /// its image.
    pub fn from_table(table: Dir24Table) -> Ipv4App {
        ColumnApp::over(Ipv4Program { table })
    }
}

impl Ipv4Program {
    /// Host-side lookup (shared by the CPU path and tests).
    pub fn lookup_host(&self, addr: u32) -> u16 {
        self.table.lookup_host(addr)
    }
}

impl ColumnProgram for Ipv4Program {
    type Key = ();
    type Row = u16;
    type Tables = DeviceBuffer;

    const NAME: &'static str = "ipv4";
    const COLUMNS: ColumnSet = IPV4_COLUMNS;
    const PRE_SHADE_CYCLES: u64 = 55;

    fn admit(&self, p: &mut Packet) -> Verdict {
        let v = classify(&p.data, &[]);
        if v == Verdict::FastPath {
            Ipv4Packet::new_unchecked(&mut p.data[ETH_LEN..]).decrement_ttl();
        }
        v
    }

    fn key(&self, p: &Packet, slot: &mut [u8]) -> Option<()> {
        let ip = Ipv4Packet::new_checked(p.data.get(ETH_LEN..)?).ok()?;
        slot.copy_from_slice(&u32::from(ip.dst()).to_le_bytes());
        Some(())
    }

    fn upload_tables(&self, eng: &mut GpuEngine) -> DeviceBuffer {
        eng.dev.mem.map(self.table.shared_image(), 0)
    }

    fn kernel<'a>(&'a self, image: &'a DeviceBuffer, io: KernelIo) -> impl Kernel + 'a {
        Ipv4Kernel {
            table: *image,
            layout: self.table.layout(),
            io,
        }
    }

    fn decode(row: &[u8]) -> u16 {
        super::decode_hop(row)
    }

    fn host(&self, slot: &[u8]) -> (u16, u64) {
        let dst = u32::from_le_bytes(slot.try_into().expect("4 B column"));
        let mut mem = CountingMem::new(SliceMem::new(self.table.image()));
        let hop = dir24::lookup(&self.table.layout(), &mut mem, dst);
        (hop, mem.accesses)
    }

    fn apply(&mut self, p: &mut Packet, _: (), hop: u16) -> u64 {
        super::forward_to_hop(p, hop);
        0
    }

    fn cpu_cycles(&self, accesses: u64, survivors: usize) -> u64 {
        super::lpm_cycles(accesses, 0, survivors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::App;
    use ps_net::ethernet::MacAddr;
    use ps_net::verdict::DropReason;
    use ps_net::PacketBuilder;
    use ps_nic::port::PortId;
    use std::net::Ipv4Addr;

    fn routes() -> Vec<Route4> {
        vec![
            Route4::new(0x0A000000, 8, 1),
            Route4::new(0x0A0B0000, 16, 2),
            Route4::new(0x00000000, 1, 6), // 0.0.0.0/1
            Route4::new(0x80000000, 1, 7), // 128.0.0.0/1
        ]
    }

    fn packet(dst: Ipv4Addr) -> Packet {
        let f = PacketBuilder::udp_v4(
            MacAddr::local(1),
            MacAddr::local(2),
            Ipv4Addr::new(9, 9, 9, 9),
            dst,
            100,
            200,
            64,
        );
        Packet::new(0, f, PortId(0), 0)
    }

    #[test]
    fn cpu_path_routes_and_decrements_ttl() {
        let mut app = Ipv4App::new(&routes());
        let mut pkts = vec![packet(Ipv4Addr::new(10, 11, 1, 1))];
        app.pre_shade(&mut pkts);
        assert_eq!(pkts[0].verdict, Verdict::FastPath);
        let cycles = app.process_cpu(&mut pkts);
        assert!(cycles > 0);
        assert_eq!(pkts[0].out_port, Some(PortId(2)));
        let ip = Ipv4Packet::new_unchecked(&pkts[0].data[ETH_LEN..]);
        assert_eq!(ip.ttl(), 63);
        assert!(ip.verify_checksum());
    }

    #[test]
    fn malformed_packets_dropped_in_pre_shade() {
        let mut app = Ipv4App::new(&routes());
        let mut bad = packet(Ipv4Addr::new(10, 0, 0, 1));
        bad.data[ETH_LEN + 12] ^= 0xFF; // corrupt checksum
        let mut pkts = vec![bad, packet(Ipv4Addr::new(10, 0, 0, 1))];
        app.pre_shade(&mut pkts);
        assert_eq!(pkts[0].verdict, Verdict::Drop(DropReason::BadChecksum));
        assert_eq!(pkts[1].verdict, Verdict::FastPath);
    }
}
