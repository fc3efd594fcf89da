//! IPv4 forwarding (§6.2.1): DIR-24-8 lookup, GPU-offloaded or on
//! the CPU.

use ps_gpu::{DeviceBuffer, GpuEngine, Kernel};
use ps_hw::ioh::Ioh;
use ps_io::Packet;
use ps_lookup::dir24::{self, Dir24Table};
use ps_lookup::mem::{CountingMem, SliceMem};
use ps_lookup::route::Route4;
use ps_net::ethernet::HEADER_LEN as ETH_LEN;
use ps_net::ipv4::Ipv4Packet;
use ps_net::{classify, Verdict};
use ps_sim::time::Time;

use crate::columns::{ColumnSet, IPV4_COLUMNS};
use crate::kernels::{Ipv4Kernel, KernelIo};
use crate::program::{ColumnApp, ColumnProgram};

/// The IPv4 router application.
pub type Ipv4App = ColumnApp<Ipv4Program>;

/// The IPv4 packet program: a 4-byte destination-address column in,
/// a next-hop column out, over a DIR-24-8 table.
pub struct Ipv4Program {
    table: Dir24Table,
    /// Bumped by every FIB update; a node whose device image carries
    /// an older version re-uploads before its next launch (the §7
    /// double-buffering direction: the upload rides the normal copy
    /// engine, so the data path keeps flowing).
    version: u64,
}

/// Spare bytes a re-allocated device FIB keeps past the image: 256
/// spill blocks of 256 two-byte entries.
const SPILL_HEADROOM: usize = 256 * 512;

/// One node's device copy of the FIB.
pub struct DeviceFib {
    image: DeviceBuffer,
    version: u64,
}

impl Ipv4App {
    /// Build over a route list whose hops are output-port indices.
    pub fn new(routes: &[Route4]) -> Ipv4App {
        ColumnApp::over(Ipv4Program {
            table: Dir24Table::build(routes),
            version: 0,
        })
    }
}

impl Ipv4Program {
    /// Install (or replace) one route at run time — the control-plane
    /// FIB update of §7. The CPU table updates in place; each GPU's
    /// copy is re-uploaded lazily before its next launch.
    pub fn install_route(&mut self, r: Route4) {
        self.table.insert(r);
        self.version += 1;
    }

    /// Host-side lookup (shared by the CPU path and tests).
    pub fn lookup_host(&self, addr: u32) -> u16 {
        self.table.lookup_host(addr)
    }
}

impl ColumnProgram for Ipv4Program {
    type Key = ();
    type Row = u16;
    type Tables = DeviceFib;

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

    fn upload_tables(&self, eng: &mut GpuEngine) -> DeviceFib {
        let image = eng.dev.mem.alloc(self.table.image().len());
        eng.dev.mem.write(&image, 0, self.table.image());
        DeviceFib {
            image,
            version: self.version,
        }
    }

    fn refresh(
        &self,
        fib: &mut DeviceFib,
        eng: &mut GpuEngine,
        ioh: &mut Ioh,
        ready: Time,
    ) -> Time {
        if fib.version == self.version {
            return ready;
        }
        fib.version = self.version;
        let image = self.table.image();
        if image.len() > fib.image.len() {
            // A new spill block outgrew the device copy. Device memory
            // is never freed, so the image moves to an allocation with
            // room for more blocks, not one per update.
            fib.image = eng.dev.mem.alloc(image.len() + SPILL_HEADROOM);
        }
        eng.copy_h2d(ready, ioh, &fib.image, 0, image)
    }

    fn kernel<'a>(&'a self, fib: &'a DeviceFib, io: KernelIo) -> impl Kernel + 'a {
        Ipv4Kernel {
            table: fib.image,
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
    use ps_hw::pcie::PcieModel;
    use ps_hw::spec::{IohSpec, PcieSpec};
    use ps_net::ethernet::MacAddr;
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
        let r = app.pre_shade(&mut pkts);
        assert_eq!(r.dropped, 0);
        let cycles = app.process_cpu(&mut pkts);
        assert!(cycles > 0);
        assert_eq!(pkts[0].out_port, Some(PortId(2)));
        let ip = Ipv4Packet::new_unchecked(&pkts[0].data[ETH_LEN..]);
        assert_eq!(ip.ttl(), 63);
        assert!(ip.verify_checksum());
    }

    #[test]
    fn fib_update_propagates_to_the_gpu_table() {
        let mut app = Ipv4App::new(&routes());
        let dev = ps_gpu::GpuDevice::gtx480_with_mem(64 << 20);
        let mut eng = GpuEngine::new(dev, PcieModel::new(PcieSpec::dual_ioh_x16()));
        let mut ioh = Ioh::new(IohSpec::intel_5520_dual());
        app.setup_gpu(0, &mut eng);

        let dst = Ipv4Addr::new(10, 11, 200, 1);
        let mut before = vec![packet(dst)];
        app.pre_shade(&mut before);
        app.shade(0, &mut eng, &mut ioh, 0, &mut before);
        assert_eq!(before[0].out_port, Some(PortId(2)), "pre-update: /16");

        // Control plane installs a more specific route at run time.
        app.install_route(Route4::new(0x0A0BC800, 24, 5));
        let mut after = vec![packet(dst)];
        app.pre_shade(&mut after);
        let t = app.shade(0, &mut eng, &mut ioh, 0, &mut after);
        assert!(t > 0);
        assert_eq!(after[0].out_port, Some(PortId(5)), "post-update: new /24");
        assert_eq!(app.lookup_host(u32::from(dst)), 5, "CPU table agrees");
    }

    /// A run-time route longer than /24, in a /24 that has no spill
    /// block yet, grows the image by a block. The next launch moves the
    /// device copy to a larger allocation instead of writing past its
    /// end, and charges the whole image as any refresh does.
    #[test]
    fn fib_update_that_adds_a_spill_block_reaches_the_gpu() {
        let mut app = Ipv4App::new(&routes());
        // Room for the image twice: the first copy is never freed.
        let dev = ps_gpu::GpuDevice::gtx480_with_mem(80 << 20);
        let mut eng = GpuEngine::new(dev, PcieModel::new(PcieSpec::dual_ioh_x16()));
        let mut ioh = Ioh::new(IohSpec::intel_5520_dual());
        app.setup_gpu(0, &mut eng);
        let dsts = [
            Ipv4Addr::new(10, 11, 200, 129),
            Ipv4Addr::new(10, 11, 200, 1),
            Ipv4Addr::new(10, 11, 201, 1),
        ];
        let mut shade = |app: &mut Ipv4App| {
            let mut pkts: Vec<Packet> = dsts.iter().map(|&d| packet(d)).collect();
            app.pre_shade(&mut pkts);
            app.shade(0, &mut eng, &mut ioh, 0, &mut pkts);
            let hops = pkts.iter().map(|p| p.out_port.expect("routed").0);
            (
                hops.collect::<Vec<_>>(),
                ioh.h2d_bytes(),
                eng.dev.mem.remaining(),
            )
        };
        let (hops, h2d, _) = shade(&mut app);
        assert_eq!(hops, [2, 2, 2]);

        let image = app.table.image().len();
        app.install_route(Route4::new(0x0A0BC880, 25, 5));
        assert_eq!(app.table.image().len(), image + 512, "one new spill block");
        let (hops, h2d_after, free) = shade(&mut app);
        assert_eq!(hops, [5, 2, 2], "/25, then the /16 it spilled from");
        assert_eq!(
            h2d_after - h2d,
            (image + 512 + 3 * 4) as u64,
            "image + column"
        );

        // The next new block fits the headroom: no further allocation.
        app.install_route(Route4::new(0x0A0BC901, 32, 3));
        let (hops, _, free_after) = shade(&mut app);
        assert_eq!(hops, [5, 2, 3]);
        assert_eq!(free_after, free);
    }

    #[test]
    fn malformed_packets_dropped_in_pre_shade() {
        let mut app = Ipv4App::new(&routes());
        let mut bad = packet(Ipv4Addr::new(10, 0, 0, 1));
        bad.data[ETH_LEN + 12] ^= 0xFF; // corrupt checksum
        let mut pkts = vec![bad, packet(Ipv4Addr::new(10, 0, 0, 1))];
        let r = app.pre_shade(&mut pkts);
        assert_eq!(r.dropped, 1);
        assert_eq!(pkts.len(), 1);
    }
}
