//! Writing an app (DESIGN.md §11.4): a complete packet program —
//! forward every IPv4 packet to the port stored for its destination's
//! top byte — run by the column-offload driver in both modes.
//!
//! ```sh
//! cargo run --release --example column_program
//! ```

use std::sync::Arc;

use packetshader::core::columns::{ColumnSet, IPV4_COLUMNS};
use packetshader::core::kernels::KernelIo;
use packetshader::core::{ColumnApp, ColumnProgram, Router, RouterConfig};
use packetshader::gpu::{DeviceBuffer, GpuEngine, Kernel, ThreadCtx};
use packetshader::io::Packet;
use packetshader::net::{classify, Ipv4Packet, Verdict};
use packetshader::nic::port::PortId;
use packetshader::pktgen::TrafficSpec;
use packetshader::sim::MILLIS;

struct ByteRoute {
    ports: [u16; 256],
}

struct ByteRouteKernel {
    table: DeviceBuffer,
    io: KernelIo,
}

impl Kernel for ByteRouteKernel {
    fn name(&self) -> &str {
        IPV4_COLUMNS.kernel
    }

    fn thread(&self, tid: u32, ctx: &mut ThreadCtx<'_>) {
        let dst = ctx.read_u32(&self.io.input, self.io.slots.at(tid));
        let port = ctx.read_u16(&self.table, (dst >> 24) as usize * 2);
        ctx.write(&self.io.output, tid as usize * 2, &port.to_le_bytes());
    }
}

impl ColumnProgram for ByteRoute {
    type Key = (); // nothing apply needs besides the row
    type Row = u16; // one decoded result row
    type Tables = DeviceBuffer; // per-node device state

    const NAME: &'static str = "byte-route";
    const COLUMNS: ColumnSet = IPV4_COLUMNS; // 4 B in @30, 2 B out
    const PRE_SHADE_CYCLES: u64 = 55;

    // Pre-shading: the fast-path verdict.
    fn admit(&self, p: &mut Packet) -> Verdict {
        classify(&p.data, &[])
    }

    // The one parse per stage, filling the packet's input-column slot.
    fn key(&self, p: &Packet, slot: &mut [u8]) -> Option<()> {
        let ip = Ipv4Packet::new_checked(p.data.get(14..)?).ok()?;
        slot.copy_from_slice(&u32::from(ip.dst()).to_le_bytes());
        Some(())
    }

    fn upload_tables(&self, eng: &mut GpuEngine) -> DeviceBuffer {
        // Tables are immutable: map the image rather than copy it.
        let image: Vec<u8> = self.ports.iter().flat_map(|p| p.to_le_bytes()).collect();
        eng.dev.mem.map(Arc::new(image), 0)
    }

    fn kernel<'a>(&'a self, table: &'a DeviceBuffer, io: KernelIo) -> impl Kernel + 'a {
        ByteRouteKernel { table: *table, io }
    }

    fn decode(row: &[u8]) -> u16 {
        u16::from_le_bytes([row[0], row[1]])
    }

    // The same row from the same column bytes, on the CPU, and the
    // cycles the GPU absorbs.
    fn host(&self, slot: &[u8]) -> (u16, u64) {
        (self.ports[slot[3] as usize], 40)
    }

    // Apply a row; returns the host-side cycles.
    fn apply(&mut self, p: &mut Packet, _: (), port: u16) -> u64 {
        p.out_port = Some(PortId(port));
        30
    }
}

fn main() {
    let mut ports = [0u16; 256];
    for (top, port) in ports.iter_mut().enumerate() {
        *port = top as u16 % 8;
    }
    for (label, cfg) in [
        ("CPU-only", RouterConfig::paper_cpu()),
        ("CPU+GPU ", RouterConfig::paper_gpu()),
    ] {
        let app = ColumnApp::over(ByteRoute { ports });
        let r = Router::run(cfg, app, TrafficSpec::ipv4_64b(10.0, 7), MILLIS);
        println!(
            "{label}: delivered {:.1} Gbps of {:.1} offered, {} kernel launches",
            r.out_gbps(),
            r.in_gbps(),
            r.gpu_kernels
        );
    }
}
