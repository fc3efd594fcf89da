//! The OpenFlow switch application (§6.2.3): flow-key extraction and
//! exact matching on the CPU; hash computation and wildcard matching
//! offloaded to the GPU.

use ps_gpu::{DeviceBuffer, GpuEngine, Kernel};
use ps_io::Packet;
use ps_net::verdict::{DropReason, Verdict};
use ps_net::FlowKey;
use ps_nic::port::PortId;
use ps_openflow::{flow_hash_bytes, Action, OpenFlowSwitch, ENTRY_SIZE};

use super::{CYCLES_PER_NS, TABLE_MISS_NS};
use crate::columns::{ColumnSet, OPENFLOW_COLUMNS};
use crate::kernels::{KernelIo, OpenFlowKernel, OF_NO_MATCH, OF_SHARED_LIMIT};
use crate::program::{ColumnApp, ColumnProgram};

/// Flow-key hash on the CPU. The reference switch hashes the full
/// padded key structure per packet; ~160 cycles on Nehalem (the cost
/// the paper found worth offloading, §6.3).
const HASH_CYCLES: u64 = 160;
/// Exact-table probe when the bucket is cache-resident.
const EXACT_PROBE_CYCLES: u64 = 30;
/// Per-scanned-entry wildcard compare cost (entries are 64 B,
/// LLC-resident for the evaluated sizes).
const WILDCARD_ENTRY_CYCLES: u64 = 14;
/// LLC size for the cached-fraction estimate (8 MB on the X5550).
const LLC_BYTES: u64 = 8 << 20;
/// Approximate bytes per exact-table entry (key + action + bucket
/// overhead).
const EXACT_ENTRY_BYTES: u64 = 48;

/// The OpenFlow switch application.
pub type OpenFlowApp = ColumnApp<OpenFlowProgram>;

/// The OpenFlow packet program: a 32-byte flow-key column in, a
/// `(hash, wildcard action)` column out; exact-match resolution with
/// the offloaded hash stays on the host.
pub struct OpenFlowProgram {
    /// The switch state (public so experiments can install flows).
    pub switch: OpenFlowSwitch,
}

/// One node's device copy of the wildcard table.
pub struct DeviceWildcards {
    image: DeviceBuffer,
    entries: usize,
    /// Host copy of the image when it fits in shared memory.
    shared: Option<Vec<u8>>,
}

/// One result row: the flow-key hash, and the wildcard match if the
/// scan already ran. The kernel scans for every packet; the host
/// ([`ColumnProgram::host`]) leaves `wildcard` unset and scans in
/// `apply` only when the exact table misses, which is what the
/// CPU-only cycle model charges.
pub struct OpenFlowRow {
    hash: u32,
    wildcard: Option<Option<Action>>,
}

impl OpenFlowApp {
    /// A switch with the given tables pre-installed.
    pub fn new(switch: OpenFlowSwitch) -> OpenFlowApp {
        ColumnApp::over(OpenFlowProgram { switch })
    }
}

impl OpenFlowProgram {
    fn exact_probe_cycles(&self) -> u64 {
        // Blend cached and missing probes by the table's LLC overflow.
        let bytes = self.switch.exact.len() as u64 * EXACT_ENTRY_BYTES;
        let miss_frac = ((bytes as f64 / LLC_BYTES as f64) - 1.0).clamp(0.0, 1.0);
        EXACT_PROBE_CYCLES + (miss_frac * TABLE_MISS_NS as f64 * CYCLES_PER_NS) as u64
    }
}

impl ColumnProgram for OpenFlowProgram {
    type Key = FlowKey;
    type Row = OpenFlowRow;
    type Tables = DeviceWildcards;

    const NAME: &'static str = "openflow";
    const COLUMNS: ColumnSet = OPENFLOW_COLUMNS;
    /// Flow-key extraction (header parsing + field packing).
    const PRE_SHADE_CYCLES: u64 = 80;

    fn admit(&self, p: &mut Packet) -> Verdict {
        match FlowKey::extract(p.in_port.0, &p.data) {
            Ok(_) => Verdict::FastPath,
            Err(_) => Verdict::Drop(DropReason::Malformed),
        }
    }

    fn key(&self, p: &Packet, slot: &mut [u8]) -> Option<FlowKey> {
        let key = FlowKey::extract(p.in_port.0, &p.data).ok()?;
        slot[..31].copy_from_slice(&key.to_bytes());
        Some(key)
    }

    fn upload_tables(&self, eng: &mut GpuEngine) -> DeviceWildcards {
        let host = self.switch.wildcard.to_image();
        let image = eng.dev.mem.alloc(host.len().max(ENTRY_SIZE));
        eng.dev.mem.write(&image, 0, &host);
        DeviceWildcards {
            image,
            entries: self.switch.wildcard.len(),
            shared: (host.len() <= OF_SHARED_LIMIT).then_some(host),
        }
    }

    fn kernel<'a>(&'a self, t: &'a DeviceWildcards, io: KernelIo) -> impl Kernel + 'a {
        OpenFlowKernel {
            wildcard: t.image,
            n_wildcard: t.entries,
            shared_image: t.shared.as_deref(),
            io,
        }
    }

    fn decode(row: &[u8]) -> OpenFlowRow {
        let action = u16::from_le_bytes([row[4], row[5]]);
        OpenFlowRow {
            hash: u32::from_le_bytes(row[..4].try_into().expect("fixed")),
            wildcard: Some((action != OF_NO_MATCH).then(|| Action::decode(action))),
        }
    }

    fn host(&self, slot: &[u8]) -> (OpenFlowRow, u64) {
        let row = OpenFlowRow {
            hash: flow_hash_bytes(&slot[..31]),
            wildcard: None,
        };
        (row, HASH_CYCLES)
    }

    fn apply(&mut self, p: &mut Packet, key: FlowKey, row: OpenFlowRow) -> u64 {
        let mut cycles = self.exact_probe_cycles();
        let sw = &mut self.switch;
        let action = sw
            .exact
            .lookup_with_hash(row.hash, &key, p.len() as u64)
            .or_else(|| {
                row.wildcard.unwrap_or_else(|| {
                    let (action, scanned) = sw.wildcard.lookup(&key);
                    cycles += WILDCARD_ENTRY_CYCLES * scanned as u64;
                    action
                })
            })
            .unwrap_or_else(|| {
                sw.misses += 1;
                Action::Controller
            });
        p.out_port = match action {
            Action::Output(port) => Some(PortId(port)),
            Action::Drop | Action::Controller => None,
        };
        cycles
    }

    fn post_shade_cycles(&self, n: usize) -> u64 {
        // Exact-table resolution runs on the worker after the GPU
        // returns hashes.
        (self.exact_probe_cycles() + 30) * n as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::App;
    use ps_net::ethernet::MacAddr;
    use ps_net::PacketBuilder;
    use ps_openflow::wildcard::wc;
    use ps_openflow::WildcardEntry;
    use std::net::Ipv4Addr;

    fn packet(dst: Ipv4Addr, dport: u16, in_port: u16) -> Packet {
        let f = PacketBuilder::udp_v4(
            MacAddr::local(1),
            MacAddr::local(2),
            Ipv4Addr::new(9, 9, 9, 9),
            dst,
            4242,
            dport,
            64,
        );
        Packet::new(0, f, PortId(in_port), 0)
    }

    fn switch() -> OpenFlowSwitch {
        let mut sw = OpenFlowSwitch::new();
        // Exact entry for one specific flow.
        let key = FlowKey::extract(0, &packet(Ipv4Addr::new(1, 2, 3, 4), 80, 0).data).unwrap();
        sw.add_exact(key, Action::Output(5));
        // Wildcard: anything to 10/8 -> port 2.
        sw.add_wildcard(WildcardEntry {
            fields: wc::NW_DST,
            priority: 10,
            key: FlowKey {
                nw_dst: 0x0A000000,
                ..FlowKey::default()
            },
            nw_src_mask: 0,
            nw_dst_mask: 0xFF000000,
            action: Action::Output(2),
        });
        sw
    }

    #[test]
    fn cpu_path_exact_beats_wildcard() {
        let mut app = OpenFlowApp::new(switch());
        let mut pkts = vec![
            packet(Ipv4Addr::new(1, 2, 3, 4), 80, 0),  // exact -> 5
            packet(Ipv4Addr::new(10, 9, 9, 9), 81, 1), // wildcard -> 2
            packet(Ipv4Addr::new(99, 9, 9, 9), 81, 1), // miss -> controller
        ];
        app.pre_shade(&mut pkts);
        app.process_cpu(&mut pkts);
        let ports: Vec<_> = pkts.iter().map(|p| p.out_port).collect();
        assert_eq!(ports, vec![Some(PortId(5)), Some(PortId(2))]);
        assert_eq!(app.switch.misses, 1);
    }

    #[test]
    fn flow_counters_update_on_either_path() {
        let mut app = OpenFlowApp::new(switch());
        let key = FlowKey::extract(0, &packet(Ipv4Addr::new(1, 2, 3, 4), 80, 0).data).unwrap();
        let mut pkts = vec![packet(Ipv4Addr::new(1, 2, 3, 4), 80, 0)];
        app.pre_shade(&mut pkts);
        app.process_cpu(&mut pkts);
        assert_eq!(app.switch.exact.stats(&key).unwrap().packets, 1);
    }

    #[test]
    fn big_exact_table_costs_more_per_probe() {
        let mut sw = OpenFlowSwitch::new();
        for i in 0..300_000u32 {
            let key = FlowKey {
                nw_src: i,
                ..FlowKey::default()
            };
            sw.add_exact(key, Action::Drop);
        }
        let big = OpenFlowApp::new(sw);
        let small = OpenFlowApp::new(switch());
        assert!(big.exact_probe_cycles() > small.exact_probe_cycles());
    }
}
