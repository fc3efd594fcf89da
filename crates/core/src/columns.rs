//! Columnar (struct-of-arrays) GPU staging.
//!
//! Every offloaded kernel reads a small fixed-width field per packet
//! — the IPv4 kernel a 4-byte destination address, the flow kernels a
//! canonical 5-tuple — so the staging layer ships *columns*, not
//! frames. A [`ColumnSet`] is what a packet program declares about
//! its kernel: the input column it reads and the output column it
//! writes back. A [`ColumnStage`] — owned by the column-offload
//! driver ([`ColumnApp`](crate::program::ColumnApp)), one per app —
//! holds the host-side gather/scatter buffers, allocates the device
//! columns, and performs the mode-dependent transfer:
//!
//! * [`Staging::Soa`] (default): the gathered column is one packed
//!   `copy_h2d` of `n × width` bytes — byte- and address-identical to
//!   the seed's hand-written per-app copies;
//! * [`Staging::Frames`] (ablation baseline): each packet occupies a
//!   [`FRAME_SLOT`]-byte device cell and PCIe/IOH are charged the
//!   *full frame bytes*, with the kernel reading its field at the
//!   frame offset — the naive whole-frame staging the paper's §4.3.1
//!   optimization removes;
//! * [`Staging::DirectDma`] (ablation): the column lands in device
//!   memory with NIC RX DMA itself (NaNet/GPUDirect-style peer
//!   transfer), so upload costs nothing beyond the RX traversal the
//!   NIC already paid; only results cross back.
//!
//! In every mode the *functional* bytes reaching the kernel are
//! identical, so results never depend on the staging mode — only
//! modeled time and PCIe byte counts do. Table images (FIB, wildcard
//! lists) are persistent state, not per-batch staging, and keep using
//! plain `copy_h2d` in all modes; IPsec's kernels genuinely consume
//! full payloads and stay outside the column layer.

use ps_gpu::{DeviceBuffer, GpuEngine, Slots, Staging};
use ps_hw::ioh::Ioh;
use ps_io::Packet;
use ps_sim::time::Time;

use crate::kernels::KernelIo;

/// One named fixed-width per-packet field.
#[derive(Debug, Clone, Copy)]
pub struct ColumnSpec {
    /// Field name (documentation + trace labels).
    pub name: &'static str,
    /// Bytes per packet.
    pub width: usize,
}

/// The column layout of one kernel: what it reads, what it writes
/// back, and where the input lives inside a raw frame (for the
/// frame-staging ablation).
#[derive(Debug, Clone, Copy)]
pub struct ColumnSet {
    /// Kernel name (matches `Kernel::name`).
    pub kernel: &'static str,
    /// The per-packet input column the kernel reads.
    pub input: ColumnSpec,
    /// The per-packet result column the kernel writes.
    pub output: ColumnSpec,
    /// Byte offset of the input field within a staged frame slot in
    /// [`Staging::Frames`] mode. For synthesized columns (canonical
    /// tuples) this is the offset of the bytes they derive from.
    pub frame_offset: usize,
    /// Cumulative-counter names for the trace layer (`pcie_h2d.*`,
    /// `pcie_d2h.*`, `pcie_pkts.*` — picked up by `trace_summary`'s
    /// PCIe staging table).
    pub h2d_ctr: &'static str,
    /// Device→host bytes counter name.
    pub d2h_ctr: &'static str,
    /// Staged-packets counter name.
    pub pkts_ctr: &'static str,
}

/// Widest input column any program may declare: the CPU-only path
/// parses into a stack slot of this size.
pub(crate) const MAX_INPUT_WIDTH: usize = 32;

/// Device bytes reserved per packet in frame-staging mode: one
/// huge-packet-buffer cell, as the seed's I/O engine uses host-side.
pub const FRAME_SLOT: usize = 2048;

/// Frame slots in the frame-mode input buffer (16 MB per node at
/// [`FRAME_SLOT`] bytes). The paper-config master gathers at most
/// `max_gather_chunks × batch_cap` ≈ 1.5 K packets per shading step,
/// well under this; [`ColumnStage::upload`] asserts the bound.
pub(crate) const FRAME_SLOTS: usize = 8192;

/// IPv4 forwarding: the kernel reads the 4-byte destination address
/// (frame offset 30 = Ethernet 14 + IP dst 16) and writes a 2-byte
/// next-hop column.
pub const IPV4_COLUMNS: ColumnSet = ColumnSet {
    kernel: "ipv4-dir24",
    input: ColumnSpec {
        name: "dst_ipv4",
        width: 4,
    },
    output: ColumnSpec {
        name: "next_hop",
        width: 2,
    },
    frame_offset: 30,
    h2d_ctr: "pcie_h2d.ipv4-dir24",
    d2h_ctr: "pcie_d2h.ipv4-dir24",
    pkts_ctr: "pcie_pkts.ipv4-dir24",
};

/// IPv6 forwarding: 16-byte destination address (frame offset 38 =
/// Ethernet 14 + IPv6 dst 24), 2-byte next-hop column back.
pub(crate) const IPV6_COLUMNS: ColumnSet = ColumnSet {
    kernel: "ipv6-waldvogel",
    input: ColumnSpec {
        name: "dst_ipv6",
        width: 16,
    },
    output: ColumnSpec {
        name: "next_hop",
        width: 2,
    },
    frame_offset: 38,
    h2d_ctr: "pcie_h2d.ipv6-waldvogel",
    d2h_ctr: "pcie_d2h.ipv6-waldvogel",
    pkts_ctr: "pcie_pkts.ipv6-waldvogel",
};

/// OpenFlow: the 32-byte padded canonical flow key (synthesized from
/// the headers starting at the IP header, frame offset 14), 8-byte
/// `(hash, action, scanned)` result column back.
pub(crate) const OPENFLOW_COLUMNS: ColumnSet = ColumnSet {
    kernel: "openflow-hash+wildcard",
    input: ColumnSpec {
        name: "flow_key",
        width: 32,
    },
    output: ColumnSpec {
        name: "match",
        width: 8,
    },
    frame_offset: 14,
    h2d_ctr: "pcie_h2d.openflow-hash+wildcard",
    d2h_ctr: "pcie_d2h.openflow-hash+wildcard",
    pkts_ctr: "pcie_pkts.openflow-hash+wildcard",
};

/// Stateful NFs (NAT, load balancer): 16-byte padded canonical
/// 5-tuple (derived from the addresses at frame offset 26 = Ethernet
/// 14 + IP src 12), 8-byte flow-hash column back.
pub const FLOW_COLUMNS: ColumnSet = ColumnSet {
    kernel: "flow-hash",
    input: ColumnSpec {
        name: "flow_tuple",
        width: 16,
    },
    output: ColumnSpec {
        name: "flow_hash",
        width: 8,
    },
    frame_offset: 26,
    h2d_ctr: "pcie_h2d.flow-hash",
    d2h_ctr: "pcie_d2h.flow-hash",
    pkts_ctr: "pcie_pkts.flow-hash",
};

/// The host side of one kernel's column staging: the gather/result
/// buffer, mode-dependent transfer logic and cumulative PCIe byte
/// accounting.
#[derive(Debug)]
pub struct ColumnStage {
    set: ColumnSet,
    mode: Staging,
    /// The one host buffer: the gathered input column until it is
    /// uploaded, then the downloaded result column.
    host: Vec<u8>,
    h2d_bytes: u64,
    d2h_bytes: u64,
    pkts: u64,
}

impl ColumnStage {
    /// A stage for `set`, in the default SoA mode.
    pub fn new(set: ColumnSet) -> ColumnStage {
        ColumnStage {
            set,
            mode: Staging::Soa,
            host: Vec::new(),
            h2d_bytes: 0,
            d2h_bytes: 0,
            pkts: 0,
        }
    }

    /// Switch staging mode. Must happen before device buffers are
    /// allocated (`Router::new` calls `App::set_staging` before
    /// `App::setup_gpu`).
    pub fn set_mode(&mut self, mode: Staging) {
        self.mode = mode;
    }

    /// Allocate one node's device columns for up to `max_pkts` packets
    /// and say how kernels address them under the active mode. In
    /// SoA/direct mode the input is exactly the packed column
    /// (`max_pkts × width` — the seed's allocation, so device addresses
    /// stay identical); frame mode reserves `FRAME_SLOTS` frame cells
    /// and points each thread at its field inside its cell. The output
    /// column is packed in every mode.
    pub fn alloc(&self, eng: &mut GpuEngine, max_pkts: usize) -> KernelIo {
        let w = self.set.input.width;
        let (input, slots) = match self.mode {
            Staging::Frames => (
                eng.dev.mem.alloc(FRAME_SLOTS * FRAME_SLOT),
                Slots::frames(FRAME_SLOT as u32, self.set.frame_offset as u32),
            ),
            Staging::Soa | Staging::DirectDma => {
                (eng.dev.mem.alloc(max_pkts * w), Slots::packed(w as u32))
            }
        };
        let output = eng.dev.mem.alloc(max_pkts * self.set.output.width);
        KernelIo {
            input,
            slots,
            output,
        }
    }

    /// Gather the input column of `pkts` and move it to `buf` under
    /// the active mode. `fill(p, slot)` writes packet `p`'s `width`
    /// bytes into its slot of the reused host buffer; slots start
    /// zeroed, so a packet whose field no longer parses just leaves
    /// its slot alone — the batch layout stays fixed and the kernel
    /// reads an all-zero sentinel. `ready` is when the gather finished
    /// on the host (its cycles are the worker's pre-shading charge);
    /// returns when the kernel may start reading.
    pub fn upload(
        &mut self,
        eng: &mut GpuEngine,
        ioh: &mut Ioh,
        ready: Time,
        buf: &DeviceBuffer,
        pkts: &[Packet],
        mut fill: impl FnMut(&Packet, &mut [u8]),
    ) -> Time {
        let w = self.set.input.width;
        let n = pkts.len();
        self.host.clear();
        self.host.resize(n * w, 0);
        for (p, slot) in pkts.iter().zip(self.host.chunks_exact_mut(w)) {
            fill(p, slot);
        }
        match self.mode {
            Staging::Soa => {
                self.h2d_bytes += self.host.len() as u64;
                eng.copy_h2d(ready, ioh, buf, 0, &self.host)
            }
            Staging::Frames => {
                assert!(n <= FRAME_SLOTS, "frame staging overflow: {n} packets");
                for (i, col) in self.host.chunks_exact(w).enumerate() {
                    eng.deposit(buf, i * FRAME_SLOT + self.set.frame_offset, col);
                }
                let frame_bytes: u64 = pkts.iter().map(|p| p.data.len() as u64).sum();
                self.h2d_bytes += frame_bytes;
                eng.charge_h2d(ready, ioh, frame_bytes)
            }
            Staging::DirectDma => {
                // The column arrived with RX DMA; one IOH traversal
                // was already paid by the NIC model. Only the ledger
                // moves.
                eng.deposit(buf, 0, &self.host);
                ioh.note_direct(self.host.len() as u64);
                ready
            }
        }
    }

    /// Copy the kernel's `n`-packet result column back to the host
    /// (`submit` = CPU queueing time, `ready` = kernel completion),
    /// emit the cumulative PCIe counters for this launch, and return
    /// `(completion, results)`.
    pub(crate) fn download(
        &mut self,
        eng: &mut GpuEngine,
        ioh: &mut Ioh,
        submit: Time,
        ready: Time,
        buf: &DeviceBuffer,
        n: usize,
    ) -> (Time, &[u8]) {
        self.host.clear();
        self.host.resize(n * self.set.output.width, 0);
        let done = eng.copy_d2h(submit, ready, ioh, buf, 0, &mut self.host);
        self.d2h_bytes += self.host.len() as u64;
        self.pkts += n as u64;
        for (name, total) in [
            (self.set.h2d_ctr, self.h2d_bytes),
            (self.set.d2h_ctr, self.d2h_bytes),
            (self.set.pkts_ctr, self.pkts),
        ] {
            ps_trace::counter(ps_trace::Category::Gpu, name, eng.trace_lane, done, total);
        }
        (done, &self.host)
    }

    /// Cumulative `(h2d_bytes, d2h_bytes, staged_packets)` for
    /// `App::staging_totals`.
    pub fn totals(&self) -> (u64, u64, u64) {
        (self.h2d_bytes, self.d2h_bytes, self.pkts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_gpu::GpuDevice;
    use ps_hw::pcie::PcieModel;
    use ps_hw::spec::{IohSpec, PcieSpec};

    fn rig() -> (GpuEngine, Ioh) {
        let dev = GpuDevice::gtx480_with_mem(64 << 20);
        (
            GpuEngine::new(dev, PcieModel::new(PcieSpec::dual_ioh_x16())),
            Ioh::new(IohSpec::intel_5520_dual()),
        )
    }

    fn pkts(n: usize, len: usize) -> Vec<Packet> {
        (0..n)
            .map(|i| Packet::new(i as u64, vec![i as u8; len], ps_nic::port::PortId(0), 0))
            .collect()
    }

    #[test]
    fn soa_upload_matches_plain_copy_cost() {
        // SoA through the stage must cost exactly what the seed's
        // direct copy_h2d of the same bytes cost.
        let (mut e1, mut i1) = rig();
        let (mut e2, mut i2) = rig();
        let p = pkts(64, 60);
        let mut stage = ColumnStage::new(IPV4_COLUMNS);
        let buf1 = stage.alloc(&mut e1, 64).input;
        let col: Vec<u8> = (0..64u32).flat_map(|i| i.to_le_bytes()).collect();
        let t_stage = stage.upload(&mut e1, &mut i1, 1000, &buf1, &p, |p, slot| {
            slot.copy_from_slice(&col[p.id as usize * 4..][..4])
        });
        let buf2 = e2.dev.mem.alloc(64 * 4);
        let t_plain = e2.copy_h2d(1000, &mut i2, &buf2, 0, &col);
        assert_eq!(t_stage, t_plain);
        assert_eq!(i1.h2d_bytes(), i2.h2d_bytes());
    }

    #[test]
    fn frames_charges_frame_bytes_and_deposits_at_offsets() {
        let (mut e, mut ioh) = rig();
        let p = pkts(3, 60);
        let mut stage = ColumnStage::new(IPV4_COLUMNS);
        stage.set_mode(Staging::Frames);
        let buf = stage.alloc(&mut e, 3).input;
        stage.upload(&mut e, &mut ioh, 0, &buf, &p, |_, slot| slot.fill(1));
        assert_eq!(ioh.h2d_bytes(), 180, "charged sum of frame lengths");
        let mut cell = [0u8; 4];
        e.dev
            .mem
            .read(&buf, 2 * FRAME_SLOT + IPV4_COLUMNS.frame_offset, &mut cell);
        assert_eq!(cell, [1u8; 4], "field landed inside its frame slot");
        assert_eq!(stage.totals().0, 180);
    }

    #[test]
    fn direct_dma_moves_no_host_pcie_bytes() {
        let (mut e, mut ioh) = rig();
        let p = pkts(16, 60);
        let mut stage = ColumnStage::new(FLOW_COLUMNS);
        stage.set_mode(Staging::DirectDma);
        let buf = stage.alloc(&mut e, 16).input;
        let done = stage.upload(&mut e, &mut ioh, 5000, &buf, &p, |_, slot| slot.fill(7));
        assert_eq!(done, 5000, "upload is free: bytes rode RX DMA");
        assert_eq!(ioh.h2d_bytes(), 0);
        assert_eq!(ioh.direct_bytes(), 256);
        let mut back = vec![0u8; 256];
        e.dev.mem.read(&buf, 0, &mut back);
        assert_eq!(back, vec![7u8; 256], "column still materialized");
    }

    #[test]
    fn download_is_packed_in_every_mode() {
        for mode in [Staging::Frames, Staging::Soa, Staging::DirectDma] {
            let (mut e, mut ioh) = rig();
            let mut stage = ColumnStage::new(IPV4_COLUMNS);
            stage.set_mode(mode);
            let out = stage.alloc(&mut e, 32).output;
            let (_, res) = stage.download(&mut e, &mut ioh, 0, 100, &out, 32);
            assert_eq!(res.len(), 64);
            assert_eq!(ioh.d2h_bytes(), 64);
        }
    }
}
