//! The IPsec gateway (§6.2.4): ESP tunnel mode with AES-128-CTR +
//! HMAC-SHA1, block-parallel AES and packet-parallel HMAC on the GPU.

use std::net::Ipv4Addr;
use std::ops::Range;

use ps_crypto::esp::{encrypt_tunnel, SecurityAssociation};
use ps_gpu::{DeviceBuffer, GpuEngine};
use ps_hw::ioh::Ioh;
use ps_io::Packet;
use ps_net::ethernet::{MacAddr, HEADER_LEN as ETH_LEN};
use ps_net::ipv4::protocol;
use ps_net::{classify, esp as espfmt, PacketBuilder, Verdict};
use ps_nic::port::PortId;
use ps_sim::time::Time;

use crate::app::{App, PreShadeResult};
use crate::kernels::{EspStaging, IpsecAesKernel, IpsecHmacKernel};

/// CPU cycles per ciphertext byte for table-based AES-128-CTR with
/// SSE assistance (the paper's "highly optimized AES and SHA1
/// implementations using SSE", §6.2.4).
const AES_CPB: u64 = 20;
/// CPU cycles per SHA-1 compression.
const SHA_PER_COMP: u64 = 500;
/// Fixed ESP framing cycles per packet (headers, padding, trailer).
const ESP_FIXED_CYCLES: u64 = 250;
/// Per-packet pre-shading cycles (classification + staging setup).
const PRE_SHADE_CYCLES: u64 = 80;

/// Staging capacity per launch.
pub(crate) const MAX_GATHER_PKTS: usize = 32_768;
/// Packed payload staging bytes per launch.
pub(crate) const MAX_GATHER_BYTES: usize = 24 << 20;

struct NodeGpu {
    payload: DeviceBuffer,
    params: DeviceBuffer,
    block_info: DeviceBuffer,
}

/// Per-launch gather/scatter bookkeeping, reused across launches so
/// the steady state allocates nothing: `clear()` keeps capacity. The
/// ESP regions themselves live only in device memory.
#[derive(Default)]
struct Staging {
    esp: EspStaging,
    /// Per gathered packet: its ESP packet within the payload buffer,
    /// `None` for a malformed frame.
    slots: Vec<Option<Range<usize>>>,
}

/// The IPsec tunnel gateway.
pub struct IpsecApp {
    sa: SecurityAssociation,
    aes_key: [u8; 16],
    nonce: u32,
    hmac_key: Vec<u8>,
    tunnel_src: Ipv4Addr,
    tunnel_dst: Ipv4Addr,
    gpu: Vec<Option<NodeGpu>>,
    stage: Staging,
    /// Packets encrypted (for reports).
    pub encrypted: u64,
    /// Frames too damaged to encapsulate (fault injection can damage
    /// a frame after classification); each is a counted drop, never a
    /// panic.
    pub malformed: u64,
}

impl IpsecApp {
    /// A gateway with static keys (§6: "cipher keys are static").
    pub fn new(aes_key: [u8; 16], nonce: u32, hmac_key: &[u8]) -> IpsecApp {
        IpsecApp {
            sa: SecurityAssociation::new(0x1001, &aes_key, nonce, hmac_key),
            aes_key,
            nonce,
            hmac_key: hmac_key.to_vec(),
            tunnel_src: Ipv4Addr::new(192, 0, 2, 1),
            tunnel_dst: Ipv4Addr::new(198, 51, 100, 1),
            gpu: Vec::new(),
            stage: Staging::default(),
            encrypted: 0,
            malformed: 0,
        }
    }

    /// A decrypting SA for verification (tests, examples).
    pub fn peer_sa(&self) -> SecurityAssociation {
        SecurityAssociation::new(0x1001, &self.aes_key, self.nonce, &self.hmac_key)
    }

    fn out_port(in_port: PortId) -> PortId {
        PortId(in_port.0 ^ 1)
    }

    /// Write the tunnel frame around `esp_payload` into `frame`'s own
    /// allocation, so the packet keeps its pooled RX buffer.
    fn outer_frame_into(&self, frame: &mut Vec<u8>, esp_payload: &[u8]) {
        PacketBuilder::raw_v4_into(
            frame,
            MacAddr::local(0xE0),
            MacAddr::local(0xE1),
            self.tunnel_src,
            self.tunnel_dst,
            protocol::ESP,
            esp_payload,
        );
    }

    fn cpu_crypto_cycles(inner_len: usize) -> u64 {
        let ct = espfmt::ciphertext_len(inner_len);
        let auth = espfmt::HEADER_LEN + espfmt::IV_LEN + ct;
        AES_CPB * ct as u64
            + SHA_PER_COMP * ps_crypto::sha1::hmac_compressions(auth) as u64
            + ESP_FIXED_CYCLES
    }
}

/// The revalidation parse: the inner packet to tunnel is everything
/// after the Ethernet header. Pre-shading validated the frame, but
/// fault injection can corrupt bytes *between* pipeline stages, so
/// both crypto paths re-slice it from the raw frame and count a
/// failure in `malformed` exactly once.
fn inner_frame(data: &[u8]) -> Option<&[u8]> {
    data.get(ETH_LEN..)
}

impl App for IpsecApp {
    fn name(&self) -> &str {
        "ipsec"
    }

    fn setup_gpu(&mut self, node: usize, eng: &mut GpuEngine) {
        if self.gpu.len() <= node {
            self.gpu.resize_with(node + 1, || None);
        }
        let payload = eng.dev.mem.alloc(MAX_GATHER_BYTES);
        let params = eng.dev.mem.alloc(MAX_GATHER_PKTS * 16);
        let block_info = eng.dev.mem.alloc(MAX_GATHER_BYTES / 16 * 4);
        self.gpu[node] = Some(NodeGpu {
            payload,
            params,
            block_info,
        });
    }

    fn pre_shade(&mut self, pkts: &mut Vec<Packet>) -> PreShadeResult {
        let mut r = PreShadeResult::default();
        pkts.retain(|p| match classify(&p.data, &[]) {
            Verdict::FastPath => true,
            Verdict::SlowPath(_) => {
                r.slow_path += 1;
                false
            }
            Verdict::Drop(_) => {
                r.dropped += 1;
                false
            }
        });
        // Staging copies the inner packet into the plaintext region:
        // ~1 cycle per 16 B plus fixed work.
        let bytes: u64 = pkts.iter().map(|p| p.len() as u64).sum();
        r.cycles =
            PRE_SHADE_CYCLES * (pkts.len() as u64 + r.dropped + r.slow_path) + bytes.div_ceil(16);
        r
    }

    fn process_cpu(&mut self, pkts: &mut Vec<Packet>) -> u64 {
        let mut cycles = 0;
        for p in pkts.iter_mut() {
            let Some(inner) = inner_frame(&p.data) else {
                self.malformed += 1;
                // No ESP sequence number is consumed, so the GPU path
                // (which skips staging for the same frame) stays
                // bit-identical.
                p.out_port = None;
                continue;
            };
            cycles += Self::cpu_crypto_cycles(inner.len());
            let esp = encrypt_tunnel(&mut self.sa, inner);
            self.outer_frame_into(&mut p.data, &esp);
            p.out_port = Some(Self::out_port(p.in_port));
            self.encrypted += 1;
        }
        cycles
    }

    fn shade(
        &mut self,
        node: usize,
        eng: &mut GpuEngine,
        ioh: &mut Ioh,
        ready: Time,
        pkts: &mut [Packet],
    ) -> Time {
        assert!(
            pkts.len() <= MAX_GATHER_PKTS,
            "gather exceeds the params staging"
        );
        // The payload is laid out before any of it is written, so an
        // oversized gather panics before touching device memory.
        let bytes: usize = pkts
            .iter()
            .filter_map(|p| inner_frame(&p.data))
            .map(|inner| EspStaging::region_len(inner.len()))
            .sum();
        assert!(bytes <= MAX_GATHER_BYTES, "gather exceeds staging");
        let g = self.gpu[node].as_ref().expect("setup_gpu ran");
        let (payload_buf, params_buf, info_buf) = (g.payload, g.params, g.block_info);

        // Copy-in (pipelined copies): the packed plaintext regions,
        // framed straight into the device payload buffer, then the
        // per-packet params and the per-block map. The staging
        // bookkeeping is a struct field reused across launches.
        let mut st = std::mem::take(&mut self.stage);
        st.esp.clear();
        st.slots.clear();
        let (sa, malformed) = (&mut self.sa, &mut self.malformed);
        let c1 = eng.copy_h2d_with(ready, ioh, &payload_buf, 0, bytes, |dst| {
            for p in pkts.iter() {
                // A malformed frame takes a sentinel slot, consumes no
                // ESP sequence number (bit-parity with the CPU path,
                // which also skips it) and stages nothing.
                let Some(inner) = inner_frame(&p.data) else {
                    *malformed += 1;
                    st.slots.push(None);
                    continue;
                };
                let seq = sa.seq;
                sa.seq = sa.seq.wrapping_add(1);
                st.slots.push(Some(st.esp.push(dst, sa.spi, seq, inner)));
            }
        });
        let (n_pkts, n_blocks) = (st.esp.n_pkts(), st.esp.n_blocks());
        // The params copy is sized by the gather, not by how many of
        // its frames survived revalidation.
        let c2 = eng.copy_h2d_with(ready, ioh, &params_buf, 0, pkts.len() * 16, |dst| {
            let (staged, rest) = dst.split_at_mut(st.esp.params().len());
            staged.copy_from_slice(st.esp.params());
            rest.fill(0);
        });
        let c3 = eng.copy_h2d_with(ready, ioh, &info_buf, 0, n_blocks as usize * 4, |dst| {
            st.esp.block_map(dst)
        });
        let inputs_ready = c1.max(c2).max(c3);

        // Encrypt-then-MAC: the engine serializes the two kernels.
        // Both borrow the SA's cached contexts — the key schedule and
        // HMAC pads were expanded once at SA creation, not per launch.
        let aes = IpsecAesKernel {
            aes: self.sa.cipher(),
            nonce: self.nonce,
            payload: payload_buf,
            block_info: info_buf,
            params: params_buf,
            n_blocks,
        };
        let (aes_done, _) = eng.launch(inputs_ready, &aes, n_blocks);
        let hmac = IpsecHmacKernel {
            hmac: self.sa.hmac(),
            payload: payload_buf,
            params: params_buf,
            n: n_pkts,
        };
        let (hmac_done, _) = eng.launch(aes_done, &hmac, n_pkts);

        // Copy-out of the whole payload buffer: each outer frame is
        // built straight from its region in device memory.
        let done = eng.copy_d2h_with(ready, hmac_done, ioh, &payload_buf, 0, bytes, |out| {
            for (p, slot) in pkts.iter_mut().zip(&st.slots) {
                p.out_port = slot.as_ref().map(|region| {
                    self.outer_frame_into(&mut p.data, &out[region.clone()]);
                    Self::out_port(p.in_port)
                });
            }
        });
        self.encrypted += u64::from(n_pkts);
        self.stage = st;
        done
    }

    fn post_shade_cycles(&self, n: usize) -> u64 {
        // Outer-frame assembly per packet.
        120 * n as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_crypto::esp::decrypt_tunnel;
    use ps_hw::pcie::PcieModel;
    use ps_hw::spec::{IohSpec, PcieSpec};
    use ps_net::ethernet::EthernetFrame;
    use ps_net::ipv4::Ipv4Packet;

    fn packet(id: u64, len: usize) -> Packet {
        let f = PacketBuilder::udp_v4(
            MacAddr::local(1),
            MacAddr::local(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1000 + id as u16,
            2000,
            len,
        );
        Packet::new(id, f, PortId(0), 0)
    }

    fn app() -> IpsecApp {
        IpsecApp::new([0x42; 16], 0xDEAD, b"hmac-key-for-test")
    }

    #[test]
    fn cpu_path_produces_decryptable_tunnels() {
        let mut a = app();
        let original = packet(1, 100);
        let inner_before = original.data[ETH_LEN..].to_vec();
        let mut pkts = vec![original];
        a.pre_shade(&mut pkts);
        let cycles = a.process_cpu(&mut pkts);
        assert!(cycles > 1000);
        assert_eq!(pkts[0].out_port, Some(PortId(1)));

        let eth = EthernetFrame::new_checked(&pkts[0].data[..]).unwrap();
        let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
        assert_eq!(ip.protocol(), protocol::ESP);
        let peer = a.peer_sa();
        let inner = decrypt_tunnel(&peer, ip.payload()).expect("decrypts");
        assert_eq!(inner, inner_before);
    }

    /// Run frames of `lens` through both paths: same SA sequence
    /// numbers, same framing, same keys -> identical wire bytes.
    fn assert_gpu_matches_cpu(lens: &[usize]) {
        let mut cpu = app();
        let mut gpu = app();
        let dev = ps_gpu::GpuDevice::gtx480_with_mem(64 << 20);
        let mut eng = GpuEngine::new(dev, PcieModel::new(PcieSpec::dual_ioh_x16()));
        let mut ioh = Ioh::new(IohSpec::intel_5520_dual());
        gpu.setup_gpu(0, &mut eng);

        let mk = || {
            lens.iter()
                .enumerate()
                .map(|(i, &len)| packet(i as u64, len))
                .collect::<Vec<_>>()
        };
        let mut a = mk();
        let mut b = mk();
        cpu.pre_shade(&mut a);
        cpu.process_cpu(&mut a);
        gpu.pre_shade(&mut b);
        assert_eq!(b.len(), lens.len(), "every frame reaches shade");
        let done = gpu.shade(0, &mut eng, &mut ioh, 0, &mut b);
        assert!(done > 0);

        for (x, y) in a.iter().zip(b.iter()) {
            assert!(
                x.data == y.data,
                "packet {} differs between CPU and GPU paths",
                x.id
            );
            assert_eq!(x.out_port, y.out_port);
        }
    }

    #[test]
    fn gpu_path_matches_cpu_path_bit_for_bit() {
        assert_gpu_matches_cpu(&[64, 101, 138, 175, 212]);
    }

    /// Past 256 AES blocks (an inner packet over 4,096 B) the block
    /// index needs more than 8 bits of its map word.
    #[test]
    fn gpu_path_matches_cpu_path_on_jumbo_frames() {
        assert_gpu_matches_cpu(&[4200, 64, 4200]);
        assert_gpu_matches_cpu(&[9000, 1514, 9000, 9000]);
    }

    #[test]
    fn gpu_output_decrypts_and_round_trips() {
        let mut gpu = app();
        let dev = ps_gpu::GpuDevice::gtx480_with_mem(64 << 20);
        let mut eng = GpuEngine::new(dev, PcieModel::new(PcieSpec::dual_ioh_x16()));
        let mut ioh = Ioh::new(IohSpec::intel_5520_dual());
        gpu.setup_gpu(0, &mut eng);

        let original = packet(7, 777);
        let inner_before = original.data[ETH_LEN..].to_vec();
        let mut pkts = vec![original];
        gpu.pre_shade(&mut pkts);
        gpu.shade(0, &mut eng, &mut ioh, 0, &mut pkts);

        let eth = EthernetFrame::new_checked(&pkts[0].data[..]).unwrap();
        let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
        let peer = gpu.peer_sa();
        let inner = decrypt_tunnel(&peer, ip.payload()).expect("GPU tunnel decrypts");
        assert_eq!(inner, inner_before);
    }

    /// Truncating an oversized gather would hand its tail back
    /// unencrypted, with whatever `out_port` it came in with.
    #[test]
    #[should_panic(expected = "gather exceeds the params staging")]
    fn oversized_gather_is_a_bug_not_a_truncation() {
        let mut gpu = app();
        let dev = ps_gpu::GpuDevice::gtx480_with_mem(1 << 20);
        let mut eng = GpuEngine::new(dev, PcieModel::new(PcieSpec::dual_ioh_x16()));
        let mut ioh = Ioh::new(IohSpec::intel_5520_dual());
        let mut pkts: Vec<Packet> = (0..=MAX_GATHER_PKTS as u64)
            .map(|id| Packet::new(id, Vec::new(), PortId(0), 0))
            .collect();
        gpu.shade(0, &mut eng, &mut ioh, 0, &mut pkts);
    }

    /// The payload bound is checked from the layout alone, before any
    /// region is framed or written to device memory (here there is
    /// none: `setup_gpu` never ran).
    #[test]
    #[should_panic(expected = "gather exceeds staging")]
    fn oversized_payload_is_caught_before_staging() {
        let mut gpu = app();
        let dev = ps_gpu::GpuDevice::gtx480_with_mem(1 << 20);
        let mut eng = GpuEngine::new(dev, PcieModel::new(PcieSpec::dual_ioh_x16()));
        let mut ioh = Ioh::new(IohSpec::intel_5520_dual());
        let frame = vec![0u8; 64 << 10];
        let n = MAX_GATHER_BYTES / EspStaging::region_len(frame.len() - ETH_LEN) + 1;
        let mut pkts: Vec<Packet> = (0..n as u64)
            .map(|id| Packet::new(id, frame.clone(), PortId(0), 0))
            .collect();
        gpu.shade(0, &mut eng, &mut ioh, 0, &mut pkts);
    }

    #[test]
    fn crypto_cycle_model_scales_with_size() {
        let small = IpsecApp::cpu_crypto_cycles(50);
        let large = IpsecApp::cpu_crypto_cycles(1500);
        assert!(large > 10 * small, "small={small} large={large}");
    }
}
