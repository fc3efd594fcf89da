//! Wall-clock microbenchmarks of the IPsec crypto substrate.

use std::net::Ipv4Addr;

use ps_bench::runner::{black_box, Runner, Throughput};
use ps_core::kernels::{EspStaging, IpsecAesKernel, IpsecHmacKernel};
use ps_crypto::aes::CtrStream;
use ps_crypto::esp::{decrypt_tunnel, encrypt_tunnel, SecurityAssociation};
use ps_crypto::hmac::HmacSha1;
use ps_crypto::sha1::Sha1;
use ps_gpu::{GpuDevice, GpuEngine};
use ps_hw::ioh::Ioh;
use ps_hw::pcie::PcieModel;
use ps_hw::spec::{IohSpec, PcieSpec};
use ps_net::ethernet::MacAddr;
use ps_net::PacketBuilder;

fn main() {
    println!("backends: {}", ps_crypto::backends());
    let mut r = Runner::new("crypto");

    let ctr = CtrStream::new(&[0x42; 16], 0xD00D);
    let iv = [1, 2, 3, 4, 5, 6, 7, 8];
    for size in [64usize, 1504] {
        let mut data = vec![0xA5u8; size];
        r.bench(
            &format!("aes-ctr/xor_{size}B"),
            Some(Throughput::Bytes(size as u64)),
            || ctr.apply(black_box(&iv), &mut data),
        );
    }

    let data = vec![0x5Au8; 1500];
    r.bench(
        "sha1/digest_1500B",
        Some(Throughput::Bytes(data.len() as u64)),
        || Sha1::digest(black_box(&data)),
    );

    let hmac = HmacSha1::new(b"benchmark-key");
    for size in [80usize, 1500] {
        r.bench(
            &format!("hmac-sha1/mac96_{size}B"),
            Some(Throughput::Bytes(size as u64)),
            || hmac.mac96(black_box(&data[..size])),
        );
    }
    // One bulk call over n equal-length messages laid end to end:
    // ns/iter is per call, 16 or 5 MACs. 1520 B is the authenticated
    // region of a 1514 B frame, 80 B that of a 64 B one.
    for (n, len) in [(16usize, 1520usize), (5, 1520), (16, 80)] {
        let buf = vec![0x5Au8; n * len];
        let offs: Vec<usize> = (0..n).map(|i| i * len).collect();
        let mut icvs = vec![[0u8; 12]; n];
        r.bench(
            &format!("hmac-sha1/mac96_many_{n}x{len}B"),
            Some(Throughput::Bytes(buf.len() as u64)),
            || hmac.mac96_many(black_box(&buf), &offs, len, &mut icvs),
        );
    }

    for size in [50usize, 1480] {
        let mut sa = SecurityAssociation::new(1, &[7; 16], 2, b"k");
        let inner = vec![0xC3u8; size];
        r.bench(
            &format!("esp/encrypt_tunnel_{size}B"),
            Some(Throughput::Bytes(size as u64)),
            || encrypt_tunnel(&mut sa, black_box(&inner)),
        );
        let mut sa2 = SecurityAssociation::new(1, &[7; 16], 2, b"k");
        let inner2 = vec![0xC3u8; size];
        r.bench(
            &format!("esp/round_trip_{size}B"),
            Some(Throughput::Bytes(size as u64)),
            || {
                let wire = encrypt_tunnel(&mut sa2, black_box(&inner2));
                decrypt_tunnel(&sa2, &wire).expect("decrypts")
            },
        );
    }

    ipsec_shade(&mut r);

    r.finish();
}

/// The five phases of `IpsecApp::shade` over one 64 x 1514 B gather,
/// each timed on its own through the same public pieces `shade` is
/// built from (EXPERIMENTS.md "Where an IPsec shade goes"). ns/iter is
/// per gather: divide by 64 for ns per shaded packet. Staging frames
/// the regions straight into device memory, so its row includes the
/// payload copy; the h2d row is the params and block-map copies.
fn ipsec_shade(r: &mut Runner) {
    const PKTS: usize = 64;
    let per_gather = Some(Throughput::Elements(PKTS as u64));
    let sa = SecurityAssociation::new(0x1001, &[0x42; 16], 0xD00D, b"ps-bench-hmac-key");
    let inners: Vec<Vec<u8>> = (0..PKTS).map(|i| vec![i as u8; 1500]).collect();
    let bytes = PKTS * EspStaging::region_len(1500);
    let mut eng = GpuEngine::new(
        GpuDevice::gtx480_with_mem(4 << 20),
        PcieModel::new(PcieSpec::dual_ioh_x16()),
    );
    let mut ioh = Ioh::new(IohSpec::intel_5520_dual());
    let payload = eng.dev.mem.alloc(bytes);
    let params = eng.dev.mem.alloc(PKTS * 16);
    let block_info = eng.dev.mem.alloc(bytes / 16 * 4);

    let mut st = EspStaging::default();
    r.bench("ipsec-shade/stage_64x1514B", per_gather, || {
        st.clear();
        eng.copy_h2d_with(0, &mut ioh, &payload, 0, bytes, |dst| {
            for (seq, inner) in inners.iter().enumerate() {
                black_box(st.push(dst, sa.spi, seq as u32, inner));
            }
        })
    });
    let map_len = st.n_blocks() as usize * 4;
    r.bench("ipsec-shade/h2d_64x1514B", per_gather, || {
        eng.copy_h2d(0, &mut ioh, &params, 0, st.params());
        eng.copy_h2d_with(0, &mut ioh, &block_info, 0, map_len, |dst| {
            st.block_map(dst)
        })
    });

    let aes = IpsecAesKernel {
        aes: sa.cipher(),
        nonce: 0xD00D,
        payload,
        block_info,
        params,
        n_blocks: st.n_blocks(),
    };
    r.bench("ipsec-shade/aes_kernel_64x1514B", per_gather, || {
        eng.launch(0, &aes, aes.n_blocks)
    });
    let hmac = IpsecHmacKernel {
        hmac: sa.hmac(),
        payload,
        params,
        n: st.n_pkts(),
    };
    r.bench("ipsec-shade/hmac_kernel_64x1514B", per_gather, || {
        eng.launch(0, &hmac, hmac.n)
    });

    let mut frames = vec![Vec::new(); PKTS];
    let total = ps_net::esp::total_len(1500);
    let (src, dst) = (Ipv4Addr::new(192, 0, 2, 1), Ipv4Addr::new(198, 51, 100, 1));
    r.bench("ipsec-shade/out_64x1514B", per_gather, || {
        eng.copy_d2h_with(0, 0, &mut ioh, &payload, 0, bytes, |out| {
            let regions = out.chunks(EspStaging::region_len(1500));
            for (frame, esp) in frames.iter_mut().zip(regions) {
                let (s, d) = (MacAddr::local(0xE0), MacAddr::local(0xE1));
                PacketBuilder::raw_v4_into(frame, s, d, src, dst, 50, &esp[..total]);
            }
        })
    });
}
