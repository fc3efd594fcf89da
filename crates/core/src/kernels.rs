//! The GPU kernels of the applications.
//!
//! Each kernel is real Rust executed once per simulated GPU thread;
//! memory traffic goes through [`ThreadCtx`] so the timing model sees
//! the true access pattern (coalesced input reads, scattered table
//! probes, block-parallel AES, per-packet HMAC, per-packet flow
//! hashing for the stateful NFs). Three kernels also execute a warp at
//! a time ([`Kernel::warp`]): the two IPsec kernels, with bulk crypto
//! on the host, and the IPv4 lookup, with the warp's table reads issued
//! back to back. Same bytes, same recorded costs; their `thread` bodies
//! remain the specification the tests compare against. The IPv6,
//! OpenFlow and flow-hash kernels run thread per lane.

use std::ops::Range;

use ps_crypto::aes::{ctr_counter_block, ctr_xor, Aes128};
use ps_crypto::esp::SecurityAssociation;
use ps_crypto::hmac::HmacSha1;
use ps_gpu::{DeviceBuffer, Kernel, Slots, ThreadCtx, WarpCtx};
use ps_lookup::dir24::Dir24Layout;
use ps_lookup::mem::TableMem;
use ps_lookup::waldvogel::V6Layout;
use ps_net::{esp as espfmt, FlowKey};
use ps_openflow::WildcardTable;

/// Adapter: a `TableMem` view over device memory for one buffer, so
/// the *same* lookup code runs on host slices and GPU threads.
pub(crate) struct CtxMem<'c, 'a> {
    ctx: &'c mut ThreadCtx<'a>,
    buf: DeviceBuffer,
}

impl<'c, 'a> CtxMem<'c, 'a> {
    /// View `buf` through `ctx`.
    pub fn new(ctx: &'c mut ThreadCtx<'a>, buf: DeviceBuffer) -> Self {
        CtxMem { ctx, buf }
    }
}

impl TableMem for CtxMem<'_, '_> {
    fn read_u16(&mut self, off: usize) -> u16 {
        self.ctx.read_u16(&self.buf, off)
    }
    fn read_u32(&mut self, off: usize) -> u32 {
        self.ctx.read_u32(&self.buf, off)
    }
    fn read_bytes<const N: usize>(&mut self, off: usize) -> [u8; N] {
        self.ctx.read(&self.buf, off)
    }
}

/// The column wiring every offload kernel shares: where thread `tid`
/// reads its input record and where it writes its result row.
/// Allocated once per node by `ColumnStage::alloc`; the engine runs
/// exactly one thread per staged packet.
#[derive(Debug, Clone, Copy)]
pub struct KernelIo {
    /// Input column, addressed per [`Slots`] (packed column or
    /// frame-resident, per the staging mode).
    pub input: DeviceBuffer,
    /// Where thread `tid` finds its input record in `input`.
    pub slots: Slots,
    /// Output column: packed result rows in every mode.
    pub output: DeviceBuffer,
}

/// IPv4 forwarding-table lookup: one thread per packet (§5.5 "map
/// each packet into an independent GPU thread").
pub(crate) struct Ipv4Kernel {
    /// DIR-24-8 image location in device memory.
    pub table: DeviceBuffer,
    /// Image layout.
    pub layout: Dir24Layout,
    /// In: little-endian u32 destination addresses; out: u16 next hops.
    pub io: KernelIo,
}

impl Kernel for Ipv4Kernel {
    fn name(&self) -> &str {
        "ipv4-dir24"
    }

    fn thread(&self, tid: u32, ctx: &mut ThreadCtx<'_>) {
        let addr = ctx.read_u32(&self.io.input, self.io.slots.at(tid));
        ctx.alu(20); // index arithmetic + branch
        let hop = {
            let mut mem = CtxMem::new(ctx, self.table);
            ps_lookup::dir24::lookup(&self.layout, &mut mem, addr)
        };
        // Spilled entries take a second dependent access; the trace
        // records it automatically. Record the branch for divergence.
        ctx.branch(hop & 0x8000 == 0);
        ctx.write(&self.io.output, tid as usize * 2, &hop.to_le_bytes());
    }

    /// The same launch a warp at a time, in three passes: read the
    /// warp's destinations; issue all its TBL24 reads back to back, so
    /// their cache misses overlap instead of waiting one by one between
    /// each lane's cost recording (the host analogue of a warp hiding
    /// memory latency); then resolve the spilled lanes' TBLlong reads,
    /// write the hop column and record each lane's steps as `thread`
    /// does.
    fn warp(&self, first_tid: u32, lanes: u32, ctx: &mut WarpCtx<'_>) {
        let n = lanes as usize;
        let (layout, slots) = (&self.layout, self.io.slots);
        let mut addrs = [0u32; 32];
        let input = ctx.bytes(&self.io.input, 0, self.io.input.len());
        for (a, tid) in addrs[..n].iter_mut().zip(first_tid..) {
            let at = slots.at(tid);
            *a = u32::from_le_bytes(input[at..at + 4].try_into().expect("4 bytes"));
        }
        let image = ctx.bytes(&self.table, 0, self.table.len());
        let read = |off: usize| u16::from_le_bytes([image[off], image[off + 1]]);
        let mut entries = [0u16; 32];
        for (e, &a) in entries[..n].iter_mut().zip(&addrs) {
            *e = read(layout.tbl24_offset(a));
        }
        let mut hops = entries;
        for ((hop, &e), &a) in hops[..n].iter_mut().zip(&entries).zip(&addrs) {
            if let Some(off) = layout.spill_offset(e, a) {
                *hop = read(off);
            }
        }

        // Packed records tile one range; frame-resident ones each sit
        // in their own slot.
        let packed = slots.stride == 4;
        if packed {
            ctx.touch(0, &self.io.input, slots.at(first_tid), n * 4);
        }
        for (lane, tid) in (0..n).zip(first_tid..) {
            let (a, e) = (addrs[lane], entries[lane]);
            if !packed {
                ctx.touch(0, &self.io.input, slots.at(tid), 4);
            }
            ctx.lane_alu(20);
            ctx.touch(1, &self.table, layout.tbl24_offset(a), 2);
            let mut step = 2;
            if let Some(off) = layout.spill_offset(e, a) {
                ctx.touch(step, &self.table, off, 2);
                step += 1;
            }
            ctx.branch(0, hops[lane] & 0x8000 == 0);
            ctx.touch(step, &self.io.output, tid as usize * 2, 2);
        }
        let out = ctx.bytes_mut(&self.io.output, first_tid as usize * 2, n * 2);
        for (row, hop) in out.chunks_exact_mut(2).zip(&hops) {
            row.copy_from_slice(&hop.to_le_bytes());
        }
    }
}

/// IPv6 lookup: binary search on prefix lengths, one thread per
/// packet; seven dependent probes dominate (§6.2.2).
pub struct Ipv6Kernel<'a> {
    /// Waldvogel image location.
    pub table: DeviceBuffer,
    /// Level directory (kernel parameters, not device memory).
    pub layout: &'a V6Layout,
    /// In: 16 B big-endian destination addresses; out: u16 next hops.
    pub io: KernelIo,
}

impl Kernel for Ipv6Kernel<'_> {
    fn name(&self) -> &str {
        "ipv6-waldvogel"
    }

    fn thread(&self, tid: u32, ctx: &mut ThreadCtx<'_>) {
        let raw: [u8; 16] = self.io.slots.read(ctx, &self.io.input, tid);
        let addr = u128::from_be_bytes(raw);
        // Hashing at each probe level: ~16 ALU ops per FNV over the
        // masked key, 7 levels.
        ctx.alu(7 * 16 + 30);
        let hop = {
            let mut mem = CtxMem::new(ctx, self.table);
            ps_lookup::waldvogel::lookup(self.layout, &mut mem, addr)
        };
        ctx.write(&self.io.output, tid as usize * 2, &hop.to_le_bytes());
    }
}

/// OpenFlow offload: per-packet flow-key hash + wildcard linear
/// search (§6.2.3 "we offload hash value calculation and the wildcard
/// matching to GPU"). Exact-match resolution stays on the CPU.
pub(crate) struct OpenFlowKernel<'a> {
    /// Serialized wildcard table (in device global memory).
    pub wildcard: DeviceBuffer,
    /// Number of wildcard entries.
    pub n_wildcard: usize,
    /// When the table fits in the SM's 48 KB shared memory (§2.1),
    /// thread blocks stage it there once and scan without global
    /// traffic; this holds the staged copy. `None` = scan global
    /// memory (large tables).
    pub shared_image: Option<&'a [u8]>,
    /// In: 32 B flow keys (31 B canonical + pad); out per packet:
    /// `hash:u32 action:u16 scanned:u16`.
    pub io: KernelIo,
}

/// Wildcard-table bytes that fit in shared memory alongside the
/// block's other needs (the GTX480 has 48 KB per SM).
pub(crate) const OF_SHARED_LIMIT: usize = 32 << 10;

/// Sentinel for "no wildcard entry matched".
pub(crate) const OF_NO_MATCH: u16 = 0xFFFD;

impl Kernel for OpenFlowKernel<'_> {
    fn name(&self) -> &str {
        "openflow-hash+wildcard"
    }

    fn thread(&self, tid: u32, ctx: &mut ThreadCtx<'_>) {
        let raw: [u8; 32] = self.io.slots.read(ctx, &self.io.input, tid);
        // FNV-1a over 31 bytes: ~2 ops/byte.
        ctx.alu(62);
        let h = ps_openflow::flow_hash_bytes(&raw[..31]);
        let key = flow_key_from_bytes(&raw);
        let (action, scanned) = match self.shared_image {
            Some(image) => {
                // Shared-memory scan: issue cost only.
                let mut mem = ps_lookup::mem::SliceMem::new(image);
                let (a, scanned) = WildcardTable::lookup_image(&mut mem, 0, self.n_wildcard, &key);
                ctx.shared(4 * scanned as u32);
                (a, scanned)
            }
            None => {
                let mut mem = CtxMem::new(ctx, self.wildcard);
                WildcardTable::lookup_image(&mut mem, 0, self.n_wildcard, &key)
            }
        };
        // ~12 compare ops per scanned entry.
        ctx.alu(12 * scanned as u32);
        ctx.branch(action.is_some());
        let o = tid as usize * 8;
        ctx.write_u32(&self.io.output, o, h);
        let act = action.unwrap_or(OF_NO_MATCH);
        ctx.write(&self.io.output, o + 4, &act.to_le_bytes());
        ctx.write(&self.io.output, o + 6, &(scanned as u16).to_le_bytes());
    }
}

/// Rebuild a [`FlowKey`] from its canonical 31-byte serialization.
pub(crate) fn flow_key_from_bytes(b: &[u8; 32]) -> FlowKey {
    FlowKey {
        in_port: u16::from_be_bytes([b[0], b[1]]),
        dl_src: b[2..8].try_into().expect("fixed"),
        dl_dst: b[8..14].try_into().expect("fixed"),
        dl_vlan: u16::from_be_bytes([b[14], b[15]]),
        dl_type: u16::from_be_bytes([b[16], b[17]]),
        nw_src: u32::from_be_bytes([b[18], b[19], b[20], b[21]]),
        nw_dst: u32::from_be_bytes([b[22], b[23], b[24], b[25]]),
        nw_proto: b[26],
        tp_src: u16::from_be_bytes([b[27], b[28]]),
        tp_dst: u16::from_be_bytes([b[29], b[30]]),
    }
}

/// Flow-hash offload for the stateful NFs (NAT, L4 load balancer):
/// one thread per packet hashes the staged canonical 5-tuple bytes
/// with the cuckoo table's hash function. The host applies the
/// stateful table operations in arrival order with the hash
/// precomputed — the same split as OpenFlow's hash offload (§6.2.3).
pub(crate) struct FlowHashKernel {
    /// In: 16 B key slots (13 canonical tuple bytes + pad); out: u64
    /// hashes.
    pub io: KernelIo,
}

impl Kernel for FlowHashKernel {
    fn name(&self) -> &str {
        "flow-hash"
    }

    fn thread(&self, tid: u32, ctx: &mut ThreadCtx<'_>) {
        let raw: [u8; 16] = self.io.slots.read(ctx, &self.io.input, tid);
        // Two splitmix64 rounds over the packed words: ~24 ALU ops.
        ctx.alu(24);
        let key: [u8; 13] = raw[..13].try_into().expect("fixed");
        let h = ps_flow::flow_hash_bytes(&key);
        ctx.write(&self.io.output, tid as usize * 8, &h.to_le_bytes());
    }
}

/// Host-side staging for one IPsec launch, in the layout the two
/// kernels read: ESP regions packed at 16 B-aligned bases of the
/// payload buffer, one 16 B params slot `[base:u32 ct_len:u32 iv:8B]`
/// per packet, and one block-map word `pkt_idx << 16 | block_idx` per
/// AES block (a 16-bit block index covers any IPv4 packet, and 32,768
/// packets' worth of words still fit a `u32`). Framing (SPI/seq/IV,
/// padding, trailer) happens here on the CPU, written straight into
/// the payload buffer it is handed — device memory, in `IpsecApp` —
/// and the GPU does the crypto. Only the params live on the host:
/// the block map is derived from them when it is copied. `clear`
/// keeps capacity, so a staging reused across launches stops
/// allocating once it has seen its largest batch.
#[derive(Debug, Default)]
pub struct EspStaging {
    /// Per-packet params slots.
    params: Vec<u8>,
    /// Payload bytes staged: the next region's base.
    len: usize,
    n_blocks: u32,
}

impl EspStaging {
    /// Forget the previous launch.
    pub fn clear(&mut self) {
        self.params.clear();
        self.len = 0;
        self.n_blocks = 0;
    }

    /// Packets staged.
    pub fn n_pkts(&self) -> u32 {
        (self.params.len() / 16) as u32
    }

    /// AES blocks staged.
    pub fn n_blocks(&self) -> u32 {
        self.n_blocks
    }

    /// The params slots staged, `16 * n_pkts()` bytes.
    pub fn params(&self) -> &[u8] {
        &self.params
    }

    /// Payload bytes a packet of `inner_len` inner bytes takes: its ESP
    /// packet, padded to 16 B so the next base stays aligned.
    pub fn region_len(inner_len: usize) -> usize {
        espfmt::total_len(inner_len).div_ceil(16) * 16
    }

    /// Frame `inner` as the next packet of the launch under sequence
    /// number `seq`, writing its region into `payload` (the launch's
    /// payload buffer, holding the `region_len` of every packet pushed
    /// since `clear`). Every byte of the region is written, ICV and
    /// alignment padding as zeros. Returns where its ESP packet lies.
    pub fn push(&mut self, payload: &mut [u8], spi: u32, seq: u32, inner: &[u8]) -> Range<usize> {
        let iv = SecurityAssociation::iv_for_seq(seq);
        let ct_len = espfmt::ciphertext_len(inner.len());
        let base = self.len;
        let region = &mut payload[base..base + Self::region_len(inner.len())];
        region[0..4].copy_from_slice(&spi.to_be_bytes());
        region[4..8].copy_from_slice(&seq.to_be_bytes());
        region[8..16].copy_from_slice(&iv);
        let (ct, tail) = region[16..].split_at_mut(ct_len);
        ct[..inner.len()].copy_from_slice(inner);
        let pad_len = ct_len - inner.len() - espfmt::TRAILER_MIN;
        for (j, b) in ct[inner.len()..inner.len() + pad_len]
            .iter_mut()
            .enumerate()
        {
            *b = (j + 1) as u8;
        }
        ct[ct_len - 2] = pad_len as u8;
        ct[ct_len - 1] = 4; // next header: IPv4-in-ESP
        tail.fill(0);

        let blocks = (ct_len / 16) as u32;
        assert!(blocks <= 1 << 16, "block index exceeds 16 bits");
        self.params.extend_from_slice(&(base as u32).to_le_bytes());
        self.params
            .extend_from_slice(&(ct_len as u32).to_le_bytes());
        self.params.extend_from_slice(&iv);
        self.n_blocks += blocks;
        self.len = base + region.len();
        base..base + espfmt::total_len(inner.len())
    }

    /// Write the block map, `4 * n_blocks()` bytes, into `dst`.
    pub fn block_map(&self, dst: &mut [u8]) {
        let mut at = 0;
        for (pkt, slot) in self.params.chunks_exact(16).enumerate() {
            let (_, ct_len, _) = esp_params(slot);
            let words = &mut dst[at..at + ct_len / 16 * 4];
            for (blk, w) in words.chunks_exact_mut(4).enumerate() {
                w.copy_from_slice(&((pkt as u32) << 16 | blk as u32).to_le_bytes());
            }
            at += words.len();
        }
    }
}

/// Decode one params slot: `(base, ct_len, iv)`.
fn esp_params(slot: &[u8]) -> (usize, usize, [u8; 8]) {
    let word = |at: usize| u32::from_le_bytes(slot[at..at + 4].try_into().expect("4 bytes"));
    let iv = slot[8..16].try_into().expect("8 bytes");
    (word(0) as usize, word(4) as usize, iv)
}

/// AES-128-CTR at AES-block granularity: one thread per 16 B block
/// (§6.2.4 "we chop packets into AES blocks (16B) and map each block
/// to one GPU thread").
pub struct IpsecAesKernel<'a> {
    /// The block cipher (round keys live in shared memory on a real
    /// GPU; functional state here). Borrowed from the SA so the key
    /// schedule is expanded once, not per launch.
    pub aes: &'a Aes128,
    /// The SA's CTR nonce.
    pub nonce: u32,
    /// Packed ESP regions.
    pub payload: DeviceBuffer,
    /// Per-block map: `pkt_idx << 16 | block_idx`.
    pub block_info: DeviceBuffer,
    /// Per-packet slots: `[base:u32 ct_len:u32 iv:8B]` (16 B each).
    pub params: DeviceBuffer,
    /// Total AES blocks.
    pub n_blocks: u32,
}

impl Kernel for IpsecAesKernel<'_> {
    fn name(&self) -> &str {
        "ipsec-aes-ctr"
    }

    fn thread(&self, tid: u32, ctx: &mut ThreadCtx<'_>) {
        if tid >= self.n_blocks {
            return;
        }
        let info = ctx.read_u32(&self.block_info, tid as usize * 4);
        let pkt = (info >> 16) as usize;
        let blk = info & 0xFFFF;
        let (base, _, iv) = esp_params(&ctx.read::<16>(&self.params, pkt * 16));
        // Keystream: one AES encryption over the counter block. With
        // shared-memory T-tables this is ~4 lookups + 4 xors per round
        // on a real GPU; charge ~20 issue ops per round.
        ctx.shared(10 * 20);
        let ks = self
            .aes
            .encrypt(&ctr_counter_block(self.nonce, &iv, blk + 1));
        let off = base + 16 + blk as usize * 16; // skip SPI/seq + IV
        let mut data: [u8; 16] = ctx.read(&self.payload, off);
        for (d, k) in data.iter_mut().zip(ks.iter()) {
            *d ^= k;
        }
        ctx.write(&self.payload, off, &data);
    }

    /// The same launch a warp at a time. Consecutive lanes that hold
    /// consecutive blocks of one packet read adjacent map words, the
    /// same params slot and adjacent payload blocks, so each such run
    /// is encrypted with one pipelined [`ctr_xor`] instead of one
    /// latency-bound block per lane. Runs are read off the block map,
    /// not assumed from the staging: along a run each word is its
    /// predecessor plus one ("word minus lane" is constant) and no
    /// word but the first has block index 0, so one compare per lane
    /// finds every run start. The recorded sets are the lanes' unions:
    /// the warp's map words tile one range (step 0), and each run
    /// reads one params slot (step 1) and reads and writes back one
    /// payload range (steps 2 and 3).
    fn warp(&self, first_tid: u32, lanes: u32, ctx: &mut WarpCtx<'_>) {
        let live = lanes.min(self.n_blocks.saturating_sub(first_tid)) as usize;
        if live == 0 {
            return;
        }
        let map_off = first_tid as usize * 4;
        // Bit i set: lane i starts a run. Every lane past `live` is set
        // too, so the last run ends at `live`.
        let starts = {
            let map = ctx.bytes(&self.block_info, map_off, live * 4);
            let padded;
            let map: &[u8; 128] = match map.try_into() {
                Ok(full) => full,
                Err(_) => {
                    padded = {
                        let mut p = [0u8; 128];
                        p[..map.len()].copy_from_slice(map);
                        p
                    };
                    &padded
                }
            };
            !0u64 << live | u64::from(run_starts(map))
        };
        ctx.touch(0, &self.block_info, map_off, live * 4);
        ctx.lane_alu(10 * 20);
        let mut lane = 0;
        while lane < live {
            let run = (starts >> (lane + 1)).trailing_zeros() as usize + 1;
            let info = ctx.bytes(&self.block_info, map_off + 4 * lane, 4);
            let info = u32::from_le_bytes(info.try_into().expect("4 bytes"));
            let (pkt, blk) = ((info >> 16) as usize, info & 0xFFFF);
            let (base, _, iv) = esp_params(ctx.bytes(&self.params, pkt * 16, 16));
            let off = base + 16 + blk as usize * 16;
            let len = run * 16;
            ctx.touch(1, &self.params, pkt * 16, 16);
            ctx.touch(2, &self.payload, off, len);
            ctx.touch(3, &self.payload, off, len);
            ctr_xor(
                self.aes,
                self.nonce,
                &iv,
                blk,
                ctx.bytes_mut(&self.payload, off, len),
            );
            lane += run;
        }
    }
}

/// Which of a warp's 32 block-map words start a run (bit i for lane
/// i): lane 0, and every lane whose word is not its predecessor's plus
/// one or has block index 0. Read straight off the map bytes, so the
/// compares vectorize.
fn run_starts(map: &[u8; 128]) -> u32 {
    let word =
        |lane: usize| u32::from_le_bytes(map[4 * lane..4 * lane + 4].try_into().expect("4 bytes"));
    let mut starts = 1u32;
    for i in 1..32 {
        let (w, prev) = (word(i), word(i - 1));
        let next = (w.wrapping_sub(prev) == 1) & (w & 0xFFFF != 0);
        starts |= u32::from(!next) << i;
    }
    starts
}

/// Payload steps of one HMAC lane over an `auth_len`-byte region: its
/// 64 B reads, 16 B reads and the ICV write.
fn hmac_steps(auth_len: usize) -> usize {
    auth_len / 64 + auth_len % 64 / 16 + 1
}

/// `(off, len)` of the access an HMAC lane over `auth_len` bytes at
/// `base` makes at payload step `step` (from 1), if any: the
/// per-thread body's sequence.
#[inline]
fn hmac_access(step: usize, auth_len: usize, base: usize) -> Option<(usize, usize)> {
    debug_assert_eq!(auth_len % 16, 0, "ESP regions are 16-aligned");
    let n64 = auth_len / 64;
    let reads = n64 + auth_len % 64 / 16;
    if step <= n64 {
        Some((base + 64 * (step - 1), 64))
    } else if step <= reads {
        Some((base + 64 * n64 + 16 * (step - 1 - n64), 16))
    } else if step == reads + 1 {
        Some((base + auth_len, 12))
    } else {
        None
    }
}

/// HMAC-SHA1 at packet granularity ("SHA1 cannot be parallelized at
/// the SHA1 block level due to data dependency; we parallelize SHA1
/// at the packet level", §6.2.4). Must run *after* the AES kernel —
/// ESP is encrypt-then-MAC.
pub struct IpsecHmacKernel<'a> {
    /// Keyed HMAC context (pads precomputed once per SA).
    pub hmac: &'a HmacSha1,
    /// Packed ESP regions (already encrypted).
    pub payload: DeviceBuffer,
    /// Per-packet slots (same layout as the AES kernel's).
    pub params: DeviceBuffer,
    /// Packets.
    pub n: u32,
}

impl Kernel for IpsecHmacKernel<'_> {
    fn name(&self) -> &str {
        "ipsec-hmac-sha1"
    }

    fn thread(&self, tid: u32, ctx: &mut ThreadCtx<'_>) {
        if tid >= self.n {
            return;
        }
        let (base, ct_len, _) = esp_params(&ctx.read::<16>(&self.params, tid as usize * 16));
        let auth_len = 16 + ct_len; // SPI+seq+IV+ciphertext

        // Stream the authenticated region in 64 B reads, feeding the
        // MAC incrementally: no per-thread gather buffer.
        let mut inner = self.hmac.begin();
        let mut off = base;
        let mut left = auth_len;
        while left >= 64 {
            inner.update(&ctx.read::<64>(&self.payload, off));
            off += 64;
            left -= 64;
        }
        while left >= 16 {
            inner.update(&ctx.read::<16>(&self.payload, off));
            off += 16;
            left -= 16;
        }
        debug_assert_eq!(left, 0, "ESP regions are 16-aligned");

        // ~400 issue ops per SHA-1 compression (80 rounds).
        let comps = ps_crypto::sha1::hmac_compressions(auth_len) as u32;
        ctx.shared(comps * 400);

        let icv = self.hmac.finish96(inner);
        ctx.write(&self.payload, base + auth_len, &icv);
    }

    /// The same launch a warp at a time: each lane's access sequence
    /// (params, 64 B reads, 16 B tail reads, ICV write) is recorded
    /// from its lengths alone — the warp's params slots as the one
    /// range they tile, then step by step over the lanes in address
    /// order, so every insertion appends — and the authenticated
    /// regions are MACed in place in device memory instead of through
    /// 64 B copies — lanes of one length together, up to sixteen a
    /// call ([`HmacSha1::mac96_many`]), wherever in the warp they sit.
    fn warp(&self, first_tid: u32, lanes: u32, ctx: &mut WarpCtx<'_>) {
        let live = lanes.min(self.n.saturating_sub(first_tid)) as usize;
        if live == 0 {
            return;
        }
        // (auth_len, base) of each live lane.
        let mut regions = [(0usize, 0usize); 32];
        let params_off = first_tid as usize * 16;
        let slots = ctx.bytes(&self.params, params_off, live * 16);
        for (r, slot) in regions.iter_mut().zip(slots.chunks_exact(16)) {
            let (base, ct_len, _) = esp_params(slot);
            *r = (16 + ct_len, base);
        }
        let regions = &mut regions[..live];

        // Step by step, lanes in address order: every lane's first
        // `shared` steps are 64 B reads at the same offset into its
        // region; the rest depend on each lane's length.
        ctx.touch(0, &self.params, params_off, live * 16);
        let (mut shared, mut steps, mut comps) = (usize::MAX, 0, 0);
        for &(auth_len, _) in regions.iter() {
            shared = shared.min(auth_len / 64);
            steps = steps.max(hmac_steps(auth_len));
            comps = comps.max(ps_crypto::sha1::hmac_compressions(auth_len) as u64);
        }
        for i in 0..shared {
            let accesses = regions.iter().map(|&(_, base)| (base + 64 * i, 64));
            ctx.touch_each(1 + i, &self.payload, accesses);
        }
        for step in 1 + shared..=steps {
            let accesses = regions
                .iter()
                .filter_map(|&(auth_len, base)| hmac_access(step, auth_len, base));
            ctx.touch_each(step, &self.payload, accesses);
        }
        ctx.lane_alu(comps * 400);

        // Sorting brings the lanes of one length together wherever in
        // the warp they sat. A group's ICVs are stored after its MACs:
        // staged regions are disjoint, so the order is free.
        regions.sort_unstable();
        for group in regions.chunk_by(|a, b| a.0 == b.0) {
            let auth_len = group[0].0;
            for lanes in group.chunks(HmacSha1::MANY) {
                let mut bases = [0usize; HmacSha1::MANY];
                let mut icvs = [[0u8; 12]; HmacSha1::MANY];
                let (bases, icvs) = (&mut bases[..lanes.len()], &mut icvs[..lanes.len()]);
                for (base, lane) in bases.iter_mut().zip(lanes) {
                    *base = lane.1;
                }
                let payload = ctx.bytes(&self.payload, 0, self.payload.len());
                self.hmac.mac96_many(payload, bases, auth_len, icvs);
                for (&base, icv) in bases.iter().zip(icvs.iter()) {
                    ctx.bytes_mut(&self.payload, base + auth_len, 12)
                        .copy_from_slice(icv);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_crypto::esp::encrypt_tunnel;
    use ps_gpu::{kernel, DeviceMemory, GpuDevice, LaunchStats};
    use ps_lookup::dir24::Dir24Table;
    use ps_lookup::route::Route4;

    #[test]
    fn ipv4_kernel_produces_real_lookups() {
        let routes = vec![
            Route4::new(0x0A000000, 8, 1),
            Route4::new(0x0A0B0000, 16, 2),
            Route4::new(0, 0, 7),
        ];
        let table = Dir24Table::build(&routes);
        let mut dev = GpuDevice::gtx480_with_mem(64 << 20);
        let tbuf = dev.mem.map(table.shared_image(), 0);
        let input = dev.mem.alloc(4 * 4);
        let output = dev.mem.alloc(4 * 2);
        let addrs: [u32; 4] = [0x0A0B0101, 0x0A111111, 0x01020304, 0xFFFFFFFF];
        for (i, a) in addrs.iter().enumerate() {
            dev.mem.write(&input, i * 4, &a.to_le_bytes());
        }
        let k = Ipv4Kernel {
            table: tbuf,
            layout: table.layout(),
            io: KernelIo {
                input,
                slots: Slots::packed(4),
                output,
            },
        };
        let stats = kernel::execute(&k, &mut dev.mem, 4);
        assert_eq!(stats.threads, 4);
        let hops: Vec<u16> = (0..4)
            .map(|i| {
                let mut b = [0u8; 2];
                dev.mem.read(&output, i * 2, &mut b);
                u16::from_le_bytes(b)
            })
            .collect();
        assert_eq!(hops, vec![2, 1, 7, 7]);
    }

    /// The §6.2.1 table as the benchmark builds it
    /// (`ps_bench::workloads::ipv4_routes_paper(1)`): two /1 roots plus
    /// the 282,797-prefix RouteViews-shaped set, seed 1. Without the
    /// roots, addresses outside every prefix miss.
    fn paper_routes(roots: bool) -> Vec<Route4> {
        let mut routes = Vec::new();
        if roots {
            routes.extend([Route4::new(0, 1, 0), Route4::new(0x8000_0000, 1, 4)]);
        }
        routes.extend(ps_lookup::synth::routeviews_like(
            ps_lookup::synth::ROUTEVIEWS_PREFIXES,
            8,
            1,
        ));
        routes
    }

    /// The address inside `r` whose host bits are `host`'s.
    fn inside(r: &Route4, host: u32) -> u32 {
        r.prefix | (host & u32::MAX.checked_shr(r.len.into()).unwrap_or(0))
    }

    /// 3,000 destinations over `routes` (93 full warps and one of 24
    /// lanes), lane by lane in turn: one inside a prefix longer than
    /// /24 (a spilled hit), one elsewhere in such a prefix's /24 (the
    /// spill block's inherited entries), two uniform.
    fn pin_addrs(routes: &[Route4]) -> Vec<u32> {
        let long: Vec<&Route4> = routes.iter().filter(|r| r.len > 24).collect();
        let mut rng = ps_rng::Rng::seed_from_u64(0x1F4);
        (0..3000)
            .map(|i| {
                let r = long[rng.gen_range(0..long.len())];
                let host = rng.next_u32();
                match i % 4 {
                    0 => inside(r, host),
                    1 => (r.prefix & !0xFF) | (host & 0xFF),
                    _ => host,
                }
            })
            .collect()
    }

    /// Launch `Ipv4Kernel` over `addrs` staged under `slots`, in the
    /// allocation order `ColumnApp::setup_gpu` uses (table, input,
    /// output). Returns the launch's stats and the output column,
    /// after checking every row against the host lookup.
    fn run_ipv4(table: &Dir24Table, addrs: &[u32], slots: Slots) -> (LaunchStats, Vec<u8>) {
        let n = addrs.len();
        let in_len = slots.at(n as u32);
        let mut mem = DeviceMemory::new(table.image().len() + in_len + 2 * n + 3 * 256);
        let tbuf = mem.map(table.shared_image(), 0);
        let input = mem.alloc(in_len);
        let output = mem.alloc(2 * n);
        for (tid, a) in (0u32..).zip(addrs) {
            mem.write(&input, slots.at(tid), &a.to_le_bytes());
        }
        let k = Ipv4Kernel {
            table: tbuf,
            layout: table.layout(),
            io: KernelIo {
                input,
                slots,
                output,
            },
        };
        let stats = kernel::execute(&k, &mut mem, n as u32);
        let out = mem.slice(&output).to_vec();
        for (a, row) in addrs.iter().zip(out.chunks_exact(2)) {
            assert_eq!(u16::from_le_bytes([row[0], row[1]]), table.lookup_host(*a));
        }
        (stats, out)
    }

    /// Pin `Ipv4Kernel`'s launch stats and output column over
    /// [`pin_addrs`] under packed (SoA) and frame-resident staging, at
    /// constants recorded on the per-thread kernel (before
    /// `Ipv4Kernel` overrode `Kernel::warp`). `misses` asserts whether
    /// the batch holds `NO_ROUTE` rows.
    fn check_ipv4_pin(
        routes: &[Route4],
        misses: bool,
        packed: Pinned,
        frames: Pinned,
        out_pin: u64,
    ) {
        let table = Dir24Table::build(routes);
        let addrs = pin_addrs(routes);
        let n = addrs.len() as u32;
        let (soa, out) = run_ipv4(&table, &addrs, Slots::packed(4));
        let (framed, framed_out) = run_ipv4(&table, &addrs, Slots::frames(2048, 30));
        assert_eq!(out, framed_out, "rows depend on the slot layout");
        let missed = out
            .chunks_exact(2)
            .filter(|r| r == &ps_lookup::NO_ROUTE.to_le_bytes())
            .count();
        assert_eq!(missed > 0, misses, "{missed} NO_ROUTE rows");
        assert_eq!(
            (soa, framed, fnv64(&out)),
            (pinned(n, packed), pinned(n, frames), out_pin)
        );
    }

    #[test]
    fn ipv4_pin_paper_table() {
        check_ipv4_pin(
            &paper_routes(true),
            false,
            (4779, 4, 1880, 0),
            (7685, 4, 1880, 0),
            2888443745012102161,
        );
    }

    #[test]
    fn ipv4_pin_paper_prefixes_without_roots() {
        check_ipv4_pin(
            &paper_routes(false),
            true,
            (4779, 4, 1880, 0),
            (7685, 4, 1880, 0),
            1125384174388038285,
        );
    }

    /// Any table, any batch, any staging mode: `Ipv4Kernel`'s `warp`
    /// leaves the same output column and the same per-warp costs as
    /// its per-thread body. Tables cluster routes of every length 0–32
    /// in a few /16s, so prefixes nest, share spill blocks and
    /// sometimes leave no default; three lanes in four land inside a
    /// route, a route's /24 or a cluster, so warps mix spilled lanes,
    /// direct ones and misses.
    #[test]
    fn ipv4_warp_execution_matches_per_thread() {
        use crate::columns::{ColumnStage, IPV4_COLUMNS};
        use ps_gpu::{GpuEngine, Staging};
        use ps_hw::pcie::PcieModel;
        use ps_hw::spec::PcieSpec;

        ps_check::check("ipv4_warp_execution_matches_per_thread", |g| {
            let bases: Vec<u32> = g.vec_of(1, 4, |g| g.value::<u32>() & 0xFFFF_0000);
            let routes = g.vec_of(1, 60, |g| {
                let base = bases[g.int_in(0..bases.len())];
                let len = g.int_in(0u8..=32);
                let prefix = if len < 16 {
                    base
                } else {
                    base | (g.value::<u32>() & 0xFFFF)
                };
                Route4::new(prefix, len, g.int_in(0u16..16))
            });
            let addrs = g.vec_of(1, 501, |g| {
                let r = routes[g.int_in(0..routes.len())];
                let host = g.value::<u32>();
                match g.int_in(0..4u32) {
                    0 => inside(&r, host),
                    1 => (r.prefix & !0xFF) | (host & 0xFF),
                    2 => bases[g.int_in(0..bases.len())] | (host & 0xFFFF),
                    _ => host,
                }
            });
            let mode = [Staging::Frames, Staging::Soa, Staging::DirectDma][g.int_in(0..3usize)];

            let table = Dir24Table::build(&routes);
            // Room for the frame-mode input (16 MiB) and the output.
            let dev = GpuDevice::gtx480_with_mem(table.image().len() + (17 << 20));
            let mut eng = GpuEngine::new(dev, PcieModel::new(PcieSpec::dual_ioh_x16()));
            let tbuf = eng.dev.mem.map(table.shared_image(), 0);
            let mut stage = ColumnStage::new(IPV4_COLUMNS);
            stage.set_mode(mode);
            let io = stage.alloc(&mut eng, addrs.len());
            for (tid, a) in (0u32..).zip(&addrs) {
                eng.dev
                    .mem
                    .write(&io.input, io.slots.at(tid), &a.to_le_bytes());
            }
            let k = Ipv4Kernel {
                table: tbuf,
                layout: table.layout(),
                io,
            };
            kernel::warp_matches_threads(&k, &mut eng.dev.mem, addrs.len() as u32)
                .map_err(|e| format!("{} staging: {e}", mode.label()))?;
            Ok(())
        });
    }

    /// One staged IPsec launch: device memory laid out as
    /// `IpsecApp::shade` lays it out (payload, params, block map, in
    /// that allocation order), plus what the tests need to read back.
    struct EspBatch {
        mem: DeviceMemory,
        payload: DeviceBuffer,
        params: DeviceBuffer,
        block_info: DeviceBuffer,
        n_blocks: u32,
        n_pkts: u32,
        /// Each staged packet's ESP packet within `payload`.
        regions: Vec<Range<usize>>,
    }

    impl EspBatch {
        fn aes<'a>(&self, sa: &'a SecurityAssociation) -> IpsecAesKernel<'a> {
            IpsecAesKernel {
                aes: sa.cipher(),
                nonce: NONCE,
                payload: self.payload,
                block_info: self.block_info,
                params: self.params,
                n_blocks: self.n_blocks,
            }
        }

        fn hmac<'a>(&self, sa: &'a SecurityAssociation) -> IpsecHmacKernel<'a> {
            IpsecHmacKernel {
                hmac: sa.hmac(),
                payload: self.payload,
                params: self.params,
                n: self.n_pkts,
            }
        }
    }

    const NONCE: u32 = 0xDEAD;

    fn sa() -> SecurityAssociation {
        SecurityAssociation::new(0x1001, &[0x42; 16], NONCE, b"hmac-key-for-test")
    }

    /// Stage `inners` the way `IpsecApp::shade` does and copy the
    /// three buffers into a device sized for them. A `None` is a
    /// malformed frame: it takes a sentinel slot on the host, consumes
    /// no sequence number and stages nothing.
    fn stage_esp(sa: &mut SecurityAssociation, inners: &[Option<Vec<u8>>]) -> EspBatch {
        let mut st = EspStaging::default();
        let bytes = inners
            .iter()
            .flatten()
            .map(|inner| EspStaging::region_len(inner.len()))
            .sum();
        let mut packed = vec![0u8; bytes];
        let mut regions = Vec::new();
        for inner in inners.iter().flatten() {
            let seq = sa.seq;
            sa.seq = sa.seq.wrapping_add(1);
            regions.push(st.push(&mut packed, sa.spi, seq, inner));
        }
        let mut block_map = vec![0u8; st.n_blocks() as usize * 4];
        st.block_map(&mut block_map);
        let mut mem = DeviceMemory::new(bytes + st.params().len() + block_map.len() + 4 * 256);
        let payload = mem.alloc(bytes);
        let params = mem.alloc(st.params().len());
        let block_info = mem.alloc(block_map.len());
        mem.write(&payload, 0, &packed);
        mem.write(&params, 0, st.params());
        mem.write(&block_info, 0, &block_map);
        EspBatch {
            mem,
            payload,
            params,
            block_info,
            n_blocks: st.n_blocks(),
            n_pkts: st.n_pkts(),
            regions,
        }
    }

    /// A deterministic inner packet for frame length `frame_len`.
    fn inner(pkt: usize, frame_len: usize) -> Option<Vec<u8>> {
        Some(
            (0..frame_len - 14)
                .map(|i| {
                    (i as u8)
                        .wrapping_mul(31)
                        .wrapping_add((pkt as u8).wrapping_mul(7))
                })
                .collect(),
        )
    }

    fn fnv64(data: &[u8]) -> u64 {
        data.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// `(mem_transactions, max_chain, issue_cycles, divergent_branches)`.
    type Pinned = (u64, u32, u64, u64);

    fn pinned(threads: u32, s: Pinned) -> LaunchStats {
        LaunchStats {
            threads,
            warps: threads.div_ceil(32),
            mem_transactions: s.0,
            max_chain: s.1,
            issue_cycles: s.2,
            divergent_branches: s.3,
        }
    }

    /// Run AES then HMAC over `inners` and compare the launch stats
    /// and the device payload with constants recorded on the
    /// per-thread kernels (before `Kernel::warp` existed). The payload
    /// is also checked against `encrypt_tunnel`, so the staging helper
    /// above cannot drift from the ESP format unnoticed.
    fn check_pin(inners: &[Option<Vec<u8>>], aes_pin: Pinned, hmac_pin: Pinned, payload_pin: u64) {
        let mut sa_gpu = sa();
        let mut b = stage_esp(&mut sa_gpu, inners);
        let aes_stats = kernel::execute(&b.aes(&sa_gpu), &mut b.mem, b.n_blocks);
        let hmac_stats = kernel::execute(&b.hmac(&sa_gpu), &mut b.mem, b.n_pkts);

        let mut sa_cpu = sa();
        let out = b.mem.slice(&b.payload);
        for (inner, region) in inners.iter().flatten().zip(&b.regions) {
            assert_eq!(
                &out[region.clone()],
                &encrypt_tunnel(&mut sa_cpu, inner)[..],
                "region {region:?} is not the ESP packet the CPU path produces"
            );
        }
        assert_eq!(
            (aes_stats, hmac_stats, fnv64(out)),
            (
                pinned(b.n_blocks, aes_pin),
                pinned(b.n_pkts, hmac_pin),
                payload_pin
            ),
        );
    }

    #[test]
    fn ipsec_pin_64_full_frames() {
        let inners: Vec<_> = (0..64).map(|i| inner(i, 1514)).collect();
        check_pin(
            &inners,
            (2284, 4, 37_600, 0),
            (1736, 28, 21_600, 0),
            9248777515481933827,
        );
    }

    #[test]
    fn ipsec_pin_mixed_sizes_with_malformed_slot() {
        let mut inners: Vec<_> = [64, 1514, 128, 577, 1514, 64]
            .iter()
            .enumerate()
            .map(|(i, &len)| inner(i, len))
            .collect();
        inners.insert(3, None);
        check_pin(
            &inners,
            (94, 4, 1600, 0),
            (101, 28, 10_800, 0),
            985117254054753553,
        );
    }

    #[test]
    fn ipsec_pin_single_small_packet() {
        check_pin(
            &[inner(0, 64)],
            (4, 4, 200, 0),
            (4, 4, 2000, 0),
            1395569783504292010,
        );
    }

    /// 5 x 7 = 35 AES blocks: the second warp has three live lanes.
    #[test]
    fn ipsec_pin_partial_last_warp() {
        let inners: Vec<_> = (0..5).map(|i| inner(i, 114)).collect();
        check_pin(
            &inners,
            (18, 4, 400, 0),
            (17, 4, 2400, 0),
            17408697909178242466,
        );
    }

    /// Any batch, any launch width: the `warp` overrides of both
    /// IPsec kernels leave the same device bytes and the same
    /// `LaunchStats` as their per-thread bodies. Launching more
    /// threads than there is work exercises the idle-lane guards.
    #[test]
    fn ipsec_warp_execution_matches_per_thread() {
        ps_check::check("ipsec_warp_execution_matches_per_thread", |g| {
            let inners = g.vec_of(1, 201, |g| {
                let malformed = g.int_in(0..10u32) == 0;
                (!malformed).then(|| g.bytes(46, 1501))
            });
            let extra = g.int_in(0..40u32);
            let mut sa = sa();
            let mut b = stage_esp(&mut sa, &inners);
            kernel::warp_matches_threads(&b.aes(&sa), &mut b.mem, b.n_blocks + extra)?;
            kernel::warp_matches_threads(&b.hmac(&sa), &mut b.mem, b.n_pkts + extra)?;
            Ok(())
        });
    }

    /// The same comparison over batches shaped for the HMAC kernel's
    /// grouping, which random lengths almost never form: a warp of one
    /// length (two full 16-lane calls), 16 + 1, the narrowest group
    /// that goes wide (5) beside the widest that does not (4), three
    /// lengths interleaved lane by lane, a malformed slot in the
    /// middle, and a lead-in that moves where the warps cut.
    #[test]
    fn ipsec_hmac_warp_groups_lanes_by_length() {
        ps_check::check("ipsec_hmac_warp_groups_lanes_by_length", |g| {
            let counts: [usize; 3] = match g.int_in(0..5u32) {
                0 => [g.int_in(16..=32usize), 0, 0],
                1 => [17, 0, 0],
                2 => [5, 4, g.int_in(0..=3usize)],
                3 => [
                    g.int_in(5..=11usize),
                    g.int_in(5..=11usize),
                    g.int_in(5..=10usize),
                ],
                _ => [
                    g.int_in(1..=32usize),
                    g.int_in(0..=20usize),
                    g.int_in(0..=20usize),
                ],
            };
            // Three inner lengths whose authenticated regions differ.
            let short = g.int_in(46..500usize);
            let lens = [
                short,
                short + 16 * g.int_in(1..30usize),
                short + 16 * g.int_in(30..60usize),
            ];
            let lead = if g.int_in(0..3u32) == 0 {
                g.int_in(1..32usize)
            } else {
                0
            };
            let mut inners: Vec<_> = (0..lead).map(|_| Some(g.bytes(46, 1501))).collect();
            for round in 0..32 {
                for (len, count) in lens.iter().zip(counts) {
                    if round < count {
                        inners.push(Some(g.bytes(*len, len + 1)));
                    }
                }
            }
            if g.int_in(0..2u32) == 0 {
                inners.insert(g.int_in(0..=inners.len()), None);
            }
            let extra = g.int_in(0..40u32);
            let mut sa = sa();
            let mut b = stage_esp(&mut sa, &inners);
            kernel::warp_matches_threads(&b.aes(&sa), &mut b.mem, b.n_blocks + extra)?;
            kernel::warp_matches_threads(&b.hmac(&sa), &mut b.mem, b.n_pkts + extra)?;
            Ok(())
        });
    }

    /// The block map's words are `pkt << 16 | blk`, so the last block
    /// of a 65,536-block packet and the first block of the next packet
    /// are numerically consecutive. They are not one run: the second
    /// lane reads another params slot.
    #[test]
    fn aes_run_stops_where_the_block_index_carries() {
        let mut mem = DeviceMemory::new(1 << 21);
        let second = (16 + (1 << 16) * 16) as u32;
        let payload = mem.alloc(second as usize + 32);
        let params = mem.alloc(32);
        let block_info = mem.alloc(8);
        for (pkt, base) in [(0u32, 0u32), (1, second)] {
            mem.write(&params, pkt as usize * 16, &base.to_le_bytes());
            mem.write(&params, pkt as usize * 16 + 8, &[pkt as u8 + 1; 8]);
        }
        mem.write(&block_info, 0, &0xFFFFu32.to_le_bytes());
        mem.write(&block_info, 4, &0x1_0000u32.to_le_bytes());
        let sa = sa();
        let aes = IpsecAesKernel {
            aes: sa.cipher(),
            nonce: NONCE,
            payload,
            block_info,
            params,
            n_blocks: 2,
        };
        kernel::warp_matches_threads(&aes, &mut mem, 2).expect("two runs");
    }

    #[test]
    fn flow_key_round_trips_canonical_bytes() {
        let key = FlowKey {
            in_port: 3,
            dl_src: [1, 2, 3, 4, 5, 6],
            dl_dst: [7, 8, 9, 10, 11, 12],
            dl_vlan: 0xFFFF,
            dl_type: 0x0800,
            nw_src: 0x0A010203,
            nw_dst: 0x0B040506,
            nw_proto: 17,
            tp_src: 1234,
            tp_dst: 80,
        };
        let mut raw = [0u8; 32];
        raw[..31].copy_from_slice(&key.to_bytes());
        assert_eq!(flow_key_from_bytes(&raw), key);
    }
}
