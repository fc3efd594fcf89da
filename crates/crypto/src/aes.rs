//! AES-128 block cipher (FIPS-197) and CTR mode (RFC 3686 framing).
//!
//! Four implementations, one contract:
//!
//! * The **VAES path** — the CTR keystream sixteen blocks at a time,
//!   four blocks per 512-bit `vaesenc`, selected at runtime when the
//!   CPU has VAES and AVX-512 F + BW. This is what the router's bulk
//!   CTR runs on such hardware.
//! * The **AES-NI path** — `aesenc`-based block encryption and an
//!   eight-block CTR keystream, selected at runtime when the CPU has
//!   the instructions (the paper's "highly optimized AES … using
//!   SSE", §6.2.4). Single blocks, and CTR where VAES is missing, run
//!   here.
//! * The **T-table path** — four const-evaluated 1 KiB T-tables
//!   (S-box and MixColumns fused into 32-bit lookups, the classic
//!   software construction) with a four-block CTR routine for
//!   instruction-level parallelism; the portable fast path.
//! * The **oracle** ([`oracle`]) — the original byte-oriented
//!   implementation (S-box + `xtime`, no tables), kept verbatim as
//!   the reference the fast path is tested against, block by block
//!   and keystream by keystream.
//!
//! Virtual-time costs come from the simulator's cost model, so the
//! fast path changes wall-clock speed only; every byte it produces is
//! pinned to the oracle (and to FIPS-197 / SP 800-38A / RFC 3686
//! vectors) by the unit tests, `tests/kat.rs` and the ps-check
//! properties.

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

#[inline]
const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// Build the four encryption T-tables at const-eval time. `TE[0][x]`
/// packs the MixColumns column `(2·S(x), S(x), S(x), 3·S(x))`
/// big-endian; `TE[1..4]` are its byte rotations, so one round of
/// SubBytes + ShiftRows + MixColumns collapses to four lookups and
/// three XORs per column.
const fn te_tables() -> [[u32; 256]; 4] {
    let mut t = [[0u32; 256]; 4];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let s2 = xtime(s);
        let s3 = s2 ^ s;
        let w = ((s2 as u32) << 24) | ((s as u32) << 16) | ((s as u32) << 8) | (s3 as u32);
        t[0][i] = w;
        t[1][i] = w.rotate_right(8);
        t[2][i] = w.rotate_right(16);
        t[3][i] = w.rotate_right(24);
        i += 1;
    }
    t
}

/// The four 1 KiB T-tables (4 KiB total, fits L1).
static TE: [[u32; 256]; 4] = te_tables();

/// AES-NI backend: the `aesenc`/`aesenclast` instruction path, used
/// when the CPU has it (runtime-detected once, cached). This is the
/// "highly optimized AES … using SSE" configuration of the paper's
/// CPU baseline (§6.2.4). Bit-identical to the T-table path and the
/// byte oracle — the same KATs and ps-check properties pin all three.
#[cfg(target_arch = "x86_64")]
mod ni {
    use core::arch::x86_64::*;

    #[inline]
    #[target_feature(enable = "aes,sse2")]
    unsafe fn load_rk(rk: &[[u8; 16]; 11]) -> [__m128i; 11] {
        let mut k = [_mm_setzero_si128(); 11];
        for (dst, src) in k.iter_mut().zip(rk.iter()) {
            *dst = _mm_loadu_si128(src.as_ptr() as *const __m128i);
        }
        k
    }

    /// Encrypt one block.
    #[target_feature(enable = "aes,sse2")]
    pub(crate) unsafe fn encrypt1(rk: &[[u8; 16]; 11], block: &[u8; 16]) -> [u8; 16] {
        let k = load_rk(rk);
        let mut s = _mm_xor_si128(_mm_loadu_si128(block.as_ptr() as *const __m128i), k[0]);
        for key in &k[1..10] {
            s = _mm_aesenc_si128(s, *key);
        }
        s = _mm_aesenclast_si128(s, k[10]);
        let mut out = [0u8; 16];
        _mm_storeu_si128(out.as_mut_ptr() as *mut __m128i, s);
        out
    }

    /// Encrypt four independent blocks, round-interleaved so the
    /// `aesenc` latencies overlap.
    #[target_feature(enable = "aes,sse2")]
    pub unsafe fn encrypt4(rk: &[[u8; 16]; 11], blocks: &mut [[u8; 16]; 4]) {
        let k = load_rk(rk);
        let mut s = [_mm_setzero_si128(); 4];
        for (l, b) in s.iter_mut().zip(blocks.iter()) {
            *l = _mm_xor_si128(_mm_loadu_si128(b.as_ptr() as *const __m128i), k[0]);
        }
        for key in &k[1..10] {
            for l in &mut s {
                *l = _mm_aesenc_si128(*l, *key);
            }
        }
        for (l, b) in s.iter_mut().zip(blocks.iter_mut()) {
            *l = _mm_aesenclast_si128(*l, k[10]);
            _mm_storeu_si128(b.as_mut_ptr() as *mut __m128i, *l);
        }
    }

    /// RFC 3686 CTR keystream XOR, eight blocks in flight. Same
    /// counter semantics as the scalar paths (block index `i` uses
    /// counter `i + 1`, wrapping mod 2³²).
    #[target_feature(enable = "aes,sse2,sse4.1")]
    pub unsafe fn ctr_xor(
        rk: &[[u8; 16]; 11],
        nonce: u32,
        iv: &[u8; 8],
        first_block: u32,
        data: &mut [u8],
    ) {
        let k = load_rk(rk);
        // Counter block template: nonce || iv || 0, counter patched in.
        let mut tmpl = [0u8; 16];
        tmpl[0..4].copy_from_slice(&nonce.to_be_bytes());
        tmpl[4..12].copy_from_slice(iv);
        let tmpl = _mm_loadu_si128(tmpl.as_ptr() as *const __m128i);

        let ctr_block = |idx: u32| {
            // Counter occupies the last 4 bytes, big-endian.
            let ctr = idx.wrapping_add(1).to_be() as i32;
            _mm_insert_epi32::<3>(tmpl, ctr)
        };

        let mut idx = first_block;
        let mut chunks = data.chunks_exact_mut(128);
        for chunk in &mut chunks {
            let mut s = [_mm_setzero_si128(); 8];
            for (i, l) in s.iter_mut().enumerate() {
                *l = _mm_xor_si128(ctr_block(idx.wrapping_add(i as u32)), k[0]);
            }
            for key in &k[1..10] {
                for l in &mut s {
                    *l = _mm_aesenc_si128(*l, *key);
                }
            }
            for (i, l) in s.iter_mut().enumerate() {
                *l = _mm_aesenclast_si128(*l, k[10]);
                let p = chunk.as_mut_ptr().add(i * 16) as *mut __m128i;
                _mm_storeu_si128(p, _mm_xor_si128(_mm_loadu_si128(p), *l));
            }
            idx = idx.wrapping_add(8);
        }
        for blk in chunks.into_remainder().chunks_mut(16) {
            let mut s = _mm_xor_si128(ctr_block(idx), k[0]);
            for key in &k[1..10] {
                s = _mm_aesenc_si128(s, *key);
            }
            s = _mm_aesenclast_si128(s, k[10]);
            let mut kb = [0u8; 16];
            _mm_storeu_si128(kb.as_mut_ptr() as *mut __m128i, s);
            for (d, ks) in blk.iter_mut().zip(&kb) {
                *d ^= ks;
            }
            idx = idx.wrapping_add(1);
        }
    }
}

/// VAES backend: the AES-NI rounds applied to four blocks per 512-bit
/// register, used for the CTR keystream when the CPU has VAES and
/// AVX-512 F + BW. Bit-identical to the other paths — the same KATs
/// and oracle comparisons pin it.
#[cfg(target_arch = "x86_64")]
mod vaes {
    use core::arch::x86_64::*;

    /// The counter dword (the last of each 128-bit block) of every
    /// block in a register.
    const CTR_DWORDS: u16 = 0x8888;

    /// RFC 3686 CTR keystream XOR, sixteen blocks in flight as four
    /// registers of four. Counters are kept native-endian in each
    /// block's last dword, so a plain 32-bit add steps them and wraps
    /// them mod 2³² exactly as the scalar paths do; a byte shuffle
    /// turns them big-endian. The tail is one pass of as many
    /// registers as it needs, the last one through a byte mask, not
    /// one latency-bound block at a time.
    ///
    /// # Safety
    ///
    /// The CPU must have VAES, AVX-512 F and AVX-512 BW
    /// ([`crate::cpu::vaes`]).
    #[target_feature(enable = "vaes,avx512f,avx512bw")]
    pub unsafe fn ctr_xor(
        rk: &[[u8; 16]; 11],
        nonce: u32,
        iv: &[u8; 8],
        first_block: u32,
        data: &mut [u8],
    ) {
        let mut k = [_mm512_setzero_si512(); 11];
        for (dst, src) in k.iter_mut().zip(rk) {
            *dst = _mm512_broadcast_i32x4(_mm_loadu_si128(src.as_ptr().cast()));
        }
        let mut tmpl = [0u8; 16];
        tmpl[0..4].copy_from_slice(&nonce.to_be_bytes());
        tmpl[4..12].copy_from_slice(iv);
        let c = Ctr {
            k,
            tmpl: _mm512_broadcast_i32x4(_mm_loadu_si128(tmpl.as_ptr().cast())),
            // Reverse the bytes of every dword (zero dwords stay zero).
            bswap: _mm512_broadcast_i32x4(_mm_set_epi8(
                12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3,
            )),
        };
        // Block j of register r carries counter first_block + 4r + j + 1.
        let base = _mm512_maskz_set1_epi32(CTR_DWORDS, first_block as i32);
        let mut ctr = [_mm512_setzero_si512(); 4];
        for (r, c) in ctr.iter_mut().enumerate() {
            let mut ofs = [0u32; 16];
            for j in 0..4 {
                ofs[4 * j + 3] = (4 * r + j + 1) as u32;
            }
            *c = _mm512_add_epi32(base, _mm512_loadu_si512(ofs.as_ptr().cast()));
        }
        let sixteen = _mm512_maskz_set1_epi32(CTR_DWORDS, 16);

        let mut chunks = data.chunks_exact_mut(256);
        for chunk in &mut chunks {
            c.pass::<4>(&ctr, chunk);
            for c in &mut ctr {
                *c = _mm512_add_epi32(*c, sixteen);
            }
        }
        let tail = chunks.into_remainder();
        match tail.len().div_ceil(64) {
            0 => {}
            1 => c.pass::<1>(&ctr, tail),
            2 => c.pass::<2>(&ctr, tail),
            3 => c.pass::<3>(&ctr, tail),
            _ => c.pass::<4>(&ctr, tail),
        }
    }

    /// What every pass of one [`ctr_xor`] call shares.
    struct Ctr {
        /// Round keys, each broadcast to the four blocks.
        k: [__m512i; 11],
        /// `nonce || iv || 0` in every block.
        tmpl: __m512i,
        bswap: __m512i,
    }

    impl Ctr {
        /// Encrypt the counters of the first `N` registers of `ctr` and
        /// XOR them into `data` (`64 * (N - 1) < data.len() <= 64 * N`;
        /// the last register goes through a byte mask).
        #[inline]
        #[target_feature(enable = "vaes,avx512f,avx512bw")]
        fn pass<const N: usize>(&self, ctr: &[__m512i; 4], data: &mut [u8]) {
            assert!(64 * (N - 1) < data.len() && data.len() <= 64 * N);
            let k = &self.k;
            let mut s = [_mm512_setzero_si512(); N];
            for (l, c) in s.iter_mut().zip(ctr) {
                let block = _mm512_or_si512(self.tmpl, _mm512_shuffle_epi8(*c, self.bswap));
                *l = _mm512_xor_si512(block, k[0]);
            }
            for key in &k[1..10] {
                for l in &mut s {
                    *l = _mm512_aesenc_epi128(*l, *key);
                }
            }
            let p = data.as_mut_ptr();
            for (r, l) in s.iter().enumerate() {
                let ks = _mm512_aesenclast_epi128(*l, k[10]);
                let n = (data.len() - 64 * r).min(64) as u32;
                let mask = u64::MAX >> (64 - n);
                // SAFETY: `64 * r < data.len()` (asserted above), and
                // the mask covers only `data[64 * r..][..n]`: masked-off
                // bytes are neither read nor written.
                unsafe {
                    let at = p.add(64 * r);
                    let d = _mm512_maskz_loadu_epi8(mask, at.cast());
                    _mm512_mask_storeu_epi8(at.cast(), mask, _mm512_xor_si512(d, ks));
                }
            }
        }
    }
}

/// An expanded AES-128 key (11 round keys, kept in both byte and
/// 32-bit-word form: bytes for the oracle and the FIPS-197 expansion
/// KATs, words for the T-table rounds).
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
    rk_words: [[u32; 4]; 11],
}

impl Aes128 {
    /// Expand a 128-bit key.
    pub fn new(key: &[u8; 16]) -> Aes128 {
        let mut rk = [[0u8; 16]; 11];
        rk[0] = *key;
        for round in 1..11 {
            let prev = rk[round - 1];
            let mut w = [prev[12], prev[13], prev[14], prev[15]];
            // RotWord + SubWord + Rcon
            w.rotate_left(1);
            for b in &mut w {
                *b = SBOX[*b as usize];
            }
            w[0] ^= RCON[round - 1];
            for i in 0..4 {
                rk[round][i] = prev[i] ^ w[i];
            }
            for i in 4..16 {
                rk[round][i] = prev[i] ^ rk[round][i - 4];
            }
        }
        let mut rk_words = [[0u32; 4]; 11];
        for (r, words) in rk_words.iter_mut().enumerate() {
            for (j, w) in words.iter_mut().enumerate() {
                let b = &rk[r][j * 4..j * 4 + 4];
                *w = u32::from_be_bytes(b.try_into().expect("4 bytes"));
            }
        }
        Aes128 {
            round_keys: rk,
            rk_words,
        }
    }

    /// Encrypt one 16-byte block in place (AES-NI when the CPU has
    /// it, T-tables otherwise).
    pub(crate) fn encrypt_block(&self, block: &mut [u8; 16]) {
        #[cfg(target_arch = "x86_64")]
        if crate::cpu::aes_ni() {
            *block = unsafe { ni::encrypt1(&self.round_keys, block) };
            return;
        }
        let s = self.encrypt_words(load_words(block));
        store_words(&s, block);
    }

    /// Encrypt a copy of `block`.
    pub fn encrypt(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }

    /// Encrypt four independent blocks in place — the CTR keystream
    /// unit. The four block states are advanced round by round
    /// together so the loads of one block overlap the XOR chains of
    /// the others (both the AES-NI and T-table forms interleave).
    pub fn encrypt4(&self, blocks: &mut [[u8; 16]; 4]) {
        #[cfg(target_arch = "x86_64")]
        if crate::cpu::aes_ni() {
            unsafe { ni::encrypt4(&self.round_keys, blocks) };
            return;
        }
        let b = self.encrypt_words4([
            load_words(&blocks[0]),
            load_words(&blocks[1]),
            load_words(&blocks[2]),
            load_words(&blocks[3]),
        ]);
        for (blk, s) in blocks.iter_mut().zip(&b) {
            store_words(s, blk);
        }
    }

    /// The expanded key schedule (11 round keys), for known-answer
    /// tests against the FIPS-197 expansion walkthrough.
    pub fn round_keys(&self) -> &[[u8; 16]; 11] {
        &self.round_keys
    }

    /// One block over column words (big-endian within each word).
    #[inline]
    fn encrypt_words(&self, mut s: [u32; 4]) -> [u32; 4] {
        for (w, rk) in s.iter_mut().zip(&self.rk_words[0]) {
            *w ^= rk;
        }
        for round in 1..10 {
            s = table_round(&s, &self.rk_words[round]);
        }
        final_round(&s, &self.rk_words[10])
    }

    /// Four blocks, round-interleaved.
    #[inline]
    fn encrypt_words4(&self, mut b: [[u32; 4]; 4]) -> [[u32; 4]; 4] {
        for blk in &mut b {
            for (w, rk) in blk.iter_mut().zip(&self.rk_words[0]) {
                *w ^= rk;
            }
        }
        for round in 1..10 {
            let rk = &self.rk_words[round];
            b = [
                table_round(&b[0], rk),
                table_round(&b[1], rk),
                table_round(&b[2], rk),
                table_round(&b[3], rk),
            ];
        }
        let rk = &self.rk_words[10];
        [
            final_round(&b[0], rk),
            final_round(&b[1], rk),
            final_round(&b[2], rk),
            final_round(&b[3], rk),
        ]
    }
}

#[inline]
fn load_words(block: &[u8; 16]) -> [u32; 4] {
    let mut s = [0u32; 4];
    for (j, w) in s.iter_mut().enumerate() {
        *w = u32::from_be_bytes(block[j * 4..j * 4 + 4].try_into().expect("4 bytes"));
    }
    s
}

#[inline]
fn store_words(s: &[u32; 4], block: &mut [u8; 16]) {
    for (j, w) in s.iter().enumerate() {
        block[j * 4..j * 4 + 4].copy_from_slice(&w.to_be_bytes());
    }
}

/// One full table round: column `j` reads rows 0..3 from columns
/// `j, j+1, j+2, j+3` (ShiftRows folded into the indexing).
#[inline]
fn table_round(s: &[u32; 4], rk: &[u32; 4]) -> [u32; 4] {
    let mut out = [0u32; 4];
    for (j, o) in out.iter_mut().enumerate() {
        *o = TE[0][(s[j] >> 24) as usize]
            ^ TE[1][((s[(j + 1) & 3] >> 16) & 0xff) as usize]
            ^ TE[2][((s[(j + 2) & 3] >> 8) & 0xff) as usize]
            ^ TE[3][(s[(j + 3) & 3] & 0xff) as usize]
            ^ rk[j];
    }
    out
}

/// The last round has no MixColumns: plain S-box with the same
/// ShiftRows indexing.
#[inline]
fn final_round(s: &[u32; 4], rk: &[u32; 4]) -> [u32; 4] {
    let mut out = [0u32; 4];
    for (j, o) in out.iter_mut().enumerate() {
        *o = (u32::from(SBOX[(s[j] >> 24) as usize]) << 24)
            | (u32::from(SBOX[((s[(j + 1) & 3] >> 16) & 0xff) as usize]) << 16)
            | (u32::from(SBOX[((s[(j + 2) & 3] >> 8) & 0xff) as usize]) << 8)
            | u32::from(SBOX[(s[(j + 3) & 3] & 0xff) as usize]);
        *o ^= rk[j];
    }
    out
}

/// RFC 3686 CTR counter block: `nonce(4) || iv(8) || counter(4)`,
/// counter starting at 1.
#[inline]
pub fn ctr_counter_block(nonce: u32, iv: &[u8; 8], counter: u32) -> [u8; 16] {
    let mut block = [0u8; 16];
    block[0..4].copy_from_slice(&nonce.to_be_bytes());
    block[4..12].copy_from_slice(iv);
    block[12..16].copy_from_slice(&counter.to_be_bytes());
    block
}

/// Produce the keystream block for CTR block index `idx` (0-based;
/// the wire counter is `idx + 1`, wrapping) and XOR it into `data`
/// (up to 16 bytes). This is the independent unit of work the paper
/// maps to one GPU thread; the tests' per-block oracle.
#[cfg(test)]
pub(crate) fn ctr_block(aes: &Aes128, nonce: u32, iv: &[u8; 8], idx: u32, data: &mut [u8]) {
    debug_assert!(data.len() <= 16);
    let ks = aes.encrypt(&ctr_counter_block(nonce, iv, idx.wrapping_add(1)));
    for (d, k) in data.iter_mut().zip(ks.iter()) {
        *d ^= k;
    }
}

/// XOR the RFC 3686 keystream for block indices `first_block..` into
/// `data`, on the fastest backend this CPU has (VAES, then AES-NI,
/// then T-tables). Handles arbitrary lengths and counter wrap-around;
/// the counter word for block index `i` is `i + 1` modulo 2³².
/// Equivalent to [`oracle::ctr_xor`] byte for byte.
pub fn ctr_xor(aes: &Aes128, nonce: u32, iv: &[u8; 8], first_block: u32, data: &mut [u8]) {
    if !ctr_xor_vaes(aes, nonce, iv, first_block, data)
        && !ctr_xor_ni(aes, nonce, iv, first_block, data)
    {
        ctr_xor_soft(aes, nonce, iv, first_block, data);
    }
}

/// The VAES CTR path, called by name so tests pin it against the
/// oracle; `false` (and `data` untouched) on a CPU without it.
#[inline]
fn ctr_xor_vaes(aes: &Aes128, nonce: u32, iv: &[u8; 8], first_block: u32, data: &mut [u8]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if crate::cpu::vaes() {
        // SAFETY: detected on the line above.
        unsafe { vaes::ctr_xor(&aes.round_keys, nonce, iv, first_block, data) };
        return true;
    }
    false
}

/// The AES-NI CTR path, called by name like [`ctr_xor_vaes`].
#[inline]
fn ctr_xor_ni(aes: &Aes128, nonce: u32, iv: &[u8; 8], first_block: u32, data: &mut [u8]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if crate::cpu::aes_ni() {
        // SAFETY: detected on the line above.
        unsafe { ni::ctr_xor(&aes.round_keys, nonce, iv, first_block, data) };
        return true;
    }
    false
}

/// The portable T-table CTR path — the `ctr_xor` fallback, kept
/// callable so tests pin it against the oracle even on CPUs where the
/// dispatch never takes it.
fn ctr_xor_soft(aes: &Aes128, nonce: u32, iv: &[u8; 8], first_block: u32, data: &mut [u8]) {
    let iv0 = u32::from_be_bytes(iv[0..4].try_into().expect("4 bytes"));
    let iv1 = u32::from_be_bytes(iv[4..8].try_into().expect("4 bytes"));
    let mut idx = first_block;
    let mut chunks = data.chunks_exact_mut(64);
    for chunk in &mut chunks {
        let ctr = |i: u32| [nonce, iv0, iv1, idx.wrapping_add(i).wrapping_add(1)];
        let ks = aes.encrypt_words4([ctr(0), ctr(1), ctr(2), ctr(3)]);
        for (blk, ksw) in chunk.chunks_exact_mut(16).zip(&ks) {
            let mut kb = [0u8; 16];
            store_words(ksw, &mut kb);
            for (d, k) in blk.iter_mut().zip(&kb) {
                *d ^= k;
            }
        }
        idx = idx.wrapping_add(4);
    }
    for blk in chunks.into_remainder().chunks_mut(16) {
        let ks = aes.encrypt_words([nonce, iv0, iv1, idx.wrapping_add(1)]);
        let mut kb = [0u8; 16];
        store_words(&ks, &mut kb);
        for (d, k) in blk.iter_mut().zip(&kb) {
            *d ^= k;
        }
        idx = idx.wrapping_add(1);
    }
}

/// Streaming CTR en/decryption (encrypt == decrypt).
pub struct CtrStream {
    aes: Aes128,
    nonce: u32,
}

impl CtrStream {
    /// A CTR context with the RFC 3686 per-SA nonce.
    pub fn new(key: &[u8; 16], nonce: u32) -> CtrStream {
        CtrStream {
            aes: Aes128::new(key),
            nonce,
        }
    }

    /// XOR the keystream for (`iv`) into `data`.
    pub fn apply(&self, iv: &[u8; 8], data: &mut [u8]) {
        ctr_xor(&self.aes, self.nonce, iv, 0, data);
    }

    /// The underlying block cipher (the GPU kernel drives blocks
    /// itself).
    pub fn cipher(&self) -> &Aes128 {
        &self.aes
    }

    /// The SA nonce.
    pub fn nonce(&self) -> u32 {
        self.nonce
    }
}

pub mod oracle {
    //! The byte-oriented reference implementation — S-box and `xtime`
    //! only, exactly the seed implementation this crate shipped with.
    //! It exists so the T-table fast path always has an in-tree
    //! oracle: every optimized routine is property-tested against
    //! these functions over random keys, lengths and offsets.

    use super::{ctr_counter_block, Aes128, SBOX};

    #[inline]
    fn xtime(b: u8) -> u8 {
        super::xtime(b)
    }

    /// Encrypt one 16-byte block in place, byte-oriented.
    pub(crate) fn encrypt_block(aes: &Aes128, block: &mut [u8; 16]) {
        let rk = aes.round_keys();
        add_round_key(block, &rk[0]);
        for round_key in &rk[1..10] {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, round_key);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &rk[10]);
    }

    /// Encrypt a copy of `block`, byte-oriented.
    pub fn encrypt(aes: &Aes128, block: &[u8; 16]) -> [u8; 16] {
        let mut out = *block;
        encrypt_block(aes, &mut out);
        out
    }

    /// Scalar CTR keystream XOR: one block at a time, counter for
    /// block index `i` is `i + 1` modulo 2³². The reference
    /// [`super::ctr_xor`] is tested against.
    pub fn ctr_xor(aes: &Aes128, nonce: u32, iv: &[u8; 8], first_block: u32, data: &mut [u8]) {
        for (off, chunk) in data.chunks_mut(16).enumerate() {
            let idx = first_block.wrapping_add(off as u32);
            let ks = encrypt(aes, &ctr_counter_block(nonce, iv, idx.wrapping_add(1)));
            for (d, k) in chunk.iter_mut().zip(ks.iter()) {
                *d ^= k;
            }
        }
    }

    #[inline]
    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for i in 0..16 {
            state[i] ^= rk[i];
        }
    }

    #[inline]
    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    /// State is column-major: state[4*c + r] is row r, column c.
    #[inline]
    fn shift_rows(state: &mut [u8; 16]) {
        // Row 1: shift left by 1.
        let t = state[1];
        state[1] = state[5];
        state[5] = state[9];
        state[9] = state[13];
        state[13] = t;
        // Row 2: shift left by 2.
        state.swap(2, 10);
        state.swap(6, 14);
        // Row 3: shift left by 3 (= right by 1).
        let t = state[15];
        state[15] = state[11];
        state[11] = state[7];
        state[7] = state[3];
        state[3] = t;
    }

    #[inline]
    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = &mut state[4 * c..4 * c + 4];
            let a = [col[0], col[1], col[2], col[3]];
            let t = a[0] ^ a[1] ^ a[2] ^ a[3];
            col[0] = a[0] ^ t ^ xtime(a[0] ^ a[1]);
            col[1] = a[1] ^ t ^ xtime(a[1] ^ a[2]);
            col[2] = a[2] ^ t ^ xtime(a[2] ^ a[3]);
            col[3] = a[3] ^ t ^ xtime(a[3] ^ a[0]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips197_vector() {
        let key: [u8; 16] = (0u8..16).collect::<Vec<_>>().try_into().unwrap();
        let aes = Aes128::new(&key);
        let pt: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let ct = aes.encrypt(&pt);
        assert_eq!(
            ct,
            [
                0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
                0xc5, 0x5a
            ]
        );
        // The oracle agrees on the published vector too.
        assert_eq!(oracle::encrypt(&aes, &pt), ct);
    }

    /// A cheap deterministic byte source for oracle comparisons
    /// (xorshift64*; the crate deliberately has no deps).
    struct Xs(u64);
    impl Xs {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        fn fill(&mut self, buf: &mut [u8]) {
            for b in buf.iter_mut() {
                *b = self.next() as u8;
            }
        }
    }

    /// The T-table and CTR fallback paths must agree with the
    /// dispatching entry points even on CPUs where the dispatch takes
    /// the AES-NI path and the fallback would otherwise go untested.
    #[test]
    fn soft_paths_match_dispatch() {
        let mut xs = Xs(0xDEAD_BEEF_CAFE_F00D);
        for _ in 0..32 {
            let mut key = [0u8; 16];
            let mut pt = [0u8; 16];
            xs.fill(&mut key);
            xs.fill(&mut pt);
            let aes = Aes128::new(&key);
            let soft = {
                let mut out = pt;
                let s = aes.encrypt_words(load_words(&out));
                store_words(&s, &mut out);
                out
            };
            assert_eq!(aes.encrypt(&pt), soft);

            let mut iv = [0u8; 8];
            xs.fill(&mut iv);
            let nonce = xs.next() as u32;
            let first = xs.next() as u32;
            let mut a = vec![0u8; 200];
            xs.fill(&mut a);
            let mut b = a.clone();
            ctr_xor(&aes, nonce, &iv, first, &mut a);
            ctr_xor_soft(&aes, nonce, &iv, first, &mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn ttable_matches_oracle_on_random_blocks() {
        let mut xs = Xs(0x9E37_79B9_7F4A_7C15);
        for _ in 0..64 {
            let mut key = [0u8; 16];
            let mut pt = [0u8; 16];
            xs.fill(&mut key);
            xs.fill(&mut pt);
            let aes = Aes128::new(&key);
            assert_eq!(aes.encrypt(&pt), oracle::encrypt(&aes, &pt));
        }
    }

    #[test]
    fn encrypt4_equals_four_single_blocks() {
        let mut xs = Xs(42);
        let mut key = [0u8; 16];
        xs.fill(&mut key);
        let aes = Aes128::new(&key);
        let mut blocks = [[0u8; 16]; 4];
        for b in &mut blocks {
            xs.fill(b);
        }
        let singles: Vec<[u8; 16]> = blocks.iter().map(|b| aes.encrypt(b)).collect();
        aes.encrypt4(&mut blocks);
        assert_eq!(blocks.to_vec(), singles);
    }

    #[test]
    fn batched_ctr_matches_oracle_odd_lengths() {
        let mut xs = Xs(7);
        let mut key = [0u8; 16];
        xs.fill(&mut key);
        let aes = Aes128::new(&key);
        let iv = [9u8; 8];
        for len in [0usize, 1, 15, 16, 17, 63, 64, 65, 100, 129, 1504] {
            let mut fast = vec![0u8; len];
            xs.fill(&mut fast);
            let mut slow = fast.clone();
            ctr_xor(&aes, 0xABCD, &iv, 3, &mut fast);
            oracle::ctr_xor(&aes, 0xABCD, &iv, 3, &mut slow);
            assert_eq!(fast, slow, "len={len}");
        }
    }

    #[test]
    fn ctr_counter_wraps_instead_of_panicking() {
        let aes = Aes128::new(&[1u8; 16]);
        let iv = [2u8; 8];
        // 5 blocks starting at u32::MAX - 1: counters MAX, 0, 1, 2, 3.
        let mut fast = vec![0x55u8; 80];
        let mut slow = fast.clone();
        ctr_xor(&aes, 7, &iv, u32::MAX - 1, &mut fast);
        oracle::ctr_xor(&aes, 7, &iv, u32::MAX - 1, &mut slow);
        assert_eq!(fast, slow);
        // The wrapped second block equals block index 0's counter (0+... )
        let mut b0 = vec![0x55u8; 16];
        ctr_block(&aes, 7, &iv, u32::MAX, &mut b0);
        assert_eq!(&fast[16..32], &b0[..], "counter 0 after wrap");
    }

    /// The VAES path against the byte oracle at every length up to
    /// 1,100 B: whole passes of sixteen blocks, partial registers, and
    /// lengths that end mid-block.
    #[test]
    fn vaes_ctr_matches_oracle_at_every_length() {
        let mut xs = Xs(0x0005_EED0_FAE5);
        let mut key = [0u8; 16];
        xs.fill(&mut key);
        let aes = Aes128::new(&key);
        for len in 0..=1100 {
            let mut iv = [0u8; 8];
            xs.fill(&mut iv);
            let (nonce, first) = (xs.next() as u32, xs.next() as u32 >> 1);
            let mut fast = vec![0u8; len];
            xs.fill(&mut fast);
            let mut slow = fast.clone();
            if !ctr_xor_vaes(&aes, nonce, &iv, first, &mut fast) {
                println!("skipped: no vaes+avx512f+bw");
                return;
            }
            oracle::ctr_xor(&aes, nonce, &iv, first, &mut slow);
            assert_eq!(fast, slow, "len={len}");
        }
    }

    /// Counters near 2³² wrap to 0 inside a register (first block
    /// `u32::MAX - 1`) and across the sixteen-block stride (first block
    /// `u32::MAX - 17`), exactly as the oracle's do.
    #[test]
    fn vaes_ctr_wraps_the_counter_like_the_oracle() {
        let aes = Aes128::new(&[0x6Bu8; 16]);
        let iv = [0x3Cu8; 8];
        for back in 0..=20u32 {
            for len in [16usize, 64, 100, 256, 300, 597] {
                let first = u32::MAX - back;
                let mut fast: Vec<u8> = (0..len).map(|i| i as u8).collect();
                let mut slow = fast.clone();
                if !ctr_xor_vaes(&aes, 0x0102_0304, &iv, first, &mut fast) {
                    println!("skipped: no vaes+avx512f+bw");
                    return;
                }
                oracle::ctr_xor(&aes, 0x0102_0304, &iv, first, &mut slow);
                assert_eq!(fast, slow, "first=u32::MAX-{back} len={len}");
            }
        }
    }

    /// RFC 3686 §6 vectors #1–#3 through each CTR backend by name; a
    /// backend this CPU lacks is reported as skipped, not passed.
    #[test]
    fn every_ctr_backend_reproduces_rfc3686() {
        type Backend = fn(&Aes128, u32, &[u8; 8], u32, &mut [u8]) -> bool;
        let soft: Backend = |aes, nonce, iv, first, data| {
            ctr_xor_soft(aes, nonce, iv, first, data);
            true
        };
        let backends: [(&str, Backend); 3] =
            [("vaes", ctr_xor_vaes), ("ni", ctr_xor_ni), ("ttable", soft)];
        let hex = |s: &str| -> Vec<u8> {
            (0..s.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
                .collect()
        };
        let vectors = [
            (
                "ae6852f8121067cc4bf7a5765577f39e",
                0x0000_0030,
                "0000000000000000",
                "53696e676c6520626c6f636b206d7367",
                "e4095d4fb7a7b3792d6175a3261311b8",
            ),
            (
                "7e24067817fae0d743d6ce1f32539163",
                0x006c_b6db,
                "c0543b59da48d90b",
                "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
                "5104a106168a72d9790d41ee8edad388eb2e1efc46da57c8fce630df9141be28",
            ),
            (
                "7691be035e5020a8ac6e618529f9a0dc",
                0x00e0_017b,
                "27777f3f4a1786f0",
                "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20212223",
                "c1cf48a89f2ffdd9cf4652e9efdb72d74540a42bde6d7836d59a5ceaaef3105325b2072f",
            ),
        ];
        for (name, backend) in backends {
            for (key, nonce, iv, plain, want) in vectors {
                let aes = Aes128::new(&hex(key).try_into().unwrap());
                let iv: [u8; 8] = hex(iv).try_into().unwrap();
                let mut data = hex(plain);
                if !backend(&aes, nonce, &iv, 0, &mut data) {
                    println!("skipped: no {name}");
                    break;
                }
                assert_eq!(data, hex(want), "{name}");
            }
        }
    }

    #[test]
    fn rfc3686_test_vector_1() {
        // RFC 3686 §6 Test Vector #1.
        let key: [u8; 16] = [
            0xAE, 0x68, 0x52, 0xF8, 0x12, 0x10, 0x67, 0xCC, 0x4B, 0xF7, 0xA5, 0x76, 0x55, 0x77,
            0xF3, 0x9E,
        ];
        let nonce = 0x0000_0030;
        let iv = [0u8; 8];
        let mut data = *b"Single block msg";
        let ctr = CtrStream::new(&key, nonce);
        ctr.apply(&iv, &mut data);
        assert_eq!(
            data,
            [
                0xE4, 0x09, 0x5D, 0x4F, 0xB7, 0xA7, 0xB3, 0x79, 0x2D, 0x61, 0x75, 0xA3, 0x26, 0x13,
                0x11, 0xB8
            ]
        );
    }

    #[test]
    fn rfc3686_test_vector_2() {
        // RFC 3686 §6 Test Vector #2: 32 bytes, two blocks.
        let key: [u8; 16] = [
            0x7E, 0x24, 0x06, 0x78, 0x17, 0xFA, 0xE0, 0xD7, 0x43, 0xD6, 0xCE, 0x1F, 0x32, 0x53,
            0x91, 0x63,
        ];
        let nonce = 0x006C_B6DB;
        let iv = [0xC0, 0x54, 0x3B, 0x59, 0xDA, 0x48, 0xD9, 0x0B];
        let mut data: Vec<u8> = (0..32).collect();
        let ctr = CtrStream::new(&key, nonce);
        ctr.apply(&iv, &mut data);
        assert_eq!(
            data,
            vec![
                0x51, 0x04, 0xA1, 0x06, 0x16, 0x8A, 0x72, 0xD9, 0x79, 0x0D, 0x41, 0xEE, 0x8E, 0xDA,
                0xD3, 0x88, 0xEB, 0x2E, 0x1E, 0xFC, 0x46, 0xDA, 0x57, 0xC8, 0xFC, 0xE6, 0x30, 0xDF,
                0x91, 0x41, 0xBE, 0x28
            ]
        );
    }

    #[test]
    fn ctr_round_trip() {
        let key = [7u8; 16];
        let ctr = CtrStream::new(&key, 0xABCD);
        let iv = [1, 2, 3, 4, 5, 6, 7, 8];
        let original: Vec<u8> = (0..100u8).collect();
        let mut data = original.clone();
        ctr.apply(&iv, &mut data);
        assert_ne!(data, original);
        ctr.apply(&iv, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn ctr_blocks_are_independent() {
        // Encrypting block-by-block out of order equals streaming.
        let key = [9u8; 16];
        let ctr = CtrStream::new(&key, 0x42);
        let iv = [8, 7, 6, 5, 4, 3, 2, 1];
        let mut streamed = vec![0x5Au8; 48];
        ctr.apply(&iv, &mut streamed);

        let mut blocks = vec![0x5Au8; 48];
        for idx in [2u32, 0, 1] {
            let s = idx as usize * 16;
            ctr_block(ctr.cipher(), 0x42, &iv, idx, &mut blocks[s..s + 16]);
        }
        assert_eq!(streamed, blocks);
    }

    #[test]
    fn different_ivs_differ() {
        let key = [3u8; 16];
        let ctr = CtrStream::new(&key, 1);
        let mut a = vec![0u8; 16];
        let mut b = vec![0u8; 16];
        ctr.apply(&[0; 8], &mut a);
        ctr.apply(&[1; 8], &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn key_schedule_first_round_key_is_key() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let aes = Aes128::new(&key);
        assert_eq!(aes.round_keys[0], key);
        // FIPS-197 A.1: w[4..8] of the expanded key.
        assert_eq!(aes.round_keys[1][0..4], [0xa0, 0xfa, 0xfe, 0x17]);
        // The word-form schedule is the byte form, big-endian.
        assert_eq!(aes.rk_words[1][0], 0xa0fafe17);
        assert_eq!(
            aes.rk_words[0][0],
            u32::from_be_bytes(key[0..4].try_into().unwrap())
        );
    }
}
