//! SHA-1 (FIPS 180-1). Used only as the HMAC core for ESP
//! authentication, matching the paper's cipher suite; SHA-1 is of
//! course obsolete for new designs.
//!
//! The compression function has two forms: a SHA-NI path
//! (`sha1rnds4`/`sha1nexte`/`sha1msg1`/`sha1msg2`, runtime-detected)
//! and the portable scalar form. Both produce identical digests —
//! the FIPS vectors and the incremental/property tests pin them.

/// SHA-1 block size in bytes.
pub const BLOCK: usize = 64;
/// SHA-1 digest size in bytes.
pub(crate) const DIGEST: usize = 20;

/// Incremental SHA-1.
#[derive(Clone)]
pub struct Sha1 {
    h: [u32; 5],
    buf: [u8; BLOCK],
    buf_len: usize,
    total: u64,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// A fresh hash state.
    pub fn new() -> Sha1 {
        Sha1 {
            h: [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0],
            buf: [0; BLOCK],
            buf_len: 0,
            total: 0,
        }
    }

    /// Absorb data.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total += data.len() as u64;
        if self.buf_len > 0 {
            let take = (BLOCK - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == BLOCK {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
            if data.is_empty() {
                return;
            }
        }
        while data.len() >= BLOCK {
            let (block, rest) = data.split_at(BLOCK);
            self.compress(block.try_into().expect("exact block"));
            data = rest;
        }
        self.buf[..data.len()].copy_from_slice(data);
        self.buf_len = data.len();
    }

    /// Finish and produce the digest. Padding is written directly
    /// into the block buffer (one or two compressions), not fed
    /// byte-at-a-time through `update` — `finalize` runs twice per
    /// HMAC, so its fixed cost is on the per-packet path.
    pub fn finalize(mut self) -> [u8; DIGEST] {
        let bit_len = self.total * 8;
        let n = self.buf_len;
        self.buf[n] = 0x80;
        if n + 1 > 56 {
            // No room for the length: close this block, then pad a
            // fresh one.
            self.buf[n + 1..].fill(0);
            let block = self.buf;
            self.compress(&block);
            self.buf = [0; BLOCK];
        } else {
            self.buf[n + 1..56].fill(0);
        }
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);
        let mut out = [0u8; DIGEST];
        for (i, w) in self.h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// One-shot digest.
    pub fn digest(data: &[u8]) -> [u8; DIGEST] {
        let mut s = Sha1::new();
        s.update(data);
        s.finalize()
    }

    /// The chaining state after the blocks absorbed so far.
    pub(crate) fn state(&self) -> [u32; 5] {
        self.h
    }

    /// Compress one block: SHA-NI when the CPU has it, scalar
    /// otherwise.
    fn compress(&mut self, block: &[u8; BLOCK]) {
        #[cfg(target_arch = "x86_64")]
        if crate::cpu::sha_ni() {
            unsafe { ni::compress(&mut self.h, block) };
            return;
        }
        self.compress_soft(block);
    }

    /// The scalar compression function, written for wall-clock speed:
    /// the message schedule lives in a 16-word ring computed on the
    /// fly (no 80-word expansion buffer), the four phases are
    /// separate loops (no per-round predicate dispatch), and the
    /// choice/majority functions use their 3-op forms. Bit-identical
    /// to the textbook FIPS 180-1 formulation — the published vectors
    /// below pin it.
    fn compress_soft(&mut self, block: &[u8; BLOCK]) {
        let mut w = [0u32; 16];
        for (i, word) in w.iter_mut().enumerate() {
            *word = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("in block"));
        }
        let [mut a, mut b, mut c, mut d, mut e] = self.h;

        // w[i] for i >= 16, overwriting the ring slot it will occupy.
        macro_rules! mix {
            ($i:expr) => {{
                let x = (w[($i + 13) & 15] ^ w[($i + 8) & 15] ^ w[($i + 2) & 15] ^ w[$i & 15])
                    .rotate_left(1);
                w[$i & 15] = x;
                x
            }};
        }
        macro_rules! round {
            ($f:expr, $k:expr, $wi:expr) => {{
                let t = a
                    .rotate_left(5)
                    .wrapping_add($f)
                    .wrapping_add(e)
                    .wrapping_add($k)
                    .wrapping_add($wi);
                e = d;
                d = c;
                c = b.rotate_left(30);
                b = a;
                a = t;
            }};
        }

        for &wi in w.iter().take(16) {
            round!(d ^ (b & (c ^ d)), 0x5A827999u32, wi);
        }
        for i in 16..20 {
            round!(d ^ (b & (c ^ d)), 0x5A827999u32, mix!(i));
        }
        for i in 20..40 {
            round!(b ^ c ^ d, 0x6ED9EBA1u32, mix!(i));
        }
        for i in 40..60 {
            round!((b & c) | (d & (b | c)), 0x8F1BBCDCu32, mix!(i));
        }
        for i in 60..80 {
            round!(b ^ c ^ d, 0xCA62C1D6u32, mix!(i));
        }

        self.h[0] = self.h[0].wrapping_add(a);
        self.h[1] = self.h[1].wrapping_add(b);
        self.h[2] = self.h[2].wrapping_add(c);
        self.h[3] = self.h[3].wrapping_add(d);
        self.h[4] = self.h[4].wrapping_add(e);
    }
}

/// SHA-NI backend. The round sequence is the standard x86 SHA
/// extension schedule: four rounds per `sha1rnds4`, `sha1nexte`
/// folding the rotated `e` into the next message quad, and
/// `sha1msg1`/`sha1msg2` computing the W[16..80] expansion four words
/// at a time.
#[cfg(target_arch = "x86_64")]
mod ni {
    use core::arch::x86_64::*;

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(crate) unsafe fn compress(h: &mut [u32; 5], block: &[u8; super::BLOCK]) {
        // Byte shuffle that both swaps each 32-bit word to big-endian
        // and reverses word order within the lane, matching the
        // a|b|c|d layout sha1rnds4 expects.
        let mask = _mm_set_epi64x(0x0001020304050607, 0x08090a0b0c0d0e0f);

        let mut abcd = _mm_loadu_si128(h.as_ptr() as *const __m128i);
        abcd = _mm_shuffle_epi32(abcd, 0x1B);
        let mut e0 = _mm_set_epi32(h[4] as i32, 0, 0, 0);
        let abcd_save = abcd;
        let e0_save = e0;

        let p = block.as_ptr() as *const __m128i;
        let mut msg0 = _mm_shuffle_epi8(_mm_loadu_si128(p), mask);
        let mut msg1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), mask);
        let mut msg2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), mask);
        let mut msg3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), mask);
        let mut e1;

        // Rounds 0-3
        e0 = _mm_add_epi32(e0, msg0);
        e1 = abcd;
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, e0);
        // Rounds 4-7
        e1 = _mm_sha1nexte_epu32(e1, msg1);
        e0 = abcd;
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, e1);
        msg0 = _mm_sha1msg1_epu32(msg0, msg1);
        // Rounds 8-11
        e0 = _mm_sha1nexte_epu32(e0, msg2);
        e1 = abcd;
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, e0);
        msg1 = _mm_sha1msg1_epu32(msg1, msg2);
        msg0 = _mm_xor_si128(msg0, msg2);
        // Rounds 12-15
        e1 = _mm_sha1nexte_epu32(e1, msg3);
        e0 = abcd;
        msg0 = _mm_sha1msg2_epu32(msg0, msg3);
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, e1);
        msg2 = _mm_sha1msg1_epu32(msg2, msg3);
        msg1 = _mm_xor_si128(msg1, msg3);
        // Rounds 16-19
        e0 = _mm_sha1nexte_epu32(e0, msg0);
        e1 = abcd;
        msg1 = _mm_sha1msg2_epu32(msg1, msg0);
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, e0);
        msg3 = _mm_sha1msg1_epu32(msg3, msg0);
        msg2 = _mm_xor_si128(msg2, msg0);
        // Rounds 20-23
        e1 = _mm_sha1nexte_epu32(e1, msg1);
        e0 = abcd;
        msg2 = _mm_sha1msg2_epu32(msg2, msg1);
        abcd = _mm_sha1rnds4_epu32::<1>(abcd, e1);
        msg0 = _mm_sha1msg1_epu32(msg0, msg1);
        msg3 = _mm_xor_si128(msg3, msg1);
        // Rounds 24-27
        e0 = _mm_sha1nexte_epu32(e0, msg2);
        e1 = abcd;
        msg3 = _mm_sha1msg2_epu32(msg3, msg2);
        abcd = _mm_sha1rnds4_epu32::<1>(abcd, e0);
        msg1 = _mm_sha1msg1_epu32(msg1, msg2);
        msg0 = _mm_xor_si128(msg0, msg2);
        // Rounds 28-31
        e1 = _mm_sha1nexte_epu32(e1, msg3);
        e0 = abcd;
        msg0 = _mm_sha1msg2_epu32(msg0, msg3);
        abcd = _mm_sha1rnds4_epu32::<1>(abcd, e1);
        msg2 = _mm_sha1msg1_epu32(msg2, msg3);
        msg1 = _mm_xor_si128(msg1, msg3);
        // Rounds 32-35
        e0 = _mm_sha1nexte_epu32(e0, msg0);
        e1 = abcd;
        msg1 = _mm_sha1msg2_epu32(msg1, msg0);
        abcd = _mm_sha1rnds4_epu32::<1>(abcd, e0);
        msg3 = _mm_sha1msg1_epu32(msg3, msg0);
        msg2 = _mm_xor_si128(msg2, msg0);
        // Rounds 36-39
        e1 = _mm_sha1nexte_epu32(e1, msg1);
        e0 = abcd;
        msg2 = _mm_sha1msg2_epu32(msg2, msg1);
        abcd = _mm_sha1rnds4_epu32::<1>(abcd, e1);
        msg0 = _mm_sha1msg1_epu32(msg0, msg1);
        msg3 = _mm_xor_si128(msg3, msg1);
        // Rounds 40-43
        e0 = _mm_sha1nexte_epu32(e0, msg2);
        e1 = abcd;
        msg3 = _mm_sha1msg2_epu32(msg3, msg2);
        abcd = _mm_sha1rnds4_epu32::<2>(abcd, e0);
        msg1 = _mm_sha1msg1_epu32(msg1, msg2);
        msg0 = _mm_xor_si128(msg0, msg2);
        // Rounds 44-47
        e1 = _mm_sha1nexte_epu32(e1, msg3);
        e0 = abcd;
        msg0 = _mm_sha1msg2_epu32(msg0, msg3);
        abcd = _mm_sha1rnds4_epu32::<2>(abcd, e1);
        msg2 = _mm_sha1msg1_epu32(msg2, msg3);
        msg1 = _mm_xor_si128(msg1, msg3);
        // Rounds 48-51
        e0 = _mm_sha1nexte_epu32(e0, msg0);
        e1 = abcd;
        msg1 = _mm_sha1msg2_epu32(msg1, msg0);
        abcd = _mm_sha1rnds4_epu32::<2>(abcd, e0);
        msg3 = _mm_sha1msg1_epu32(msg3, msg0);
        msg2 = _mm_xor_si128(msg2, msg0);
        // Rounds 52-55
        e1 = _mm_sha1nexte_epu32(e1, msg1);
        e0 = abcd;
        msg2 = _mm_sha1msg2_epu32(msg2, msg1);
        abcd = _mm_sha1rnds4_epu32::<2>(abcd, e1);
        msg0 = _mm_sha1msg1_epu32(msg0, msg1);
        msg3 = _mm_xor_si128(msg3, msg1);
        // Rounds 56-59
        e0 = _mm_sha1nexte_epu32(e0, msg2);
        e1 = abcd;
        msg3 = _mm_sha1msg2_epu32(msg3, msg2);
        abcd = _mm_sha1rnds4_epu32::<2>(abcd, e0);
        msg1 = _mm_sha1msg1_epu32(msg1, msg2);
        msg0 = _mm_xor_si128(msg0, msg2);
        // Rounds 60-63
        e1 = _mm_sha1nexte_epu32(e1, msg3);
        e0 = abcd;
        msg0 = _mm_sha1msg2_epu32(msg0, msg3);
        abcd = _mm_sha1rnds4_epu32::<3>(abcd, e1);
        msg2 = _mm_sha1msg1_epu32(msg2, msg3);
        msg1 = _mm_xor_si128(msg1, msg3);
        // Rounds 64-67
        e0 = _mm_sha1nexte_epu32(e0, msg0);
        e1 = abcd;
        msg1 = _mm_sha1msg2_epu32(msg1, msg0);
        abcd = _mm_sha1rnds4_epu32::<3>(abcd, e0);
        msg3 = _mm_sha1msg1_epu32(msg3, msg0);
        msg2 = _mm_xor_si128(msg2, msg0);
        // Rounds 68-71
        e1 = _mm_sha1nexte_epu32(e1, msg1);
        e0 = abcd;
        msg2 = _mm_sha1msg2_epu32(msg2, msg1);
        abcd = _mm_sha1rnds4_epu32::<3>(abcd, e1);
        msg3 = _mm_xor_si128(msg3, msg1);
        // Rounds 72-75
        e0 = _mm_sha1nexte_epu32(e0, msg2);
        e1 = abcd;
        msg3 = _mm_sha1msg2_epu32(msg3, msg2);
        abcd = _mm_sha1rnds4_epu32::<3>(abcd, e0);
        // Rounds 76-79
        e1 = _mm_sha1nexte_epu32(e1, msg3);
        e0 = abcd;
        abcd = _mm_sha1rnds4_epu32::<3>(abcd, e1);

        // Fold back into the chaining state.
        e0 = _mm_sha1nexte_epu32(e0, e0_save);
        abcd = _mm_add_epi32(abcd, abcd_save);
        abcd = _mm_shuffle_epi32(abcd, 0x1B);
        _mm_storeu_si128(h.as_mut_ptr() as *mut __m128i, abcd);
        h[4] = _mm_extract_epi32::<3>(e0) as u32;
    }
}

/// Number of 64-byte SHA-1 compressions needed for `len` bytes of
/// HMAC-SHA1 input (inner pad + data + padding, plus the outer hash).
/// This drives the GPU/CPU cost model for the authenticator.
pub fn hmac_compressions(len: usize) -> usize {
    // inner: 64B ipad block + data + >=9B padding
    let inner = 1 + (len + 9).div_ceil(BLOCK);
    // outer: 64B opad block + 20B digest + padding = 2 blocks
    inner + 2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vectors() {
        assert_eq!(
            hex(&Sha1::digest(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(
            hex(&Sha1::digest(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
        assert_eq!(
            hex(&Sha1::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    /// Pin the scalar compression function against a published vector
    /// directly, so it stays tested on CPUs where `compress`
    /// dispatches to SHA-NI.
    #[test]
    fn scalar_compression_matches_published_vector() {
        // "abc" padded to one block by hand: 0x80, zeros, 24-bit length.
        let mut block = [0u8; BLOCK];
        block[..3].copy_from_slice(b"abc");
        block[3] = 0x80;
        block[63] = 24;
        let mut s = Sha1::new();
        s.compress_soft(&block);
        let mut out = [0u8; DIGEST];
        for (i, w) in s.h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        assert_eq!(hex(&out), "a9993e364706816aba3e25717850c26c9cd0d89d");
    }

    #[test]
    fn million_a() {
        let mut s = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            s.update(&chunk);
        }
        assert_eq!(
            hex(&s.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0, 1, 63, 64, 65, 500, 999, 1000] {
            let mut s = Sha1::new();
            s.update(&data[..split]);
            s.update(&data[split..]);
            assert_eq!(s.finalize(), Sha1::digest(&data), "split={split}");
        }
    }

    #[test]
    fn length_boundary_padding() {
        // Lengths around the 55/56-byte padding boundary.
        for len in 50..70 {
            let data = vec![0xABu8; len];
            // Must not panic and must differ from neighbors.
            let d1 = Sha1::digest(&data);
            let d2 = Sha1::digest(&data[..len - 1]);
            assert_ne!(d1, d2);
        }
    }

    #[test]
    fn compression_count_model() {
        // 0 bytes: 1 inner block (pad fits) + ... : inner = 1 + ceil(9/64)=2, +2 outer.
        assert_eq!(hmac_compressions(0), 4);
        // 55 bytes: data+9 = 64 -> inner 2, total 4.
        assert_eq!(hmac_compressions(55), 4);
        // 56 bytes: data+9 = 65 -> inner 3, total 5.
        assert_eq!(hmac_compressions(56), 5);
        // 1500B packet: inner 1 + ceil(1509/64)=24 -> 25, +2 = 27.
        assert_eq!(hmac_compressions(1500), 27);
    }
}
