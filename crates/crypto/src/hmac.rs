//! HMAC-SHA1 (RFC 2104) with the 96-bit truncation ESP uses
//! (HMAC-SHA1-96, RFC 2404).
//!
//! SHA-1 blocks chain, so one message cannot be hashed in parallel;
//! several messages can. [`HmacSha1::mac96_many`] is the bulk entry
//! point: up to 16 equal-length messages, one per 32-bit lane of an
//! AVX-512 register (runtime-detected), the way §6.2.4 of the paper
//! gives each packet a GPU thread. Everything else here is
//! single-stream and is what the bulk path is tested against.

use crate::sha1::{Sha1, BLOCK, DIGEST};

/// Fewest messages for which the 16-lane path is taken. A 16-lane call
/// costs the same however many of its lanes carry a message: 4,770 ns
/// at 1520 B against 1,234 ns single-stream (SHA-NI), 3.9 MACs' worth,
/// and 595 ns against 212 ns at 80 B, 2.8 (`cargo bench --bench
/// crypto`, rows `hmac-sha1/mac96_many_16x*` and `mac96_*`). Four long
/// messages are a tie inside the host's noise; five win at any length.
const MANY_BREAK_EVEN: usize = 5;

/// An HMAC-SHA1 keyed context (precomputed pads).
#[derive(Clone)]
pub struct HmacSha1 {
    ipad_state: Sha1,
    opad_state: Sha1,
}

impl HmacSha1 {
    /// Most messages one [`HmacSha1::mac96_many`] call takes: one per
    /// 32-bit lane of a 512-bit register.
    pub const MANY: usize = 16;

    /// Derive the inner/outer pad states from `key`.
    pub fn new(key: &[u8]) -> HmacSha1 {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..DIGEST].copy_from_slice(&Sha1::digest(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0x36u8; BLOCK];
        let mut opad = [0x5cu8; BLOCK];
        for i in 0..BLOCK {
            ipad[i] ^= k[i];
            opad[i] ^= k[i];
        }
        let mut ipad_state = Sha1::new();
        ipad_state.update(&ipad);
        let mut opad_state = Sha1::new();
        opad_state.update(&opad);
        HmacSha1 {
            ipad_state,
            opad_state,
        }
    }

    /// Begin an incremental MAC: a copy of the keyed inner-pad state,
    /// ready to absorb message chunks with [`Sha1::update`]. Lets
    /// callers that stream data (e.g. 64 B device reads) MAC without
    /// gathering the message into a contiguous buffer first.
    pub fn begin(&self) -> Sha1 {
        self.ipad_state.clone()
    }

    /// Finish an incremental MAC started with [`HmacSha1::begin`].
    pub fn finish(&self, inner: Sha1) -> [u8; DIGEST] {
        let inner_digest = inner.finalize();
        let mut outer = self.opad_state.clone();
        outer.update(&inner_digest);
        outer.finalize()
    }

    /// Finish an incremental MAC with the 96-bit ESP truncation.
    pub fn finish96(&self, inner: Sha1) -> [u8; 12] {
        self.finish(inner)[..12].try_into().expect("12 of 20 bytes")
    }

    /// Full 20-byte MAC over `data`.
    pub fn mac(&self, data: &[u8]) -> [u8; DIGEST] {
        let mut inner = self.begin();
        inner.update(data);
        self.finish(inner)
    }

    /// Truncated 96-bit MAC (the ESP ICV).
    pub fn mac96(&self, data: &[u8]) -> [u8; 12] {
        self.mac(data)[..12].try_into().expect("12 of 20 bytes")
    }

    /// [`HmacSha1::mac96`] of up to [`HmacSha1::MANY`] messages of
    /// `len` bytes each, message `i` at `buf[offs[i]..]`, into `out[i]`.
    /// Offsets may be unaligned, in any order, overlapping or repeated.
    /// Same bytes as `mac96` one message at a time; 16 lanes wide when
    /// the CPU has AVX-512 F + BW and there are enough messages to pay
    /// for it. Allocates nothing.
    ///
    /// # Panics
    /// If there are more than [`HmacSha1::MANY`] messages, `out` is
    /// not one slot per message, or a message does not lie inside
    /// `buf`.
    pub fn mac96_many(&self, buf: &[u8], offs: &[usize], len: usize, out: &mut [[u8; 12]]) {
        assert!(
            offs.len() <= Self::MANY && offs.len() == out.len(),
            "mac96_many: {} messages into {} outputs, at most {} a call",
            offs.len(),
            out.len(),
            Self::MANY
        );
        for &off in offs {
            assert!(
                off.checked_add(len).is_some_and(|end| end <= buf.len()),
                "mac96_many: message at {off}, {len} bytes, is outside the {} byte buffer",
                buf.len()
            );
        }
        #[cfg(target_arch = "x86_64")]
        if offs.len() >= MANY_BREAK_EVEN && crate::cpu::avx512() {
            // SAFETY: the CPU features the callee is compiled for were
            // just detected; it has no other requirement.
            unsafe { x16::mac96_many(self, buf, offs, len, out) };
            return;
        }
        self.mac96_many_single(buf, offs, len, out);
    }

    /// The portable `mac96_many`: one [`HmacSha1::mac96`] per message.
    /// Named so tests run it on hosts where the dispatch never does.
    fn mac96_many_single(&self, buf: &[u8], offs: &[usize], len: usize, out: &mut [[u8; 12]]) {
        for (icv, &off) in out.iter_mut().zip(offs) {
            *icv = self.mac96(&buf[off..off + len]);
        }
    }

    /// Constant-time-ish verify of a 96-bit ICV. (The simulation does
    /// not need side-channel resistance, but the habit is free.)
    pub fn verify96(&self, data: &[u8], icv: &[u8]) -> bool {
        let want = self.mac96(data);
        if icv.len() != want.len() {
            return false;
        }
        let mut diff = 0u8;
        for (a, b) in want.iter().zip(icv) {
            diff |= a ^ b;
        }
        diff == 0
    }
}

/// The AVX-512 backend of [`HmacSha1::mac96_many`]: SHA-1 over
/// sixteen messages at once, each 512-bit register holding one 32-bit
/// word of every message's state or schedule. A lane never looks at
/// its neighbours, so the round function is the scalar one with
/// vector operands (`vprold` for the rotates, one `vpternlog` for each
/// of choice/parity/majority).
#[cfg(target_arch = "x86_64")]
mod x16 {
    use super::{HmacSha1, BLOCK, DIGEST};

    const MANY: usize = HmacSha1::MANY;
    use core::arch::x86_64::*;

    #[target_feature(enable = "avx512f")]
    fn splat(x: u32) -> __m512i {
        _mm512_set1_epi32(x as i32)
    }

    /// Word `j` of the result holds, in lane `i`, big-endian word `j`
    /// of the block `buf[at[i]..][..64]`: sixteen 64-byte rows loaded,
    /// byte-swapped, and transposed as a 16 x 16 matrix of words.
    #[target_feature(enable = "avx512f,avx512bw")]
    fn load_blocks(buf: &[u8], at: &[usize; MANY]) -> [__m512i; 16] {
        // Within each 128-bit group, reverse the bytes of each word.
        let swap =
            _mm512_broadcast_i32x4(_mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203));
        let mut rows = [_mm512_setzero_si512(); 16];
        for (row, &at) in rows.iter_mut().zip(at) {
            let block: &[u8; BLOCK] = buf[at..at + BLOCK].try_into().expect("one block");
            // SAFETY: an unaligned load of the 64 bytes of `block`.
            let le = unsafe { _mm512_loadu_si512(block.as_ptr().cast()) };
            *row = _mm512_shuffle_epi8(le, swap);
        }
        // Words, then word pairs, of neighbouring rows interleaved:
        // quads[4g + k] holds in its 128-bit group q the column
        // 4q + k of rows 4g..4g + 4.
        let mut pairs = rows;
        for i in (0..16).step_by(2) {
            pairs[i] = _mm512_unpacklo_epi32(rows[i], rows[i + 1]);
            pairs[i + 1] = _mm512_unpackhi_epi32(rows[i], rows[i + 1]);
        }
        let mut quads = pairs;
        for i in (0..16).step_by(4) {
            for j in 0..2 {
                quads[i + 2 * j] = _mm512_unpacklo_epi64(pairs[i + j], pairs[i + j + 2]);
                quads[i + 2 * j + 1] = _mm512_unpackhi_epi64(pairs[i + j], pairs[i + j + 2]);
            }
        }
        // Column 4q + k is group q of quads[k], [4 + k], [8 + k] and
        // [12 + k]: a 4 x 4 transpose of 128-bit groups for each k.
        let mut w = quads;
        for k in 0..4 {
            let [a, b, c, d] = [quads[k], quads[4 + k], quads[8 + k], quads[12 + k]];
            let (ab_even, ab_odd) = (
                _mm512_shuffle_i32x4::<0x88>(a, b),
                _mm512_shuffle_i32x4::<0xDD>(a, b),
            );
            let (cd_even, cd_odd) = (
                _mm512_shuffle_i32x4::<0x88>(c, d),
                _mm512_shuffle_i32x4::<0xDD>(c, d),
            );
            w[k] = _mm512_shuffle_i32x4::<0x88>(ab_even, cd_even);
            w[4 + k] = _mm512_shuffle_i32x4::<0x88>(ab_odd, cd_odd);
            w[8 + k] = _mm512_shuffle_i32x4::<0xDD>(ab_even, cd_even);
            w[12 + k] = _mm512_shuffle_i32x4::<0xDD>(ab_odd, cd_odd);
        }
        w
    }

    /// One SHA-1 compression in every lane; `w` is the block and is
    /// used up as the schedule's 16-word ring.
    #[target_feature(enable = "avx512f")]
    #[allow(unused_assignments)] // rounds 77-79 store ring words no round reads
    fn compress(h: &mut [__m512i; 5], mut w: [__m512i; 16]) {
        let [mut a, mut b, mut c, mut d, mut e] = *h;

        macro_rules! mix {
            ($i:expr) => {{
                let x = _mm512_ternarylogic_epi32::<PARITY>(
                    w[($i + 13) & 15],
                    w[($i + 8) & 15],
                    w[($i + 2) & 15],
                );
                let x = _mm512_rol_epi32::<1>(_mm512_xor_si512(x, w[$i & 15]));
                w[$i & 15] = x;
                x
            }};
        }
        // The round functions as `vpternlog` truth tables over
        // (b, c, d).
        const CHOICE: i32 = 0xCA;
        const PARITY: i32 = 0x96;
        const MAJORITY: i32 = 0xE8;
        macro_rules! round {
            ($f:ident, $k:expr, $wi:expr) => {{
                let t = _mm512_add_epi32(
                    _mm512_add_epi32(
                        _mm512_rol_epi32::<5>(a),
                        _mm512_ternarylogic_epi32::<$f>(b, c, d),
                    ),
                    _mm512_add_epi32(_mm512_add_epi32(e, $k), $wi),
                );
                e = d;
                d = c;
                c = _mm512_rol_epi32::<30>(b);
                b = a;
                a = t;
            }};
        }
        // The round numbers are spelled out so every ring index is a
        // constant and the ring stays in registers: as counted loops
        // the compiler keeps them rolled, indexing `w` in memory.
        macro_rules! rounds {
            ($f:ident, $k:literal, $($i:literal)*) => {{
                let k = splat($k);
                $(round!($f, k, if $i < 16 { w[$i & 15] } else { mix!($i) });)*
            }};
        }
        rounds!(CHOICE, 0x5A827999, 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19);
        rounds!(PARITY, 0x6ED9EBA1, 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39);
        rounds!(MAJORITY, 0x8F1BBCDC, 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59);
        rounds!(PARITY, 0xCA62C1D6, 60 61 62 63 64 65 66 67 68 69 70 71 72 73 74 75 76 77 78 79);

        for (h, v) in h.iter_mut().zip([a, b, c, d, e]) {
            *h = _mm512_add_epi32(*h, v);
        }
    }

    /// `HmacSha1::mac96_many` for `1..=MANY` messages, whatever the
    /// count. Every access to `buf` is a checked slice.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub fn mac96_many(
        hmac: &HmacSha1,
        buf: &[u8],
        offs: &[usize],
        len: usize,
        out: &mut [[u8; 12]],
    ) {
        // Lanes past the last message repeat the first one; what they
        // compute is dropped.
        let mut at = [offs[0]; MANY];
        at[..offs.len()].copy_from_slice(offs);

        let mut inner = hmac.ipad_state.state().map(|x| splat(x));
        for _ in 0..len / BLOCK {
            compress(&mut inner, load_blocks(buf, &at));
            at.iter_mut().for_each(|a| *a += BLOCK);
        }

        // What is left of each message, padded as `Sha1::finalize`
        // pads it: 0x80, zeros, and the bit length (ipad block
        // included) closing the first block with room for it.
        let rest = len % BLOCK;
        let padded = if rest < 56 { BLOCK } else { 2 * BLOCK };
        let bits = ((BLOCK + len) as u64) * 8;
        let mut tails = [[0u8; 2 * BLOCK]; MANY];
        for (tail, &at) in tails.iter_mut().zip(&at) {
            tail[..rest].copy_from_slice(&buf[at..at + rest]);
            tail[rest] = 0x80;
            tail[padded - 8..padded].copy_from_slice(&bits.to_be_bytes());
        }
        let mut at: [usize; MANY] = std::array::from_fn(|lane| lane * 2 * BLOCK);
        for _ in 0..padded / BLOCK {
            compress(&mut inner, load_blocks(tails.as_flattened(), &at));
            at.iter_mut().for_each(|a| *a += BLOCK);
        }

        // The outer hash's one block is the inner digest, already in
        // registers as the words it is made of, and its padding.
        let mut w = [_mm512_setzero_si512(); 16];
        w[..5].copy_from_slice(&inner);
        w[5] = splat(0x8000_0000);
        w[15] = splat(((BLOCK + DIGEST) * 8) as u32);
        let mut outer = hmac.opad_state.state().map(|x| splat(x));
        compress(&mut outer, w);

        let mut words = [[0u32; MANY]; 3];
        for (word, v) in words.iter_mut().zip(outer) {
            // SAFETY: an unaligned store of 64 bytes into `word`.
            unsafe { _mm512_storeu_si512(word.as_mut_ptr().cast(), v) };
        }
        for (lane, icv) in out.iter_mut().enumerate() {
            for (bytes, word) in icv.chunks_exact_mut(4).zip(&words) {
                bytes.copy_from_slice(&word[lane].to_be_bytes());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANY: usize = HmacSha1::MANY;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc2202_case_1() {
        let h = HmacSha1::new(&[0x0b; 20]);
        assert_eq!(
            hex(&h.mac(b"Hi There")),
            "b617318655057264e28bc0b6fb378c8ef146be00"
        );
    }

    #[test]
    fn rfc2202_case_2() {
        let h = HmacSha1::new(b"Jefe");
        assert_eq!(
            hex(&h.mac(b"what do ya want for nothing?")),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
        );
    }

    #[test]
    fn rfc2202_case_3() {
        let h = HmacSha1::new(&[0xaa; 20]);
        assert_eq!(
            hex(&h.mac(&[0xdd; 50])),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3"
        );
    }

    #[test]
    fn rfc2202_case_6_long_key() {
        let h = HmacSha1::new(&[0xaa; 80]);
        assert_eq!(
            hex(&h.mac(b"Test Using Larger Than Block-Size Key - Hash Key First")),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112"
        );
    }

    #[test]
    fn truncation_and_verify() {
        let h = HmacSha1::new(b"secret");
        let icv = h.mac96(b"payload");
        assert_eq!(icv.len(), 12);
        assert_eq!(icv[..], h.mac(b"payload")[..12]);
        assert!(h.verify96(b"payload", &icv));
        assert!(!h.verify96(b"payl0ad", &icv));
        let mut bad = icv;
        bad[11] ^= 1;
        assert!(!h.verify96(b"payload", &bad));
        assert!(!h.verify96(b"payload", &icv[..11]));
    }

    #[test]
    fn incremental_equals_one_shot() {
        let h = HmacSha1::new(b"stream-key");
        let data: Vec<u8> = (0..=255u8).cycle().take(777).collect();
        for chunk in [1usize, 16, 64, 100, 777] {
            let mut inner = h.begin();
            for piece in data.chunks(chunk) {
                inner.update(piece);
            }
            assert_eq!(h.finish(inner), h.mac(&data), "chunk={chunk}");
            let mut inner = h.begin();
            inner.update(&data);
            assert_eq!(h.finish96(inner), h.mac96(&data));
        }
    }

    #[test]
    fn keyed_contexts_are_reusable() {
        let h = HmacSha1::new(b"k");
        assert_eq!(h.mac(b"a"), h.mac(b"a"));
        assert_ne!(h.mac(b"a"), h.mac(b"b"));
    }

    /// The 16-lane backend called by name, so it runs for every
    /// message count and not only where the dispatch picks it. `false`
    /// on a host that cannot run it.
    fn mac96_many_x16(
        h: &HmacSha1,
        buf: &[u8],
        offs: &[usize],
        len: usize,
        out: &mut [[u8; 12]],
    ) -> bool {
        #[cfg(target_arch = "x86_64")]
        if crate::cpu::avx512() {
            // SAFETY: detected on the line above.
            unsafe { x16::mac96_many(h, buf, offs, len, out) };
            return true;
        }
        false
    }

    /// Says which code the tests below exercised; on a host without
    /// AVX-512 the wide cases are reported as skipped, not passed.
    fn announce() {
        println!("ps-crypto backends: {}", crate::backends());
        if !crate::cpu::avx512() {
            println!("skipped: no avx512f+bw");
        }
    }

    /// Every way of MACing many messages against `mac96` of each.
    fn many_agree(h: &HmacSha1, buf: &[u8], offs: &[usize], len: usize) -> Result<(), String> {
        let want: Vec<[u8; 12]> = offs.iter().map(|&o| h.mac96(&buf[o..o + len])).collect();
        let mut got = vec![[0u8; 12]; offs.len()];
        h.mac96_many(buf, offs, len, &mut got);
        ps_check::ensure_eq!(got, want, "dispatch, n={} len={len}", offs.len());
        got.fill([0; 12]);
        h.mac96_many_single(buf, offs, len, &mut got);
        ps_check::ensure_eq!(got, want, "single, n={} len={len}", offs.len());
        got.fill([0; 12]);
        if mac96_many_x16(h, buf, offs, len, &mut got) {
            ps_check::ensure_eq!(got, want, "x16, n={} len={len} offs={offs:?}", offs.len());
        }
        Ok(())
    }

    #[test]
    fn mac96_many_matches_mac96_of_each() {
        announce();
        // Message lengths on both sides of every padding boundary: the
        // tail fits the length field up to 55 bytes, needs a second
        // block from 56, and is empty at 64.
        const EDGES: [usize; 10] = [0, 1, 55, 56, 63, 64, 65, 119, 120, 2048];
        ps_check::check("mac96_many_matches_mac96_of_each", |g| {
            let h = HmacSha1::new(&g.bytes(0, 100));
            let n = g.int_in(1..=MANY);
            let len = match g.int_in(0..4u32) {
                0 => EDGES[g.int_in(0..EDGES.len())],
                _ => g.len_in(0, 2049),
            };
            // Unaligned, in no order, free to overlap or coincide.
            let buf = g.bytes(len.max(1), len + 4097);
            let offs: Vec<usize> = (0..n).map(|_| g.int_in(0..=buf.len() - len)).collect();
            many_agree(&h, &buf, &offs, len)
        });
    }

    /// RFC 2202 cases 1-3 and 6. The vector's message takes each of
    /// the sixteen lanes in turn while the other lanes carry messages
    /// that differ from it in one byte, in a lane order that rotates
    /// with it.
    #[test]
    fn rfc2202_vectors_in_every_lane() {
        announce();
        let cases: [(&[u8], &[u8], &str); 4] = [
            (&[0x0b; 20], b"Hi There", "b617318655057264e28bc0b6"),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "effcdf6ae5eb2fa2d27416d5",
            ),
            (&[0xaa; 20], &[0xdd; 50], "125d7342b9ac11cd91a39af4"),
            (
                &[0xaa; 80],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "aa4ae5e15272d00e95705637",
            ),
        ];
        for (key, msg, want) in cases {
            let h = HmacSha1::new(key);
            for lane in 0..MANY {
                // Slot s holds the message with its first byte off by
                // s; slot 0 is the vector. Lane i reads slot
                // (i - lane) mod 16, at an odd address.
                let mut buf = vec![0u8; 1 + MANY * msg.len()];
                for (s, slot) in buf[1..].chunks_exact_mut(msg.len()).enumerate() {
                    slot.copy_from_slice(msg);
                    slot[0] ^= s as u8;
                }
                let offs: Vec<usize> = (0..MANY)
                    .map(|i| 1 + (i + MANY - lane) % MANY * msg.len())
                    .collect();
                many_agree(&h, &buf, &offs, msg.len()).expect("all paths agree");
                let mut got = [[0u8; 12]; MANY];
                h.mac96_many(&buf, &offs, msg.len(), &mut got);
                for (i, icv) in got.iter().enumerate() {
                    assert_eq!(hex(icv) == want, i == lane, "lane {i} of rotation {lane}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "message at 90, 11 bytes, is outside the 100 byte buffer")]
    fn mac96_many_rejects_a_message_past_the_buffer() {
        let offs = [0, 89, 90, 3, 4, 5];
        HmacSha1::new(b"k").mac96_many(&[0; 100], &offs, 11, &mut [[0; 12]; 6]);
    }

    #[test]
    #[should_panic(expected = "is outside the 100 byte buffer")]
    fn mac96_many_rejects_an_offset_that_wraps() {
        let offs = [0, 1, 2, 3, 4, usize::MAX - 3];
        HmacSha1::new(b"k").mac96_many(&[0; 100], &offs, 8, &mut [[0; 12]; 6]);
    }

    #[test]
    #[should_panic(expected = "17 messages into 17 outputs, at most 16 a call")]
    fn mac96_many_rejects_a_seventeenth_message() {
        HmacSha1::new(b"k").mac96_many(&[0; 100], &[0; 17], 8, &mut [[0; 12]; 17]);
    }

    #[test]
    fn backends_names_a_path_for_each_primitive() {
        announce();
        let line = crate::backends();
        let keys: Vec<&str> = line
            .split(' ')
            .map(|kv| kv.split_once('=').expect("key=value").0)
            .collect();
        assert_eq!(keys, ["aes", "sha1", "hmac-many"]);
    }
}
