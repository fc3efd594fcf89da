//! Receive-Side Scaling: the Toeplitz hash (§4.4).

/// The Microsoft verification key from the RSS specification; also
/// the default key of the ixgbe driver the paper modifies.
pub const MSFT_KEY: [u8; 40] = [
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
];

/// The 40-bit key chunk covering byte position `p`: key bits
/// `[8p, 8p + 40)`, top-aligned in the low 40 bits of a `u64`. The
/// window for input bit `8p + j` is then `(chunk >> (8 - j)) as u32`.
const fn key_chunk(key: &[u8; 40], p: usize) -> u64 {
    ((key[p] as u64) << 32)
        | ((key[p + 1] as u64) << 24)
        | ((key[p + 2] as u64) << 16)
        | ((key[p + 3] as u64) << 8)
        | (key[p + 4] as u64)
}

/// Per-(byte position, byte value) XOR contributions for one key:
/// `tables[p][b]` is the XOR of the key windows selected by the set
/// bits of input byte `b` at position `p`. Hashing is then one table
/// lookup per input byte.
const fn build_tables(key: &[u8; 40]) -> [[u32; 256]; 36] {
    let mut tables = [[0u32; 256]; 36];
    let mut p = 0;
    while p < 36 {
        let chunk = key_chunk(key, p);
        let mut b = 0;
        while b < 256 {
            let mut acc = 0u32;
            let mut j = 0;
            while j < 8 {
                if (b >> (7 - j)) & 1 == 1 {
                    acc ^= (chunk >> (8 - j)) as u32;
                }
                j += 1;
            }
            tables[p][b] = acc;
            b += 1;
        }
        p += 1;
    }
    tables
}

/// Precomputed tables for [`MSFT_KEY`] — the key every RSS
/// configuration in this codebase uses, so the per-packet hash on the
/// hot path is pure table lookups.
static MSFT_TABLES: [[u32; 256]; 36] = build_tables(&MSFT_KEY);

/// Toeplitz hash of `input` under `key`. Bit `i` of the input selects
/// the 32-bit window of the key starting at bit `i`.
pub fn toeplitz_hash(key: &[u8; 40], input: &[u8]) -> u32 {
    assert!(input.len() <= 36, "key window exhausted");
    let mut result = 0u32;
    if *key == MSFT_KEY {
        // Hot path: one precomputed lookup per input byte.
        for (p, &byte) in input.iter().enumerate() {
            result ^= MSFT_TABLES[p][byte as usize];
        }
        return result;
    }
    // Generic key: extract the eight windows per byte from a 40-bit
    // chunk instead of sliding the window bit by bit.
    for (p, &byte) in input.iter().enumerate() {
        if byte == 0 {
            continue;
        }
        let chunk = key_chunk(key, p);
        for j in 0..8 {
            if (byte >> (7 - j)) & 1 == 1 {
                result ^= (chunk >> (8 - j)) as u32;
            }
        }
    }
    result
}

/// Hash the IPv4 + TCP/UDP tuple in the canonical RSS input order:
/// `src_addr || dst_addr || src_port || dst_port`.
pub fn hash_v4(key: &[u8; 40], src: u32, dst: u32, src_port: u16, dst_port: u16) -> u32 {
    let mut input = [0u8; 12];
    input[0..4].copy_from_slice(&src.to_be_bytes());
    input[4..8].copy_from_slice(&dst.to_be_bytes());
    input[8..10].copy_from_slice(&src_port.to_be_bytes());
    input[10..12].copy_from_slice(&dst_port.to_be_bytes());
    toeplitz_hash(key, &input)
}

/// Hash the IPv6 + TCP/UDP tuple in the canonical RSS input order:
/// `src_addr || dst_addr || src_port || dst_port`.
pub fn hash_v6(
    key: &[u8; 40],
    src: &[u8; 16],
    dst: &[u8; 16],
    src_port: u16,
    dst_port: u16,
) -> u32 {
    let mut input = [0u8; 36];
    input[0..16].copy_from_slice(src);
    input[16..32].copy_from_slice(dst);
    input[32..34].copy_from_slice(&src_port.to_be_bytes());
    input[34..36].copy_from_slice(&dst_port.to_be_bytes());
    toeplitz_hash(key, &input)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (addr, port) endpoint in a verification vector.
    type Endpoint = (u32, u16);

    /// Microsoft RSS verification suite (IPv4 with TCP ports).
    /// (dst_addr:port, src_addr:port, expected hash)
    const VECTORS: &[(Endpoint, Endpoint, u32)] = &[
        ((0xa18e6450, 1766), (0x420995bb, 2794), 0x51ccc178),
        ((0x41458c53, 4739), (0xc75c6f02, 14230), 0xc626b0ea),
        ((0x0c16cfb8, 38024), (0x1813c65f, 12898), 0x5c2b394a),
        ((0xd18ea306, 2217), (0x261bcd1e, 48228), 0xafc7327f),
        ((0xcabc7f02, 1303), (0x9927a3bf, 44251), 0x10e828a2),
    ];

    #[test]
    fn microsoft_verification_vectors() {
        for &((dst, dport), (src, sport), want) in VECTORS {
            let got = hash_v4(&MSFT_KEY, src, dst, sport, dport);
            assert_eq!(got, want, "src={src:#x} dst={dst:#x}");
        }
    }

    #[test]
    fn ip_only_vectors() {
        // The 2-tuple (src || dst) variants from the same suite.
        let cases: &[(u32, u32, u32)] = &[
            (0x420995bb, 0xa18e6450, 0x323e8fc2),
            (0xc75c6f02, 0x41458c53, 0xd718262a),
        ];
        for &(src, dst, want) in cases {
            let mut input = [0u8; 8];
            input[0..4].copy_from_slice(&src.to_be_bytes());
            input[4..8].copy_from_slice(&dst.to_be_bytes());
            assert_eq!(toeplitz_hash(&MSFT_KEY, &input), want);
        }
    }

    #[test]
    #[should_panic(expected = "key window exhausted")]
    fn oversized_input_panics() {
        let _ = toeplitz_hash(&MSFT_KEY, &[0u8; 37]);
    }

    /// Textbook formulation: slide the 32-bit key window one bit at a
    /// time. Both fast paths must reproduce it exactly.
    fn toeplitz_bitwise(key: &[u8; 40], input: &[u8]) -> u32 {
        let mut result = 0u32;
        let mut window = u32::from_be_bytes([key[0], key[1], key[2], key[3]]);
        let mut next_byte = 4;
        let mut bits_used = 0;
        let mut window_next = key[next_byte];
        for &byte in input {
            for bit in (0..8).rev() {
                if byte >> bit & 1 == 1 {
                    result ^= window;
                }
                window = (window << 1) | u32::from(window_next >> 7);
                window_next <<= 1;
                bits_used += 1;
                if bits_used == 8 {
                    bits_used = 0;
                    next_byte += 1;
                    window_next = if next_byte < key.len() {
                        key[next_byte]
                    } else {
                        0
                    };
                }
            }
        }
        result
    }

    #[test]
    fn fast_paths_match_bitwise_reference() {
        let mut other_key = MSFT_KEY;
        other_key[0] ^= 0xA5; // forces the generic-key path
        for len in [0usize, 1, 7, 8, 12, 13, 35, 36] {
            let input: Vec<u8> = (0..len as u32)
                .map(|i| (i.wrapping_mul(167) ^ (i >> 3)) as u8)
                .collect();
            assert_eq!(
                toeplitz_hash(&MSFT_KEY, &input),
                toeplitz_bitwise(&MSFT_KEY, &input),
                "table path, len {len}"
            );
            assert_eq!(
                toeplitz_hash(&other_key, &input),
                toeplitz_bitwise(&other_key, &input),
                "generic path, len {len}"
            );
        }
    }
}
