//! RFC 1071 Internet checksum.

/// One's-complement sum over `data`, folded to 16 bits, starting from
/// `initial` (already-folded partial sums may be chained).
pub fn sum(initial: u32, data: &[u8]) -> u32 {
    let mut acc = initial;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        acc += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        acc += u32::from(u16::from_be_bytes([*last, 0]));
    }
    acc
}

/// Fold a 32-bit accumulator into a final 16-bit checksum value
/// (one's complement of the one's-complement sum).
pub fn finish(mut acc: u32) -> u16 {
    while acc > 0xFFFF {
        acc = (acc & 0xFFFF) + (acc >> 16);
    }
    !(acc as u16)
}

/// Compute the checksum of `data` in one call.
pub fn checksum(data: &[u8]) -> u16 {
    finish(sum(0, data))
}

/// Verify a buffer whose checksum field is in place: the folded sum
/// over the whole buffer must be zero.
pub fn verify(data: &[u8]) -> bool {
    finish(sum(0, data)) == 0
}

/// Pseudo-header sum for UDP/TCP over IPv4.
pub fn pseudo_header_v4(src: [u8; 4], dst: [u8; 4], protocol: u8, len: u16) -> u32 {
    let mut acc = 0;
    acc = sum(acc, &src);
    acc = sum(acc, &dst);
    acc += u32::from(protocol);
    acc += u32::from(len);
    acc
}

/// Incrementally update a 16-bit checksum after a 16-bit field changed
/// from `old` to `new` (RFC 1624, eqn. 3). Used for the TTL-decrement
/// fast path (§6.2.1: "updates TTL and checksum fields").
pub fn update16(cksum: u16, old: u16, new: u16) -> u16 {
    // HC' = ~(~HC + ~m + m')
    let mut acc = u32::from(!cksum) + u32::from(!old) + u32::from(new);
    while acc > 0xFFFF {
        acc = (acc & 0xFFFF) + (acc >> 16);
    }
    !(acc as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // Classic example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        let s = sum(0, &data);
        assert_eq!(s, 0x2ddf0);
        assert_eq!(finish(s), !0xddf2u16);
    }

    #[test]
    fn verify_detects_corruption() {
        let mut data = vec![0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11];
        // Install a checksum at offset 8..10 (pretend field).
        let c = checksum(&data);
        data[8] = (c >> 8) as u8;
        data[9] = c as u8;
        // Recompute: buffer with installed checksum verifies... careful:
        // we overwrote bytes used in the sum, so install properly:
        data[8] = 0;
        data[9] = 0;
        let c = checksum(&data);
        data[8] = (c >> 8) as u8;
        data[9] = c as u8;
        assert!(verify(&data));
        data[3] ^= 0xFF;
        assert!(!verify(&data));
    }

    #[test]
    fn odd_length_buffers() {
        // Pad-with-zero semantics: [a, b, c] == [a, b, c, 0].
        let odd = checksum(&[0x12, 0x34, 0x56]);
        let even = checksum(&[0x12, 0x34, 0x56, 0x00]);
        assert_eq!(odd, even);
    }

    #[test]
    fn incremental_update_matches_recompute() {
        let mut data = [
            0x45u8, 0x00, 0x00, 0x54, 0xab, 0xcd, 0x40, 0x00, 0x40, 0x01, 0, 0, 10, 0, 0, 1, 10, 0,
            0, 2,
        ];
        let c = checksum(&data);
        data[10] = (c >> 8) as u8;
        data[11] = c as u8;
        assert!(verify(&data));

        // Decrement TTL: bytes 8..10 are (ttl, proto) = one 16-bit word.
        let old = u16::from_be_bytes([data[8], data[9]]);
        data[8] -= 1;
        let new = u16::from_be_bytes([data[8], data[9]]);
        let updated = update16(u16::from_be_bytes([data[10], data[11]]), old, new);
        data[10] = (updated >> 8) as u8;
        data[11] = updated as u8;
        assert!(
            verify(&data),
            "incremental update should keep checksum valid"
        );
    }

    #[test]
    fn pseudo_header_v4_known_value() {
        // UDP over IPv4 pseudo header: 10.0.0.1 -> 10.0.0.2, proto 17, len 8.
        let acc = pseudo_header_v4([10, 0, 0, 1], [10, 0, 0, 2], 17, 8);
        // 0x0a00 + 0x0001 + 0x0a00 + 0x0002 + 17 + 8
        assert_eq!(acc, 0x0a00 + 0x0001 + 0x0a00 + 0x0002 + 17 + 8);
    }

    #[test]
    fn empty_buffer() {
        assert_eq!(checksum(&[]), 0xFFFF);
        assert!(!verify(&[0x00, 0x01]));
    }
}
