//! ESP tunnel-mode transforms (RFC 4303): the work the IPsec gateway
//! performs per packet — encrypt-then-MAC with AES-128-CTR and
//! HMAC-SHA1-96, the paper's cipher suite (§6.2.4).

use ps_net::esp::{self, EspPacket, IV_LEN};

use crate::aes::{Aes128, CtrStream};
use crate::hmac::HmacSha1;

/// Next-header value for IPv4-in-ESP (tunnel mode).
const NEXT_HEADER_IPV4: u8 = 4;

/// Decapsulation failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EspError {
    /// Buffer does not parse as ESP.
    Malformed,
    /// The ICV does not verify: packet corrupted or forged.
    BadIcv,
    /// Decrypted trailer is inconsistent (bad padding / next header).
    BadTrailer,
    /// SPI does not match the SA.
    BadSpi,
}

impl std::fmt::Display for EspError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EspError::Malformed => write!(f, "malformed ESP packet"),
            EspError::BadIcv => write!(f, "ICV verification failed"),
            EspError::BadTrailer => write!(f, "inconsistent ESP trailer"),
            EspError::BadSpi => write!(f, "SPI mismatch"),
        }
    }
}

impl std::error::Error for EspError {}

/// One security association: keys and counters for a tunnel.
pub struct SecurityAssociation {
    /// Security Parameters Index.
    pub spi: u32,
    ctr: CtrStream,
    hmac: HmacSha1,
    /// Next outbound sequence number.
    pub seq: u32,
}

impl SecurityAssociation {
    /// Create an SA from raw key material.
    pub fn new(spi: u32, aes_key: &[u8; 16], ctr_nonce: u32, hmac_key: &[u8]) -> Self {
        SecurityAssociation {
            spi,
            ctr: CtrStream::new(aes_key, ctr_nonce),
            hmac: HmacSha1::new(hmac_key),
            seq: 1,
        }
    }

    /// The SA's block cipher, key schedule expanded once at SA
    /// creation. Offload paths that drive AES blocks themselves
    /// borrow this instead of re-expanding the key per batch.
    pub fn cipher(&self) -> &Aes128 {
        self.ctr.cipher()
    }

    /// The SA's keyed HMAC context (inner/outer pads precomputed at
    /// SA creation).
    pub fn hmac(&self) -> &HmacSha1 {
        &self.hmac
    }

    /// Deterministic per-packet IV from the sequence number (RFC 3686
    /// only requires uniqueness per SA).
    pub fn iv_for_seq(seq: u32) -> [u8; IV_LEN] {
        let mut iv = [0u8; IV_LEN];
        iv[4..8].copy_from_slice(&seq.to_be_bytes());
        iv
    }
}

/// Encapsulate `inner` (a full inner IP packet) into an ESP payload,
/// advancing the SA sequence number. Returns the ESP packet bytes —
/// the payload of the outer IP header.
pub fn encrypt_tunnel(sa: &mut SecurityAssociation, inner: &[u8]) -> Vec<u8> {
    let seq = sa.seq;
    sa.seq = sa.seq.wrapping_add(1);
    let iv = SecurityAssociation::iv_for_seq(seq);

    let ct_len = esp::ciphertext_len(inner.len());
    let total = esp::total_len(inner.len());
    let mut buf = vec![0u8; total];
    {
        let mut pkt = EspPacket::new_unchecked(&mut buf[..]);
        pkt.set_spi(sa.spi);
        pkt.set_seq(seq);
        pkt.set_iv(&iv);
        let ct = pkt.ciphertext_mut();
        ct[..inner.len()].copy_from_slice(inner);
        // RFC 4303 monotonic padding then (pad_len, next_header).
        let pad_len = ct_len - inner.len() - esp::TRAILER_MIN;
        for (i, b) in ct[inner.len()..inner.len() + pad_len]
            .iter_mut()
            .enumerate()
        {
            *b = (i + 1) as u8;
        }
        ct[ct_len - 2] = pad_len as u8;
        ct[ct_len - 1] = NEXT_HEADER_IPV4;
        sa.ctr.apply(&iv, ct);
    }
    // Encrypt-then-MAC over header + IV + ciphertext.
    let icv = {
        let pkt = EspPacket::new_unchecked(&buf[..]);
        sa.hmac.mac96(pkt.authenticated())
    };
    let mut pkt = EspPacket::new_unchecked(&mut buf[..]);
    pkt.set_icv(&icv);
    buf
}

/// Verify and decapsulate an ESP payload back to the inner IP packet.
pub fn decrypt_tunnel(sa: &SecurityAssociation, payload: &[u8]) -> Result<Vec<u8>, EspError> {
    let pkt = EspPacket::new_checked(payload).map_err(|_| EspError::Malformed)?;
    if pkt.spi() != sa.spi {
        return Err(EspError::BadSpi);
    }
    if !sa.hmac.verify96(pkt.authenticated(), pkt.icv()) {
        return Err(EspError::BadIcv);
    }
    let iv: [u8; IV_LEN] = pkt.iv().try_into().expect("fixed IV length");
    let mut ct = pkt.ciphertext().to_vec();
    sa.ctr.apply(&iv, &mut ct);

    let n = ct.len();
    let next_header = ct[n - 1];
    let pad_len = ct[n - 2] as usize;
    if next_header != NEXT_HEADER_IPV4 || pad_len + esp::TRAILER_MIN > n {
        return Err(EspError::BadTrailer);
    }
    // Validate monotonic padding.
    let inner_len = n - esp::TRAILER_MIN - pad_len;
    for (i, &b) in ct[inner_len..inner_len + pad_len].iter().enumerate() {
        if b != (i + 1) as u8 {
            return Err(EspError::BadTrailer);
        }
    }
    ct.truncate(inner_len);
    Ok(ct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sa() -> SecurityAssociation {
        SecurityAssociation::new(0x1001, &[0x42; 16], 0xDEAD, b"authentication-key")
    }

    #[test]
    fn round_trip_various_sizes() {
        let mut s = sa();
        for len in [20usize, 21, 46, 64, 100, 576, 1480] {
            let inner: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let wire = encrypt_tunnel(&mut s, &inner);
            assert_eq!(wire.len(), esp::total_len(len));
            let back = decrypt_tunnel(&s, &wire).expect("decrypts");
            assert_eq!(back, inner, "len={len}");
        }
    }

    #[test]
    fn sequence_numbers_advance() {
        let mut s = sa();
        let w1 = encrypt_tunnel(&mut s, &[0u8; 40]);
        let w2 = encrypt_tunnel(&mut s, &[0u8; 40]);
        let p1 = EspPacket::new_checked(&w1[..]).unwrap();
        let p2 = EspPacket::new_checked(&w2[..]).unwrap();
        assert_eq!(p1.seq() + 1, p2.seq());
        // Same plaintext, different seq -> different ciphertext.
        assert_ne!(p1.ciphertext(), p2.ciphertext());
    }

    #[test]
    fn tampering_detected() {
        let mut s = sa();
        let wire = encrypt_tunnel(&mut s, &[7u8; 60]);
        // A flip in the SPI field is caught by SPI lookup; anywhere
        // else the ICV catches it.
        let mut bad = wire.clone();
        bad[0] ^= 0x80;
        assert_eq!(decrypt_tunnel(&s, &bad).unwrap_err(), EspError::BadSpi);
        for idx in [5, 8, 20, wire.len() - 1] {
            let mut bad = wire.clone();
            bad[idx] ^= 0x80;
            assert_eq!(
                decrypt_tunnel(&s, &bad).unwrap_err(),
                EspError::BadIcv,
                "flip at {idx}"
            );
        }
    }

    #[test]
    fn wrong_spi_rejected() {
        let mut s = sa();
        let wire = encrypt_tunnel(&mut s, &[7u8; 60]);
        let other = SecurityAssociation::new(0x2002, &[0x42; 16], 0xDEAD, b"authentication-key");
        assert_eq!(decrypt_tunnel(&other, &wire).unwrap_err(), EspError::BadSpi);
    }

    #[test]
    fn wrong_keys_fail_icv() {
        let mut s = sa();
        let wire = encrypt_tunnel(&mut s, &[7u8; 60]);
        let other = SecurityAssociation::new(0x1001, &[0x42; 16], 0xDEAD, b"different-key");
        assert_eq!(decrypt_tunnel(&other, &wire).unwrap_err(), EspError::BadIcv);
    }

    #[test]
    fn truncated_rejected() {
        let mut s = sa();
        let wire = encrypt_tunnel(&mut s, &[7u8; 60]);
        assert_eq!(
            decrypt_tunnel(&s, &wire[..10]).unwrap_err(),
            EspError::Malformed
        );
    }

    #[test]
    fn overhead_matches_paper_framing() {
        // 64B inner packet: 8 (hdr) + 8 (IV) + pad to 16 + 12 (ICV).
        // ciphertext = ceil((64+2)/16)*16 = 80; total = 8+8+80+12 = 108.
        assert_eq!(esp::total_len(64), 108);
    }
}
