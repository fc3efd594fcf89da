//! IPv4 headers (RFC 791), without options support (options mark the
//! packet for the slow path, as in the paper's fast-path design).

use std::net::Ipv4Addr;

use crate::checksum;
use crate::{Error, Result};

/// IPv4 base header length (no options).
pub const HEADER_LEN: usize = 20;

/// IP protocol numbers used by the applications.
pub mod protocol {
    /// TCP.
    pub const TCP: u8 = 6;
    /// UDP.
    pub const UDP: u8 = 17;
    /// IPsec Encapsulating Security Payload.
    pub const ESP: u8 = 50;
    /// ICMP.
    pub const ICMP: u8 = 1;
}

/// Typed view over an IPv4 packet.
#[derive(Debug, Clone)]
pub struct Ipv4Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Ipv4Packet<T> {
    /// Wrap a buffer, validating version, header length and the total
    /// length field against the buffer.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let len = buffer.as_ref().len();
        if len < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let p = Ipv4Packet { buffer };
        if p.version() != 4 {
            return Err(Error::Malformed);
        }
        if p.header_len() < HEADER_LEN || p.header_len() > len {
            return Err(Error::Malformed);
        }
        if (p.total_len() as usize) < p.header_len() || p.total_len() as usize > len {
            return Err(Error::BadLength);
        }
        Ok(p)
    }

    /// Wrap without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        Ipv4Packet { buffer }
    }

    /// Release the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    fn b(&self) -> &[u8] {
        self.buffer.as_ref()
    }

    /// IP version field (must be 4).
    pub fn version(&self) -> u8 {
        self.b()[0] >> 4
    }

    /// Header length in bytes (IHL × 4).
    pub fn header_len(&self) -> usize {
        usize::from(self.b()[0] & 0x0F) * 4
    }

    /// Whether options are present (IHL > 5).
    pub fn has_options(&self) -> bool {
        self.header_len() > HEADER_LEN
    }

    /// Total length field (header + payload).
    pub fn total_len(&self) -> u16 {
        u16::from_be_bytes([self.b()[2], self.b()[3]])
    }

    /// Identification field.
    pub fn ident(&self) -> u16 {
        u16::from_be_bytes([self.b()[4], self.b()[5]])
    }

    /// Time to live.
    pub fn ttl(&self) -> u8 {
        self.b()[8]
    }

    /// Protocol field.
    pub fn protocol(&self) -> u8 {
        self.b()[9]
    }

    /// Header checksum field.
    pub(crate) fn header_checksum(&self) -> u16 {
        u16::from_be_bytes([self.b()[10], self.b()[11]])
    }

    /// Source address.
    pub fn src(&self) -> Ipv4Addr {
        let b = self.b();
        Ipv4Addr::new(b[12], b[13], b[14], b[15])
    }

    /// Destination address.
    pub fn dst(&self) -> Ipv4Addr {
        let b = self.b();
        Ipv4Addr::new(b[16], b[17], b[18], b[19])
    }

    /// Verify the header checksum.
    pub fn verify_checksum(&self) -> bool {
        checksum::verify(&self.b()[..self.header_len()])
    }

    /// Payload after the header, bounded by the total-length field.
    pub fn payload(&self) -> &[u8] {
        let hl = self.header_len();
        let tl = self.total_len() as usize;
        &self.b()[hl..tl.max(hl).min(self.b().len())]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Ipv4Packet<T> {
    fn m(&mut self) -> &mut [u8] {
        self.buffer.as_mut()
    }

    /// Set version=4 and IHL=5 (20-byte header).
    pub fn set_version_ihl(&mut self) {
        self.m()[0] = 0x45;
    }

    /// Set the total length field.
    pub fn set_total_len(&mut self, len: u16) {
        self.m()[2..4].copy_from_slice(&len.to_be_bytes());
    }

    /// Set the identification field.
    pub fn set_ident(&mut self, id: u16) {
        self.m()[4..6].copy_from_slice(&id.to_be_bytes());
    }

    /// Set the TTL field (does not touch the checksum).
    pub fn set_ttl(&mut self, ttl: u8) {
        self.m()[8] = ttl;
    }

    /// Set the protocol field.
    pub fn set_protocol(&mut self, proto: u8) {
        self.m()[9] = proto;
    }

    /// Set the source address.
    pub fn set_src(&mut self, a: Ipv4Addr) {
        self.m()[12..16].copy_from_slice(&a.octets());
    }

    /// Set the destination address.
    pub fn set_dst(&mut self, a: Ipv4Addr) {
        self.m()[16..20].copy_from_slice(&a.octets());
    }

    /// Zero the checksum field and install a freshly computed one.
    pub fn fill_checksum(&mut self) {
        let hl = self.header_len();
        self.m()[10..12].copy_from_slice(&[0, 0]);
        let c = checksum::checksum(&self.b()[..hl]);
        self.m()[10..12].copy_from_slice(&c.to_be_bytes());
    }

    /// Forwarding fast path: decrement TTL and incrementally update
    /// the checksum (RFC 1624), as the pre-shading step does (§6.2.1).
    /// Returns the new TTL.
    pub fn decrement_ttl(&mut self) -> u8 {
        let old_word = u16::from_be_bytes([self.b()[8], self.b()[9]]);
        let ttl = self.b()[8].saturating_sub(1);
        self.m()[8] = ttl;
        let new_word = u16::from_be_bytes([self.b()[8], self.b()[9]]);
        let c = checksum::update16(self.header_checksum(), old_word, new_word);
        self.m()[10..12].copy_from_slice(&c.to_be_bytes());
        ttl
    }

    /// Mutable payload (header-length..total-length window).
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let hl = self.header_len();
        let tl = (self.total_len() as usize).max(hl).min(self.b().len());
        &mut self.m()[hl..tl]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet_bytes(payload_len: usize) -> Vec<u8> {
        let mut v = vec![0u8; HEADER_LEN + payload_len];
        let mut p = Ipv4Packet::new_unchecked(&mut v[..]);
        p.set_version_ihl();
        p.set_total_len((HEADER_LEN + payload_len) as u16);
        p.set_ttl(64);
        p.set_protocol(protocol::UDP);
        p.set_src(Ipv4Addr::new(10, 0, 0, 1));
        p.set_dst(Ipv4Addr::new(192, 168, 1, 99));
        p.fill_checksum();
        v
    }

    #[test]
    fn parse_round_trip() {
        let v = packet_bytes(20);
        let p = Ipv4Packet::new_checked(&v[..]).unwrap();
        assert_eq!(p.version(), 4);
        assert_eq!(p.header_len(), 20);
        assert_eq!(p.total_len(), 40);
        assert_eq!(p.ttl(), 64);
        assert_eq!(p.protocol(), protocol::UDP);
        assert_eq!(p.src(), Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(p.dst(), Ipv4Addr::new(192, 168, 1, 99));
        assert!(p.verify_checksum());
        assert_eq!(p.payload().len(), 20);
    }

    #[test]
    fn bad_version_rejected() {
        let mut v = packet_bytes(0);
        v[0] = 0x65; // version 6
        assert_eq!(
            Ipv4Packet::new_checked(&v[..]).unwrap_err(),
            Error::Malformed
        );
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            Ipv4Packet::new_checked(&[0x45u8; 10][..]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn total_len_overrun_rejected() {
        let mut v = packet_bytes(0);
        v[2..4].copy_from_slice(&100u16.to_be_bytes());
        assert_eq!(
            Ipv4Packet::new_checked(&v[..]).unwrap_err(),
            Error::BadLength
        );
    }

    #[test]
    fn total_len_below_header_rejected() {
        let mut v = packet_bytes(8);
        v[2..4].copy_from_slice(&10u16.to_be_bytes());
        assert_eq!(
            Ipv4Packet::new_checked(&v[..]).unwrap_err(),
            Error::BadLength
        );
    }

    #[test]
    fn ttl_decrement_keeps_checksum_valid() {
        let mut v = packet_bytes(8);
        let mut p = Ipv4Packet::new_unchecked(&mut v[..]);
        assert!(p.verify_checksum());
        let ttl = p.decrement_ttl();
        assert_eq!(ttl, 63);
        assert!(p.verify_checksum(), "RFC1624 incremental update must hold");
    }

    #[test]
    fn ttl_decrement_saturates_at_zero() {
        let mut v = packet_bytes(8);
        {
            let mut p = Ipv4Packet::new_unchecked(&mut v[..]);
            p.set_ttl(0);
            p.fill_checksum();
            assert_eq!(p.decrement_ttl(), 0);
            assert!(p.verify_checksum());
        }
    }

    #[test]
    fn checksum_detects_bit_flip() {
        let mut v = packet_bytes(8);
        v[16] ^= 0x01;
        let p = Ipv4Packet::new_unchecked(&v[..]);
        assert!(!p.verify_checksum());
    }

    #[test]
    fn payload_bounded_by_total_len() {
        // Frame padded beyond the IP total length (common with 60B
        // minimum Ethernet frames): payload must stop at total_len.
        let mut v = packet_bytes(6);
        v.extend_from_slice(&[0xEE; 20]); // Ethernet padding
        let p = Ipv4Packet::new_checked(&v[..]).unwrap();
        assert_eq!(p.payload().len(), 6);
    }
}
