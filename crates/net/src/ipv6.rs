//! IPv6 headers (RFC 8200). Extension headers beyond what the fast
//! path needs are deliberately not parsed — packets carrying them are
//! classified to the slow path, mirroring the paper's design.

use std::net::Ipv6Addr;

use crate::{Error, Result};

/// IPv6 fixed header length.
pub const HEADER_LEN: usize = 40;

/// Typed view over an IPv6 packet.
#[derive(Debug, Clone)]
pub struct Ipv6Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Ipv6Packet<T> {
    /// Wrap a buffer, validating version and payload length.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let len = buffer.as_ref().len();
        if len < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let p = Ipv6Packet { buffer };
        if p.version() != 6 {
            return Err(Error::Malformed);
        }
        if HEADER_LEN + p.payload_len() as usize > len {
            return Err(Error::BadLength);
        }
        Ok(p)
    }

    /// Wrap without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        Ipv6Packet { buffer }
    }

    /// Release the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    fn b(&self) -> &[u8] {
        self.buffer.as_ref()
    }

    /// Version field (must be 6).
    pub fn version(&self) -> u8 {
        self.b()[0] >> 4
    }

    /// Payload length field.
    pub fn payload_len(&self) -> u16 {
        u16::from_be_bytes([self.b()[4], self.b()[5]])
    }

    /// Next-header field.
    pub fn next_header(&self) -> u8 {
        self.b()[6]
    }

    /// Hop limit.
    pub fn hop_limit(&self) -> u8 {
        self.b()[7]
    }

    /// Source address.
    pub fn src(&self) -> Ipv6Addr {
        let b: [u8; 16] = self.b()[8..24].try_into().expect("checked length");
        Ipv6Addr::from(b)
    }

    /// Destination address.
    pub fn dst(&self) -> Ipv6Addr {
        let b: [u8; 16] = self.b()[24..40].try_into().expect("checked length");
        Ipv6Addr::from(b)
    }

    /// Payload after the fixed header, bounded by the length field.
    pub fn payload(&self) -> &[u8] {
        let end = (HEADER_LEN + self.payload_len() as usize).min(self.b().len());
        &self.b()[HEADER_LEN..end]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Ipv6Packet<T> {
    fn m(&mut self) -> &mut [u8] {
        self.buffer.as_mut()
    }

    /// Set version=6, zero traffic class and flow label.
    pub(crate) fn set_version(&mut self) {
        self.m()[0] = 0x60;
        self.m()[1] = 0;
        self.m()[2] = 0;
        self.m()[3] = 0;
    }

    /// Set the payload length field.
    pub(crate) fn set_payload_len(&mut self, len: u16) {
        self.m()[4..6].copy_from_slice(&len.to_be_bytes());
    }

    /// Set the next-header field.
    pub(crate) fn set_next_header(&mut self, nh: u8) {
        self.m()[6] = nh;
    }

    /// Set the hop limit.
    pub(crate) fn set_hop_limit(&mut self, hl: u8) {
        self.m()[7] = hl;
    }

    /// Set the source address.
    pub fn set_src(&mut self, a: Ipv6Addr) {
        self.m()[8..24].copy_from_slice(&a.octets());
    }

    /// Set the destination address.
    pub fn set_dst(&mut self, a: Ipv6Addr) {
        self.m()[24..40].copy_from_slice(&a.octets());
    }

    /// Forwarding fast path: decrement the hop limit (IPv6 has no
    /// header checksum). Returns the new value.
    pub fn decrement_hop_limit(&mut self) -> u8 {
        let hl = self.b()[7].saturating_sub(1);
        self.m()[7] = hl;
        hl
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet_bytes(payload_len: usize) -> Vec<u8> {
        let mut v = vec![0u8; HEADER_LEN + payload_len];
        let mut p = Ipv6Packet::new_unchecked(&mut v[..]);
        p.set_version();
        p.set_payload_len(payload_len as u16);
        p.set_next_header(17);
        p.set_hop_limit(64);
        p.set_src("2001:db8::1".parse().unwrap());
        p.set_dst("2001:db8:ffff::2".parse().unwrap());
        v
    }

    #[test]
    fn parse_round_trip() {
        let v = packet_bytes(24);
        let p = Ipv6Packet::new_checked(&v[..]).unwrap();
        assert_eq!(p.version(), 6);
        assert_eq!(p.payload_len(), 24);
        assert_eq!(p.next_header(), 17);
        assert_eq!(p.hop_limit(), 64);
        assert_eq!(p.src(), "2001:db8::1".parse::<Ipv6Addr>().unwrap());
        assert_eq!(p.dst(), "2001:db8:ffff::2".parse::<Ipv6Addr>().unwrap());
        assert_eq!(p.payload().len(), 24);
    }

    #[test]
    fn bad_version_rejected() {
        let mut v = packet_bytes(0);
        v[0] = 0x45;
        assert_eq!(
            Ipv6Packet::new_checked(&v[..]).unwrap_err(),
            Error::Malformed
        );
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            Ipv6Packet::new_checked(&[0x60u8; 39][..]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn payload_len_overrun_rejected() {
        let mut v = packet_bytes(4);
        v[4..6].copy_from_slice(&100u16.to_be_bytes());
        assert_eq!(
            Ipv6Packet::new_checked(&v[..]).unwrap_err(),
            Error::BadLength
        );
    }

    #[test]
    fn hop_limit_decrement() {
        let mut v = packet_bytes(0);
        let mut p = Ipv6Packet::new_unchecked(&mut v[..]);
        assert_eq!(p.decrement_hop_limit(), 63);
        p.set_hop_limit(0);
        assert_eq!(p.decrement_hop_limit(), 0);
    }

    #[test]
    fn payload_bounded_by_length_field() {
        let mut v = packet_bytes(6);
        v.extend_from_slice(&[0xEE; 14]); // frame padding
        let p = Ipv6Packet::new_checked(&v[..]).unwrap();
        assert_eq!(p.payload().len(), 6);
    }
}
