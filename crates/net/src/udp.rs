//! UDP datagrams (RFC 768).

use crate::checksum;
use crate::{Error, Result};

/// UDP header length.
pub const HEADER_LEN: usize = 8;

/// Typed view over a UDP datagram.
#[derive(Debug, Clone)]
pub struct UdpDatagram<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> UdpDatagram<T> {
    /// Wrap a buffer, validating header and length field.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let len = buffer.as_ref().len();
        if len < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let d = UdpDatagram { buffer };
        let l = d.len() as usize;
        if l < HEADER_LEN || l > len {
            return Err(Error::BadLength);
        }
        Ok(d)
    }

    /// Wrap without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        UdpDatagram { buffer }
    }

    fn b(&self) -> &[u8] {
        self.buffer.as_ref()
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        u16::from_be_bytes([self.b()[0], self.b()[1]])
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        u16::from_be_bytes([self.b()[2], self.b()[3]])
    }

    /// Length field (header + payload).
    pub fn len(&self) -> u16 {
        u16::from_be_bytes([self.b()[4], self.b()[5]])
    }

    /// True if the length field covers only the header.
    pub fn is_empty(&self) -> bool {
        self.len() as usize == HEADER_LEN
    }

    /// Checksum field (0 = not computed, legal for UDP over IPv4).
    pub(crate) fn checksum_field(&self) -> u16 {
        u16::from_be_bytes([self.b()[6], self.b()[7]])
    }

    /// Payload bytes bounded by the length field.
    pub fn payload(&self) -> &[u8] {
        let end = (self.len() as usize).min(self.b().len());
        &self.b()[HEADER_LEN..end]
    }

    /// Verify the checksum against an IPv4 pseudo header. A zero
    /// checksum field is accepted as "not computed".
    pub fn verify_checksum_v4(&self, src: [u8; 4], dst: [u8; 4]) -> bool {
        if self.checksum_field() == 0 {
            return true;
        }
        let acc = checksum::pseudo_header_v4(src, dst, crate::ipv4::protocol::UDP, self.len());
        let end = (self.len() as usize).min(self.b().len());
        checksum::finish(checksum::sum(acc, &self.b()[..end])) == 0
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> UdpDatagram<T> {
    fn m(&mut self) -> &mut [u8] {
        self.buffer.as_mut()
    }

    /// Set the source port.
    pub fn set_src_port(&mut self, p: u16) {
        self.m()[0..2].copy_from_slice(&p.to_be_bytes());
    }

    /// Set the destination port.
    pub fn set_dst_port(&mut self, p: u16) {
        self.m()[2..4].copy_from_slice(&p.to_be_bytes());
    }

    /// Set the length field.
    pub(crate) fn set_len(&mut self, l: u16) {
        self.m()[4..6].copy_from_slice(&l.to_be_bytes());
    }

    /// Compute and install the checksum over an IPv4 pseudo header.
    /// Per RFC 768 a computed checksum of 0 is transmitted as 0xFFFF.
    pub(crate) fn fill_checksum_v4(&mut self, src: [u8; 4], dst: [u8; 4]) {
        self.m()[6..8].copy_from_slice(&[0, 0]);
        let acc = checksum::pseudo_header_v4(src, dst, crate::ipv4::protocol::UDP, self.len());
        let end = (self.len() as usize).min(self.b().len());
        let mut c = checksum::finish(checksum::sum(acc, &self.b()[..end]));
        if c == 0 {
            c = 0xFFFF;
        }
        self.m()[6..8].copy_from_slice(&c.to_be_bytes());
    }

    /// Mutable payload.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let end = (self.len() as usize).min(self.b().len());
        &mut self.m()[HEADER_LEN..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn datagram(payload: &[u8]) -> Vec<u8> {
        let mut v = vec![0u8; HEADER_LEN + payload.len()];
        v[HEADER_LEN..].copy_from_slice(payload);
        let mut d = UdpDatagram::new_unchecked(&mut v[..]);
        d.set_src_port(5353);
        d.set_dst_port(80);
        d.set_len((HEADER_LEN + payload.len()) as u16);
        d.fill_checksum_v4([10, 0, 0, 1], [10, 0, 0, 2]);
        v
    }

    #[test]
    fn parse_round_trip() {
        let v = datagram(b"hello");
        let d = UdpDatagram::new_checked(&v[..]).unwrap();
        assert_eq!(d.src_port(), 5353);
        assert_eq!(d.dst_port(), 80);
        assert_eq!(d.len(), 13);
        assert_eq!(d.payload(), b"hello");
        assert!(d.verify_checksum_v4([10, 0, 0, 1], [10, 0, 0, 2]));
    }

    #[test]
    fn checksum_detects_payload_corruption() {
        let mut v = datagram(b"hello");
        v[HEADER_LEN] ^= 0xFF;
        let d = UdpDatagram::new_unchecked(&v[..]);
        assert!(!d.verify_checksum_v4([10, 0, 0, 1], [10, 0, 0, 2]));
    }

    #[test]
    fn checksum_binds_pseudo_header() {
        let v = datagram(b"hello");
        let d = UdpDatagram::new_unchecked(&v[..]);
        assert!(!d.verify_checksum_v4([10, 0, 0, 1], [10, 0, 0, 3]));
    }

    #[test]
    fn zero_checksum_accepted() {
        let mut v = datagram(b"x");
        v[6] = 0;
        v[7] = 0;
        let d = UdpDatagram::new_unchecked(&v[..]);
        assert!(d.verify_checksum_v4([1, 2, 3, 4], [5, 6, 7, 8]));
    }

    #[test]
    fn truncated_and_bad_length() {
        assert_eq!(
            UdpDatagram::new_checked(&[0u8; 7][..]).unwrap_err(),
            Error::Truncated
        );
        let mut v = datagram(b"abc");
        v[4..6].copy_from_slice(&100u16.to_be_bytes());
        assert_eq!(
            UdpDatagram::new_checked(&v[..]).unwrap_err(),
            Error::BadLength
        );
        let mut v = datagram(b"abc");
        v[4..6].copy_from_slice(&4u16.to_be_bytes());
        assert_eq!(
            UdpDatagram::new_checked(&v[..]).unwrap_err(),
            Error::BadLength
        );
    }

    #[test]
    fn empty_payload() {
        let v = datagram(b"");
        let d = UdpDatagram::new_checked(&v[..]).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.payload(), b"");
    }
}
