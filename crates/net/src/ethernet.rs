//! Ethernet II frames.

use crate::{Error, Result};

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// Locally-administered unicast address derived from a small id,
    /// in the style of smoltcp's examples (`02-00-00-00-00-xx`).
    pub fn local(id: u8) -> MacAddr {
        MacAddr([0x02, 0, 0, 0, 0, id])
    }
}

impl std::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// EtherType values the router cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// 0x0800
    Ipv4,
    /// 0x86DD
    Ipv6,
    /// 0x0806
    Arp,
    /// Anything else, preserved verbatim.
    Other(u16),
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x86DD => EtherType::Ipv6,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(v: EtherType) -> u16 {
        match v {
            EtherType::Ipv4 => 0x0800,
            EtherType::Ipv6 => 0x86DD,
            EtherType::Arp => 0x0806,
            EtherType::Other(o) => o,
        }
    }
}

/// Ethernet II header length.
pub const HEADER_LEN: usize = 14;

/// A typed view over an Ethernet II frame.
///
/// `T` is any byte container (`&[u8]`, `&mut [u8]`, `Vec<u8>`), in the
/// smoltcp style; setters are available when `T: AsMut<[u8]>`.
#[derive(Debug, Clone)]
pub struct EthernetFrame<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> EthernetFrame<T> {
    /// Wrap a buffer, validating the fixed-header length.
    pub fn new_checked(buffer: T) -> Result<Self> {
        if buffer.as_ref().len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        Ok(EthernetFrame { buffer })
    }

    /// Wrap without checking; only for buffers produced by builders.
    pub fn new_unchecked(buffer: T) -> Self {
        EthernetFrame { buffer }
    }

    /// Release the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// Destination MAC.
    pub fn dst(&self) -> MacAddr {
        let b = self.buffer.as_ref();
        MacAddr(b[0..6].try_into().expect("checked length"))
    }

    /// Source MAC.
    pub fn src(&self) -> MacAddr {
        let b = self.buffer.as_ref();
        MacAddr(b[6..12].try_into().expect("checked length"))
    }

    /// EtherType field.
    pub fn ethertype(&self) -> EtherType {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[12], b[13]]).into()
    }

    /// Payload after the 14-byte header.
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_LEN..]
    }

    /// Whole frame length in bytes.
    pub fn total_len(&self) -> usize {
        self.buffer.as_ref().len()
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> EthernetFrame<T> {
    /// Set the destination MAC.
    pub fn set_dst(&mut self, mac: MacAddr) {
        self.buffer.as_mut()[0..6].copy_from_slice(&mac.0);
    }

    /// Set the source MAC.
    pub fn set_src(&mut self, mac: MacAddr) {
        self.buffer.as_mut()[6..12].copy_from_slice(&mac.0);
    }

    /// Set the EtherType.
    pub fn set_ethertype(&mut self, ty: EtherType) {
        let v: u16 = ty.into();
        self.buffer.as_mut()[12..14].copy_from_slice(&v.to_be_bytes());
    }

    /// Mutable payload.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buffer.as_mut()[HEADER_LEN..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_bytes() -> Vec<u8> {
        let mut v = vec![0u8; 60];
        v[0..6].copy_from_slice(&[0xff; 6]);
        v[6..12].copy_from_slice(&[0x02, 0, 0, 0, 0, 7]);
        v[12..14].copy_from_slice(&0x0800u16.to_be_bytes());
        v
    }

    #[test]
    fn parse_fields() {
        let f = EthernetFrame::new_checked(frame_bytes()).unwrap();
        assert_eq!(f.dst(), MacAddr([0xFF; 6]));
        assert_eq!(f.src(), MacAddr::local(7));
        assert_eq!(f.src().to_string(), "02:00:00:00:00:07");
        assert_eq!(f.ethertype(), EtherType::Ipv4);
        assert_eq!(f.payload().len(), 46);
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            EthernetFrame::new_checked(&[0u8; 13][..]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn setters_round_trip() {
        let mut f = EthernetFrame::new_checked(frame_bytes()).unwrap();
        f.set_dst(MacAddr::local(1));
        f.set_src(MacAddr::local(2));
        f.set_ethertype(EtherType::Ipv6);
        assert_eq!(f.dst(), MacAddr::local(1));
        assert_eq!(f.src(), MacAddr::local(2));
        assert_eq!(f.ethertype(), EtherType::Ipv6);
    }

    #[test]
    fn ethertype_round_trip() {
        for ty in [
            EtherType::Ipv4,
            EtherType::Ipv6,
            EtherType::Arp,
            EtherType::Other(0x88CC),
        ] {
            let raw: u16 = ty.into();
            assert_eq!(EtherType::from(raw), ty);
        }
    }
}
