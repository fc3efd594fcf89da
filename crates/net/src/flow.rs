//! The OpenFlow 0.8.9 ten-field flow key (§6.2.3) and its extraction
//! from raw frames.

use crate::ethernet::{EtherType, EthernetFrame, MacAddr};
use crate::ipv4::{protocol, Ipv4Packet};
use crate::tcp::TcpSegment;
use crate::udp::UdpDatagram;
use crate::Result;

/// The ten header fields OpenFlow 0.8.9 matches on.
///
/// Field order follows the specification: ingress port, Ethernet
/// source/destination/VLAN/type, IP source/destination/protocol,
/// transport source/destination ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FlowKey {
    /// Switch ingress port.
    pub in_port: u16,
    /// Ethernet source address.
    pub dl_src: [u8; 6],
    /// Ethernet destination address.
    pub dl_dst: [u8; 6],
    /// VLAN id (0xFFFF = untagged, per the reference switch).
    pub dl_vlan: u16,
    /// EtherType.
    pub dl_type: u16,
    /// IPv4 source address (network order as u32).
    pub nw_src: u32,
    /// IPv4 destination address.
    pub nw_dst: u32,
    /// IP protocol.
    pub nw_proto: u8,
    /// Transport source port (or 0).
    pub tp_src: u16,
    /// Transport destination port (or 0).
    pub tp_dst: u16,
}

/// Value of `dl_vlan` for untagged frames.
pub(crate) const VLAN_NONE: u16 = 0xFFFF;

impl FlowKey {
    /// Extract the flow key from a raw Ethernet frame received on
    /// `in_port`. Non-IPv4 frames still produce a key (the L3/L4
    /// fields are zero), matching the reference switch behaviour.
    pub fn extract(in_port: u16, frame: &[u8]) -> Result<FlowKey> {
        let eth = EthernetFrame::new_checked(frame)?;
        let mut key = FlowKey {
            in_port,
            dl_src: eth.src().0,
            dl_dst: eth.dst().0,
            dl_vlan: VLAN_NONE,
            dl_type: eth.ethertype().into(),
            ..FlowKey::default()
        };
        if eth.ethertype() == EtherType::Ipv4 {
            let ip = Ipv4Packet::new_checked(eth.payload())?;
            key.nw_src = u32::from(ip.src());
            key.nw_dst = u32::from(ip.dst());
            key.nw_proto = ip.protocol();
            match ip.protocol() {
                protocol::UDP => {
                    if let Ok(udp) = UdpDatagram::new_checked(ip.payload()) {
                        key.tp_src = udp.src_port();
                        key.tp_dst = udp.dst_port();
                    }
                }
                protocol::TCP => {
                    if let Ok(tcp) = TcpSegment::new_checked(ip.payload()) {
                        key.tp_src = tcp.src_port();
                        key.tp_dst = tcp.dst_port();
                    }
                }
                _ => {}
            }
        }
        Ok(key)
    }

    /// Serialize to the canonical byte string used for hashing —
    /// stable across platforms so hash values are reproducible.
    pub fn to_bytes(&self) -> [u8; 31] {
        let mut out = [0u8; 31];
        out[0..2].copy_from_slice(&self.in_port.to_be_bytes());
        out[2..8].copy_from_slice(&self.dl_src);
        out[8..14].copy_from_slice(&self.dl_dst);
        out[14..16].copy_from_slice(&self.dl_vlan.to_be_bytes());
        out[16..18].copy_from_slice(&self.dl_type.to_be_bytes());
        out[18..22].copy_from_slice(&self.nw_src.to_be_bytes());
        out[22..26].copy_from_slice(&self.nw_dst.to_be_bytes());
        out[26] = self.nw_proto;
        out[27..29].copy_from_slice(&self.tp_src.to_be_bytes());
        out[29..31].copy_from_slice(&self.tp_dst.to_be_bytes());
        out
    }

    /// The RSS-style 5-tuple `(nw_src, nw_dst, tp_src, tp_dst,
    /// nw_proto)` used for flow-affinity hashing (§4.4).
    pub fn five_tuple(&self) -> (u32, u32, u16, u16, u8) {
        (
            self.nw_src,
            self.nw_dst,
            self.tp_src,
            self.tp_dst,
            self.nw_proto,
        )
    }
}

/// Convenience: source/destination MACs as typed addresses.
impl FlowKey {
    /// Ethernet source as a [`MacAddr`].
    pub fn src_mac(&self) -> MacAddr {
        MacAddr(self.dl_src)
    }

    /// Ethernet destination as a [`MacAddr`].
    pub fn dst_mac(&self) -> MacAddr {
        MacAddr(self.dl_dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PacketBuilder;
    use std::net::Ipv4Addr;

    fn udp_frame() -> Vec<u8> {
        PacketBuilder::udp_v4(
            MacAddr::local(1),
            MacAddr::local(2),
            Ipv4Addr::new(10, 1, 2, 3),
            Ipv4Addr::new(172, 16, 0, 9),
            4000,
            53,
            64,
        )
    }

    #[test]
    fn extracts_all_ten_fields() {
        let f = udp_frame();
        let key = FlowKey::extract(3, &f).unwrap();
        assert_eq!(key.in_port, 3);
        assert_eq!(key.src_mac(), MacAddr::local(1));
        assert_eq!(key.dst_mac(), MacAddr::local(2));
        assert_eq!(key.dl_vlan, VLAN_NONE);
        assert_eq!(key.dl_type, 0x0800);
        assert_eq!(key.nw_src, u32::from(Ipv4Addr::new(10, 1, 2, 3)));
        assert_eq!(key.nw_dst, u32::from(Ipv4Addr::new(172, 16, 0, 9)));
        assert_eq!(key.nw_proto, protocol::UDP);
        assert_eq!(key.tp_src, 4000);
        assert_eq!(key.tp_dst, 53);
    }

    #[test]
    fn non_ip_frame_zeroes_l3_fields() {
        let mut f = udp_frame();
        f[12..14].copy_from_slice(&0x0806u16.to_be_bytes()); // ARP
        let key = FlowKey::extract(0, &f).unwrap();
        assert_eq!(key.dl_type, 0x0806);
        assert_eq!(key.nw_src, 0);
        assert_eq!(key.tp_dst, 0);
    }

    #[test]
    fn identical_packets_identical_keys() {
        let a = FlowKey::extract(1, &udp_frame()).unwrap();
        let b = FlowKey::extract(1, &udp_frame()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn in_port_distinguishes_keys() {
        let a = FlowKey::extract(1, &udp_frame()).unwrap();
        let b = FlowKey::extract(2, &udp_frame()).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn byte_serialization_is_injective_on_fields() {
        let mut a = FlowKey::extract(1, &udp_frame()).unwrap();
        let bytes_a = a.to_bytes();
        a.tp_dst ^= 1;
        assert_ne!(a.to_bytes(), bytes_a);
    }
}
