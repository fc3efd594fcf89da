//! Packet construction helpers used by the traffic generator, tests
//! and examples. Builders produce complete, checksummed frames sized
//! to an exact target length (padding the payload), matching the
//! paper's fixed-size packet workloads.

use std::net::{Ipv4Addr, Ipv6Addr};

use crate::ethernet::{EtherType, EthernetFrame, MacAddr};
use crate::ipv4::{protocol, Ipv4Packet};
use crate::ipv6::Ipv6Packet;
use crate::udp::UdpDatagram;
use crate::{ethernet, ipv4, ipv6, udp, MIN_FRAME_LEN};

/// Stateless builders for the frame shapes the evaluation uses.
pub struct PacketBuilder;

impl PacketBuilder {
    /// A UDP-over-IPv4 Ethernet frame of exactly `frame_len` bytes
    /// (>= 60). Checksums (IPv4 header + UDP) are filled in.
    pub fn udp_v4(
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        frame_len: usize,
    ) -> Vec<u8> {
        let frame_len = frame_len.max(MIN_FRAME_LEN);
        let ip_len = frame_len - ethernet::HEADER_LEN;
        let udp_len = ip_len - ipv4::HEADER_LEN;
        assert!(
            udp_len >= udp::HEADER_LEN,
            "frame too short for UDP/IPv4: {frame_len}"
        );

        let mut buf = vec![0u8; frame_len];
        {
            let mut eth = EthernetFrame::new_unchecked(&mut buf[..]);
            eth.set_src(src_mac);
            eth.set_dst(dst_mac);
            eth.set_ethertype(EtherType::Ipv4);
        }
        {
            let mut ip = Ipv4Packet::new_unchecked(&mut buf[ethernet::HEADER_LEN..]);
            ip.set_version_ihl();
            ip.set_total_len(ip_len as u16);
            ip.set_ident(0);
            ip.set_ttl(64);
            ip.set_protocol(protocol::UDP);
            ip.set_src(src);
            ip.set_dst(dst);
            ip.fill_checksum();
        }
        {
            let off = ethernet::HEADER_LEN + ipv4::HEADER_LEN;
            let mut u = UdpDatagram::new_unchecked(&mut buf[off..]);
            u.set_src_port(src_port);
            u.set_dst_port(dst_port);
            u.set_len(udp_len as u16);
            u.fill_checksum_v4(src.octets(), dst.octets());
        }
        buf
    }

    /// A UDP-over-IPv6 Ethernet frame of exactly `frame_len` bytes.
    /// (IPv6 forwarding only reads addresses; the UDP checksum is left
    /// zero, which the simulation treats as "offloaded".)
    pub fn udp_v6(
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src: Ipv6Addr,
        dst: Ipv6Addr,
        src_port: u16,
        dst_port: u16,
        frame_len: usize,
    ) -> Vec<u8> {
        let min = ethernet::HEADER_LEN + ipv6::HEADER_LEN + udp::HEADER_LEN;
        let frame_len = frame_len.max(min).max(MIN_FRAME_LEN);
        let payload_len = frame_len - ethernet::HEADER_LEN - ipv6::HEADER_LEN;

        let mut buf = vec![0u8; frame_len];
        {
            let mut eth = EthernetFrame::new_unchecked(&mut buf[..]);
            eth.set_src(src_mac);
            eth.set_dst(dst_mac);
            eth.set_ethertype(EtherType::Ipv6);
        }
        {
            let mut ip = Ipv6Packet::new_unchecked(&mut buf[ethernet::HEADER_LEN..]);
            ip.set_version();
            ip.set_payload_len(payload_len as u16);
            ip.set_next_header(protocol::UDP);
            ip.set_hop_limit(64);
            ip.set_src(src);
            ip.set_dst(dst);
        }
        {
            let off = ethernet::HEADER_LEN + ipv6::HEADER_LEN;
            let mut u = UdpDatagram::new_unchecked(&mut buf[off..]);
            u.set_src_port(src_port);
            u.set_dst_port(dst_port);
            u.set_len(payload_len as u16);
        }
        buf
    }

    /// A raw IPv4 frame (no transport header) with the given protocol
    /// number around `payload`, written into `buf`, replacing its
    /// contents and reusing its allocation; used to wrap ESP packets.
    pub fn raw_v4_into(
        buf: &mut Vec<u8>,
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        proto: u8,
        payload: &[u8],
    ) {
        let ip_len = ipv4::HEADER_LEN + payload.len();
        let off = ethernet::HEADER_LEN + ipv4::HEADER_LEN;
        // Headers are zeroed then filled, the payload is copied, and
        // only minimum-frame padding past it needs zeroes. A buffer
        // that must grow grows to the frame exactly: amortized doubling
        // would leave every pooled frame buffer twice its size.
        buf.clear();
        buf.reserve_exact((off + payload.len()).max(MIN_FRAME_LEN));
        buf.resize(off, 0);
        buf.extend_from_slice(payload);
        buf.resize(buf.len().max(MIN_FRAME_LEN), 0);
        {
            let mut eth = EthernetFrame::new_unchecked(&mut buf[..]);
            eth.set_src(src_mac);
            eth.set_dst(dst_mac);
            eth.set_ethertype(EtherType::Ipv4);
        }
        let mut ip = Ipv4Packet::new_unchecked(&mut buf[ethernet::HEADER_LEN..]);
        ip.set_version_ihl();
        ip.set_total_len(ip_len as u16);
        ip.set_ttl(64);
        ip.set_protocol(proto);
        ip.set_src(src);
        ip.set_dst(dst);
        ip.fill_checksum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udp_v4_frame_is_valid_at_all_paper_sizes() {
        for &size in &[64usize, 128, 256, 512, 1024, 1514] {
            let f = PacketBuilder::udp_v4(
                MacAddr::local(1),
                MacAddr::local(2),
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                1000,
                2000,
                size,
            );
            assert_eq!(f.len(), size);
            let eth = EthernetFrame::new_checked(&f[..]).unwrap();
            assert_eq!(eth.ethertype(), EtherType::Ipv4);
            let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
            assert!(ip.verify_checksum());
            let u = UdpDatagram::new_checked(ip.payload()).unwrap();
            assert!(u.verify_checksum_v4(ip.src().octets(), ip.dst().octets()));
        }
    }

    #[test]
    fn udp_v6_frame_is_valid() {
        let f = PacketBuilder::udp_v6(
            MacAddr::local(1),
            MacAddr::local(2),
            "2001:db8::1".parse().unwrap(),
            "2001:db8::2".parse().unwrap(),
            1000,
            2000,
            64,
        );
        assert_eq!(f.len(), 64); // IPv6 min frame here is 62, padded to min 64? no: 60
        let eth = EthernetFrame::new_checked(&f[..]).unwrap();
        assert_eq!(eth.ethertype(), EtherType::Ipv6);
        let ip = Ipv6Packet::new_checked(eth.payload()).unwrap();
        assert_eq!(ip.next_header(), protocol::UDP);
    }

    #[test]
    fn raw_v4_wraps_payload() {
        let payload = vec![0xAB; 100];
        let mut f = Vec::new();
        PacketBuilder::raw_v4_into(
            &mut f,
            MacAddr::local(1),
            MacAddr::local(2),
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            protocol::ESP,
            &payload,
        );
        let eth = EthernetFrame::new_checked(&f[..]).unwrap();
        let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
        assert_eq!(ip.protocol(), protocol::ESP);
        assert_eq!(ip.payload(), &payload[..]);
    }

    /// Stale bytes in a recycled buffer never leak into the frame —
    /// not into the zeroed header fields, not into the minimum-frame
    /// padding — and a buffer that is large enough is not reallocated.
    #[test]
    fn raw_v4_into_reuses_a_dirty_buffer() {
        for payload_len in [0usize, 7, 100, 1538] {
            let payload = vec![0xAB; payload_len];
            let args = (
                MacAddr::local(1),
                MacAddr::local(2),
                Ipv4Addr::new(1, 1, 1, 1),
                Ipv4Addr::new(2, 2, 2, 2),
            );
            let mut fresh = Vec::new();
            PacketBuilder::raw_v4_into(&mut fresh, args.0, args.1, args.2, args.3, 50, &payload);
            let mut buf = vec![0xFF; 2048];
            let (ptr, cap) = (buf.as_ptr(), buf.capacity());
            PacketBuilder::raw_v4_into(&mut buf, args.0, args.1, args.2, args.3, 50, &payload);
            assert_eq!(buf, fresh, "payload {payload_len}");
            assert_eq!((buf.as_ptr(), buf.capacity()), (ptr, cap));
            assert!(buf.len() >= MIN_FRAME_LEN);
        }
    }

    #[test]
    fn short_frames_are_padded_to_minimum() {
        let f = PacketBuilder::udp_v4(
            MacAddr::local(1),
            MacAddr::local(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1,
            2,
            10,
        );
        assert_eq!(f.len(), MIN_FRAME_LEN);
    }
}
