//! # ps-net — packet wire formats
//!
//! Typed, bounds-checked views over raw frame bytes in the smoltcp
//! idiom: a `Frame`/`Packet` wrapper owns (or borrows) a byte slice
//! and exposes getters/setters for each header field, with explicit
//! `check_len`-style validation and no hidden allocation.
//!
//! Everything the four PacketShader applications touch is here:
//! Ethernet II, IPv4, IPv6, UDP, TCP, and ESP (IPsec tunnel mode), the
//! Internet checksum, the OpenFlow 10-field flow key, and the
//! slow-path classification rules of §6.2.1 (TTL expired, bad
//! checksum, malformed, destined-to-local).

pub mod builder;
pub mod checksum;
pub mod esp;
pub mod ethernet;
pub mod flow;
pub mod ipv4;
pub mod ipv6;
pub mod tcp;
pub mod udp;
pub mod verdict;

pub use builder::PacketBuilder;
pub use ethernet::{EtherType, EthernetFrame, MacAddr};
pub use flow::FlowKey;
pub use ipv4::Ipv4Packet;
pub use ipv6::Ipv6Packet;
pub use tcp::TcpSegment;
pub use udp::UdpDatagram;
pub use verdict::{classify, Verdict};

/// Errors from parsing a wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The buffer is shorter than the fixed header.
    Truncated,
    /// A length field disagrees with the buffer (e.g. IPv4 total
    /// length larger than the frame payload).
    BadLength,
    /// A version/field value is not what the parser expects.
    Malformed,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Truncated => write!(f, "buffer truncated"),
            Error::BadLength => write!(f, "length field inconsistent"),
            Error::Malformed => write!(f, "malformed header"),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias for wire-format parsing.
pub type Result<T> = std::result::Result<T, Error>;

/// Minimum Ethernet frame size (without FCS) the simulation uses.
pub const MIN_FRAME_LEN: usize = 60;
/// Wire overhead per frame in the paper's throughput metric (§1,
/// footnote 1): 4 B FCS + 8 B preamble + 12 B inter-frame gap.
pub const WIRE_OVERHEAD: usize = 24;

/// Bytes a frame of `len` occupies on the wire, for rate computations.
/// `len` is an FCS-less frame length (the workspace convention, see
/// [`MIN_FRAME_LEN`]), so adding [`WIRE_OVERHEAD`] — which includes
/// the FCS — yields the true on-wire footprint: a minimum 60 B frame
/// occupies 84 B of wire time.
#[inline]
pub fn wire_len(len: usize) -> usize {
    len + WIRE_OVERHEAD
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_len_adds_paper_overhead() {
        assert_eq!(wire_len(64), 88);
        assert_eq!(wire_len(1514), 1538);
        // The FCS-exclusion convention: a minimum FCS-less frame
        // (60 B) serializes as the standard 64 B minimum on-wire
        // frame plus 8 B preamble + 12 B inter-frame gap.
        assert_eq!(wire_len(MIN_FRAME_LEN), 64 + 8 + 12);
    }

    #[test]
    fn error_display() {
        assert_eq!(Error::Truncated.to_string(), "buffer truncated");
        assert_eq!(Error::BadLength.to_string(), "length field inconsistent");
        assert_eq!(Error::Malformed.to_string(), "malformed header");
    }
}
