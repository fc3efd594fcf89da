//! The 10 GbE port: wire-rate serialization and the per-queue
//! interrupt state machine of §5.2.

use ps_sim::resource::BandwidthServer;
use ps_sim::time::Time;

/// Port index within the whole router (0..8 on the paper's server).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub u16);

/// Queue index within a port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueueId(pub u16);

/// One physical port: two unidirectional wires at line rate.
///
/// Frames are charged their wire length (frame + 24 B of preamble,
/// FCS and inter-frame gap), so a 10 Gbps wire carries at most
/// 14.2 M 64 B-frames per second — the paper's line-rate metric.
#[derive(Debug)]
pub struct Port {
    /// This port's id.
    pub id: PortId,
    rx_wire: BandwidthServer,
    tx_wire: BandwidthServer,
    /// Carrier-down horizon (fault injection): frames whose last bit
    /// lands before this instant are lost at the MAC.
    link_down_until: Time,
}

impl Port {
    /// A port at `line_rate_bits` (10 Gbps for the X520).
    ///
    /// Both wires are trace-labelled (`"wire.rx"` / `"wire.tx"`, lane
    /// = port index): each serialized frame emits one `fabric` span
    /// when that category is enabled.
    pub fn new(id: PortId, line_rate_bits: u64) -> Port {
        let mut rx_wire = BandwidthServer::new(line_rate_bits, 0);
        let mut tx_wire = BandwidthServer::new(line_rate_bits, 0);
        rx_wire.set_trace("wire.rx", id.0 as u32);
        tx_wire.set_trace("wire.tx", id.0 as u32);
        Port {
            id,
            rx_wire,
            tx_wire,
            link_down_until: 0,
        }
    }

    /// Take the link down until `until` (an injected flap). Extends
    /// but never shortens an existing down window.
    pub fn set_link_down(&mut self, until: Time) {
        self.link_down_until = self.link_down_until.max(until);
    }

    /// Whether the link carries frames at `now`.
    pub fn link_up(&self, now: Time) -> bool {
        now >= self.link_down_until
    }

    /// Serialize an arriving frame of `len` bytes onto the RX wire;
    /// returns when its last bit lands in the NIC.
    pub fn rx_arrival(&mut self, now: Time, len: usize) -> Time {
        self.rx_wire.submit(now, ps_net::wire_len(len) as u64)
    }

    /// Serialize an outgoing frame; returns when the wire is done.
    /// The caller decides whether TX completion matters (it does for
    /// the round-trip latency measurements).
    pub fn tx_frame(&mut self, now: Time, len: usize) -> Time {
        self.tx_wire.submit(now, ps_net::wire_len(len) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_sim::{GIGA, SECONDS};

    #[test]
    fn line_rate_64b_is_14_2_mpps() {
        let mut p = Port::new(PortId(0), 10 * GIGA);
        let mut sent = 0u64;
        loop {
            let done = p.tx_frame(0, 64);
            if done > SECONDS {
                break;
            }
            sent += 1;
        }
        // 10e9 / (88 * 8) = 14.20 M frames/s.
        let mpps = sent as f64 / 1e6;
        assert!((14.0..14.3).contains(&mpps), "{mpps} Mpps");
    }

    #[test]
    fn full_size_frames_reach_line_rate() {
        let mut p = Port::new(PortId(0), 10 * GIGA);
        let mut sent_bytes = 0u64;
        loop {
            let done = p.tx_frame(0, 1514);
            if done > SECONDS {
                break;
            }
            sent_bytes += 1538; // wire bytes
        }
        let gbps = sent_bytes as f64 * 8.0 / 1e9;
        assert!((9.9..10.01).contains(&gbps), "{gbps} Gbps");
    }

    #[test]
    fn rx_and_tx_are_independent_wires() {
        let mut p = Port::new(PortId(0), 10 * GIGA);
        let rx_done = p.rx_arrival(0, 1514);
        let tx_done = p.tx_frame(0, 1514);
        // Full duplex: both complete at the same time, not serialized.
        assert_eq!(rx_done, tx_done);
    }

    #[test]
    fn link_flap_window_extends_not_shrinks() {
        let mut p = Port::new(PortId(0), 10 * GIGA);
        assert!(p.link_up(0));
        p.set_link_down(5_000);
        assert!(!p.link_up(4_999));
        assert!(p.link_up(5_000));
        // A shorter flap cannot re-open the link early.
        p.set_link_down(2_000);
        assert!(!p.link_up(4_999));
    }
}
