//! The packet record that flows through the simulated router.

use ps_net::verdict::Verdict;
use ps_nic::port::{PortId, QueueId};
use ps_sim::time::Time;

/// One packet in flight. The frame bytes are real (built by the
/// traffic generator, parsed and rewritten by the applications); the
/// metadata mirrors the engine's 8-byte compact descriptor plus
/// simulation bookkeeping.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Frame bytes (no FCS), 60..=1514.
    pub data: Vec<u8>,
    /// Port the packet arrived on.
    pub in_port: PortId,
    /// RX queue RSS selected.
    pub queue: QueueId,
    /// When the last bit arrived at the NIC.
    pub arrival: Time,
    /// Generator timestamp for RTT measurement (echoed back).
    pub gen_ts: Time,
    /// Monotonic id for order-preservation checks.
    pub id: u64,
    /// Output port decided by the application ([`None`] until routed).
    pub out_port: Option<PortId>,
    /// Set when fault injection damaged the frame on the wire; the
    /// router attributes this packet's eventual drop or delivery back
    /// to the fault ledger. Invisible to the applications.
    pub corrupted: bool,
    /// Latency-critical flow (matched by the priority classifier at
    /// admission). Priority packets ride a dedicated RX lane and
    /// bypass bulk batching; `false` whenever no classifier is
    /// configured.
    pub priority: bool,
    /// The pre-shader's mark: the router retires a packet set to
    /// anything but [`Verdict::FastPath`] as a drop or a diversion.
    pub verdict: Verdict,
}

impl Packet {
    /// A packet as the generator emits it.
    pub fn new(id: u64, data: Vec<u8>, in_port: PortId, gen_ts: Time) -> Packet {
        Packet {
            data,
            in_port,
            queue: QueueId(0),
            arrival: 0,
            gen_ts,
            id,
            out_port: None,
            corrupted: false,
            priority: false,
            verdict: Verdict::FastPath,
        }
    }

    /// Frame length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the frame is empty (never for well-formed packets).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_defaults() {
        let p = Packet::new(7, vec![0; 64], PortId(3), 1000);
        assert_eq!(p.len(), 64);
        assert_eq!(p.in_port, PortId(3));
        assert_eq!(p.out_port, None);
        assert_eq!(p.id, 7);
        assert!(!p.is_empty());
        assert_eq!(p.verdict, Verdict::FastPath);
    }

    /// The record stays one cache line: the verdict rides in padding.
    #[test]
    fn packet_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Packet>(), 64);
    }
}
