//! Chunks: the batch unit of the framework (§5.3).

use ps_io::Packet;

/// A chunk of packets fetched in one batched RX call. "The chunk size
/// is not fixed but only capped; we do not intentionally wait for the
/// fixed number of packets" — chunks adapt to load, trading
/// parallelism against latency.
#[derive(Debug)]
pub struct Chunk {
    /// The packets, in RX (FIFO) order.
    pub packets: Vec<Packet>,
    /// Worker that fetched the chunk.
    pub worker: usize,
}

impl Chunk {
    /// A chunk fetched by `worker`.
    pub fn new(worker: usize, packets: Vec<Packet>) -> Chunk {
        Chunk { packets, worker }
    }

    /// Packets in the chunk.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True when empty (possible after pre-shading drops everything).
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Total frame bytes.
    pub fn bytes(&self) -> u64 {
        self.packets.iter().map(|p| p.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_nic::port::PortId;

    #[test]
    fn accessors() {
        let pkts = vec![
            Packet::new(0, vec![0; 64], PortId(0), 0),
            Packet::new(1, vec![0; 128], PortId(1), 0),
        ];
        let c = Chunk::new(2, pkts);
        assert_eq!(c.len(), 2);
        assert_eq!(c.bytes(), 192);
        assert_eq!(c.worker, 2);
        assert!(!c.is_empty());
    }
}
