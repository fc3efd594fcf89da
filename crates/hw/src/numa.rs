//! NUMA placement policy for packet I/O data structures (§4.5).

/// NUMA placement policy for packet I/O data structures (§4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Descriptor arrays, huge buffers and statistics live on the same
    /// node as the owning NIC, and RSS only targets same-node cores —
    /// the paper's tuned configuration (~40 Gbps forwarding).
    NumaAware,
    /// Buffers allocated without regard for the NIC's node and RSS
    /// spraying packets across both sockets — the baseline that limits
    /// forwarding below 25 Gbps (§4.5).
    NumaBlind,
}

impl Placement {
    /// The probability that a given packet's buffers end up remote to
    /// the core that processes it under this policy.
    pub fn remote_fraction(&self) -> f64 {
        match self {
            // With careful placement nothing crosses the node.
            Placement::NumaAware => 0.0,
            // Blind RSS sends half the packets to cores on the other
            // node, and blind allocation puts half the buffers remote
            // even for locally-processed packets: 1 - 1/2·1/2 = 3/4 of
            // packets touch at least one remote structure.
            Placement::NumaBlind => 0.75,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_fractions() {
        assert_eq!(Placement::NumaAware.remote_fraction(), 0.0);
        assert!(Placement::NumaBlind.remote_fraction() > 0.5);
    }
}
