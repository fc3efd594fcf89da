//! Minimal forwarding: RX + TX without table lookup — the workload of
//! the packet I/O engine evaluation (§4.6, Figures 5 and 6).

use ps_gpu::GpuEngine;
use ps_hw::ioh::Ioh;
use ps_io::Packet;
use ps_nic::port::PortId;
use ps_sim::time::Time;

use crate::app::{App, PreShadeResult, ShardAffinity};

/// Where minimal forwarding sends packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardPattern {
    /// Back out the port the packet arrived on.
    Echo,
    /// To the same-index port pair within the node (ports 0↔1, 2↔3…).
    SameNode,
    /// To the corresponding port in the *other* node — Figure 6's
    /// "node-crossing" worst case.
    NodeCrossing,
}

/// The no-op application.
pub struct MinimalApp {
    pattern: ForwardPattern,
    total_ports: u16,
}

impl MinimalApp {
    /// Minimal forwarding over `total_ports` ports.
    ///
    /// # Panics
    /// Panics unless `total_ports` is even and at least 2: the
    /// same-node pattern pairs ports and the node-crossing pattern
    /// maps each port to the other half.
    pub fn new(pattern: ForwardPattern, total_ports: u16) -> MinimalApp {
        assert!(
            total_ports >= 2 && total_ports.is_multiple_of(2),
            "minimal forwarding needs an even port count >= 2, got {total_ports}"
        );
        MinimalApp {
            pattern,
            total_ports,
        }
    }

    fn out_port(&self, in_port: PortId) -> PortId {
        match self.pattern {
            ForwardPattern::Echo => in_port,
            ForwardPattern::SameNode => PortId(in_port.0 ^ 1),
            ForwardPattern::NodeCrossing => {
                PortId((in_port.0 + self.total_ports / 2) % self.total_ports)
            }
        }
    }
}

impl App for MinimalApp {
    fn name(&self) -> &str {
        "minimal-forwarding"
    }

    fn setup_gpu(&mut self, _node: usize, _eng: &mut GpuEngine) {}

    fn pre_shade(&mut self, pkts: &mut Vec<Packet>) -> PreShadeResult {
        // No classification: the §4.6 experiment "repeatedly receives,
        // transmits, and forwards packets without IP table lookup".
        for p in pkts.iter_mut() {
            p.out_port = Some(self.out_port(p.in_port));
        }
        PreShadeResult::default()
    }

    fn process_cpu(&mut self, _pkts: &mut Vec<Packet>) -> u64 {
        0
    }

    fn shade(
        &mut self,
        _node: usize,
        _eng: &mut GpuEngine,
        _ioh: &mut Ioh,
        ready: Time,
        _pkts: &mut [Packet],
    ) -> Time {
        ready // nothing to offload
    }

    fn post_shade_cycles(&self, _n: usize) -> u64 {
        0
    }

    fn shard_replica(&self) -> Option<(Self, ShardAffinity)> {
        let affinity = match self.pattern {
            ForwardPattern::Echo | ForwardPattern::SameNode => ShardAffinity::NodeLocal,
            ForwardPattern::NodeCrossing => ShardAffinity::CrossNode,
        };
        Some((
            MinimalApp {
                pattern: self.pattern,
                total_ports: self.total_ports,
            },
            affinity,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns() {
        let echo = MinimalApp::new(ForwardPattern::Echo, 8);
        assert_eq!(echo.out_port(PortId(3)), PortId(3));
        let same = MinimalApp::new(ForwardPattern::SameNode, 8);
        assert_eq!(same.out_port(PortId(2)), PortId(3));
        assert_eq!(same.out_port(PortId(3)), PortId(2));
        let cross = MinimalApp::new(ForwardPattern::NodeCrossing, 8);
        assert_eq!(cross.out_port(PortId(0)), PortId(4));
        assert_eq!(cross.out_port(PortId(5)), PortId(1));
    }

    #[test]
    #[should_panic(expected = "even port count >= 2, got 0")]
    fn zero_ports_rejected() {
        MinimalApp::new(ForwardPattern::NodeCrossing, 0);
    }

    #[test]
    #[should_panic(expected = "even port count >= 2, got 1")]
    fn one_port_rejected() {
        MinimalApp::new(ForwardPattern::SameNode, 1);
    }

    #[test]
    fn pre_shade_sets_out_ports() {
        let mut app = MinimalApp::new(ForwardPattern::SameNode, 8);
        let mut pkts = vec![Packet::new(0, vec![0; 64], PortId(6), 0)];
        let r = app.pre_shade(&mut pkts);
        assert_eq!(pkts[0].out_port, Some(PortId(7)));
        assert_eq!(r.dropped, 0);
        assert_eq!(r.cycles, 0);
    }
}
