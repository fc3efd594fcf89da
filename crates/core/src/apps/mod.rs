//! The applications evaluated in §6 — minimal forwarding (the packet
//! I/O experiments of §4.6), IPv4/IPv6 forwarding, OpenFlow switching
//! and IPsec tunneling — plus the stateful NFV tier (DESIGN.md §10):
//! a NAT/connection tracker and an L4 load balancer over the cuckoo
//! flow cache.
//!
//! The five column-staged apps (`ipv4`, `ipv6`, `openflow`, `nat`,
//! `lb`) are *packet programs*: each file declares a
//! [`ColumnProgram`](crate::program::ColumnProgram) — columns, parse,
//! tables, kernel, host equivalent, result application — and its
//! `…App` name is [`ColumnApp`](crate::program::ColumnApp) over that
//! program, the one driver that runs the CPU-only path and the GPU
//! shading path over the same functional code. `ipsec` (kernels that
//! consume whole payloads) and `minimal` (no kernel) implement
//! [`App`](crate::App) directly.

mod ipsec;
mod ipv4;
mod ipv6;
mod lb;
mod minimal;
mod nat;
mod openflow;
mod stateful;

pub use ipsec::IpsecApp;
pub use ipv4::{Ipv4App, Ipv4Program};
pub use ipv6::{Ipv6App, Ipv6Program};
pub use lb::{Backend, Lb, LbApp};
pub use minimal::{ForwardPattern, MinimalApp};
pub use nat::{ConnState, Nat, NatApp, NatBinding};
pub use openflow::{OpenFlowApp, OpenFlowProgram};
pub use stateful::{FlowNf, FlowOp, ParsedFlow};

use ps_io::Packet;
use ps_lookup::NO_ROUTE;
use ps_nic::port::PortId;

/// Effective DRAM latency (ns) for a random access into a multi-MB
/// table image: row miss + TLB walk on Nehalem. Used by the CPU-only
/// lookup paths; see EXPERIMENTS.md calibration notes.
pub const TABLE_MISS_NS: u64 = 105;

/// Cycles per nanosecond at 2.66 GHz, for converting latency into the
/// cycle budgets the worker model charges.
pub const CYCLES_PER_NS: f64 = 2.66;

/// In-router software-pipelining overlap for dependent table misses:
/// the batch loop interleaves packets, but I/O work competes for MSHRs
/// (cf. the tight lookup-only loop of Figure 2, which reaches ~3x).
pub(crate) const ROUTER_LOOKUP_OVERLAP: f64 = 1.3;

/// Decode one row of a next-hop result column (both LPM programs).
pub(crate) fn decode_hop(row: &[u8]) -> u16 {
    u16::from_le_bytes([row[0], row[1]])
}

/// Route `p` to its looked-up next hop; [`NO_ROUTE`] drops it.
pub(crate) fn forward_to_hop(p: &mut Packet, hop: u16) {
    p.out_port = (hop != NO_ROUTE).then_some(PortId(hop));
}

/// CPU-only cycles for a batch of LPM lookups that made `accesses`
/// table reads in total: each access is a dependent table miss with
/// modest batch-loop overlap (see EXPERIMENTS.md calibration notes),
/// plus `per_access` ALU cycles and ~30 cycles per surviving packet.
pub(crate) fn lpm_cycles(accesses: u64, per_access: u64, survivors: usize) -> u64 {
    let miss_ns = accesses as f64 * TABLE_MISS_NS as f64 / ROUTER_LOOKUP_OVERLAP;
    (miss_ns * CYCLES_PER_NS) as u64 + per_access * accesses + 30 * survivors as u64
}

#[cfg(test)]
/// Pre-shade `pkts` and require that the pre-shader marked none of
/// them off the fast path, so each still feeds the next callback.
pub(crate) fn pre_shade_all_fast(app: &mut impl crate::App, pkts: &mut Vec<Packet>) {
    app.pre_shade(pkts);
    assert!(
        pkts.iter().all(|p| p.verdict == ps_net::Verdict::FastPath),
        "pre_shade marked a test packet off the fast path"
    );
}
