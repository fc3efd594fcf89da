//! # ps-hw — host hardware models
//!
//! Models of the paper's testbed (Table 2): two Nehalem NUMA nodes,
//! each with a quad-core Xeon X5550, local DDR3 memory, and an Intel
//! 5520 IOH hosting two dual-port 10 GbE NICs and one GTX480.
//!
//! Two things live here:
//!
//! * [`spec`] — every calibration constant in one place, each tied to
//!   the paper measurement it reproduces;
//! * [`pcie`]/[`ioh`] — the I/O fabric: per-direction PCIe transfer
//!   timing calibrated against Table 1, and the dual-IOH contention
//!   that produces the paper's ~40 Gbps forwarding ceiling (§3.2).

pub mod ioh;
pub mod numa;
pub mod pcie;
pub mod spec;

pub use ioh::{Direction, Ioh};
pub use pcie::PcieModel;
pub use spec::Testbed;
