//! # ps-trace — virtual-time pipeline tracing
//!
//! A zero-dependency tracing and metrics substrate for the simulated
//! data plane. Components emit *span events* (a named interval on the
//! virtual clock, with a category and key/value arguments) and
//! *counter events* (a gauge sample); a [`Collector`] buffers them in
//! a bounded ring and exports the whole timeline as Chrome
//! `trace_event` JSON, loadable in `chrome://tracing` or Perfetto
//! against the **virtual** timeline.
//!
//! Design constraints, in order:
//!
//! 1. **Zero perturbation.** Tracing never touches the virtual clock,
//!    the RNG stream or any model decision — it only records times the
//!    simulation already computed. An identical seed produces a
//!    byte-identical trace dump (`tests/determinism.rs` pins this).
//! 2. **Negligible cost when off.** Emission helpers check a cached
//!    per-thread category mask (one `Cell` load) before doing any
//!    work; with no collector installed, or a category disabled,
//!    nothing allocates.
//! 3. **No dependencies.** The crate sits below `ps-sim`, so even the
//!    simulation substrate can emit events (the FIFO bandwidth servers
//!    modelling PCIe/IOH/NIC wires live there). Time is a plain `u64`
//!    nanosecond count, layout-identical to `ps_sim::time::Time`.
//!
//! The simulation is single-threaded, so the collector is installed
//! per thread ([`install`]/[`take`]); parallel test threads each get
//! an isolated collector.
//!
//! See `OBSERVABILITY.md` at the repository root for the event model,
//! the category/lane conventions used by the router, and a worked
//! example reading a dump.

#![deny(missing_docs)]

pub mod chrome;
pub mod collector;
pub mod event;
mod global;

pub use collector::{Collector, TraceConfig};
pub use event::{Args, Category, CategoryMask, Event, Phase};
pub use global::{complete, counter, enabled, install, instant, is_installed, take};

/// Virtual time in nanoseconds since simulation start. Identical to
/// `ps_sim::time::Time` (this crate sits below `ps-sim` and cannot
/// name it).
pub type Time = u64;
