//! # ps-sim — discrete-event simulation substrate
//!
//! The execution-driven core that every hardware model in the
//! PacketShader reproduction runs on. It provides:
//!
//! * a deterministic event queue over a nanosecond-resolution virtual
//!   clock ([`Simulation`], [`Scheduler`]),
//! * folded wake-ups for polling threads whose wake events re-arm
//!   themselves ([`FoldedWakes`]),
//! * completions settled in runs: items whose order is known when they
//!   start (DMA, wire, generator arrivals) held behind one scheduler
//!   event ([`Completions`]),
//! * FIFO bandwidth servers used to model PCIe directions, IOH
//!   directions and Ethernet wires ([`resource::BandwidthServer`]),
//! * statistics primitives: counters, rate meters and log-bucketed
//!   histograms ([`stats`]).
//!
//! The simulation core draws no random numbers: every random stream
//! (traffic, flow keys, fault plans) comes from `ps-rng` in the layer
//! that needs it, so identical seeds always replay identical
//! virtual-time traces.
//!
//! The design keeps all concurrency in *virtual* time: PacketShader's
//! worker and master *threads* are simulated entities, which keeps
//! every experiment exactly reproducible. A [`Simulation`] runs on one
//! OS thread; running independent replicas side by side on several
//! is the router's business (`ps-core`, `DESIGN.md` §9).

#![deny(missing_docs)]

pub mod completions;
pub mod event;
pub mod resource;
pub mod stats;
pub mod time;
pub mod trace_summary;
pub mod wake;

pub use completions::Completions;
pub use event::{Scheduler, Simulation};
pub use time::{Time, GIGA, MICROS, MILLIS, SECONDS};
pub use wake::FoldedWakes;

/// A simulation model: one big deterministic state machine.
///
/// All component interactions are expressed as events of a single
/// model-defined enum type. This monolithic style avoids shared
/// mutability webs (`Rc<RefCell<..>>`) and keeps the hot dispatch loop
/// free of dynamic dispatch.
pub trait Model {
    /// The closed set of events this model reacts to.
    type Event;

    /// Handle one event at the scheduler's current virtual time.
    fn handle(&mut self, sched: &mut Scheduler<Self::Event>, ev: Self::Event);
}
