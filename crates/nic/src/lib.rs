//! # ps-nic — the 10 GbE NIC model (Intel 82599 / X520)
//!
//! The structural pieces of the paper's NICs that the packet I/O
//! engine builds on:
//!
//! * [`rss`] — Receive-Side Scaling: the real Toeplitz hash (verified
//!   against the Microsoft reference vectors). The router maps a hash
//!   to a same-node worker queue itself (§4.4–4.5);
//! * [`ring`] — RX/TX descriptor rings with drop-on-full semantics and
//!   per-queue statistics (the paper's per-queue counters that avoid
//!   cache bouncing, §4.4);
//! * [`port`] — the 10 GbE wire: serialization at line rate including
//!   the 24 B Ethernet overhead, and the interrupt/polling state
//!   machine of §5.2 (interrupt disabled while the engine polls,
//!   re-armed when a queue runs dry).

pub mod port;
pub mod ring;
pub mod rss;

pub use port::{Port, PortId, QueueId};
pub use ring::Ring;
pub use rss::{toeplitz_hash, MSFT_KEY};
