//! # ps-core — the PacketShader framework (paper §5) and applications (§6.2)
//!
//! The paper's contribution assembled over the substrates: a
//! worker/master software router with GPU offload, reproduced as a
//! deterministic discrete-event simulation whose *data plane is
//! functionally real* — every packet is parsed, looked up, rewritten
//! and (for IPsec) encrypted for real; only hardware timing comes
//! from the calibrated models in `ps-hw`/`ps-gpu`.
//!
//! Architecture (Figure 7):
//!
//! * per NUMA node: three worker threads + one master thread in
//!   CPU+GPU mode, four workers in CPU-only mode (§6.1);
//! * workers fetch **chunks** (capped batches, §5.3) from their
//!   per-queue virtual interfaces, run the application's
//!   **pre-shading**, and hand input to the node's master;
//! * the master **gathers** queued chunks (Figure 10(b)), runs the
//!   **shading** step on the node's GPU (copy → kernel → copy,
//!   optionally with concurrent copy & execution, Figure 10(c)), and
//!   **scatters** results back to per-worker output queues;
//! * workers **post-shade** and transmit; RSS keeps flows on one
//!   worker so FIFO order holds per flow (§5.3).
//!
//! [`apps`] implements the evaluated applications (IPv4, IPv6,
//! OpenFlow, IPsec, plus the stateful NAT and load balancer), each in
//! CPU-only and CPU+GPU modes over the same functional code paths.
//! The column-staged ones are packet programs ([`ColumnProgram`])
//! run by the one column-offload driver, [`ColumnApp`].

pub mod app;
pub mod apps;
pub mod chunk;
pub mod columns;
pub mod config;
pub mod kernels;
pub mod program;
pub mod router;

pub use app::{App, PreShadeResult, ShardAffinity};
pub use chunk::Chunk;
pub use columns::{ColumnSet, ColumnSpec, ColumnStage};
pub use config::{LatencyConfig, Mode, RouterConfig};
pub use program::{ColumnApp, ColumnProgram};
pub use ps_gpu::Staging;
pub use router::{DropLedger, Router, RouterReport};
