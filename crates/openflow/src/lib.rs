//! # ps-openflow — OpenFlow 0.8.9 switch substrate (§6.2.3)
//!
//! The two flow tables of the OpenFlow 0.8.9r2 reference switch:
//!
//! * [`exact`] — the exact-match table: all ten [`ps_net::FlowKey`] fields
//!   hashed (FNV-1a, the hash the paper offloads to the GPU) into a
//!   bucketed hash table;
//! * [`wildcard`] — the wildcard table: per-field enable bits plus
//!   CIDR bitmasks for the IP fields, priority-ordered **linear
//!   search**, "as the reference implementation does" — this is the
//!   cost that grows with table size in Figure 11(c) and that the GPU
//!   absorbs;
//! * [`switch`] — the combined lookup (exact-match entries always
//!   take precedence over wildcard entries) with per-flow counters
//!   and a controller-miss path.
//!
//! The wildcard table serializes to a flat image (64 B entries) so the
//! same matching code drives the CPU path and the simulated GPU
//! kernel through `ps-lookup`'s `TableMem` accessor.

pub mod action;
pub mod exact;
pub mod switch;
pub mod wildcard;

pub use action::Action;
pub use exact::{flow_hash, flow_hash_bytes, ExactTable};
pub use switch::OpenFlowSwitch;
pub use wildcard::{WildcardEntry, WildcardTable, ENTRY_SIZE};
