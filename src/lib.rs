//! # packetshader — GPU-accelerated software router (SIGCOMM 2010) in Rust
//!
//! A faithful, fully functional reproduction of *PacketShader: a
//! GPU-Accelerated Software Router* (Han, Jang, Park, Moon) built as
//! an execution-driven simulation: the data plane — packet parsing,
//! DIR-24-8 and binary-search-on-prefix-length lookups, OpenFlow
//! matching, AES-128-CTR + HMAC-SHA1 ESP — is real Rust operating on
//! real packet bytes; the hardware the paper ran on (GTX480 GPUs,
//! 82599 NICs, the dual-IOH Nehalem fabric) is modelled by calibrated
//! discrete-event components, so throughput and latency come from a
//! virtual clock.
//!
//! This facade re-exports the workspace crates under one roof:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `ps-sim` | event queue, virtual time, statistics |
//! | [`net`] | `ps-net` | Ethernet/IPv4/IPv6/UDP/TCP/ESP wire formats |
//! | [`hw`] | `ps-hw` | testbed constants, NUMA placement, PCIe/IOH timing |
//! | [`gpu`] | `ps-gpu` | SIMT GPU simulator, kernels, streams |
//! | [`nic`] | `ps-nic` | rings, RSS (Toeplitz), ports |
//! | [`lookup`] | `ps-lookup` | DIR-24-8, Waldvogel LPM, synthetic tables |
//! | [`crypto`] | `ps-crypto` | AES-128-CTR, SHA-1, HMAC, ESP transforms |
//! | [`openflow`] | `ps-openflow` | exact + wildcard flow tables |
//! | [`io`] | `ps-io` | packet record, batched I/O cost models |
//! | [`core`] | `ps-core` | the PacketShader framework + six applications |
//! | [`flow`] | `ps-flow` | deterministic cuckoo flow cache for the stateful NFs |
//! | [`pktgen`] | `ps-pktgen` | traffic generator / latency sink |
//! | [`rng`] | `ps-rng` | deterministic RNG (SplitMix64 + xoshiro256**), seed parsing |
//! | [`check`] | `ps-check` | seeded property-testing harness |
//! | [`trace`] | `ps-trace` | virtual-time pipeline tracing (see OBSERVABILITY.md) |
//! | [`fault`] | `ps-fault` | seeded fault injection + graceful degradation |
//!
//! ## Quickstart
//!
//! ```
//! use packetshader::core::apps::Ipv4App;
//! use packetshader::core::{Router, RouterConfig};
//! use packetshader::lookup::route::Route4;
//! use packetshader::pktgen::TrafficSpec;
//! use packetshader::sim::MILLIS;
//!
//! // A routing table whose next hops are output ports.
//! let routes = vec![
//!     Route4::new(0x0A000000, 8, 1),  // 10/8 -> port 1
//!     Route4::new(0x00000000, 0, 0),  // default -> port 0
//! ];
//! let app = Ipv4App::new(&routes);
//!
//! // Run the paper's CPU-only configuration for 1 ms of virtual time
//! // at 4 Gbps of 64 B packets.
//! let report = Router::run(
//!     RouterConfig::paper_cpu(),
//!     app,
//!     TrafficSpec::ipv4_64b(4.0, 42),
//!     MILLIS,
//! );
//! assert!(report.delivery_ratio() > 0.99);
//! ```

pub use ps_check as check;
pub use ps_core as core;
pub use ps_crypto as crypto;
pub use ps_fault as fault;
pub use ps_flow as flow;
pub use ps_gpu as gpu;
pub use ps_hw as hw;
pub use ps_io as io;
pub use ps_lookup as lookup;
pub use ps_net as net;
pub use ps_nic as nic;
pub use ps_openflow as openflow;
pub use ps_pktgen as pktgen;
pub use ps_rng as rng;
pub use ps_sim as sim;
pub use ps_trace as trace;
