//! The application interface the router drives: the three callbacks
//! of §5.1 (pre-shader, shader, post-shader) plus a CPU-only path for
//! the baseline mode. Column-staged applications do not implement it
//! by hand — they describe a `ColumnProgram` and
//! [`ColumnApp`](crate::program::ColumnApp) is their `App`.

use ps_gpu::{GpuEngine, Staging};
use ps_hw::ioh::Ioh;
use ps_io::Packet;
use ps_sim::time::Time;

/// Outcome of pre-shading a chunk (its verdicts ride on the packets).
#[derive(Debug, Default, Clone, Copy)]
pub struct PreShadeResult {
    /// CPU cycles the worker spent (parsing, classification, header
    /// rewrites, building the GPU input arrays).
    pub cycles: u64,
}

/// Where an application's output traffic goes, relative to the NUMA
/// node a packet arrived on — the property that decides whether a
/// run may split into per-node replicas (DESIGN.md §9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardAffinity {
    /// Every packet leaves through a port on its RX node: NUMA
    /// domains never interact, so each shard runs as an independent
    /// replica.
    NodeLocal,
    /// Packets may leave through a remote node's port: the domains
    /// interact, so the run is never replicated and stays sequential.
    CrossNode,
}

/// A PacketShader application.
///
/// The router calls, in order: [`App::pre_shade`] on a worker; then
/// either [`App::process_cpu`] (CPU-only mode) or [`App::shade`] on
/// the master + [`App::post_shade_cycles`] back on the worker
/// (CPU+GPU mode). All packet mutation is real; the returned
/// cycle/time values drive the virtual clock.
/// All three packet callbacks mark, never remove; the router retires
/// every marked packet through one path into its drop ledger.
pub trait App {
    /// Application name for reports.
    fn name(&self) -> &str;

    /// Select the GPU staging mode (`RouterConfig.staging`). Called by
    /// `Router::new` *before* any [`App::setup_gpu`] call so device
    /// buffers can be sized for the mode. The column driver forwards
    /// this to its `ColumnStage`; apps whose kernels consume full
    /// payloads anyway (IPsec) keep the no-op default.
    fn set_staging(&mut self, _mode: Staging) {}

    /// Upload persistent state (table images, keys) to node `node`'s
    /// GPU. Called once per device before the simulation starts.
    fn setup_gpu(&mut self, node: usize, eng: &mut GpuEngine);

    /// Cumulative host-PCIe staging traffic over the whole run:
    /// `(h2d_bytes, d2h_bytes, staged_packets)` summed across this
    /// app's kernel launches, or [`None`] for apps without a column
    /// stage. Surfaced through `RouterReport` so benches can report
    /// bytes-per-packet without the trace layer.
    fn staging_totals(&self) -> Option<(u64, u64, u64)> {
        None
    }

    /// Pre-shading (worker): classify, rewrite headers, stage GPU
    /// inputs. Marks each packet it takes off the fast path in
    /// [`Packet::verdict`]; the router then retires those in one pass.
    fn pre_shade(&mut self, pkts: &mut Vec<Packet>) -> PreShadeResult;

    /// The whole application on the CPU (CPU-only mode, and the
    /// master's fallback when a GPU batch is lost), *after*
    /// [`App::pre_shade`] has run and the router has retired the
    /// packets it marked. Returns cycles spent. Must set `out_port` on
    /// every packet and mark a drop by clearing it, as [`App::shade`]
    /// does.
    fn process_cpu(&mut self, pkts: &mut Vec<Packet>) -> u64;

    /// Shading (master): move inputs to the GPU, launch kernels, move
    /// results back, apply them to `pkts` (set `out_port`, rewrite
    /// payloads). `ready` is when the input data is available; the
    /// returned time is when the results are back in host memory.
    fn shade(
        &mut self,
        node: usize,
        eng: &mut GpuEngine,
        ioh: &mut Ioh,
        ready: Time,
        pkts: &mut [Packet],
    ) -> Time;

    /// Post-shading cycles on the worker for an `n`-packet chunk
    /// (splitting results, queueing to TX ports).
    fn post_shade_cycles(&self, n: usize) -> u64 {
        // Default: ~30 cycles per packet of result application.
        30 * n as u64
    }

    /// A GPU fault aborted node `node`'s in-flight batch (ps-fault's
    /// `GpuAbort`, modeling a device context reset). The batch itself
    /// re-runs on the CPU fallback path, but any *device-synchronized
    /// per-node state* — a stateful NF's flow table — is gone. Apps
    /// that keep such state flush it here so post-fault behavior
    /// reflects real recovery (flows re-establish); stateless apps
    /// keep the no-op default.
    fn on_gpu_fault(&mut self, _node: usize) {}

    /// A fresh, equivalent copy of this (pre-run) app for one replica
    /// of a parallel run, plus its traffic affinity. Return [`None`]
    /// (the default) to opt out of sharded execution entirely —
    /// correct for apps with global mutable state whose evolution
    /// depends on seeing *all* traffic.
    fn shard_replica(&self) -> Option<(Self, ShardAffinity)>
    where
        Self: Sized,
    {
        None
    }
}
