//! Execution policy: when (and how) a run splits into per-NUMA-domain
//! shards on OS threads, and the glue binding [`Router`] to the
//! conservative-window runtime in [`ps_sim::shard`] (DESIGN.md §9).
//!
//! Three regimes, chosen by [`plan`]:
//!
//! * **Sequential** — anything the parallel runtime cannot host
//!   bit-exactly: single-node configs, NUMA-blind placement, armed
//!   fault plans (global per-class RNG streams), installed trace
//!   collectors (thread-local sinks), or an app that does not
//!   implement [`App::shard_replica`]. Also the shards=1 request for
//!   node-local traffic. This is the pre-shard code path, unchanged.
//! * **Replicated** (`windowed: false`) — node-local traffic with
//!   shards > 1: each shard runs a full `Router` replica that admits
//!   only the packets whose RX node it hosts. No cross-shard messages
//!   exist, so the run is one barrier-free window; the merged report
//!   is the deterministic sum of the per-shard reports.
//! * **Windowed** (`windowed: true`) — cross-node traffic priced with
//!   a QPI hop (`IohSpec::qpi_hop_ns > 0`): that hop is the minimum
//!   cross-domain latency, i.e. the lookahead. The run executes in
//!   adaptive conservative windows (each reaching `GVT + hop − 1`) at
//!   *every* shard count, shards=1 included, so results are identical
//!   across `PS_SHARDS` by construction, not by coincidence.
//!
//! Cross-node traffic *without* a priced hop (`qpi_hop_ns == 0`, the
//! calibrated paper testbed) offers zero lookahead and stays
//! sequential.

use ps_hw::numa::Placement;
use ps_io::Packet;
use ps_pktgen::TrafficSpec;
use ps_sim::time::Time;
use ps_sim::{run_sharded, CrossQueue, Model, Scheduler, ShardModel};

use crate::app::{App, ShardAffinity};
use crate::config::RouterConfig;

use super::report::RouterReport;
use super::stats::merged_report;
use super::{Ev, Router};

/// A processed packet bound for a remote NUMA node's TX path: the
/// typed cross-shard message of the windowed runtime. `src` is the
/// emitting node (not the shard!), so message tie-breaking is
/// identical under every hosting.
pub struct CrossTx {
    /// Node whose worker emitted the packet.
    pub src: usize,
    /// Destination node (owner of the out port).
    pub to: usize,
    /// Arrival instant at the destination IOH (`t2 + qpi_hop_ns`).
    pub at: Time,
    /// The crossing frame.
    pub pkt: Packet,
}

/// The shard count requested via `PS_SHARDS` (default 1). This is
/// what [`Router::run`] passes to [`Router::run_with_shards`]; it is
/// public so artifact writers (ps-bench JSON headers) can record the
/// setting a run was produced under.
pub fn shards_from_env() -> usize {
    std::env::var("PS_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// How a run will execute.
pub(crate) enum ExecPlan<A> {
    /// Single-threaded, byte-identical to the pre-shard router.
    Sequential(A),
    /// One `Router` replica per shard, driven by the work-stealing
    /// window pool in [`ps_sim::run_sharded`].
    Parallel {
        /// One app replica per shard.
        apps: Vec<A>,
        /// Conservative windows (cross-node traffic) vs a single
        /// barrier-free window (node-local traffic).
        windowed: bool,
    },
}

/// Decide the execution regime for a run (see the module docs).
pub(crate) fn plan<A: App>(cfg: &RouterConfig, app: A, shards: usize) -> ExecPlan<A> {
    let shards = shards.clamp(1, cfg.nodes);
    if cfg.nodes < 2
        || cfg.io.placement != Placement::NumaAware
        || cfg.faults.enabled()
        || ps_trace::is_installed()
    {
        return ExecPlan::Sequential(app);
    }
    let Some((_, affinity)) = app.shard_replica() else {
        return ExecPlan::Sequential(app);
    };
    let windowed = match affinity {
        ShardAffinity::NodeLocal => {
            if shards == 1 {
                return ExecPlan::Sequential(app);
            }
            false
        }
        ShardAffinity::CrossNode => {
            if cfg.testbed.ioh.qpi_hop_ns == 0 {
                // No priced hop means no lookahead to run ahead on.
                return ExecPlan::Sequential(app);
            }
            true
        }
    };
    let mut apps = vec![app];
    while apps.len() < shards {
        let (replica, _) = apps[0].shard_replica().expect("checked replicable above");
        apps.push(replica);
    }
    ExecPlan::Parallel { apps, windowed }
}

/// Execute a parallel plan and merge the shards deterministically.
pub(crate) fn run_parallel<A: App + Send>(
    cfg: RouterConfig,
    apps: Vec<A>,
    spec: TrafficSpec,
    duration: Time,
    windowed: bool,
) -> RouterReport {
    let shards = apps.len();
    let mut routers: Vec<Router<A>> = apps
        .into_iter()
        .enumerate()
        .map(|(i, app)| {
            let mut r = Router::new(cfg, app, spec, duration);
            r.shard = Some((i, shards));
            r.cross_windowed = windowed;
            r
        })
        .collect();
    // Every shard replays the full generator stream (skipping packets
    // it does not host), so every shard seeds its own Gen.
    let mut scheds: Vec<Scheduler<Ev>> = (0..shards)
        .map(|_| {
            let mut s = Scheduler::new();
            s.at(0, Ev::Gen);
            s
        })
        .collect();
    let lookahead = if windowed {
        cfg.testbed.ioh.qpi_hop_ns
    } else {
        // Independent shards: one window, no barriers.
        duration.saturating_add(1)
    };
    run_sharded(&mut routers, &mut scheds, duration, lookahead, |node| {
        node % shards
    });
    let window = duration - routers[0].measure_from;
    merged_report(&routers, window)
}

impl<A: App> ShardModel for Router<A> {
    type Event = Ev;
    type Cross = CrossTx;

    fn handle(&mut self, sched: &mut Scheduler<Ev>, ev: Ev, cross: &mut CrossQueue<CrossTx>) {
        Model::handle(self, sched, ev);
        // Drain the packets `finish_chunk` diverted at the QPI into
        // the outbox, in emission order (the per-source index keys the
        // deterministic merge at the barrier).
        for tx in self.pending_cross.drain(..) {
            cross.send(tx.src, tx.to, tx.at, tx);
        }
    }

    fn deliver(&mut self, sched: &mut Scheduler<Ev>, at: Time, msg: CrossTx) {
        let pkt = self.cross_box(msg.pkt);
        sched.at(at, Ev::CrossArrive { node: msg.to, pkt });
    }
}
