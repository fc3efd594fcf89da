//! Execution policy: when a run splits into per-NUMA-domain replicas
//! on OS threads (DESIGN.md §9).
//!
//! Two regimes, chosen by [`plan`]:
//!
//! * **Sequential** — anything replicas cannot host bit-exactly:
//!   single-node configs, NUMA-blind placement, armed fault plans
//!   (global per-class RNG streams), installed trace collectors
//!   (thread-local sinks), an app that does not implement
//!   [`App::shard_replica`], and cross-node traffic
//!   ([`ShardAffinity::CrossNode`]), whose domains interact. Also the
//!   shards=1 request. This is the pre-shard code path, unchanged.
//! * **Replicated** — node-local traffic with shards > 1: each shard
//!   runs a full `Router` replica that admits only the packets whose
//!   RX node it hosts. Replicas never interact, so each one is a plain
//!   [`Simulation::run_until`]; the merged report is the deterministic
//!   sum of the per-replica reports.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ps_hw::numa::Placement;
use ps_pktgen::TrafficSpec;
use ps_sim::time::Time;
use ps_sim::Simulation;

use crate::app::{App, ShardAffinity};
use crate::config::RouterConfig;

use super::report::RouterReport;
use super::stats::merged_report;
use super::Router;

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

/// OS threads a replicated run of `shards` replicas uses:
/// `min(shards, available_parallelism)`, at least one.
pub fn shard_threads(shards: usize) -> usize {
    let hw = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    hw.min(shards).max(1)
}

/// How a run will execute.
pub(crate) enum ExecPlan<A> {
    /// Single-threaded, byte-identical to the pre-shard router.
    Sequential(A),
    /// One app per replica; see [`run_replicated`].
    Replicated(Vec<A>),
}

/// Decide the execution regime for a run (see the module docs).
pub(crate) fn plan<A: App>(cfg: &RouterConfig, app: A, shards: usize) -> ExecPlan<A> {
    let shards = shards.clamp(1, cfg.nodes);
    if shards == 1
        || cfg.io.placement != Placement::NumaAware
        || cfg.faults.enabled()
        || ps_trace::is_installed()
    {
        return ExecPlan::Sequential(app);
    }
    let Some((replica, ShardAffinity::NodeLocal)) = app.shard_replica() else {
        return ExecPlan::Sequential(app);
    };
    let mut apps = vec![app, replica];
    while apps.len() < shards {
        let (replica, _) = apps[0].shard_replica().expect("checked replicable above");
        apps.push(replica);
    }
    ExecPlan::Replicated(apps)
}

/// Run one replica per app on [`shard_threads`] scoped threads, each
/// taking the next unstarted replica, and merge their reports in
/// replica order, so the result does not depend on which thread ran
/// which replica.
pub(crate) fn run_replicated<A: App + Send>(
    cfg: RouterConfig,
    apps: Vec<A>,
    spec: TrafficSpec,
    duration: Time,
) -> RouterReport {
    let shards = apps.len();
    // Every replica replays the full generator stream (skipping
    // packets it does not host), so every replica arms its own Gen.
    let sims: Vec<Mutex<Simulation<Router<A>>>> = apps
        .into_iter()
        .enumerate()
        .map(|(i, app)| {
            let mut r = Router::new(cfg, app, spec, duration);
            r.shard = Some((i, shards));
            Mutex::new(r.armed())
        })
        .collect();
    let next = AtomicUsize::new(0);
    let work = || {
        while let Some(sim) = sims.get(next.fetch_add(1, Ordering::Relaxed)) {
            sim.lock().expect("claimed once").run_until(duration);
        }
    };
    std::thread::scope(|s| {
        for _ in 1..shard_threads(shards) {
            s.spawn(work);
        }
        work();
    });
    let routers: Vec<Router<A>> = sims
        .into_iter()
        .map(|sim| sim.into_inner().expect("no replica panicked").model)
        .collect();
    merged_report(&routers, duration - routers[0].measure_from)
}
