//! The event-driven router: workers, masters, NICs, IOHs and GPUs
//! composed into one deterministic simulation (Figures 7 and 9).
//!
//! The module is split along the paper's own NUMA seam (§3.2):
//!
//! * `node` — `NodeShard`: every hardware resource a NUMA domain
//!   owns (NIC ports, IOH, GPU, worker cores, master, RX rings), held
//!   *exclusively* so shard-parallel execution is an ownership fact,
//!   not a convention;
//! * `rx` — the admission side: generator arrivals, NIC RX, faults,
//!   RX DMA and the interrupt into a worker;
//! * `dispatch` — the event enum, the worker-side handlers
//!   (fetch/pre-shade/process/post-shade/TX), the settling of
//!   arrivals and RX/TX completions, and the event dispatch;
//! * `master` — the master loop: gather, shade (GPU or CPU
//!   fallback), scatter;
//! * `stats` — per-run counters and the report, built as the
//!   deterministic merge of one or more replicas;
//! * `report` — [`RouterReport`], the public result type;
//! * `parallel` — the execution policy: when a run may split into
//!   per-NUMA-domain replicas on OS threads (`PS_SHARDS`, DESIGN.md
//!   §9), and the thread pool that runs them.
//!
//! This file holds the [`Router`] aggregate: construction, the
//! resource pools, and the run entry points.

mod dispatch;
mod master;
mod node;
mod parallel;
mod report;
mod rx;
mod stats;
#[cfg(test)]
mod tests;

pub use dispatch::{rss_hash, Ev};
pub use parallel::{shard_threads, shards_from_env};
pub use report::RouterReport;

use ps_fault::FaultPlan;
use ps_io::Packet;
use ps_nic::port::PortId;
use ps_nic::ring::Ring;
use ps_pktgen::{Generator, Sink, TrafficSpec};
use ps_sim::time::Time;
use ps_sim::{Completions, Simulation};

use crate::app::App;
use crate::config::RouterConfig;

use dispatch::Due;
use node::{MasterState, NodeShard, WorkerState};
use stats::RunStats;

/// Upper bound on each recycling pool (frame buffers, batch vectors);
/// keeps a pathological burst from pinning memory forever.
const POOL_CAP: usize = 8192;

/// The router model.
pub struct Router<A: App> {
    cfg: RouterConfig,
    app: A,
    gen: Generator,
    /// The measurement sink.
    pub sink: Sink,
    /// One shard of hardware per NUMA domain; all port/worker/ring
    /// indexing goes through the accessors below, which map the global
    /// ids used by events onto `(node, local)` pairs.
    nodes: Vec<NodeShard>,
    cost: ps_io::cost::CostModel,
    stop_at: Time,
    /// Counters only accumulate from this instant (warm-up excluded).
    measure_from: Time,
    stats: RunStats,
    /// Recycled frame buffers: delivered and tail-dropped packets
    /// return their `data` allocation here, and the generator
    /// materializes new frames into them — the steady state allocates
    /// no per-packet buffers.
    free_bufs: Vec<Vec<u8>>,
    /// Recycled boxes of [`Ev::CrossArrive`] packets: the `Box`
    /// allocations themselves are the pooled resource.
    #[allow(clippy::vec_box)]
    free_cross: Vec<Box<Packet>>,
    /// The generator's next arrival and every RX DMA and TX wire
    /// completion in flight, behind one scheduler event (lanes:
    /// [`Router::ARRIVALS`], [`Router::rx_lane`], [`Router::tx_lane`]).
    due: Completions<Due>,
    /// Recycled batch vectors: an RX fetch fills one, it travels with
    /// its chunk (through the master and back, when shaded), and the
    /// TX path returns it here empty.
    free_batches: Vec<Vec<Packet>>,
    /// Armed fault plan; [`None`] whenever the config's spec is
    /// all-zero, so fault-free runs draw no randomness and emit no
    /// trace events from this layer.
    plan: Option<FaultPlan>,
    /// `Some((index, count))` when this router is one shard of a
    /// parallel run: it then only admits packets whose RX node it
    /// hosts (`node % count == index`).
    shard: Option<(usize, usize)>,
}

impl<A: App> Router<A> {
    /// Build a router; `stop_at` bounds packet generation.
    ///
    /// # Panics
    /// Panics, naming the fields, on a layout the node shards cannot
    /// hold: no nodes, no workers per node, or a port count that is
    /// zero or does not split evenly over the nodes.
    pub fn new(cfg: RouterConfig, mut app: A, spec: TrafficSpec, stop_at: Time) -> Router<A> {
        assert_eq!(
            spec.ports, cfg.ports,
            "traffic spec and router must agree on port count"
        );
        assert!(cfg.nodes >= 1, "RouterConfig: nodes must be >= 1, got 0");
        assert!(
            cfg.workers_per_node >= 1,
            "RouterConfig: workers_per_node must be >= 1, got 0"
        );
        assert!(
            cfg.ports > 0 && usize::from(cfg.ports).is_multiple_of(cfg.nodes),
            "RouterConfig: ports ({}) must be a nonzero multiple of nodes ({})",
            cfg.ports,
            cfg.nodes
        );
        app.set_staging(cfg.staging);
        let nodes = (0..cfg.nodes)
            .map(|node| NodeShard::new(&cfg, node, &mut app))
            .collect();
        Router {
            cfg,
            app,
            gen: Generator::new(spec),
            sink: Sink::new(),
            nodes,
            cost: ps_io::cost::CostModel::default(),
            stop_at,
            measure_from: stop_at / 5,
            stats: RunStats::default(),
            free_bufs: Vec::new(),
            free_cross: Vec::new(),
            // Arrivals, two RX lanes per node, one TX lane per port.
            due: Completions::new(Self::rx_lane(cfg.nodes, false) + cfg.ports as usize),
            free_batches: Vec::new(),
            plan: cfg.faults.enabled().then(|| FaultPlan::new(cfg.faults)),
            shard: None,
        }
    }

    /// Run a configured router for `duration` and report. The shard
    /// count comes from the `PS_SHARDS` environment variable (default
    /// 1); see [`Router::run_with_shards`] for the policy.
    pub fn run(cfg: RouterConfig, app: A, spec: TrafficSpec, duration: Time) -> RouterReport
    where
        A: Send,
    {
        Self::run_with_shards(cfg, app, spec, duration, parallel::shards_from_env())
    }

    /// Run with an explicit shard-count request.
    ///
    /// The request is only that — a request. The execution policy
    /// decides whether the workload can execute as per-NUMA-domain
    /// replicas on OS threads (the app must be replicable with
    /// node-local traffic, the run untraced and fault-free, placement
    /// NUMA-aware); everything else takes the sequential path below,
    /// byte-identical to the pre-shard implementation. Virtual-time
    /// results are identical at *every* shard count (pinned by
    /// `tests/shards.rs`); only wall-clock time changes.
    pub fn run_with_shards(
        cfg: RouterConfig,
        app: A,
        spec: TrafficSpec,
        duration: Time,
        shards: usize,
    ) -> RouterReport
    where
        A: Send,
    {
        match parallel::plan(&cfg, app, shards) {
            parallel::ExecPlan::Sequential(app) => {
                let mut sim = Router::new(cfg, app, spec, duration).armed();
                // Measure exactly [0, duration]: packets still in
                // flight at the deadline do not count (steady-state
                // occupancy is small relative to any measurement
                // window).
                sim.run_until(duration);
                let window = duration - sim.model.measure_from;
                sim.model.report(window)
            }
            parallel::ExecPlan::Replicated(apps) => {
                parallel::run_replicated(cfg, apps, spec, duration)
            }
        }
    }

    /// This router in a simulation at time zero, its generator armed.
    fn armed(self) -> Simulation<Router<A>> {
        let mut sim = Simulation::new(self);
        sim.schedule(0, Ev::Gen);
        sim
    }

    /// Access the application (post-run inspection).
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Return a frame buffer to the recycling pool.
    fn reclaim_buf(&mut self, buf: Vec<u8>) {
        if self.free_bufs.len() < POOL_CAP {
            self.free_bufs.push(buf);
        }
    }

    /// Box a QPI-crossing packet for its [`Ev::CrossArrive`], reusing a
    /// recycled box when there is one.
    fn cross_box(&mut self, p: Packet) -> Box<Packet> {
        match self.free_cross.pop() {
            Some(mut b) => {
                *b = p;
                b
            }
            None => Box::new(p),
        }
    }

    /// Take a crossing packet out of its box and recycle the box.
    fn cross_unbox(&mut self, mut b: Box<Packet>) -> Packet {
        let p = std::mem::replace(&mut *b, Packet::new(0, Vec::new(), PortId(0), 0));
        if self.free_cross.len() < POOL_CAP {
            self.free_cross.push(b);
        }
        p
    }

    /// Return an emptied batch vector to the recycling pool.
    fn reclaim_batch(&mut self, batch: Vec<Packet>) {
        debug_assert!(batch.is_empty());
        if self.free_batches.len() < POOL_CAP {
            self.free_batches.push(batch);
        }
    }

    // Global-id accessors: events address workers, rings and ports by
    // the same flat ids the pre-shard router used; the node-sharded
    // layout is `(id / per_node, id % per_node)`.

    fn worker_node(&self, w: usize) -> usize {
        w / self.cfg.workers_per_node
    }

    fn worker(&self, w: usize) -> &WorkerState {
        &self.nodes[w / self.cfg.workers_per_node].workers[w % self.cfg.workers_per_node]
    }

    fn worker_mut(&mut self, w: usize) -> &mut WorkerState {
        let per = self.cfg.workers_per_node;
        &mut self.nodes[w / per].workers[w % per]
    }

    fn ring(&self, w: usize) -> &Ring<Packet> {
        &self.nodes[w / self.cfg.workers_per_node].rings[w % self.cfg.workers_per_node]
    }

    fn ring_mut(&mut self, w: usize) -> &mut Ring<Packet> {
        let per = self.cfg.workers_per_node;
        &mut self.nodes[w / per].rings[w % per]
    }

    fn prio_ring(&self, w: usize) -> &Ring<Packet> {
        &self.nodes[w / self.cfg.workers_per_node].prio_rings[w % self.cfg.workers_per_node]
    }

    fn prio_ring_mut(&mut self, w: usize) -> &mut Ring<Packet> {
        let per = self.cfg.workers_per_node;
        &mut self.nodes[w / per].prio_rings[w % per]
    }

    /// Completion lane of the generator's arrivals, which it paces in
    /// nondecreasing order.
    const ARRIVALS: usize = 0;

    /// Completion lane of node `node`'s local RX DMA completions of one
    /// class. They leave the node IOH's bandwidth server in
    /// nondecreasing order, and priority completions are a subsequence
    /// of that stream, so each class keeps the lane contract on its
    /// own lane.
    fn rx_lane(node: usize, prio: bool) -> usize {
        1 + 2 * node + usize::from(prio)
    }

    /// Completion lane of port `port`'s TX wire completions, which
    /// serialize onto the wire in nondecreasing order.
    fn tx_lane(&self, port: PortId) -> usize {
        Self::rx_lane(self.cfg.nodes, false) + port.0 as usize
    }

    fn master_mut(&mut self, node: usize) -> &mut MasterState {
        &mut self.nodes[node].master
    }

    fn port_mut(&mut self, p: PortId) -> &mut ps_nic::port::Port {
        let per = self.cfg.ports_per_node() as usize;
        &mut self.nodes[p.0 as usize / per].ports[p.0 as usize % per]
    }

    fn node_of_port(&self, port: PortId) -> usize {
        (port.0 / self.cfg.ports_per_node()) as usize
    }

    /// Does this router (shard) host `node`? Always true outside a
    /// parallel run.
    fn hosted(&self, node: usize) -> bool {
        match self.shard {
            Some((idx, count)) => node % count == idx,
            None => true,
        }
    }
}
