//! [`NodeShard`]: the hardware one NUMA domain owns.
//!
//! Every resource a packet touches between its RX wire and its TX wire
//! lives in exactly one shard — NIC ports, the IOH, the GPU engine,
//! the worker cores with their RX rings, and the master core. The
//! struct owns them exclusively (no `Rc`/`RefCell`), which is what
//! lets [`super::parallel`] hand whole shards to OS threads: the
//! borrow checker proves the domains share nothing.

use std::collections::VecDeque;

use ps_gpu::{GpuDevice, GpuEngine};
use ps_hw::ioh::Ioh;
use ps_hw::pcie::PcieModel;
use ps_io::Packet;
use ps_nic::port::{Port, PortId};
use ps_nic::ring::Ring;
use ps_sim::time::Time;
use ps_sim::FoldedWakes;

use crate::app::App;
use crate::chunk::Chunk;
use crate::config::{Mode, RouterConfig};

/// Per-worker-core state (§5.2 worker threads).
pub(crate) struct WorkerState {
    pub busy_until: Time,
    /// Armed RX interrupt (worker parked).
    pub idle: bool,
    /// The wake armed most recently, unless a `WorkerLoop` has run
    /// since (each one clears it): dedupes back-to-back wake requests.
    /// Not the earliest pending wake — a request for an earlier instant
    /// replaces it and the later event stays queued.
    pub next_wake: Option<Time>,
    /// Interrupt moderation horizon.
    pub last_int: Time,
    /// Chunks in flight at the master.
    pub outstanding: usize,
    /// Shaded chunks ready for post-processing: `(ready_at, chunk)`.
    pub done_queue: VecDeque<(Time, Chunk)>,
}

/// Per-node master-core state (§5.3 master threads).
pub(crate) struct MasterState {
    pub input: VecDeque<Chunk>,
    /// Pending `MasterLoop` wake-ups. A wake-up that finds the master
    /// busy re-arms itself at `busy_until`, so wake-ups multiply while
    /// the master is loaded; they are kept as counts per instant, one
    /// scheduler event each (see [`FoldedWakes`]).
    pub wakes: FoldedWakes,
    /// The master thread blocks in the shading step until this
    /// instant (with streams it only blocks for the copy submission).
    pub busy_until: Time,
    /// Scratch for the gathered batch; empty between gathers.
    pub all: Vec<Packet>,
    /// Scratch for the gathered chunks, each with its packet count.
    pub splits: Vec<(Chunk, usize)>,
}

/// Descriptors per RX ring, bulk and priority alike (the 82599's
/// per-queue ring size in the paper's setup).
const RING_ENTRIES: usize = 1024;

/// All hardware owned by one NUMA domain.
pub(crate) struct NodeShard {
    /// This node's NIC ports (globally, ports
    /// `node * ports_per_node ..` map here in order).
    pub ports: Vec<Port>,
    /// The domain's I/O hub: every DMA this node's NICs and GPU issue
    /// is a reservation against these bandwidth servers.
    pub ioh: Ioh,
    /// The node's GPU engine; [`None`] in CPU-only mode.
    pub gpu: Option<GpuEngine>,
    /// Worker cores, indexed by local id.
    pub workers: Vec<WorkerState>,
    /// The node's master core.
    pub master: MasterState,
    /// Per-worker RX rings (RSS queues), parallel to `workers`.
    pub rings: Vec<Ring<Packet>>,
    /// Per-worker priority RX rings, parallel to `rings`. Packets the
    /// priority classifier marks land here and are fetched ahead of
    /// bulk traffic with a small cap; empty forever when no
    /// classifier is configured.
    pub prio_rings: Vec<Ring<Packet>>,
}

impl NodeShard {
    /// Build node `node`'s shard of the testbed described by `cfg`.
    pub fn new<A: App>(cfg: &RouterConfig, node: usize, app: &mut A) -> NodeShard {
        let tb = cfg.testbed;
        let per_node = cfg.ports_per_node();
        let ports = (0..per_node)
            .map(|i| Port::new(PortId(node as u16 * per_node + i), tb.nic.line_rate_bits))
            .collect();
        let mut ioh = Ioh::new(tb.ioh);
        ioh.set_trace_lane(node as u32);
        let gpu = (cfg.mode == Mode::CpuGpu).then(|| {
            let dev = GpuDevice {
                spec: tb.gpu,
                mem: ps_gpu::DeviceMemory::new(cfg.gpu_mem_bytes),
            };
            let mut eng = GpuEngine::new(dev, PcieModel::new(tb.pcie));
            eng.concurrent_copy = cfg.concurrent_copy;
            eng.trace_lane = node as u32;
            app.setup_gpu(node, &mut eng);
            eng
        });
        let workers = (0..cfg.workers_per_node)
            .map(|_| WorkerState {
                busy_until: 0,
                idle: true,
                next_wake: None,
                last_int: 0,
                outstanding: 0,
                done_queue: VecDeque::new(),
            })
            .collect();
        let master = MasterState {
            input: VecDeque::new(),
            wakes: FoldedWakes::new(),
            busy_until: 0,
            all: Vec::new(),
            splits: Vec::new(),
        };
        let rings = (0..cfg.workers_per_node)
            .map(|_| Ring::new(RING_ENTRIES))
            .collect();
        let prio_rings = (0..cfg.workers_per_node)
            .map(|_| Ring::new(RING_ENTRIES))
            .collect();
        NodeShard {
            ports,
            ioh,
            gpu,
            workers,
            master,
            rings,
            prio_rings,
        }
    }
}
