//! The state of the router's threads and per-node devices: one
//! [`Worker`] per worker core (with its RX rings), and one [`Node`]
//! per NUMA domain (its IOH, GPU and master core). The router keeps
//! each kind in a vector indexed by the global id events carry.

use std::collections::VecDeque;

use ps_gpu::{GpuDevice, GpuEngine};
use ps_hw::ioh::Ioh;
use ps_hw::pcie::PcieModel;
use ps_io::Packet;
use ps_nic::ring::Ring;
use ps_sim::time::Time;
use ps_sim::FoldedWakes;

use crate::app::App;
use crate::chunk::Chunk;
use crate::config::{Mode, RouterConfig};

/// Descriptors per RX ring, bulk and priority alike (the 82599's
/// per-queue ring size in the paper's setup).
const RING_ENTRIES: usize = 1024;

/// One worker core (§5.2 worker threads) and its RX queues.
pub(crate) struct Worker {
    pub busy_until: Time,
    /// Armed RX interrupt (worker parked).
    pub idle: bool,
    /// Pending `WorkerLoop` wake-ups (see [`FoldedWakes`]).
    pub wakes: FoldedWakes,
    /// Interrupt moderation horizon.
    pub last_int: Time,
    /// Chunks in flight at the master.
    pub outstanding: usize,
    /// Shaded chunks ready for post-processing: `(ready_at, chunk)`.
    pub done_queue: VecDeque<(Time, Chunk)>,
    /// The worker's RX ring (its RSS queue).
    pub ring: Ring<Packet>,
    /// Packets the priority classifier marks land here and are
    /// fetched ahead of bulk traffic with a small cap; empty forever
    /// when no classifier is configured.
    pub prio_ring: Ring<Packet>,
}

impl Worker {
    pub fn new() -> Worker {
        Worker {
            busy_until: 0,
            idle: true,
            wakes: FoldedWakes::new(),
            last_int: 0,
            outstanding: 0,
            done_queue: VecDeque::new(),
            ring: Ring::new(RING_ENTRIES),
            prio_ring: Ring::new(RING_ENTRIES),
        }
    }
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

/// The devices and master core of one NUMA domain.
pub(crate) struct Node {
    /// The domain's I/O hub: every DMA this node's NICs and GPU issue
    /// is a reservation against these bandwidth servers.
    pub ioh: Ioh,
    /// The node's GPU engine; [`None`] in CPU-only mode.
    pub gpu: Option<GpuEngine>,
    /// The node's master core.
    pub master: MasterState,
}

impl Node {
    /// Build node `node` of the testbed described by `cfg`, uploading
    /// the app's GPU state to its device.
    pub fn new<A: App>(cfg: &RouterConfig, node: usize, app: &mut A) -> Node {
        let tb = cfg.testbed;
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
        Node {
            ioh,
            gpu,
            master: MasterState {
                input: VecDeque::new(),
                wakes: FoldedWakes::new(),
                busy_until: 0,
                all: Vec::new(),
                splits: Vec::new(),
            },
        }
    }
}
