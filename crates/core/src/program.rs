//! The column-offload driver: the §5.1 protocol, written once.
//!
//! Every column-staged application runs the same step around its
//! kernel — gather an input column, copy it in, launch, copy the
//! result column out, apply it per packet — and the same CPU-only
//! loop over the same functional code. A [`ColumnProgram`] declares
//! what differs between applications; [`ColumnApp`] is the one [`App`]
//! that runs any such description on either path. CPU/GPU agreement
//! is structural: both paths parse with the same `key` and apply a
//! row with the same `apply`; only who computes the row differs
//! (`host` vs the kernel).

use std::ops::{Deref, DerefMut};

use ps_gpu::{GpuEngine, Kernel, Staging};
use ps_hw::ioh::Ioh;
use ps_io::Packet;
use ps_net::Verdict;
use ps_sim::time::Time;

use crate::app::{App, PreShadeResult, ShardAffinity};
use crate::columns::{ColumnSet, ColumnStage, MAX_INPUT_WIDTH};
use crate::kernels::KernelIo;

/// Maximum packets one gathered GPU launch can stage; the per-node
/// device columns are sized for it.
pub(crate) const MAX_GATHER: usize = 65_536;

/// One packet program: what an application declares to be run by
/// [`ColumnApp`] on the CPU-only path and on the GPU shading path.
pub trait ColumnProgram: Sized {
    /// What [`ColumnProgram::apply`] needs back from the parse besides
    /// the staged bytes (`()` when the result row says it all).
    type Key;
    /// One decoded row of the result column.
    type Row;
    /// Persistent per-node device state (table images); `()` if none.
    type Tables;

    /// Application name for reports.
    const NAME: &'static str;
    /// The kernel's input/output column layout.
    const COLUMNS: ColumnSet;
    /// Worker cycles per received packet in pre-shading.
    const PRE_SHADE_CYCLES: u64;

    /// Pre-shading for one packet: the fast-path verdict, plus the
    /// header rewrite a forwarded packet gets (TTL decrement, …).
    fn admit(&self, p: &mut Packet) -> Verdict;

    /// The revalidation parse, filling the packet's (zeroed)
    /// input-column slot. Fault injection can damage a frame between
    /// pipeline stages, so each execution path re-reads the raw frame
    /// — once. [`None`] is a counted drop.
    fn key(&self, p: &Packet, slot: &mut [u8]) -> Option<Self::Key>;

    /// Upload persistent state to one node's GPU.
    fn upload_tables(&self, eng: &mut GpuEngine) -> Self::Tables;

    /// The kernel for one launch over `tables` and the staged columns.
    fn kernel<'a>(&'a self, tables: &'a Self::Tables, io: KernelIo) -> impl Kernel + 'a;

    /// Decode one `COLUMNS.output.width`-byte result row.
    fn decode(row: &[u8]) -> Self::Row;

    /// The row the kernel would write for the input-column bytes in
    /// `slot`, computed on the host, and its CPU-only cost — the work
    /// the GPU absorbs, in the units [`ColumnProgram::cpu_cycles`]
    /// converts.
    fn host(&self, slot: &[u8]) -> (Self::Row, u64);

    /// Apply a row to its packet: set `out_port` ([`None`] drops),
    /// rewrite headers, update host-side tables. Runs in arrival
    /// order on both paths; returns the host-side cost.
    fn apply(&mut self, p: &mut Packet, key: Self::Key, row: Self::Row) -> u64;

    /// Worker cycles for one CPU-only batch from its summed costs and
    /// survivor count. Lookup apps charge a formula over the summed
    /// table accesses; everyone else sums cycles.
    fn cpu_cycles(&self, cost: u64, _survivors: usize) -> u64 {
        cost
    }

    /// Post-shading worker cycles for an `n`-packet chunk.
    fn post_shade_cycles(&self, n: usize) -> u64 {
        30 * n as u64
    }

    /// Called after each shading step's rows are applied (trace
    /// gauges over host-side state).
    fn shaded(&self, _node: usize, _done: Time) {}

    /// See [`App::on_gpu_fault`].
    fn on_gpu_fault(&mut self, _node: usize) {}

    /// See [`App::shard_replica`].
    fn replica(&self) -> Option<(Self, ShardAffinity)> {
        None
    }
}

struct NodeGpu<T> {
    tables: T,
    io: KernelIo,
}

/// The single [`App`] implementation for column-staged applications:
/// runs a [`ColumnProgram`] on either path, owning the staging
/// buffers, the per-node device columns and the malformed-frame
/// count. Dereferences to the program, so each application's own
/// methods and counters (`lookup_host`, `switch`, …) stay reachable.
pub struct ColumnApp<P: ColumnProgram> {
    program: P,
    stage: ColumnStage,
    gpu: Vec<Option<NodeGpu<P::Tables>>>,
    /// Keys of the batch being shaded (reused across launches).
    keys: Vec<Option<P::Key>>,
    /// Result rows applied — one table lookup each — on either path.
    pub lookups: u64,
    /// Frames whose key no longer parsed when an execution path
    /// re-read it: counted drops, never panics, once on either path.
    pub malformed: u64,
}

impl<P: ColumnProgram> ColumnApp<P> {
    /// Run `program` as an application.
    pub fn over(program: P) -> ColumnApp<P> {
        const { assert!(P::COLUMNS.input.width <= MAX_INPUT_WIDTH) };
        ColumnApp {
            program,
            stage: ColumnStage::new(P::COLUMNS),
            gpu: Vec::new(),
            keys: Vec::new(),
            lookups: 0,
            malformed: 0,
        }
    }
}

impl<P: ColumnProgram> Deref for ColumnApp<P> {
    type Target = P;
    fn deref(&self) -> &P {
        &self.program
    }
}

impl<P: ColumnProgram> DerefMut for ColumnApp<P> {
    fn deref_mut(&mut self) -> &mut P {
        &mut self.program
    }
}

impl<P: ColumnProgram> App for ColumnApp<P> {
    fn name(&self) -> &str {
        P::NAME
    }

    fn set_staging(&mut self, mode: Staging) {
        self.stage.set_mode(mode);
    }

    fn staging_totals(&self) -> Option<(u64, u64, u64)> {
        Some(self.stage.totals())
    }

    fn setup_gpu(&mut self, node: usize, eng: &mut GpuEngine) {
        if self.gpu.len() <= node {
            self.gpu.resize_with(node + 1, || None);
        }
        // Tables first, then the columns: device addresses are part
        // of the timing model's input.
        self.gpu[node] = Some(NodeGpu {
            tables: self.program.upload_tables(eng),
            io: self.stage.alloc(eng, MAX_GATHER),
        });
    }

    fn pre_shade(&mut self, pkts: &mut Vec<Packet>) -> PreShadeResult {
        let mut r = PreShadeResult {
            cycles: P::PRE_SHADE_CYCLES * pkts.len() as u64,
            ..PreShadeResult::default()
        };
        pkts.retain_mut(|p| match self.program.admit(p) {
            Verdict::FastPath => true,
            Verdict::SlowPath(_) => {
                r.slow_path += 1;
                false
            }
            Verdict::Drop(_) => {
                r.dropped += 1;
                false
            }
        });
        r
    }

    fn process_cpu(&mut self, pkts: &mut Vec<Packet>) -> u64 {
        let width = P::COLUMNS.input.width;
        let mut cost = 0;
        for p in pkts.iter_mut() {
            let mut slot = [0u8; MAX_INPUT_WIDTH];
            match self.program.key(p, &mut slot[..width]) {
                Some(key) => {
                    let (row, offloadable) = self.program.host(&slot[..width]);
                    cost += offloadable + self.program.apply(p, key, row);
                    self.lookups += 1;
                }
                None => {
                    self.malformed += 1;
                    p.out_port = None;
                }
            }
        }
        pkts.retain(|p| p.out_port.is_some());
        self.program.cpu_cycles(cost, pkts.len())
    }

    fn shade(
        &mut self,
        node: usize,
        eng: &mut GpuEngine,
        ioh: &mut Ioh,
        ready: Time,
        pkts: &mut [Packet],
    ) -> Time {
        let n = pkts.len().min(MAX_GATHER);
        let pkts = &mut pkts[..n];
        let g = self.gpu[node].as_mut().expect("setup_gpu ran");

        // Gather: one parse per packet fills the input column; a
        // frame that no longer parses keeps its zeroed slot, so the
        // batch layout stays fixed and its result row is discarded.
        let (program, keys) = (&self.program, &mut self.keys);
        keys.clear();
        keys.reserve(n);
        let h2d = self
            .stage
            .upload(eng, ioh, ready, &g.io.input, pkts, |p, slot| {
                keys.push(program.key(p, slot))
            });
        let (kdone, _) = eng.launch(h2d, &self.program.kernel(&g.tables, g.io), n as u32);
        let (done, rows) = self.stage.download(eng, ioh, ready, kdone, &g.io.output, n);

        // Scatter, in arrival order (host-side tables evolve exactly
        // as on the CPU path).
        let rows = rows.chunks_exact(P::COLUMNS.output.width);
        for ((p, key), row) in pkts.iter_mut().zip(self.keys.drain(..)).zip(rows) {
            match key {
                Some(key) => {
                    self.program.apply(p, key, P::decode(row));
                    self.lookups += 1;
                }
                None => {
                    self.malformed += 1;
                    p.out_port = None;
                }
            }
        }
        self.program.shaded(node, done);
        done
    }

    fn post_shade_cycles(&self, n: usize) -> u64 {
        self.program.post_shade_cycles(n)
    }

    fn on_gpu_fault(&mut self, node: usize) {
        self.program.on_gpu_fault(node);
    }

    fn shard_replica(&self) -> Option<(Self, ShardAffinity)> {
        let (program, affinity) = self.program.replica()?;
        Some((ColumnApp::over(program), affinity))
    }
}
