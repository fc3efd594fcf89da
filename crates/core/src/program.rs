//! The column-offload driver: the §5.1 protocol, written once.
//!
//! Every column-staged application runs the same step around its
//! kernel — gather an input column, copy it in, launch, copy the
//! result column out, apply it per packet — and the same CPU-only
//! loop over the same functional code. A [`ColumnProgram`] declares
//! what differs between applications; [`ColumnApp`] is the one [`App`]
//! that runs any such description on either path. CPU/GPU agreement
//! is structural: both paths parse the whole batch with the same
//! `key`, and then run one apply loop over its rows; only who
//! computes the rows differs (`host` vs the kernel). The loop applies
//! in arrival order and lets the program start loading the state of
//! packets a few places ahead of the one it applies
//! ([`ColumnProgram::prefetch`]).

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

/// How many packets ahead of the one being applied its
/// [`Lookahead::Far`] stage runs.
const FAR: usize = 8;
/// How many packets ahead of the one being applied its
/// [`Lookahead::Near`] stage runs.
const NEAR: usize = 4;

/// Which of the two lookahead stages a [`ColumnProgram::prefetch`]
/// call is. Each packet gets both, in this order, before `apply`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookahead {
    /// 8 packets ahead: start loading what the row names directly (a
    /// flow's buckets).
    Far,
    /// 4 packets ahead: follow what the far stage loaded (the entry a
    /// bucket slot points at).
    Near,
}

/// One packet program: what an application declares to be run by
/// [`ColumnApp`] on the CPU-only path and on the GPU shading path.
pub trait ColumnProgram: Sized {
    /// What [`ColumnProgram::apply`] needs back from the parse besides
    /// the staged bytes (`()` when the result row says it all).
    type Key: Copy;
    /// One decoded row of the result column.
    type Row: Copy;
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

    /// Start loading the host-side state `apply` will touch for `p`,
    /// whose row is `row`, a [`Lookahead`] stage ahead of it. A hint:
    /// it must change nothing `apply` observes. Does nothing unless a
    /// program's tables are large enough to miss in cache.
    fn prefetch(&self, _p: &Packet, _row: &Self::Row, _stage: Lookahead) {}

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

pub(crate) struct NodeGpu<T> {
    pub(crate) tables: T,
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
    /// Per node: its device tables and columns, once `setup_gpu` ran.
    pub(crate) gpu: Vec<Option<NodeGpu<P::Tables>>>,
    /// Keys of the batch being applied (reused across batches).
    keys: Vec<Option<P::Key>>,
    /// Rows of the batch being applied, one per key (reused; reserved
    /// for a whole gather up front, so no run grows it).
    rows: Vec<P::Row>,
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
            rows: Vec::with_capacity(MAX_GATHER),
            lookups: 0,
            malformed: 0,
        }
    }
}

impl<P: ColumnProgram> ColumnApp<P> {
    /// Apply the batch's keys and rows to `pkts` in arrival order,
    /// the one apply loop of both paths, while the program loads
    /// ahead: before packet `i` is applied, packet `i + FAR` has had
    /// its [`Lookahead::Far`] stage and packet `i + NEAR` its
    /// [`Lookahead::Near`] one. Returns the summed `apply` cost.
    fn apply_in_order(&mut self, pkts: &mut [Packet]) -> u64 {
        let n = pkts.len();
        debug_assert_eq!((self.keys.len(), self.rows.len()), (n, n));
        let mut cost = 0;
        // Step `t` runs packet `t`'s far stage, packet `t - (FAR -
        // NEAR)`'s near stage and applies packet `t - FAR`, so the
        // first packets of a batch are loaded ahead too.
        for t in 0..n + FAR {
            let near = t.checked_sub(FAR - NEAR);
            for (j, stage) in [(Some(t), Lookahead::Far), (near, Lookahead::Near)] {
                if let Some(j) = j.filter(|&j| j < n && self.keys[j].is_some()) {
                    self.program.prefetch(&pkts[j], &self.rows[j], stage);
                }
            }
            let Some(i) = t.checked_sub(FAR) else {
                continue;
            };
            match self.keys[i] {
                Some(key) => {
                    cost += self.program.apply(&mut pkts[i], key, self.rows[i]);
                    self.lookups += 1;
                }
                None => {
                    self.malformed += 1;
                    pkts[i].out_port = None;
                }
            }
        }
        cost
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
        for p in pkts.iter_mut() {
            p.verdict = self.program.admit(p);
        }
        PreShadeResult {
            cycles: P::PRE_SHADE_CYCLES * pkts.len() as u64,
        }
    }

    fn process_cpu(&mut self, pkts: &mut Vec<Packet>) -> u64 {
        let width = P::COLUMNS.input.width;
        let mut cost = 0;
        self.keys.clear();
        self.rows.clear();
        // The host computes the whole result column first, as the
        // kernel does: a frame that no longer parses keeps its zeroed
        // slot, and its row is discarded uncharged.
        for p in pkts.iter() {
            let mut slot = [0u8; MAX_INPUT_WIDTH];
            let key = self.program.key(p, &mut slot[..width]);
            let (row, offloadable) = self.program.host(&slot[..width]);
            if key.is_some() {
                cost += offloadable;
            }
            self.keys.push(key);
            self.rows.push(row);
        }
        cost += self.apply_in_order(pkts);
        let survivors = pkts.iter().filter(|p| p.out_port.is_some()).count();
        self.program.cpu_cycles(cost, survivors)
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
        self.rows.clear();
        let rows = rows.chunks_exact(P::COLUMNS.output.width);
        self.rows.extend(rows.map(P::decode));
        self.apply_in_order(pkts);
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
