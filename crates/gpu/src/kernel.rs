//! The kernel API: real per-thread code with cost tracing.
//!
//! A [`Kernel`] is executed once per GPU thread. The [`ThreadCtx`]
//! passed to each thread is both the *functional* interface to device
//! memory and the *tracing* interface: every global access records its
//! address so the per-warp coalescing analysis can count 128-byte
//! memory transactions, `alu()` accumulates issue cycles, and
//! `branch()` records data-dependent decisions so warp divergence can
//! be charged (§5.5 "Divergency in GPU code").
//!
//! The executor hands a kernel one warp (32 lanes) at a time through
//! [`Kernel::warp`]. Its default runs [`Kernel::thread`] once per
//! lane; a kernel whose lanes touch memory in a regular pattern may
//! override it and do the warp's work in bulk through a [`WarpCtx`],
//! which separates *recording* an access ([`WarpCtx::touch`]) from
//! *doing* it ([`WarpCtx::bytes_mut`]). An override changes host work
//! only: the launch's [`LaunchStats`] and every device byte must equal
//! what the per-lane `thread` calls produce — [`warp_matches_threads`]
//! is the one-line check.

use crate::device::{DeviceBuffer, DeviceMemory};
use crate::timing::KernelCost;

/// Lanes per warp.
const WARP_SIZE: u32 = 32;

/// A GPU kernel: one object, many threads.
pub trait Kernel {
    /// Kernel name for reports.
    fn name(&self) -> &str;

    /// Execute thread `tid` of the launch.
    fn thread(&self, tid: u32, ctx: &mut ThreadCtx<'_>);

    /// Execute lanes `first_tid..first_tid + lanes` of one warp. The
    /// default runs [`Kernel::thread`] per lane. An override must
    /// leave device memory and the warp's recorded costs (per-step
    /// segment sets, maximum per-lane ALU, branch decisions) exactly
    /// as that loop would; `thread` stays as the specification. Three
    /// kernels override it: the two IPsec kernels and the IPv4 lookup
    /// (`ps-core::kernels`).
    fn warp(&self, first_tid: u32, lanes: u32, ctx: &mut WarpCtx<'_>) {
        for tid in first_tid..first_tid + lanes {
            ctx.lane(|t| self.thread(tid, t));
        }
    }
}

/// Runs the wrapped kernel's `thread` body for every lane even when
/// the kernel overrides [`Kernel::warp`]: the reference side of
/// [`warp_matches_threads`].
struct PerThread<'k, K: ?Sized>(&'k K);

impl<K: Kernel + ?Sized> Kernel for PerThread<'_, K> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn thread(&self, tid: u32, ctx: &mut ThreadCtx<'_>) {
        self.0.thread(tid, ctx);
    }
}

/// Aggregated outcome of a kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchStats {
    /// Threads launched.
    pub threads: u32,
    /// Warps executed.
    pub warps: u32,
    /// Total coalesced memory transactions issued.
    pub mem_transactions: u64,
    /// Longest dependent memory chain (steps) over all warps.
    pub max_chain: u32,
    /// Total warp-issue cycles (divergence included).
    pub issue_cycles: u64,
    /// Warp branch decisions that diverged within a warp.
    pub divergent_branches: u64,
}

/// Per-thread execution context.
pub struct ThreadCtx<'a> {
    mem: &'a mut DeviceMemory,
    /// Index of the thread's next memory step.
    step: usize,
    alu: u64,
    branch_step: usize,
    warp: &'a mut WarpAccumulator,
}

impl<'a> ThreadCtx<'a> {
    /// Record `cycles` of pure compute.
    #[inline]
    pub fn alu(&mut self, cycles: u32) {
        self.alu += u64::from(cycles);
    }

    /// Record a data-dependent branch decision. Divergence within the
    /// warp is detected and charged by the timing model.
    #[inline]
    pub fn branch(&mut self, taken: bool) {
        self.warp.record_branch(self.branch_step, taken);
        self.branch_step += 1;
    }

    /// Read `N` bytes of global memory at `buf[off..]`.
    #[inline]
    pub fn read<const N: usize>(&mut self, buf: &DeviceBuffer, off: usize) -> [u8; N] {
        self.record_access(buf.addr(off), N);
        let mut out = [0u8; N];
        let base = buf.addr(0);
        out.copy_from_slice(&self.mem.raw()[base + off..base + off + N]);
        out
    }

    /// Read a little-endian u32 from global memory.
    #[inline]
    pub fn read_u32(&mut self, buf: &DeviceBuffer, off: usize) -> u32 {
        u32::from_le_bytes(self.read::<4>(buf, off))
    }

    /// Read a little-endian u16 from global memory.
    #[inline]
    pub fn read_u16(&mut self, buf: &DeviceBuffer, off: usize) -> u16 {
        u16::from_le_bytes(self.read::<2>(buf, off))
    }

    /// Read one byte from global memory.
    #[cfg(test)]
    pub(crate) fn read_u8(&mut self, buf: &DeviceBuffer, off: usize) -> u8 {
        self.read::<1>(buf, off)[0]
    }

    /// Write bytes to global memory at `buf[off..]`.
    #[inline]
    pub fn write(&mut self, buf: &DeviceBuffer, off: usize, data: &[u8]) {
        self.record_access(buf.addr(off), data.len());
        let base = buf.addr(0);
        self.mem.raw_mut()[base + off..base + off + data.len()].copy_from_slice(data);
    }

    /// Write a little-endian u32.
    #[inline]
    pub fn write_u32(&mut self, buf: &DeviceBuffer, off: usize, v: u32) {
        self.write(buf, off, &v.to_le_bytes());
    }

    /// Access that hits shared memory / registers: costs issue cycles
    /// only, no global transaction. (The IPsec kernel keeps its AES
    /// tables in shared memory, §6: "maximize the usage of in-die
    /// memory".)
    #[inline]
    pub fn shared(&mut self, cycles: u32) {
        self.alu += u64::from(cycles);
    }

    #[inline]
    fn record_access(&mut self, addr: usize, len: usize) {
        self.warp.record_access(self.step, addr, len);
        self.step += 1;
    }
}

/// Per-warp execution context: what a [`Kernel::warp`] override uses
/// to record the warp's costs and to reach device memory.
pub struct WarpCtx<'a> {
    mem: &'a mut DeviceMemory,
    acc: &'a mut WarpAccumulator,
    /// Largest per-lane ALU total seen so far in this warp.
    max_alu: u64,
}

impl WarpCtx<'_> {
    /// Run one lane's per-thread code.
    #[inline]
    pub fn lane(&mut self, f: impl FnOnce(&mut ThreadCtx<'_>)) {
        let mut t = ThreadCtx {
            mem: &mut *self.mem,
            step: 0,
            alu: 0,
            branch_step: 0,
            warp: &mut *self.acc,
        };
        f(&mut t);
        self.max_alu = self.max_alu.max(t.alu);
    }

    /// Record that lanes of this warp access `buf[off..off + len]` at
    /// memory step `step` (a lane's `step`-th global access). A run of
    /// lanes whose accesses tile a range may be recorded as the range:
    /// the segment set is the same. Copies nothing.
    #[inline]
    pub fn touch(&mut self, step: usize, buf: &DeviceBuffer, off: usize, len: usize) {
        self.acc.record_access(step, buf.addr(off), len);
    }

    /// Record several lanes' accesses `(off, len)` of `buf` at memory
    /// step `step`: one [`WarpCtx::touch`] each, with the step's set
    /// looked up once. Recording a warp step by step, lanes in address
    /// order, keeps every insertion on the append path.
    #[inline]
    pub fn touch_each(
        &mut self,
        step: usize,
        buf: &DeviceBuffer,
        accesses: impl IntoIterator<Item = (usize, usize)>,
    ) {
        let set = self.acc.set(step);
        for (off, len) in accesses {
            let (first, last) = segments(buf.addr(off), len);
            set.insert_range(first, last);
        }
    }

    /// Record one lane's total ALU + shared-memory issue cycles; the
    /// warp is charged its slowest lane.
    #[inline]
    pub fn lane_alu(&mut self, cycles: u64) {
        self.max_alu = self.max_alu.max(cycles);
    }

    /// Record one lane's decision at branch step `step` (the lane's
    /// `step`-th [`ThreadCtx::branch`]). The warp diverges at a step
    /// where its lanes decide differently, in whatever order they are
    /// recorded.
    #[inline]
    pub fn branch(&mut self, step: usize, taken: bool) {
        self.acc.record_branch(step, taken);
    }

    /// Device memory at `buf[off..off + len]`, unrecorded.
    #[inline]
    pub fn bytes(&self, buf: &DeviceBuffer, off: usize, len: usize) -> &[u8] {
        &self.mem.slice(buf)[off..off + len]
    }

    /// Mutable device memory at `buf[off..off + len]`, unrecorded.
    #[inline]
    pub fn bytes_mut(&mut self, buf: &DeviceBuffer, off: usize, len: usize) -> &mut [u8] {
        &mut self.mem.slice_mut(buf)[off..off + len]
    }
}

const SEGMENT_SHIFT: u32 = 7; // 128-byte coalescing segments

/// One warp's `(transactions, chain, issue, divergent)`: what it adds
/// to the launch's [`LaunchStats`].
type WarpCost = (u64, u32, u64, u64);

/// Collects per-warp traces while the 32 lanes execute sequentially.
///
/// The buffers are high-water-mark scratch: `finish` resets *used*
/// counts but never frees — segment sets keep their capacity across
/// warps, and when the accumulator itself is reused across launches
/// (see [`execute_with`]) the steady state allocates nothing. The
/// per-launch `steps.resize_with(step + 1, ...)` churn this replaces
/// showed up directly in the IPsec wall-clock sweeps.
#[derive(Debug, Default)]
pub(crate) struct WarpAccumulator {
    /// Per memory step: the distinct 128 B segments touched. Only
    /// `steps[..used_steps]` is live; slots beyond are empty spares
    /// with retained capacity.
    steps: Vec<SegmentSet>,
    used_steps: usize,
    /// Per branch step: (first decision, diverged?). Slots at or past
    /// `used_branches` are stale and re-initialized on first touch.
    branches: Vec<(bool, bool)>,
    used_branches: usize,
}

/// The 128 B segments `[first, last]` an access of `len` bytes at
/// `addr` touches.
#[inline]
fn segments(addr: usize, len: usize) -> (u32, u32) {
    debug_assert!(addr + len <= crate::device::MAX_DEVICE_BYTES);
    (
        (addr >> SEGMENT_SHIFT) as u32,
        ((addr + len.max(1) - 1) >> SEGMENT_SHIFT) as u32,
    )
}

/// One memory step's distinct segments (ids fit a `u32`: device memory
/// is at most `MAX_DEVICE_BYTES`). `segs` is unordered except that its
/// largest member is kept last, and `next` is one past that member (0
/// while empty). Lanes mostly walk memory upwards —
/// neighbours share a segment (coalesced column reads) or move on to
/// the next ones (per-packet payload streams) — so most ranges start
/// at or past the largest member: they are appended after one
/// compare, with no scan. Only a range that starts below it is
/// inserted segment by segment.
#[derive(Debug, Default)]
struct SegmentSet {
    segs: Vec<u32>,
    next: u32,
}

impl SegmentSet {
    /// Add segments `first..=last`.
    #[inline]
    fn insert_range(&mut self, first: u32, last: u32) {
        if first >= self.next {
            self.append(first, last);
        } else if first + 1 == self.next {
            if last >= self.next {
                self.append(self.next, last);
            }
        } else {
            for seg in first..=last {
                self.insert(seg);
            }
        }
    }

    /// Append `from..=last`, all past the largest member.
    #[inline]
    fn append(&mut self, from: u32, last: u32) {
        if from == last {
            self.segs.push(from);
        } else {
            self.segs.extend(from..last + 1);
        }
        self.next = last + 1;
    }

    /// Add one segment, keeping the largest last.
    fn insert(&mut self, seg: u32) {
        if seg >= self.next {
            self.append(seg, seg);
        } else if seg + 1 != self.next && !self.segs.contains(&seg) {
            let last = self.segs.len() - 1;
            let max = self.segs[last];
            self.segs[last] = seg;
            self.segs.push(max);
        }
    }

    fn clear(&mut self) {
        self.segs.clear();
        self.next = 0;
    }
}

impl WarpAccumulator {
    /// The segment set of `step`, marked live.
    #[inline]
    fn set(&mut self, step: usize) -> &mut SegmentSet {
        if self.steps.len() <= step {
            self.steps.resize_with(step + 1, SegmentSet::default);
        }
        self.used_steps = self.used_steps.max(step + 1);
        &mut self.steps[step]
    }

    #[inline]
    fn record_access(&mut self, step: usize, addr: usize, len: usize) {
        let (first, last) = segments(addr, len);
        self.set(step).insert_range(first, last);
    }

    fn record_branch(&mut self, step: usize, taken: bool) {
        if self.branches.len() <= step {
            self.branches.resize(step + 1, (taken, false));
        }
        if self.used_branches <= step {
            // First touch this warp: overwrite whatever a previous
            // warp left here (same semantics as the old `resize`
            // after `clear`).
            for slot in &mut self.branches[self.used_branches..=step] {
                *slot = (taken, false);
            }
            self.used_branches = step + 1;
        }
        let (first, diverged) = &mut self.branches[step];
        if *first != taken {
            *diverged = true;
        }
    }

    fn finish(&mut self, max_alu: u64) -> WarpCost {
        let live = &mut self.steps[..self.used_steps];
        let transactions: u64 = live.iter().map(|s| s.segs.len() as u64).sum();
        let chain = self.used_steps as u32;
        let divergent = self.branches[..self.used_branches]
            .iter()
            .filter(|(_, d)| *d)
            .count() as u64;
        // A divergent branch serializes both sides of the warp: charge
        // the warp's issue cost again for each divergent decision, the
        // standard lockstep-masking cost model (§2.1).
        let issue = max_alu * (1 + divergent);
        for set in live {
            set.clear(); // capacity retained
        }
        self.used_steps = 0;
        self.used_branches = 0;
        (transactions, chain, issue, divergent)
    }
}

/// Execute `kernel` over `threads` threads against `mem`, returning
/// aggregate stats for the timing model. Purely functional — virtual
/// time is computed separately from the returned stats.
///
/// Allocates fresh warp scratch; the engine's steady-state path is
/// `execute_with`, which reuses scratch across launches.
pub fn execute<K: Kernel + ?Sized>(
    kernel: &K,
    mem: &mut DeviceMemory,
    threads: u32,
) -> LaunchStats {
    execute_with(kernel, mem, threads, &mut WarpAccumulator::default())
}

/// [`execute`] with caller-owned warp scratch. [`crate::GpuEngine`]
/// holds one [`WarpAccumulator`] for its lifetime, so per-warp step
/// and branch buffers are allocated once at the high-water mark and
/// recycled for every subsequent launch.
///
/// Generic over the kernel so a concrete kernel's `thread` body
/// inlines into the lane loop; `&dyn Kernel` still works.
pub(crate) fn execute_with<K: Kernel + ?Sized>(
    kernel: &K,
    mem: &mut DeviceMemory,
    threads: u32,
    warp: &mut WarpAccumulator,
) -> LaunchStats {
    run_warps(kernel, mem, threads, warp, |_| {})
}

/// [`execute_with`], handing each warp's cost to `each` in warp order.
fn run_warps<K: Kernel + ?Sized>(
    kernel: &K,
    mem: &mut DeviceMemory,
    threads: u32,
    warp: &mut WarpAccumulator,
    mut each: impl FnMut(WarpCost),
) -> LaunchStats {
    let mut stats = LaunchStats {
        threads,
        warps: threads.div_ceil(WARP_SIZE),
        mem_transactions: 0,
        max_chain: 0,
        issue_cycles: 0,
        divergent_branches: 0,
    };
    let mut tid = 0;
    while tid < threads {
        let lanes = WARP_SIZE.min(threads - tid);
        let mut ctx = WarpCtx {
            mem: &mut *mem,
            acc: &mut *warp,
            max_alu: 0,
        };
        kernel.warp(tid, lanes, &mut ctx);
        let max_alu = ctx.max_alu;
        let cost = warp.finish(max_alu);
        each(cost);
        let (tx, chain, issue, div) = cost;
        stats.mem_transactions += tx;
        stats.max_chain = stats.max_chain.max(chain);
        stats.issue_cycles += issue;
        stats.divergent_branches += div;
        tid += lanes;
    }
    stats
}

/// The differential check for a [`Kernel::warp`] override: run the
/// launch through `thread` alone on a copy of `mem` and through
/// `warp` on `mem` itself, and report the first difference in
/// [`LaunchStats`], in one warp's `(transactions, chain, issue,
/// divergent)` — so errors that cancel across warps still fail — or
/// in device bytes. `mem` is left holding the launch's result, so the
/// next kernel of a pipeline can be checked on top.
pub fn warp_matches_threads<K: Kernel + ?Sized>(
    kernel: &K,
    mem: &mut DeviceMemory,
    threads: u32,
) -> Result<LaunchStats, String> {
    let mut reference = mem.clone();
    let (mut want_warps, mut got_warps) = (Vec::new(), Vec::new());
    let want = run_warps(
        &PerThread(kernel),
        &mut reference,
        threads,
        &mut WarpAccumulator::default(),
        |w| want_warps.push(w),
    );
    let got = run_warps(kernel, mem, threads, &mut WarpAccumulator::default(), |w| {
        got_warps.push(w)
    });
    let name = kernel.name();
    if got != want {
        return Err(format!("{name}: warp {got:?} != per-thread {want:?}"));
    }
    if let Some(i) = got_warps.iter().zip(&want_warps).position(|(a, b)| a != b) {
        let first = i as u32 * WARP_SIZE;
        return Err(format!(
            "{name}: warp {i} (threads {first}..{}): (transactions, chain, issue, divergent) {:?} != per-thread {:?}",
            (first + WARP_SIZE).min(threads),
            got_warps[i],
            want_warps[i]
        ));
    }
    match (mem.raw().iter().zip(reference.raw())).position(|(a, b)| a != b) {
        Some(at) => Err(format!("{name}: device byte {at} differs from per-thread")),
        None => Ok(got),
    }
}

/// Convert launch stats into the cost summary the timing model uses.
pub fn cost_of(stats: &LaunchStats) -> KernelCost {
    KernelCost {
        warps: stats.warps,
        issue_cycles: stats.issue_cycles,
        mem_transactions: stats.mem_transactions,
        max_chain: stats.max_chain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each thread reads 4 bytes at tid*4 from one buffer: perfectly
    /// coalesced — a warp's 32 reads fit in one 128 B segment.
    struct CoalescedRead {
        buf: DeviceBuffer,
    }

    impl Kernel for CoalescedRead {
        fn name(&self) -> &str {
            "coalesced-read"
        }
        fn thread(&self, tid: u32, ctx: &mut ThreadCtx<'_>) {
            let _ = ctx.read_u32(&self.buf, tid as usize * 4);
            ctx.alu(10);
        }
    }

    /// Each thread reads 4 bytes at tid*512: fully scattered — every
    /// lane in its own segment.
    struct ScatteredRead {
        buf: DeviceBuffer,
    }

    impl Kernel for ScatteredRead {
        fn name(&self) -> &str {
            "scattered-read"
        }
        fn thread(&self, tid: u32, ctx: &mut ThreadCtx<'_>) {
            let _ = ctx.read_u32(&self.buf, tid as usize * 512);
            ctx.alu(10);
        }
    }

    #[test]
    fn coalescing_collapses_warp_accesses() {
        let mut mem = DeviceMemory::new(1 << 20);
        let buf = mem.alloc(64 * 512 + 4);
        let co = execute(&CoalescedRead { buf }, &mut mem, 64);
        let sc = execute(&ScatteredRead { buf }, &mut mem, 64);
        assert_eq!(co.warps, 2);
        assert_eq!(co.mem_transactions, 2, "one segment per warp");
        assert_eq!(sc.mem_transactions, 64, "one segment per lane");
    }

    #[test]
    fn functional_results_are_real() {
        struct AddOne {
            src: DeviceBuffer,
            dst: DeviceBuffer,
        }
        impl Kernel for AddOne {
            fn name(&self) -> &str {
                "add-one"
            }
            fn thread(&self, tid: u32, ctx: &mut ThreadCtx<'_>) {
                let v = ctx.read_u32(&self.src, tid as usize * 4);
                ctx.write_u32(&self.dst, tid as usize * 4, v + 1);
            }
        }
        let mut mem = DeviceMemory::new(1 << 16);
        let src = mem.alloc(256);
        let dst = mem.alloc(256);
        for i in 0..64u32 {
            let off = i as usize * 4;
            let b = mem.slice_mut(&src);
            b[off..off + 4].copy_from_slice(&(i * 7).to_le_bytes());
        }
        execute(&AddOne { src, dst }, &mut mem, 64);
        for i in 0..64u32 {
            let off = i as usize * 4;
            let got = u32::from_le_bytes(mem.slice(&dst)[off..off + 4].try_into().unwrap());
            assert_eq!(got, i * 7 + 1);
        }
    }

    #[test]
    fn divergence_detected_and_charged() {
        struct Divergent;
        impl Kernel for Divergent {
            fn name(&self) -> &str {
                "divergent"
            }
            fn thread(&self, tid: u32, ctx: &mut ThreadCtx<'_>) {
                ctx.alu(100);
                ctx.branch(tid.is_multiple_of(2)); // alternate lanes disagree
            }
        }
        struct Uniform;
        impl Kernel for Uniform {
            fn name(&self) -> &str {
                "uniform"
            }
            fn thread(&self, _tid: u32, ctx: &mut ThreadCtx<'_>) {
                ctx.alu(100);
                ctx.branch(true);
            }
        }
        let mut mem = DeviceMemory::new(1024);
        let d = execute(&Divergent, &mut mem, 32);
        let u = execute(&Uniform, &mut mem, 32);
        assert_eq!(d.divergent_branches, 1);
        assert_eq!(u.divergent_branches, 0);
        assert_eq!(d.issue_cycles, 200, "divergent warp pays both sides");
        assert_eq!(u.issue_cycles, 100);
    }

    #[test]
    fn chain_depth_is_max_steps() {
        struct Chase {
            buf: DeviceBuffer,
            hops: usize,
        }
        impl Kernel for Chase {
            fn name(&self) -> &str {
                "chase"
            }
            fn thread(&self, tid: u32, ctx: &mut ThreadCtx<'_>) {
                let mut at = tid as usize * 4;
                for _ in 0..self.hops {
                    at = ctx.read_u32(&self.buf, at) as usize % 256;
                }
            }
        }
        let mut mem = DeviceMemory::new(4096);
        let buf = mem.alloc(512);
        let s = execute(&Chase { buf, hops: 7 }, &mut mem, 8);
        assert_eq!(s.max_chain, 7);
    }

    /// Reusing one accumulator across launches — including launches
    /// with *different* step and branch shapes — must yield exactly
    /// the stats a fresh accumulator yields. This is the contract
    /// that lets GpuEngine keep scratch for its whole lifetime.
    #[test]
    fn scratch_reuse_is_invisible() {
        struct Branchy {
            buf: DeviceBuffer,
        }
        impl Kernel for Branchy {
            fn name(&self) -> &str {
                "branchy"
            }
            fn thread(&self, tid: u32, ctx: &mut ThreadCtx<'_>) {
                ctx.alu(10);
                ctx.branch(tid.is_multiple_of(2));
                let _ = ctx.read_u32(&self.buf, tid as usize * 512);
            }
        }
        let mut mem = DeviceMemory::new(1 << 20);
        let buf = mem.alloc(64 * 512 + 4);
        let mut scratch = WarpAccumulator::default();
        // Deep kernel, then shallow, then branchy, then deep again:
        // stale state from a previous shape must never leak through.
        for _ in 0..2 {
            let fresh = execute(&ScatteredRead { buf }, &mut mem, 64);
            let reused = execute_with(&ScatteredRead { buf }, &mut mem, 64, &mut scratch);
            assert_eq!(fresh, reused, "scattered");
            let fresh = execute(&CoalescedRead { buf }, &mut mem, 64);
            let reused = execute_with(&CoalescedRead { buf }, &mut mem, 64, &mut scratch);
            assert_eq!(fresh, reused, "coalesced");
            let fresh = execute(&Branchy { buf }, &mut mem, 48);
            let reused = execute_with(&Branchy { buf }, &mut mem, 48, &mut scratch);
            assert_eq!(fresh, reused, "branchy");
        }
    }

    /// The monotone fast path is an optimisation of a set: lanes that
    /// walk memory downwards, revisit a segment or land between two
    /// seen ones must count each distinct segment once.
    #[test]
    fn segment_sets_ignore_lane_order() {
        struct Pattern {
            buf: DeviceBuffer,
            segs: &'static [usize],
        }
        impl Kernel for Pattern {
            fn name(&self) -> &str {
                "pattern"
            }
            fn thread(&self, tid: u32, ctx: &mut ThreadCtx<'_>) {
                let _ = ctx.read_u8(&self.buf, self.segs[tid as usize] * 128);
            }
        }
        let mut mem = DeviceMemory::new(1 << 12);
        let buf = mem.alloc(1 << 11);
        for (segs, distinct) in [
            (&[9, 7, 5, 3, 1][..], 5),
            (&[0, 4, 4, 2, 4, 0, 2][..], 3),
            (&[3, 3, 3][..], 1),
            (&[1, 5, 3, 5, 2, 8, 1][..], 5),
        ] {
            let s = execute(&Pattern { buf, segs }, &mut mem, segs.len() as u32);
            assert_eq!(s.mem_transactions, distinct, "{segs:?}");
        }
    }

    /// `warp_matches_threads` accepts a faithful bulk override and
    /// names what a wrong one got wrong: costs first, then bytes.
    #[test]
    fn warp_override_check_catches_cost_and_byte_drift() {
        /// Each thread increments its own byte; the override does the
        /// warp's bytes in one pass, optionally wrongly.
        struct Bump {
            buf: DeviceBuffer,
            skip_write_step: bool,
            skip_last_lane: bool,
        }
        impl Kernel for Bump {
            fn name(&self) -> &str {
                "bump"
            }
            fn thread(&self, tid: u32, ctx: &mut ThreadCtx<'_>) {
                let v = ctx.read_u8(&self.buf, tid as usize);
                ctx.alu(tid);
                ctx.write(&self.buf, tid as usize, &[v + 1]);
            }
            fn warp(&self, first_tid: u32, lanes: u32, ctx: &mut WarpCtx<'_>) {
                let (off, len) = (first_tid as usize, lanes as usize);
                ctx.touch(0, &self.buf, off, len);
                if !self.skip_write_step {
                    ctx.touch(1, &self.buf, off, len);
                }
                ctx.lane_alu(u64::from(first_tid + lanes - 1));
                let done = len - usize::from(self.skip_last_lane);
                for b in &mut ctx.bytes_mut(&self.buf, off, len)[..done] {
                    *b += 1;
                }
            }
        }
        let mut mem = DeviceMemory::new(1 << 10);
        let buf = mem.alloc(300);
        let bump = |skip_write_step, skip_last_lane| Bump {
            buf,
            skip_write_step,
            skip_last_lane,
        };
        let ok = warp_matches_threads(&bump(false, false), &mut mem, 70).expect("faithful");
        assert_eq!((ok.max_chain, ok.issue_cycles), (2, 31 + 63 + 69));
        assert!(mem.slice(&buf)[..70].iter().all(|&b| b == 1));
        let err = warp_matches_threads(&bump(true, false), &mut mem, 70).unwrap_err();
        assert!(err.contains("max_chain: 1"), "{err}");
        let err = warp_matches_threads(&bump(false, true), &mut mem, 70).unwrap_err();
        assert!(err.contains("device byte"), "{err}");
    }

    /// Errors that cancel across warps still fail the check: the first
    /// warp records one segment too many and the second one too few,
    /// so the launch totals agree.
    #[test]
    fn warp_override_check_compares_each_warp() {
        struct Offsetting {
            buf: DeviceBuffer,
        }
        impl Kernel for Offsetting {
            fn name(&self) -> &str {
                "offsetting"
            }
            fn thread(&self, tid: u32, ctx: &mut ThreadCtx<'_>) {
                let _ = ctx.read_u32(&self.buf, tid as usize * 512);
                ctx.alu(10);
            }
            fn warp(&self, first_tid: u32, lanes: u32, ctx: &mut WarpCtx<'_>) {
                let mut end = first_tid + lanes;
                if first_tid == 0 {
                    ctx.touch(0, &self.buf, end as usize * 512, 4);
                } else {
                    end -= 1;
                }
                for tid in first_tid..end {
                    ctx.touch(0, &self.buf, tid as usize * 512, 4);
                }
                ctx.lane_alu(10);
            }
        }
        let mut mem = DeviceMemory::new(1 << 16);
        let buf = mem.alloc(64 * 512 + 4);
        let k = Offsetting { buf };
        assert_eq!(
            execute(&k, &mut mem, 64),
            execute(&PerThread(&k), &mut mem, 64)
        );
        let err = warp_matches_threads(&k, &mut mem, 64).unwrap_err();
        assert!(err.contains("warp 0 (threads 0..32)"), "{err}");
        assert!(
            err.contains("(33, 1, 10, 0) != per-thread (32, 1, 10, 0)"),
            "{err}"
        );
    }

    /// A segment set holds exactly the segments of the ranges put in
    /// it, whichever path each insertion takes — append, overlap with
    /// the largest member, or scan — with its largest member last.
    #[test]
    fn segment_sets_match_a_plain_set() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let mut set = SegmentSet::default();
        for _ in 0..2_000 {
            set.clear();
            let mut want = std::collections::BTreeSet::new();
            let upward = draw(2) == 0;
            let mut at = 0;
            for _ in 0..draw(40) {
                let first = if upward { at + draw(3) } else { draw(30) } as u32;
                let last = first + draw(4) as u32;
                at = u64::from(last);
                set.insert_range(first, last);
                want.extend(first..=last);
                let mut got = set.segs.clone();
                assert_eq!(got.last().copied(), want.last().copied(), "largest last");
                assert_eq!(set.next, want.last().map_or(0, |m| m + 1));
                got.sort_unstable();
                assert_eq!(got, want.iter().copied().collect::<Vec<_>>());
            }
        }
    }

    /// The last byte of the largest device memory lies in a segment
    /// whose successor id still fits a `u32`, so appending it cannot
    /// wrap `next`; one byte more is refused before any allocation.
    #[test]
    fn largest_device_segment_appends_without_wrapping() {
        let (first, last) = segments(crate::device::MAX_DEVICE_BYTES - 1, 1);
        assert_eq!((first, last), (u32::MAX - 1, u32::MAX - 1));
        let mut set = SegmentSet::default();
        set.insert_range(first - 2, last);
        set.insert_range(first, last);
        assert_eq!(set.segs, [first - 2, first - 1, first]);
        assert_eq!(set.next, u32::MAX);
    }

    #[test]
    #[should_panic(expected = "device memory over")]
    fn oversized_device_memory_is_refused() {
        DeviceMemory::new(crate::device::MAX_DEVICE_BYTES + 1);
    }

    /// [`WarpCtx::touch_each`] and one [`WarpCtx::touch`] per lane
    /// count what per-lane reads count, in any lane order: ascending
    /// single segments (the append path), accesses straddling two
    /// segments, descending lanes, repeats and lanes landing between
    /// earlier ones.
    #[test]
    fn bulk_touches_match_per_lane_reads() {
        /// Lane `tid` reads 24 B at `offs[tid]` twice, then 24 B at
        /// `offs[tid] + 40`; `each` picks how the override records it.
        struct Lanes {
            buf: DeviceBuffer,
            offs: Vec<usize>,
            each: bool,
        }
        impl Kernel for Lanes {
            fn name(&self) -> &str {
                "lanes"
            }
            fn thread(&self, tid: u32, ctx: &mut ThreadCtx<'_>) {
                let off = self.offs[tid as usize];
                let _ = ctx.read::<24>(&self.buf, off);
                let _ = ctx.read::<24>(&self.buf, off);
                let _ = ctx.read::<24>(&self.buf, off + 40);
            }
            fn warp(&self, first_tid: u32, lanes: u32, ctx: &mut WarpCtx<'_>) {
                let offs = &self.offs[first_tid as usize..(first_tid + lanes) as usize];
                if self.each {
                    for step in 0..2 {
                        ctx.touch_each(step, &self.buf, offs.iter().map(|&o| (o, 24)));
                    }
                    ctx.touch_each(2, &self.buf, offs.iter().map(|&o| (o + 40, 24)));
                } else {
                    for &o in offs {
                        ctx.touch(0, &self.buf, o, 24);
                        ctx.touch(1, &self.buf, o, 24);
                        ctx.touch(2, &self.buf, o + 40, 24);
                    }
                }
            }
        }
        let mut mem = DeviceMemory::new(1 << 16);
        let buf = mem.alloc(1 << 15);
        let patterns: [Vec<usize>; 5] = [
            (0..40).map(|i| i * 128).collect(),
            (0..40).map(|i| i * 128 + 120).collect(),
            (0..40).rev().map(|i| i * 256).collect(),
            (0..40).map(|i| i / 3 * 64).collect(),
            (0..40).map(|i| (i * 7919) % 40 * 200).collect(),
        ];
        for offs in patterns {
            for each in [true, false] {
                let k = Lanes {
                    buf,
                    offs: offs.clone(),
                    each,
                };
                if let Err(e) = warp_matches_threads(&k, &mut mem, 40) {
                    panic!("touch_each {each}, offsets {offs:?}: {e}");
                }
            }
        }
    }

    #[test]
    fn partial_last_warp() {
        let mut mem = DeviceMemory::new(1 << 16);
        let buf = mem.alloc(4096);
        let s = execute(&CoalescedRead { buf }, &mut mem, 33);
        assert_eq!(s.warps, 2);
        assert_eq!(s.threads, 33);
    }

    #[test]
    fn straddling_access_counts_both_segments() {
        struct Straddle {
            buf: DeviceBuffer,
        }
        impl Kernel for Straddle {
            fn name(&self) -> &str {
                "straddle"
            }
            fn thread(&self, _tid: u32, ctx: &mut ThreadCtx<'_>) {
                let _ = ctx.read::<8>(&self.buf, 124); // crosses a 128B boundary
            }
        }
        let mut mem = DeviceMemory::new(4096);
        let buf = mem.alloc(256);
        let s = execute(&Straddle { buf }, &mut mem, 1);
        assert_eq!(s.mem_transactions, 2);
    }
}
