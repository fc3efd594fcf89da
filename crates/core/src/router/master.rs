//! The master loop (§5.3): gather worker chunks into one batch,
//! shade it on the node's GPU (or fall back to the CPU under injected
//! faults), and scatter the results back to per-worker output queues.

use ps_fault::ShadeFault;
use ps_hw::ioh::Direction;
use ps_sim::time::Time;
use ps_sim::{Scheduler, MICROS};

use crate::app::App;

use super::node::NodeShard;
use super::{Ev, Router};

/// Master orchestration cycles per gathered chunk (it "transfers the
/// input data ... without touching the data itself", §5.3).
const MASTER_CYCLES_PER_CHUNK: u64 = 300;
/// Driver timeout before the host notices a dead or escalated GPU
/// batch and starts the CPU fallback.
const FAULT_DETECT_NS: Time = 10 * MICROS;

impl<A: App> Router<A> {
    /// Trace lane for node `node`'s master gather work: masters get
    /// the lanes just above the workers so every thread in the machine
    /// has its own row in the timeline.
    fn gather_lane(&self, node: usize) -> u32 {
        (self.cfg.total_workers() + node) as u32
    }

    /// Trace lane for node `node`'s shading intervals. Kept separate
    /// from the gather lane because in stream mode the next gather
    /// overlaps the previous shade; per-lane stage spans stay disjoint
    /// so busy-time accounting can sum them.
    fn shade_lane(&self, node: usize) -> u32 {
        (self.cfg.total_workers() + self.cfg.nodes + node) as u32
    }

    /// Every wake-up due now, in order: one that finds the master busy
    /// moves to `busy_until`, one that finds it free with no input is
    /// spent, and any other gathers and shades once (after which the
    /// master is busy again).
    pub(super) fn on_master_loop(&mut self, sched: &mut Scheduler<Ev>, node: usize) {
        let wake = || Ev::MasterLoop { node };
        loop {
            let ms = self.master_mut(node);
            let (busy_until, idle) = (ms.busy_until, ms.input.is_empty());
            if !ms.wakes.fire(sched, busy_until, idle, wake) {
                return;
            }
            self.shade_once(sched, node);
        }
    }

    /// Gather what is queued, shade it, scatter the results.
    fn shade_once(&mut self, sched: &mut Scheduler<Ev>, node: usize) {
        let now = sched.now();
        // Gather pending chunks (Figure 10(b)); without gather, take
        // exactly one.
        let take = if self.cfg.gather {
            self.cfg
                .max_gather_chunks
                .min(self.master_mut(node).input.len())
        } else {
            1
        };
        // The packets move into one batch; each chunk keeps its (now
        // empty) vector and its length, and takes its share back in
        // the scatter. `all` and `splits` are the master's own scratch,
        // reused from gather to gather.
        let ms = self.master_mut(node);
        let mut all = std::mem::take(&mut ms.all);
        let mut splits = std::mem::take(&mut ms.splits);
        for mut c in ms.input.drain(..take) {
            let len = c.len();
            all.append(&mut c.packets);
            splits.push((c, len));
        }

        let ready = now + self.cycles_ns(MASTER_CYCLES_PER_CHUNK * take as u64);
        self.stats.shade_batches += 1;
        self.stats.shade_packets += all.len() as u64;
        let n = all.len() as u64;
        ps_trace::complete(
            ps_trace::Category::Stage,
            "gather",
            self.gather_lane(node),
            now,
            ready,
            || vec![("chunks", take as u64), ("pkts", n)],
        );
        // Injected shading faults: a PCIe stall pushes the batch (and
        // the node's fabric) back by its retry backoff; an abort or an
        // exhausted retry budget sends the whole batch down the CPU
        // fallback; a straggler stretches the launch.
        let mut start = ready;
        let mut fallback = false;
        let mut straggle_pct = 0u32;
        if let Some(plan) = self.plan.as_mut() {
            match plan.shade_fault(node, ready) {
                ShadeFault::None => {}
                ShadeFault::PcieStall { stall_ns, escalate } => {
                    self.nodes[node]
                        .ioh
                        .inject_stall(ready, Direction::HostToDevice, stall_ns);
                    start = ready + stall_ns;
                    fallback = escalate;
                }
                ShadeFault::GpuAbort => {
                    fallback = true;
                    // A device context reset loses any state the app
                    // keeps synchronized on this node's GPU (a
                    // stateful NF's flow table); let it reconcile
                    // before the CPU fallback re-runs the batch.
                    self.app.on_gpu_fault(node);
                }
                ShadeFault::Straggle { extra_pct } => straggle_pct = extra_pct,
            }
        }

        let shade_lane = self.shade_lane(node);
        let (done, busy_until) = if fallback {
            // The GPU batch is lost: after the driver timeout the
            // master re-runs the kernel functionally on the host at
            // the calibrated CPU cost. `process_cpu` may *remove*
            // packets the shader would only have unmarked, so the
            // scatter walks survivors against each split's original
            // id range (order is preserved).
            let ids: Vec<u64> = all.iter().map(|p| p.id).collect();
            let corrupt_before = all.iter().filter(|p| p.corrupted).count() as u64;
            let cycles = self.app.process_cpu(&mut all);
            let done = start + FAULT_DETECT_NS + self.cycles_ns(cycles);
            if let Some(plan) = self.plan.as_mut() {
                plan.note_cpu_fallback(ids.len() as u64);
                let after = all.iter().filter(|p| p.corrupted).count() as u64;
                plan.note_corrupt_dropped(corrupt_before - after);
            }
            self.stats.app_drops += (ids.len() - all.len()) as u64;
            ps_trace::complete(
                ps_trace::Category::Stage,
                "cpu_fallback",
                shade_lane,
                start,
                done,
                || vec![("pkts", n)],
            );
            let mut j = 0usize; // cursor into the original id sequence
            let mut s = 0usize; // current split
            let mut bound = splits[0].1;
            for p in all.drain(..) {
                while ids[j] != p.id {
                    j += 1;
                }
                while j >= bound {
                    s += 1;
                    bound += splits[s].1;
                }
                splits[s].0.packets.push(p);
                j += 1;
            }
            // The master itself did the fallback work: it blocks
            // until the batch is done regardless of stream mode.
            (done, done)
        } else {
            let NodeShard { ioh, gpu, .. } = &mut self.nodes[node];
            let gpu = gpu.as_mut().expect("CpuGpu mode has a GPU per node");
            let done = self.app.shade(node, gpu, ioh, start, &mut all);
            let done = if straggle_pct > 0 {
                let extra = (done - start) * u64::from(straggle_pct) / 100;
                // The straggling warp occupies the engines past the
                // modeled completion, queueing the next launch too.
                gpu.delay_engines(extra);
                if let Some(plan) = self.plan.as_mut() {
                    plan.note_straggle_ns(extra);
                }
                done + extra
            } else {
                done
            };
            ps_trace::complete(
                ps_trace::Category::Stage,
                "shade",
                shade_lane,
                start,
                done,
                || vec![("pkts", n)],
            );

            // Scatter the results back, moving the packets out of the
            // gathered batch into the vectors they came in — no
            // per-packet clones of the frame data, no new vectors.
            let mut rest = all.drain(..);
            for (chunk, len) in &mut splits {
                chunk.packets.extend(rest.by_ref().take(*len));
            }
            drop(rest);

            // With streams the master pipelines the next gather behind
            // this one as soon as this gather's uploads are queued;
            // without streams it blocks until the results are back.
            let busy_until = if self.cfg.concurrent_copy {
                start.max(gpu.next_copy_slot())
            } else {
                done
            };
            (done, busy_until)
        };
        // Hand each chunk to its worker's output queue.
        for (chunk, _) in splits.drain(..) {
            let worker = chunk.worker;
            self.worker_mut(worker).done_queue.push_back((done, chunk));
            self.wake_worker(sched, worker, done);
        }
        let ms = self.master_mut(node);
        ms.busy_until = busy_until;
        ms.all = all;
        ms.splits = splits;
        if !ms.input.is_empty() {
            self.wake_master(sched, node, busy_until);
        }
    }
}
