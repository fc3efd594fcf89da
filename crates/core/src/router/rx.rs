//! The admission side of the data plane: generator arrivals, NIC/IOH
//! RX admission (descriptor starvation, link faults, wire
//! corruption), RX DMA completion and the interrupt that hands a
//! frame to its RSS-selected worker (§4.4–§4.6, §5.2).

use ps_fault::NicFault;
use ps_hw::ioh::Direction;
use ps_hw::numa::Placement;
use ps_io::{dma_bytes, Packet};
use ps_nic::port::PortId;
use ps_pktgen::LoadMode;
use ps_sim::time::Time;
use ps_sim::{Scheduler, MICROS};
use ps_trace::Category;

use crate::app::App;

use super::{Due, Ev, Router};

/// Interrupt delivery latency once fired.
const INT_LATENCY: Time = 2 * MICROS;
/// RX DMA admission horizon: when the IOH's device->host backlog
/// exceeds this, the NIC has run out of posted descriptors and drops
/// in its internal FIFO *before* spending any DMA bandwidth.
const RX_ADMIT_BACKLOG: Time = 20 * MICROS;

impl<A: App> Router<A> {
    /// RSS: pick the worker for a flow hash (§4.4 flow affinity; §4.5
    /// same-node restriction under NUMA-aware placement).
    fn worker_for_hash(&self, hash: u32, in_port: PortId) -> usize {
        match self.cfg.io.placement {
            Placement::NumaAware => {
                let w = self.cfg.workers_per_node;
                self.node_of_port(in_port) * w + hash as usize % w
            }
            Placement::NumaBlind => hash as usize % self.cfg.total_workers(),
        }
    }

    /// The generator's next packet reaches its NIC port: admit or drop
    /// it (hosted packets only), then queue the arrival after it until
    /// the generation window ends.
    pub(super) fn on_arrival(&mut self, sched: &mut Scheduler<Ev>) {
        // The input port rotates deterministically, so hosting is
        // decided from a free peek — an unhosted packet's metadata
        // (and, with keyed flows, its tuple draw) is never built.
        let node = self.node_of_port(self.gen.peek_port());
        if self.hosted(node) {
            self.admit(sched, node);
        } else {
            // Another shard simulates this packet; every shard replays
            // the same generator pacing so skipping it here touches
            // nothing — the hosted subset evolves packet-for-packet like
            // the sequential run.
            self.gen.skip_meta();
        }
        let next = self.gen.next_time();
        if next < self.stop_at {
            self.due
                .push(sched, Self::ARRIVALS, next, Due::Arrival, Due::event);
        }
    }

    /// NIC admission of one hosted packet: closed-loop throttle, RX
    /// wire, injected faults, descriptor starvation, and for admitted
    /// frames the RX DMA whose completion lands in a worker's ring.
    fn admit(&mut self, sched: &mut Scheduler<Ev>, node: usize) {
        let meta = self.gen.next_meta();
        debug_assert!(meta.t >= sched.now());
        if meta.t >= self.measure_from {
            self.stats.offered.add(meta.len as u64);
        }

        // Closed-loop source throttle: the target RX ring reports its
        // occupancy upward; at or above the watermark the source
        // consumes the paced slot but drops at the generator — the
        // frame is never built and touches neither the wire nor the
        // fabric. Ring state at this instant is deterministic (every
        // earlier event and completion has run), and for hosted
        // packets it is shard-local, so the verdict is identical at
        // every shard count.
        if let LoadMode::ClosedLoop { high_watermark } = self.gen.spec().load {
            let w = self.worker_for_hash(meta.rss_hash(), meta.port);
            if self.workers[w].ring.len() >= high_watermark as usize {
                self.stats.drops.backpressure += 1;
                return;
            }
        }

        // Wire serialization into the NIC, then RX DMA through the
        // node's IOH into the huge packet buffer. The frame itself is
        // built only if the NIC admits it.
        let port = &mut self.ports[meta.port.0 as usize];
        let wire_done = port.rx_arrival(meta.t, meta.len);
        // Injected NIC faults (link-flap windows, starvation bursts)
        // kill the frame at the MAC before the admission check; they
        // consume RX wire time like any arrival but no fabric
        // bandwidth.
        let faulted = match self.plan.as_mut() {
            Some(plan) => {
                if !port.link_up(wire_done) {
                    plan.note_flap_drop(meta.port.0);
                    true
                } else {
                    match plan.nic_fault(meta.port.0, wire_done) {
                        Some(NicFault::LinkFlap { down_ns }) => {
                            port.set_link_down(wire_done + down_ns);
                            true
                        }
                        Some(NicFault::Starve) => true,
                        None => false,
                    }
                }
            }
            None => false,
        };
        // Descriptor starvation: drop in the NIC before the DMA if the
        // IOH's inbound backlog is past the posted-descriptor horizon
        // (dropped frames must not consume fabric bandwidth).
        if faulted
            || self.nodes[node]
                .ioh
                .backlog(wire_done, Direction::DeviceToHost)
                > RX_ADMIT_BACKLOG
        {
            // Injected faults and descriptor starvation are separate
            // ledger causes, so fault invariants stay decomposable.
            if faulted {
                self.stats.drops.nic_fault += 1;
            } else {
                self.stats.drops.nic_admission += 1;
            }
            return;
        }

        let len = meta.len;
        let mut dma_done =
            self.nodes[node]
                .ioh
                .dma(wire_done, Direction::DeviceToHost, dma_bytes(len));
        let mut crossed = false;
        if self.cfg.io.placement == Placement::NumaBlind && self.cfg.nodes > 1 {
            // Blind placement: ~3/4 of packets touch a remote
            // structure (blind RSS x blind buffer allocation, see
            // `Placement::remote_fraction`), so their DMA crosses the
            // other IOH too.
            if !meta.id.is_multiple_of(4) {
                let other = (node + 1) % self.cfg.nodes;
                let mirrored =
                    self.nodes[other]
                        .ioh
                        .dma(wire_done, Direction::DeviceToHost, dma_bytes(len));
                dma_done = dma_done.max(mirrored);
                crossed = true;
            }
        }
        // The NIC hashes the tuple it is already holding; parsing it
        // back out of the frame bytes would give the same value
        // (pinned by `meta_hash_matches_frame_parse`).
        let hash = meta.rss_hash();
        let worker = self.worker_for_hash(hash, meta.port);
        let buf = self.free_bufs.pop().unwrap_or_default();
        let mut p = self.gen.materialize_into(&meta, buf);
        p.arrival = dma_done;
        // Priority classification: a pure function of the RSS hash,
        // so the lane a flow takes is identical on every shard.
        let prio = self.cfg.latency.is_priority(hash);
        p.priority = prio;
        // On-the-wire corruption: the frame was admitted and DMA'd,
        // but its bytes arrive damaged. The flag lets every later
        // drop or delivery settle against the fault ledger.
        if let Some(plan) = self.plan.as_mut() {
            if plan
                .corrupt_frame(meta.port.0, wire_done, &mut p.data)
                .is_some()
            {
                p.corrupted = true;
            }
        }
        let done = Due::Rx { worker, pkt: p };
        if crossed {
            // A node's crossing packets finish at the max of *two*
            // IOH horizons while its local-only packets track one, so
            // the interleaved per-node stream is not monotone.
            self.due.push_unordered(sched, dma_done, done, Due::event);
        } else {
            let lane = Self::rx_lane(node, prio);
            self.due.push(sched, lane, dma_done, done, Due::event);
        }
    }

    /// An RX DMA completed: the frame lands in its worker's ring (or is
    /// tail-dropped), and an idle worker gets its interrupt.
    pub(super) fn on_rx_done(&mut self, sched: &mut Scheduler<Ev>, worker: usize, pkt: Packet) {
        let now = sched.now();
        let prio = pkt.priority;
        let ws = &mut self.workers[worker];
        let ring = if prio {
            &mut ws.prio_ring
        } else {
            &mut ws.ring
        };
        if let Err(p) = ring.push(pkt) {
            self.stats.drops.ring_tail += 1;
            self.retire(p);
            return;
        }
        let name = if prio {
            "prio_ring_depth"
        } else {
            "ring_depth"
        };
        let depth = ring.len();
        ps_trace::counter(Category::Io, name, worker as u32, now, depth as u64);
        if ws.idle {
            // Fire the RX interrupt. Moderation holds the wake back to
            // one interrupt per moderation window — the throughput
            // regime. Priority arrivals always fire eagerly; adaptive
            // mode also fires eagerly while the queue is shallow (the
            // latency regime) and falls back to moderation once depth
            // reaches the bulk batch cap, where batching amortizes
            // the per-wake overhead anyway.
            let moderation = self.cfg.testbed.nic.interrupt_moderation_ns;
            let eager =
                prio || (self.cfg.latency.adaptive_batch && ws.ring.len() < self.cfg.io.batch_cap);
            ws.idle = false;
            let t = if eager {
                now + INT_LATENCY
            } else {
                (now + INT_LATENCY).max(ws.last_int + moderation)
            };
            ws.last_int = t;
            self.wake_worker(sched, worker, t);
        }
    }
}
