//! The router's event enum, the worker-side handlers (fetch,
//! pre-shade, CPU process, post-shade, TX serialization), the settling
//! of arrivals and completions, the event dispatch [`Model`] impl, and
//! the RSS hash.
//!
//! Handlers address workers, rings and ports by the same global ids
//! the events carry; the [`super::Router`] accessors map those onto
//! the per-NUMA-domain [`super::node::NodeShard`]s. The only
//! cross-domain interactions are (a) a worker transmitting out a
//! remote node's port, which [`Ev::CrossArrive`] reifies when the QPI
//! hop is priced, and (b) NUMA-blind DMA mirroring. The admission
//! side (generator, NIC RX, interrupts) lives in `rx`; the master's
//! gather/shade/scatter in `master`.

use ps_hw::ioh::Direction;
use ps_hw::numa::Placement;
use ps_io::{dma_bytes, Packet};
use ps_net::ethernet::{EtherType, EthernetFrame};
use ps_net::ipv4::Ipv4Packet;
use ps_net::ipv6::Ipv6Packet;
use ps_net::tcp::TcpSegment;
use ps_net::udp::UdpDatagram;
use ps_nic::rss::{toeplitz_hash, MSFT_KEY};
use ps_sim::time::Time;
use ps_sim::{Model, Scheduler};

use crate::app::App;
use crate::chunk::Chunk;
use crate::config::Mode;

use super::Router;

/// Chunks a CPU+GPU worker may have in flight at the master (§5.4
/// pipelining).
const PIPELINE_DEPTH: usize = 8;
/// Chunk size below which opportunistic offloading (§7) keeps a
/// chunk on the CPU.
const OPPORTUNISTIC_THRESHOLD: usize = 16;
/// Fetch cap for the priority lane: deliberately small so priority
/// packets never wait behind a bulk-sized batch.
const PRIORITY_CAP: usize = 8;
/// Floor of the adaptive fetch cap.
const MIN_BATCH: usize = 4;
/// Ring depth per unit of adaptive cap: `cap = depth / DEPTH_PER_CAP`,
/// clamped to `[MIN_BATCH, io.batch_cap]`.
const DEPTH_PER_CAP: usize = 4;

/// Router events.
///
/// `Gen`, `RxReady` and `TxDone` all start a run of the router's
/// pending arrivals and completions (a [`ps_sim::Completions`] set),
/// named after the item that is due first: the run then settles every
/// item, of any kind, that comes before the next other event and the
/// horizon of the `run_until` in progress.
#[derive(Debug)]
pub enum Ev {
    /// The generator's next packet is due (also the event that starts
    /// a run: `schedule(0, Ev::Gen)`).
    Gen,
    /// An RX DMA completion is due: the frame lands in a worker's ring.
    RxReady,
    /// A worker thread continues its loop.
    WorkerLoop {
        /// Global worker id.
        worker: usize,
    },
    /// A master thread checks its input queue.
    MasterLoop {
        /// NUMA node of the master.
        node: usize,
    },
    /// A TX wire completion is due: a frame finished serializing.
    TxDone,
    /// A processed packet arrived at a *remote* node for TX: it
    /// crossed the QPI (paying `qpi_hop_ns`) and now starts its TX
    /// DMA on the destination node's IOH.
    CrossArrive {
        /// Destination NUMA node (owner of the out port).
        node: usize,
        /// The crossing frame.
        pkt: Box<Packet>,
    },
}

/// What the router's completion set holds, in key order.
pub(super) enum Due {
    /// The generator's next packet reaches its NIC port.
    Arrival,
    /// A frame's RX DMA completed.
    Rx {
        /// Global worker id the RSS hash selected.
        worker: usize,
        /// The received frame.
        pkt: Packet,
    },
    /// A frame finished serializing onto the wire.
    Tx(Packet),
}

impl Due {
    /// The event that starts a run with this item due first.
    pub(super) fn event(&self) -> Ev {
        match self {
            Due::Arrival => Ev::Gen,
            Due::Rx { .. } => Ev::RxReady,
            Due::Tx(_) => Ev::TxDone,
        }
    }
}

impl<A: App> Router<A> {
    pub(super) fn cycles_ns(&self, cycles: u64) -> Time {
        ps_sim::time::cycles_to_ns(cycles, self.cfg.testbed.cpu.hz)
    }

    pub(super) fn wake_worker(&mut self, sched: &mut Scheduler<Ev>, w: usize, t: Time) {
        let t = t.max(sched.now());
        let ws = self.worker_mut(w);
        if let Some(pending) = ws.next_wake {
            if pending <= t {
                return;
            }
        }
        ws.next_wake = Some(t);
        sched.at(t, Ev::WorkerLoop { worker: w });
    }

    /// Wake node `node`'s master at `t`, unless its latest wake-up
    /// request is for `t` or earlier and no wake-up has run since.
    pub(super) fn wake_master(&mut self, sched: &mut Scheduler<Ev>, node: usize, t: Time) {
        self.master_mut(node)
            .wakes
            .arm(sched, t, || Ev::MasterLoop { node });
    }

    fn on_worker_loop(&mut self, sched: &mut Scheduler<Ev>, w: usize) {
        let now = sched.now();
        self.worker_mut(w).next_wake = None;
        if self.worker(w).busy_until > now {
            let t = self.worker(w).busy_until;
            self.wake_worker(sched, w, t);
            return;
        }

        // 1. Completed shading output? Post-shade + transmit.
        if let Some(&(ready, _)) = self.worker(w).done_queue.front() {
            if ready <= now {
                let ws = self.worker_mut(w);
                let (_, chunk) = ws.done_queue.pop_front().expect("front exists");
                ws.outstanding -= 1;
                self.finish_chunk(sched, w, chunk, true);
                return;
            }
        }

        // 2. Fetch a new chunk if the pipeline has room. The priority
        // ring is strictly first and fetched with its own small cap,
        // so latency-critical packets never wait behind a bulk batch.
        let can_fetch = match self.cfg.mode {
            Mode::CpuOnly => true,
            Mode::CpuGpu => self.worker(w).outstanding < PIPELINE_DEPTH,
        };
        let fetch_prio = can_fetch && !self.prio_ring(w).is_empty();
        if fetch_prio || (can_fetch && !self.ring(w).is_empty()) {
            let mut pkts = self.free_batches.pop().unwrap_or_default();
            if fetch_prio {
                self.prio_ring_mut(w)
                    .pop_batch_into(&mut pkts, PRIORITY_CAP);
                ps_io::trace::trace_prio_ring_depth(w as u32, now, self.prio_ring(w).len() as u64);
            } else {
                let cap = self.effective_batch_cap(w);
                if self.cfg.latency.adaptive_batch {
                    ps_io::trace::trace_batch_cap(w as u32, now, cap as u64);
                }
                self.ring_mut(w).pop_batch_into(&mut pkts, cap);
                ps_io::trace::trace_ring_depth(w as u32, now, self.ring(w).len() as u64);
            }
            self.stats.rx_batches += 1;
            self.stats.rx_packets += pkts.len() as u64;
            let n = pkts.len() as u64;
            let bytes: u64 = pkts.iter().map(|p| p.len() as u64).sum();
            let rx_cycles = self.cost.rx_batch_cycles(n, bytes, self.cfg.io.placement);
            let corrupt_before = match &self.plan {
                Some(_) => pkts.iter().filter(|p| p.corrupted).count() as u64,
                None => 0,
            };
            let pre = self.app.pre_shade(&mut pkts);
            if let Some(plan) = self.plan.as_mut() {
                // Corrupted frames the pre-shader rejected (malformed,
                // bad checksum) or diverted off the fast path settle
                // as counted drops.
                let after = pkts.iter().filter(|p| p.corrupted).count() as u64;
                plan.note_corrupt_dropped(corrupt_before - after);
            }
            self.stats.app_drops += pre.dropped;
            self.stats.slow_path += pre.slow_path;
            let t1 = now + self.cycles_ns(rx_cycles + pre.cycles);
            self.worker_mut(w).busy_until = t1;
            // One span for the fused RX-fetch + pre-shade interval:
            // the model charges them as a single cycle budget, and
            // splitting the ns conversion would round differently.
            ps_io::trace::trace_rx_batch(w as u32, now, t1, n, bytes);
            ps_trace::complete(
                ps_trace::Category::Stage,
                "pre_shade",
                w as u32,
                now,
                t1,
                || {
                    vec![
                        ("pkts", n),
                        ("bytes", bytes),
                        ("dropped", pre.dropped),
                        ("slow_path", pre.slow_path),
                    ]
                },
            );

            if pkts.is_empty() {
                self.reclaim_batch(pkts);
                self.wake_worker(sched, w, t1);
                return;
            }

            let use_cpu = match self.cfg.mode {
                Mode::CpuOnly => true,
                // Priority chunks bypass the GPU pipeline entirely:
                // gather/shade/scatter buys throughput with latency,
                // which is the wrong trade for the priority lane.
                Mode::CpuGpu => {
                    fetch_prio || (self.cfg.opportunistic && pkts.len() < OPPORTUNISTIC_THRESHOLD)
                }
            };
            if use_cpu {
                let corrupt_before = match &self.plan {
                    Some(_) => pkts.iter().filter(|p| p.corrupted).count() as u64,
                    None => 0,
                };
                let cycles = self.app.process_cpu(&mut pkts);
                if let Some(plan) = self.plan.as_mut() {
                    let after = pkts.iter().filter(|p| p.corrupted).count() as u64;
                    plan.note_corrupt_dropped(corrupt_before - after);
                }
                let t2 = t1 + self.cycles_ns(cycles);
                self.worker_mut(w).busy_until = t2;
                let n = pkts.len() as u64;
                ps_trace::complete(
                    ps_trace::Category::Stage,
                    "cpu_process",
                    w as u32,
                    t1,
                    t2,
                    || vec![("pkts", n)],
                );
                let chunk = Chunk::new(w, pkts);
                // Transmit as soon as processing ends.
                let ws = self.worker_mut(w);
                ws.done_queue.push_back((t2, chunk));
                ws.outstanding += 1;
                self.wake_worker(sched, w, t2);
            } else {
                let node = self.worker_node(w);
                let chunk = Chunk::new(w, pkts);
                self.worker_mut(w).outstanding += 1;
                self.master_mut(node).input.push_back(chunk);
                self.wake_master(sched, node, t1);
                self.wake_worker(sched, w, t1);
            }
            return;
        }

        // 3. Output pending but not ready: sleep until it is.
        if let Some(&(ready, _)) = self.worker(w).done_queue.front() {
            self.wake_worker(sched, w, ready);
            return;
        }

        // 4. Nothing to do: arm the interrupt (§5.2).
        if self.ring(w).is_empty() && self.prio_ring(w).is_empty() {
            self.worker_mut(w).idle = true;
        } else {
            // Pipeline full; the master's scatter will wake us.
        }
    }

    /// The RX fetch cap for this fetch: the configured cap, or — in
    /// adaptive mode — scaled with the ring's current depth so
    /// shallow queues take small, low-latency batches while deep
    /// queues grow back to the paper's 64-packet cap (§4.3's "the
    /// chunk size is not fixed but only capped", made load-aware).
    fn effective_batch_cap(&self, w: usize) -> usize {
        let lat = &self.cfg.latency;
        if !lat.adaptive_batch {
            return self.cfg.io.batch_cap;
        }
        let cap = self.cfg.io.batch_cap;
        (self.ring(w).len() / DEPTH_PER_CAP).clamp(MIN_BATCH.min(cap), cap)
    }

    /// Post-shade + TX a finished chunk on worker `w`.
    fn finish_chunk(&mut self, sched: &mut Scheduler<Ev>, w: usize, chunk: Chunk, charge: bool) {
        let now = sched.now();
        let mut pkts = chunk.packets;
        // Application may have cleared out_port for drops.
        let before = pkts.len();
        if self.plan.is_some() {
            let dead = pkts
                .iter()
                .filter(|p| p.corrupted && p.out_port.is_none())
                .count() as u64;
            if let Some(plan) = self.plan.as_mut() {
                plan.note_corrupt_dropped(dead);
            }
        }
        pkts.retain(|p| p.out_port.is_some());
        self.stats.app_drops += (before - pkts.len()) as u64;

        let bytes: u64 = pkts.iter().map(|p| p.len() as u64).sum();
        let cycles = if charge {
            self.app.post_shade_cycles(pkts.len())
                + self
                    .cost
                    .tx_batch_cycles(pkts.len() as u64, bytes, self.cfg.io.placement)
        } else {
            0
        };
        let t2 = now + self.cycles_ns(cycles);
        self.worker_mut(w).busy_until = t2;
        if charge {
            let n = pkts.len() as u64;
            ps_io::trace::trace_tx_batch(w as u32, now, t2, n, bytes);
            ps_trace::complete(
                ps_trace::Category::Stage,
                "post_shade",
                w as u32,
                now,
                t2,
                || vec![("pkts", n), ("bytes", bytes)],
            );
        }

        let src_node = self.worker_node(w);
        let qpi = self.cfg.testbed.ioh.qpi_hop_ns;
        for p in pkts.drain(..) {
            let out = p.out_port.expect("retained");
            let node = self.node_of_port(out);
            if qpi > 0 && node != src_node {
                // The frame crosses the QPI to the remote IOH before
                // its TX DMA.
                let at = t2 + qpi;
                if at > self.stop_at {
                    // Past the run horizon: `run_until` would never
                    // dispatch this arrival, so the packet would sit
                    // in the queue unaccounted. Ledger it at the
                    // source instead.
                    self.stats.drops.far_future += 1;
                    self.reclaim_buf(p.data);
                    continue;
                }
                let pkt = self.cross_box(p);
                sched.at(at, Ev::CrossArrive { node, pkt });
                continue;
            }
            // TX DMA: the NIC reads the frame from host memory.
            let mut dma_done =
                self.nodes[node]
                    .ioh
                    .dma(t2, Direction::HostToDevice, dma_bytes(p.len()));
            if self.cfg.io.placement == Placement::NumaBlind && self.cfg.nodes > 1 && p.id % 4 != 0
            {
                // Blind buffers: the NIC's read crosses the remote IOH.
                let other = (node + 1) % self.cfg.nodes;
                let mirrored =
                    self.nodes[other]
                        .ioh
                        .dma(t2, Direction::HostToDevice, dma_bytes(p.len()));
                dma_done = dma_done.max(mirrored);
            }
            let wire_done = self.port_mut(out).tx_frame(dma_done, p.len());
            let lane = self.tx_lane(out);
            self.due
                .push(sched, lane, wire_done, Due::Tx(p), Due::event);
        }
        self.reclaim_batch(pkts);
        self.wake_worker(sched, w, t2);
    }

    /// A QPI-crossing packet reached its destination node: start the
    /// TX DMA on the *remote* IOH and serialize onto the out port.
    fn on_cross_arrive(&mut self, sched: &mut Scheduler<Ev>, node: usize, pkt: Packet) {
        let now = sched.now();
        let len = pkt.len();
        let out = pkt.out_port.expect("cross packets carry an out port");
        let dma_done = self.nodes[node]
            .ioh
            .dma(now, Direction::HostToDevice, dma_bytes(len));
        let wire_done = self.port_mut(out).tx_frame(dma_done, len);
        // Cross completions interleave with the port's native TX lane
        // stream non-monotonically (two independent DMA horizons), so
        // they take the unordered lane.
        self.due
            .push_unordered(sched, wire_done, Due::Tx(pkt), Due::event);
    }

    /// A run of due arrivals and completions (see [`Ev`]), in key order;
    /// `ev` is the event that starts it.
    fn on_due(&mut self, sched: &mut Scheduler<Ev>, ev: Ev) {
        if !self.due.fired(sched) {
            // Only the `Gen` that starts the generator is scheduled from
            // outside the set: its first packet arrives at this event's
            // own place. Any other would start a second arrival chain.
            assert!(
                matches!(ev, Ev::Gen),
                "{ev:?} was not queued by the router's completion set"
            );
            self.on_arrival(sched);
        }
        while let Some(due) = self.due.next(sched, Due::event) {
            match due {
                Due::Arrival => self.on_arrival(sched),
                Due::Rx { worker, pkt } => self.on_rx_done(sched, worker, pkt),
                Due::Tx(pkt) => self.on_tx_done(sched.now(), pkt),
            }
        }
    }

    /// A frame's last bit left the wire: deliver it to the sink and
    /// reclaim its buffer.
    fn on_tx_done(&mut self, now: Time, pkt: Packet) {
        if now >= self.measure_from {
            self.sink.deliver(now, &pkt);
            // Per-packet sojourn: RX DMA completion to last TX bit on
            // the wire — the residence time queues and batching govern
            // (gen-to-TX RTT additionally includes wire serialization
            // and NIC admission wait; the sink keeps that one).
            let sojourn = now.saturating_sub(pkt.arrival);
            self.stats.sojourn.record(sojourn);
            if pkt.priority {
                self.stats.prio_sojourn.record(sojourn);
            }
        }
        if pkt.corrupted {
            if let Some(plan) = self.plan.as_mut() {
                plan.note_corrupt_delivered();
            }
        }
        self.reclaim_buf(pkt.data);
    }
}

impl<A: App> Model for Router<A> {
    type Event = Ev;

    fn handle(&mut self, sched: &mut Scheduler<Ev>, ev: Ev) {
        match ev {
            ev @ (Ev::Gen | Ev::RxReady | Ev::TxDone) => self.on_due(sched, ev),
            Ev::WorkerLoop { worker } => self.on_worker_loop(sched, worker),
            Ev::MasterLoop { node } => self.on_master_loop(sched, node),
            Ev::CrossArrive { node, pkt } => {
                let pkt = self.cross_unbox(pkt);
                self.on_cross_arrive(sched, node, pkt);
            }
        }
    }
}

/// RSS hash over the frame's 5-tuple (Toeplitz, §4.4); non-IP frames
/// hash to 0 (queue 0), like the 82599.
pub fn rss_hash(frame: &[u8]) -> u32 {
    let Ok(eth) = EthernetFrame::new_checked(frame) else {
        return 0;
    };
    match eth.ethertype() {
        EtherType::Ipv4 => {
            let Ok(ip) = Ipv4Packet::new_checked(eth.payload()) else {
                return 0;
            };
            let (sport, dport) = l4_ports(ip.protocol(), ip.payload());
            let mut input = [0u8; 12];
            input[0..4].copy_from_slice(&ip.src().octets());
            input[4..8].copy_from_slice(&ip.dst().octets());
            input[8..10].copy_from_slice(&sport.to_be_bytes());
            input[10..12].copy_from_slice(&dport.to_be_bytes());
            toeplitz_hash(&MSFT_KEY, &input)
        }
        EtherType::Ipv6 => {
            let Ok(ip) = Ipv6Packet::new_checked(eth.payload()) else {
                return 0;
            };
            let (sport, dport) = l4_ports(ip.next_header(), ip.payload());
            let mut input = [0u8; 36];
            input[0..16].copy_from_slice(&ip.src().octets());
            input[16..32].copy_from_slice(&ip.dst().octets());
            input[32..34].copy_from_slice(&sport.to_be_bytes());
            input[34..36].copy_from_slice(&dport.to_be_bytes());
            toeplitz_hash(&MSFT_KEY, &input)
        }
        _ => 0,
    }
}

fn l4_ports(proto: u8, payload: &[u8]) -> (u16, u16) {
    match proto {
        ps_net::ipv4::protocol::UDP => UdpDatagram::new_checked(payload)
            .map(|u| (u.src_port(), u.dst_port()))
            .unwrap_or((0, 0)),
        ps_net::ipv4::protocol::TCP => TcpSegment::new_checked(payload)
            .map(|t| (t.src_port(), t.dst_port()))
            .unwrap_or((0, 0)),
        _ => (0, 0),
    }
}
