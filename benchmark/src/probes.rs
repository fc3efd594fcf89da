//! Layer micro-probes: public functions timed in isolation, on the
//! workload's own first packets, for the seams `cargo bench` does not
//! cover (pktgen, NIC ring, flow cache, rx/dispatch app calls, GPU
//! functional execution vs timing model). Each probe runs a fixed
//! number of operations per batch and reports the median of
//! [`BATCHES`] batches. A probe runs only under the workloads whose
//! objects it uses.

use std::hint::black_box;
use std::time::Instant;

use ps_core::apps::{ForwardPattern, MinimalApp};
use ps_core::{App, Mode, Router, RouterConfig};
use ps_crypto::esp::{encrypt_tunnel, SecurityAssociation};
use ps_flow::{FlowCache, FlowTuple};
use ps_gpu::kernel::{cost_of, execute};
use ps_gpu::timing::{kernel_time, launch_overhead};
use ps_gpu::{DeviceBuffer, DeviceMemory, Kernel, ThreadCtx};
use ps_io::Packet;
use ps_net::ethernet::HEADER_LEN as ETH_LEN;
use ps_net::FlowKey;
use ps_nic::ring::Ring;
use ps_pktgen::{Generator, TrafficKind, TrafficSpec};
use ps_sim::{Model, Scheduler, Simulation, MILLIS};

use crate::oracle::{first_packets, fresh_gpu};
use crate::stats::median;
use crate::workloads::Workload;

/// Batches per probe; the reported value is their median.
pub const BATCHES: usize = 11;

/// Packets per `pre_shade`/`process_cpu` call: the RX batch cap.
const RX_CHUNK: usize = 64;
/// Packets per `shade` call: a mid-sized gather.
const SHADE_CHUNK: usize = 1_024;

/// Median over [`BATCHES`] of `run`'s ns per operation. `setup`
/// builds each batch's input outside the timer, and the input is
/// dropped outside it too; `run` returns how many operations it
/// performed.
fn probe<S>(mut setup: impl FnMut() -> S, mut run: impl FnMut(&mut S) -> u64) -> f64 {
    let per_op: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let mut input = setup();
            let t = Instant::now();
            let ops = run(&mut input);
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&per_op)
}

fn chunks(pkts: &[Packet], size: usize) -> Vec<Vec<Packet>> {
    pkts.chunks(size).map(<[Packet]>::to_vec).collect()
}

/// Scheduler dispatch with a model that does nothing but keep 64
/// timers in flight: the floor under `sim.ns_per_event`.
fn sched_dispatch() -> f64 {
    struct Timers {
        left: u64,
    }
    impl Model for Timers {
        type Event = ();
        fn handle(&mut self, sched: &mut Scheduler<()>, (): ()) {
            if self.left > 0 {
                self.left -= 1;
                sched.after(64, ());
            }
        }
    }
    const EVENTS: u64 = 1 << 20;
    probe(
        || {
            let mut sim = Simulation::new(Timers { left: EVENTS - 64 });
            for t in 0..64 {
                sim.schedule(t, ());
            }
            sim
        },
        |sim| black_box(sim.run_to_completion()),
    )
}

/// `Generator::next_meta` and `materialize_into` (into one recycled
/// buffer, as the router does).
fn pktgen(spec: TrafficSpec, n: usize) -> (f64, f64) {
    let next_meta = probe(
        || Generator::new(spec),
        |g| {
            for _ in 0..n {
                black_box(g.next_meta());
            }
            n as u64
        },
    );
    let mut g = Generator::new(spec);
    let metas: Vec<_> = (0..n).map(|_| g.next_meta()).collect();
    let materialize = probe(
        || (),
        |()| {
            let mut buf = Vec::new();
            for m in &metas {
                buf = black_box(g.materialize_into(m, buf)).data;
            }
            n as u64
        },
    );
    (next_meta, materialize)
}

/// `Ring::push` per packet and `pop_batch` per RX batch, ns/packet.
fn ring(pkts: &[Packet]) -> f64 {
    probe(
        || {
            (
                pkts.to_vec(),
                Vec::with_capacity(pkts.len()),
                Ring::new(1024),
            )
        },
        |(input, sink, ring): &mut (Vec<Packet>, Vec<Packet>, Ring<Packet>)| {
            for p in input.drain(..) {
                ring.push(p).expect("drained before it fills");
                if ring.len() == RX_CHUNK {
                    sink.extend(ring.pop_batch(RX_CHUNK));
                }
            }
            black_box(&sink);
            pkts.len() as u64
        },
    )
}

/// A lookup-shaped kernel (one read, index arithmetic, one branch,
/// one write per thread) for timing the GPU layer without any app.
struct ProbeKernel {
    input: DeviceBuffer,
    output: DeviceBuffer,
}

impl Kernel for ProbeKernel {
    fn name(&self) -> &str {
        "benchmark-probe"
    }
    fn thread(&self, tid: u32, ctx: &mut ThreadCtx<'_>) {
        let v = ctx.read_u32(&self.input, tid as usize * 4);
        ctx.alu(20);
        ctx.branch(v & 1 == 0);
        ctx.write(&self.output, tid as usize * 2, &(v as u16).to_le_bytes());
    }
}

/// Functional execution (`kernel::execute`, ns/thread) vs the timing
/// model (`cost_of` + `kernel_time` + `launch_overhead`, ns/launch).
fn gpu(cfg: &RouterConfig) -> (f64, f64) {
    const THREADS: u32 = 4_096;
    const LAUNCHES: u64 = 16;
    let mut mem = DeviceMemory::new(1 << 20);
    let k = ProbeKernel {
        input: mem.alloc(THREADS as usize * 4),
        output: mem.alloc(THREADS as usize * 2),
    };
    let exec = probe(
        || (),
        |()| {
            for _ in 0..LAUNCHES {
                black_box(execute(&k, &mut mem, THREADS));
            }
            LAUNCHES * u64::from(THREADS)
        },
    );
    let stats = execute(&k, &mut mem, THREADS);
    let spec = cfg.testbed.gpu;
    let timing = probe(
        || (),
        |()| {
            const CALLS: u64 = 100_000;
            for _ in 0..CALLS {
                let cost = cost_of(black_box(&stats));
                black_box(kernel_time(&spec, &cost) + launch_overhead(&spec, THREADS));
            }
            CALLS
        },
    );
    (exec, timing)
}

/// `lookup` (a DIR-24-8 host lookup) over every packet's destination
/// address, ns/lookup.
pub fn dir24(lookup: impl Fn(u32) -> u16, pkts: &[Packet]) -> f64 {
    let dsts: Vec<u32> = pkts
        .iter()
        .map(|p| u32::from_be_bytes(p.data[30..34].try_into().expect("4 bytes")))
        .collect();
    probe(
        || (),
        |()| {
            for &d in &dsts {
                black_box(lookup(d));
            }
            dsts.len() as u64
        },
    )
}

/// ESP tunnel encapsulation (AES-128-CTR + HMAC-SHA1) of every
/// packet, ns per inner byte. `sa` makes the batch's fresh SA.
pub fn esp(sa: impl Fn() -> SecurityAssociation, pkts: &[Packet]) -> f64 {
    let bytes: u64 = pkts.iter().map(|p| (p.len() - ETH_LEN) as u64).sum();
    probe(sa, |sa| {
        for p in pkts {
            black_box(encrypt_tunnel(sa, &p.data[ETH_LEN..]));
        }
        bytes
    })
}

/// `FlowCache` lookup of every packet's flow in a filled table (all
/// hits), and insert of each distinct flow into an empty one:
/// `(ns/lookup, ns/insert)`.
pub fn flow_cache(pkts: &[Packet]) -> (f64, f64) {
    let tuples: Vec<FlowTuple> = pkts
        .iter()
        .map(|p| {
            FlowKey::extract(p.in_port.0, &p.data)
                .expect("generated frames parse")
                .five_tuple()
        })
        .collect();
    let mut distinct = tuples.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let insert = probe(
        || FlowCache::<u32>::new(1 << 20, 0),
        |cache| {
            for (i, t) in distinct.iter().enumerate() {
                black_box(cache.insert(*t, 0, i as u32));
            }
            distinct.len() as u64
        },
    );
    let mut cache = FlowCache::<u32>::new(1 << 20, 0);
    for (i, t) in distinct.iter().enumerate() {
        cache.insert(*t, 0, i as u32);
    }
    let hit = probe(
        || (),
        |()| {
            for t in &tuples {
                black_box(cache.lookup(t, 1).is_some());
            }
            tuples.len() as u64
        },
    );
    (hit, insert)
}

/// `BENCH_baseline.json`'s 8-node scaling workload through
/// `Router::run_with_shards` on two threads over one. Diagnostic
/// only: two threads on two shared vCPUs measured ±20 %.
pub fn shard_x2_wall_ratio() -> f64 {
    let cfg = RouterConfig {
        nodes: 8,
        workers_per_node: 1,
        ports: 16,
        ..RouterConfig::paper_cpu()
    };
    let spec = TrafficSpec {
        kind: TrafficKind::Ipv4Udp,
        frame_len: 64,
        offered_bits: 80_000_000_000,
        ports: 16,
        seed: 42,
        flows: Some(8192),
        ..TrafficSpec::default()
    };
    let mut wall = [Vec::new(), Vec::new()];
    // Interleaved, so ambient drift lands on both sides.
    for _ in 0..BATCHES {
        for (i, shards) in [1, 2].into_iter().enumerate() {
            let app = MinimalApp::new(ForwardPattern::SameNode, 16);
            let t = Instant::now();
            black_box(Router::run_with_shards(cfg, app, spec, 2 * MILLIS, shards));
            wall[i].push(t.elapsed().as_nanos() as f64);
        }
    }
    median(&wall[1]) / median(&wall[0])
}

/// Every probe attached to `w`, as `(metric name, value)`: the ones
/// every workload has objects for, the GPU ones when `w` has a GPU,
/// and `w`'s own (`Workload::layer_probes`). Probes that do not apply
/// to `w` are absent; the caller reports them as 0.
pub fn run<W: Workload>(w: &W, spec: TrafficSpec) -> Vec<(&'static str, f64)> {
    let cfg = w.cfg();
    let n = w.probe_packets();
    let pkts = first_packets(spec, n);
    let mut out = vec![("sim.probe_ns_per_event", sched_dispatch())];

    let (next_meta, materialize) = pktgen(spec, n);
    out.push(("pktgen.next_meta_ns", next_meta));
    out.push(("pktgen.materialize_ns", materialize));
    out.push(("nic.ring_push_pop_ns", ring(&pkts)));

    // The application calls in isolation. One app serves all batches
    // (tables are built once; a NAT table is warm after the first
    // batch, which the median then reports).
    let mut app = w.app();
    out.push((
        "app.pre_shade_iso_ns",
        probe(
            || chunks(&pkts, RX_CHUNK),
            |cs| {
                for c in cs {
                    black_box(app.pre_shade(c));
                }
                n as u64
            },
        ),
    ));
    let mut pre_shaded = pkts.clone();
    app.pre_shade(&mut pre_shaded);
    out.push((
        "app.process_cpu_iso_ns",
        probe(
            || chunks(&pre_shaded, RX_CHUNK),
            |cs| {
                for c in cs {
                    black_box(app.process_cpu(c));
                }
                n as u64
            },
        ),
    ));
    if cfg.mode == Mode::CpuGpu {
        let mut app = w.app();
        app.set_staging(cfg.staging);
        let (mut eng, mut ioh) = fresh_gpu(&cfg);
        app.setup_gpu(0, &mut eng);
        out.push((
            "app.shade_iso_ns",
            probe(
                || chunks(&pre_shaded, SHADE_CHUNK),
                |cs| {
                    for c in cs {
                        black_box(app.shade(0, &mut eng, &mut ioh, 0, c));
                    }
                    n as u64
                },
            ),
        ));
        let (exec, timing) = gpu(&cfg);
        out.push(("gpu.exec_ns_per_thread", exec));
        out.push(("gpu.timing_ns_per_launch", timing));
    }

    out.extend(w.layer_probes(&pkts));
    out
}
