//! The traced run: host-time spans recorded from the benchmark's own
//! files, around calls into the repository's public functions.
//!
//! * [`TracedRouter`] implements `ps_sim::Model` by delegating to
//!   `Router::handle`; every dispatched event is one span, named by
//!   its `Ev` kind.
//! * [`TracedApp`] implements `App` by delegating; `setup_gpu`,
//!   `pre_shade`, `process_cpu` and `shade` are child spans of the
//!   event that called them.
//! * The counting allocator is read at every span edge, so a span's
//!   allocations are the counter difference across it.
//!
//! Self time is a span's duration minus its children's. The scheduler
//! is whatever the event spans do not cover: traced wall time minus
//! the sum of event spans. Rows therefore add up to the traced wall
//! time by construction.
//!
//! Timing every event costs two clock reads and ~90 ns, which on the
//! 64 B workloads is as much as the event itself (traced/untraced
//! measured 1.5–1.9×) and lands mostly in the scheduler residual. So
//! the frequent event kinds are timed one event in [`PERIOD`] and
//! scaled by count; every event is still counted, and `WorkerLoop`
//! events and all application calls are always timed.

use std::cell::RefCell;
use std::io::{self, BufWriter, Write};
use std::rc::Rc;
use std::time::Instant;

use ps_core::router::Ev;
use ps_core::{App, PreShadeResult, Router, RouterReport, ShardAffinity, Staging};
use ps_gpu::GpuEngine;
use ps_hw::ioh::Ioh;
use ps_io::Packet;
use ps_pktgen::TrafficSpec;
use ps_sim::time::Time;
use ps_sim::{Model, Scheduler, Simulation};

use crate::alloc;
use crate::measure::{drive, window, SLICES};
use crate::stats::LogHist;
use crate::workloads::Workload;

/// Raw spans kept for `out/trace-<workload>.jsonl`; aggregates cover
/// every timed span regardless.
pub const RAW_SPANS: usize = 200_000;

/// One event in this many is timed, for the kinds that fire about
/// once per packet or more. Prime, so the timed events do not lock
/// onto the 8-port rotation or the 64-packet batches.
pub const PERIOD: u64 = 13;

/// Span names: the six event kinds, then the four application calls.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Span {
    Gen,
    RxReady,
    WorkerLoop,
    MasterLoop,
    TxDone,
    CrossArrive,
    SetupGpu,
    PreShade,
    ProcessCpu,
    Shade,
}

impl Span {
    pub const ALL: [Span; 10] = [
        Span::Gen,
        Span::RxReady,
        Span::WorkerLoop,
        Span::MasterLoop,
        Span::TxDone,
        Span::CrossArrive,
        Span::SetupGpu,
        Span::PreShade,
        Span::ProcessCpu,
        Span::Shade,
    ];
    /// The event kinds, i.e. the top-level spans of a run.
    pub const EVENTS: [Span; 6] = [
        Span::Gen,
        Span::RxReady,
        Span::WorkerLoop,
        Span::MasterLoop,
        Span::TxDone,
        Span::CrossArrive,
    ];

    /// The application calls events make (`setup_gpu` happens in
    /// `Router::new`, before the run).
    pub const APP_CALLS: [Span; 3] = [Span::PreShade, Span::ProcessCpu, Span::Shade];

    fn of(ev: &Ev) -> Span {
        match ev {
            Ev::Gen => Span::Gen,
            Ev::RxReady { .. } => Span::RxReady,
            Ev::WorkerLoop { .. } => Span::WorkerLoop,
            Ev::MasterLoop { .. } => Span::MasterLoop,
            Ev::TxDone { .. } => Span::TxDone,
            Ev::CrossArrive { .. } => Span::CrossArrive,
        }
    }

    /// How many events of this kind pass per timed one.
    fn period(self) -> u64 {
        match self {
            // ~0.03 per packet, and the parent of the worker-side
            // application calls: always timed.
            Span::WorkerLoop => 1,
            _ => PERIOD,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Span::Gen => "Gen",
            Span::RxReady => "RxReady",
            Span::WorkerLoop => "WorkerLoop",
            Span::MasterLoop => "MasterLoop",
            Span::TxDone => "TxDone",
            Span::CrossArrive => "CrossArrive",
            Span::SetupGpu => "setup_gpu",
            Span::PreShade => "pre_shade",
            Span::ProcessCpu => "process_cpu",
            Span::Shade => "shade",
        }
    }
}

/// Everything recorded about one span name. `count` covers every
/// span; the sums cover the `timed` ones.
#[derive(Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub timed: u64,
    /// Σ span durations (children included).
    pub total_ns: u64,
    /// Σ durations of the spans' direct children.
    pub child_ns: u64,
    /// Allocations inside the spans (children included) …
    pub allocs: u64,
    /// … and inside their direct children.
    pub child_allocs: u64,
    /// Bytes requested inside the spans (children included).
    pub alloc_bytes: u64,
    /// Packets handed to / returned from an application call.
    pub pkts_in: u64,
    pub pkts_out: u64,
    pub hist: LogHist,
}

impl Agg {
    /// A sum over the timed spans, scaled to all of them.
    fn scaled(&self, timed_sum: u64) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            timed_sum as f64 * self.count as f64 / self.timed as f64
        }
    }
    /// Σ duration of all spans of this name (an estimate when only
    /// some were timed).
    pub fn total_ns(&self) -> f64 {
        self.scaled(self.total_ns)
    }
    /// Σ self time: duration minus direct children.
    pub fn self_ns(&self) -> f64 {
        self.scaled(self.total_ns - self.child_ns)
    }
    pub fn allocs(&self) -> f64 {
        self.scaled(self.allocs)
    }
    pub fn self_allocs(&self) -> f64 {
        self.scaled(self.allocs - self.child_allocs)
    }
}

/// One raw span as written to the JSONL file.
#[derive(Clone, Copy)]
struct Raw {
    id: u64,
    /// Id of the enclosing event span; 0 for a top-level span.
    parent: u64,
    span: Span,
    t0_ns: u64,
    t1_ns: u64,
    /// Virtual time of the enclosing event.
    vt_ns: Time,
    pkts_in: u32,
    pkts_out: u32,
    allocs: u32,
}

/// A span edge: host time and the allocator counters.
#[derive(Clone, Copy)]
pub struct Edge {
    t_ns: u64,
    allocs: u64,
    bytes: u64,
}

struct OpenEvent {
    id: u64,
    span: Span,
    vt_ns: Time,
    start: Edge,
    child_ns: u64,
    child_allocs: u64,
}

/// The in-memory span store, shared by the router and app wrappers.
pub struct Recorder {
    base: Instant,
    /// What an empty span measures: the part of the two clock reads
    /// that falls inside a span. Taken off every span, or it would be
    /// scaled up with the timed events and eat the scheduler's share.
    pub empty_span_ns: u64,
    aggs: [Agg; Span::ALL.len()],
    raw: Vec<Raw>,
    next_id: u64,
    /// The event being handled, if it is a timed one.
    open: Option<OpenEvent>,
    /// GPU work observed across `shade` calls: kernel launches and
    /// IOH bytes in each direction.
    pub gpu_kernels: u64,
    pub gpu_h2d_bytes: u64,
    pub gpu_d2h_bytes: u64,
}

impl Recorder {
    fn new() -> Recorder {
        let mut r = Recorder {
            base: Instant::now(),
            empty_span_ns: 0,
            aggs: [Agg::default(); Span::ALL.len()],
            // Reserved up front: recording a span never allocates.
            raw: Vec::with_capacity(RAW_SPANS),
            next_id: 1,
            open: None,
            gpu_kernels: 0,
            gpu_h2d_bytes: 0,
            gpu_d2h_bytes: 0,
        };
        let mut empty: Vec<f64> = (0..4096)
            .map(|_| {
                let start = r.edge();
                (r.edge().t_ns - start.t_ns) as f64
            })
            .collect();
        empty.sort_by(f64::total_cmp);
        r.empty_span_ns = empty[empty.len() / 2] as u64;
        r
    }

    /// Duration of the span from `start` to `end`, less the clock's
    /// own share.
    fn span_ns(&self, start: Edge, end: Edge) -> u64 {
        (end.t_ns - start.t_ns).saturating_sub(self.empty_span_ns)
    }

    pub fn agg(&self, s: Span) -> &Agg {
        &self.aggs[s as usize]
    }

    #[inline]
    fn edge(&self) -> Edge {
        let (allocs, bytes) = alloc::snapshot();
        Edge {
            t_ns: self.base.elapsed().as_nanos() as u64,
            allocs,
            bytes,
        }
    }

    #[inline]
    fn open_event(&mut self, span: Span, vt_ns: Time) {
        let a = &mut self.aggs[span as usize];
        a.count += 1;
        if !a.count.is_multiple_of(span.period()) {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.open = Some(OpenEvent {
            id,
            span,
            vt_ns,
            start: self.edge(),
            child_ns: 0,
            child_allocs: 0,
        });
    }

    #[inline]
    fn close_event(&mut self) {
        let Some(o) = self.open.take() else {
            return; // counted, not timed
        };
        let end = self.edge();
        // A child's clock reads fall inside its parent too.
        let ns = self.span_ns(o.start, end).max(o.child_ns);
        let a = &mut self.aggs[o.span as usize];
        a.timed += 1;
        a.total_ns += ns;
        a.child_ns += o.child_ns;
        a.allocs += end.allocs - o.start.allocs;
        a.child_allocs += o.child_allocs;
        a.alloc_bytes += end.bytes - o.start.bytes;
        a.hist.record(ns);
        if self.raw.len() < RAW_SPANS {
            self.raw.push(Raw {
                id: o.id,
                parent: 0,
                span: o.span,
                t0_ns: o.start.t_ns,
                t1_ns: end.t_ns,
                vt_ns: o.vt_ns,
                pkts_in: 0,
                pkts_out: 0,
                allocs: (end.allocs - o.start.allocs) as u32,
            });
        }
    }

    /// Record an application call that started at `start` and just
    /// returned, as a child of the open event (if that one is timed).
    #[inline]
    fn close_child(&mut self, span: Span, start: Edge, pkts_in: usize, pkts_out: usize) {
        let end = self.edge();
        let ns = self.span_ns(start, end);
        let (allocs, bytes) = (end.allocs - start.allocs, end.bytes - start.bytes);
        let a = &mut self.aggs[span as usize];
        a.count += 1;
        a.timed += 1;
        a.total_ns += ns;
        a.allocs += allocs;
        a.alloc_bytes += bytes;
        a.pkts_in += pkts_in as u64;
        a.pkts_out += pkts_out as u64;
        a.hist.record(ns);
        let (parent, vt_ns) = match self.open.as_mut() {
            Some(o) => {
                o.child_ns += ns;
                o.child_allocs += allocs;
                (o.id, o.vt_ns)
            }
            None => (0, 0),
        };
        let id = self.next_id;
        self.next_id += 1;
        if self.raw.len() < RAW_SPANS {
            self.raw.push(Raw {
                id,
                parent,
                span,
                t0_ns: start.t_ns,
                t1_ns: end.t_ns,
                vt_ns,
                pkts_in: pkts_in as u32,
                pkts_out: pkts_out as u32,
                allocs: allocs as u32,
            });
        }
    }

    /// Σ durations of all event spans, as event self times plus the
    /// application calls inside them: the part of the traced wall
    /// time the model (not the scheduler) accounts for.
    pub fn events_ns(&self) -> f64 {
        let selfs: f64 = Span::EVENTS.iter().map(|&s| self.agg(s).self_ns()).sum();
        selfs + self.app_ns()
    }

    /// Σ durations of the application calls made from events.
    pub fn app_ns(&self) -> f64 {
        Span::APP_CALLS
            .iter()
            .map(|&s| self.agg(s).total_ns())
            .sum()
    }

    /// Write the kept raw spans, one JSON object per line. A child is
    /// written before its parent (it closes first).
    pub fn write_jsonl(&self, mut w: impl Write) -> io::Result<()> {
        for r in &self.raw {
            writeln!(
                w,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"t0_ns\": {}, \"t1_ns\": {}, \
                 \"vt_ns\": {}, \"pkts_in\": {}, \"pkts_out\": {}, \"allocs\": {}}}",
                r.id,
                r.parent,
                r.span.name(),
                r.t0_ns,
                r.t1_ns,
                r.vt_ns,
                r.pkts_in,
                r.pkts_out,
                r.allocs
            )?;
        }
        Ok(())
    }
}

type Shared = Rc<RefCell<Recorder>>;

/// An `App` that records a child span around each call into `A`.
pub struct TracedApp<A> {
    inner: A,
    rec: Shared,
}

impl<A: App> App for TracedApp<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn set_staging(&mut self, mode: Staging) {
        self.inner.set_staging(mode);
    }

    fn setup_gpu(&mut self, node: usize, eng: &mut GpuEngine) {
        let start = self.rec.borrow().edge();
        self.inner.setup_gpu(node, eng);
        self.rec
            .borrow_mut()
            .close_child(Span::SetupGpu, start, 0, 0);
    }

    fn staging_totals(&self) -> Option<(u64, u64, u64)> {
        self.inner.staging_totals()
    }

    fn pre_shade(&mut self, pkts: &mut Vec<Packet>) -> PreShadeResult {
        let n = pkts.len();
        let start = self.rec.borrow().edge();
        let r = self.inner.pre_shade(pkts);
        self.rec
            .borrow_mut()
            .close_child(Span::PreShade, start, n, pkts.len());
        r
    }

    fn process_cpu(&mut self, pkts: &mut Vec<Packet>) -> u64 {
        let n = pkts.len();
        let start = self.rec.borrow().edge();
        let cycles = self.inner.process_cpu(pkts);
        self.rec
            .borrow_mut()
            .close_child(Span::ProcessCpu, start, n, pkts.len());
        cycles
    }

    fn shade(
        &mut self,
        node: usize,
        eng: &mut GpuEngine,
        ioh: &mut Ioh,
        ready: Time,
        pkts: &mut [Packet],
    ) -> Time {
        let before = (eng.kernels_launched, ioh.h2d_bytes(), ioh.d2h_bytes());
        let start = self.rec.borrow().edge();
        let done = self.inner.shade(node, eng, ioh, ready, pkts);
        let mut rec = self.rec.borrow_mut();
        let forwarded = pkts.iter().filter(|p| p.out_port.is_some()).count();
        rec.close_child(Span::Shade, start, pkts.len(), forwarded);
        rec.gpu_kernels += eng.kernels_launched - before.0;
        rec.gpu_h2d_bytes += ioh.h2d_bytes() - before.1;
        rec.gpu_d2h_bytes += ioh.d2h_bytes() - before.2;
        done
    }

    fn post_shade_cycles(&self, n: usize) -> u64 {
        self.inner.post_shade_cycles(n)
    }

    fn on_gpu_fault(&mut self, node: usize) {
        self.inner.on_gpu_fault(node);
    }

    // The traced run is sequential: no replicas.
    fn shard_replica(&self) -> Option<(Self, ShardAffinity)> {
        None
    }
}

/// A `Model` that records one span per event around `Router::handle`.
pub struct TracedRouter<A: App> {
    router: Router<TracedApp<A>>,
    rec: Shared,
}

impl<A: App> Model for TracedRouter<A> {
    type Event = Ev;

    fn handle(&mut self, sched: &mut Scheduler<Ev>, ev: Ev) {
        self.rec.borrow_mut().open_event(Span::of(&ev), sched.now());
        self.router.handle(sched, ev);
        self.rec.borrow_mut().close_event();
    }
}

/// The result of one traced run.
pub struct Traced {
    pub rec: Recorder,
    /// Host time of the traced run's slices, summed.
    pub wall_ns: u64,
    pub events: u64,
    pub report: RouterReport,
}

/// One traced repeat of `w` under `spec`: the same slices as the
/// untraced run, with the wrappers in place.
pub fn run<W: Workload>(w: &W, spec: TrafficSpec, duration: Time) -> Traced {
    let rec: Shared = Rc::new(RefCell::new(Recorder::new()));
    let app = TracedApp {
        inner: w.app(),
        rec: Rc::clone(&rec),
    };
    let router = Router::new(w.cfg(), app, spec, duration);
    let mut sim = Simulation::new(TracedRouter {
        router,
        rec: Rc::clone(&rec),
    });
    sim.schedule(0, Ev::Gen);
    let mut slice_ns = [0; SLICES];
    let events = drive(&mut sim, duration, &mut slice_ns);
    let report = sim.model.router.report(window(duration));
    drop(sim);
    let rec = Rc::try_unwrap(rec)
        .ok()
        .expect("the simulation held the only other handles")
        .into_inner();
    Traced {
        rec,
        wall_ns: slice_ns.iter().sum(),
        events,
        report,
    }
}

/// Write `traced`'s raw spans to `path`, creating its directory.
pub fn write_spans(traced: &Traced, path: &std::path::Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    traced.rec.write_jsonl(&mut w)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Ipv4Gpu, MinimalCpu};
    use ps_sim::MICROS;
    use std::hint::black_box;

    #[test]
    fn self_time_is_span_minus_children() {
        // One WorkerLoop event with two application calls inside it.
        let mut r = Recorder::new();
        r.open_event(Span::WorkerLoop, 77);
        let start = r.edge();
        let v = black_box(vec![0u8; 256]);
        r.close_child(Span::PreShade, start, 8, 8);
        let start = r.edge();
        r.close_child(Span::ProcessCpu, start, 8, 7);
        r.close_event();
        drop(v);
        let (w, p, c) = (
            *r.agg(Span::WorkerLoop),
            *r.agg(Span::PreShade),
            *r.agg(Span::ProcessCpu),
        );
        assert_eq!((w.count, w.timed, p.count, c.count), (1, 1, 1, 1));
        assert_eq!(w.child_ns, p.total_ns + c.total_ns);
        assert!(w.total_ns >= w.child_ns);
        assert_eq!(w.self_ns(), (w.total_ns - p.total_ns - c.total_ns) as f64);
        assert!(p.allocs >= 1, "the child's allocation is the child's");
        assert_eq!(w.child_allocs, p.allocs + c.allocs);
        assert_eq!((c.pkts_in, c.pkts_out), (8, 7));
        // Raw spans: children first, both parented to the event.
        assert_eq!(r.raw.len(), 3);
        assert_eq!(r.raw[0].parent, r.raw[2].id);
        assert_eq!(r.raw[1].parent, r.raw[2].id);
        assert_eq!(r.raw[2].parent, 0);
        assert_eq!(r.raw[0].vt_ns, 77);
    }

    #[test]
    fn frequent_kinds_are_counted_always_and_timed_one_in_period() {
        let mut r = Recorder::new();
        for _ in 0..3 * PERIOD {
            r.open_event(Span::Gen, 0);
            r.close_event();
        }
        let g = r.agg(Span::Gen);
        assert_eq!((g.count, g.timed), (3 * PERIOD, 3));
        assert_eq!(r.raw.len(), 3, "only timed events leave raw spans");
        // An application call inside an untimed event is still timed,
        // and is nobody's child.
        r.open_event(Span::MasterLoop, 5);
        assert!(r.open.is_none());
        let start = r.edge();
        r.close_child(Span::Shade, start, 4, 4);
        r.close_event();
        let (m, s) = (r.agg(Span::MasterLoop), r.agg(Span::Shade));
        assert_eq!((m.count, m.timed, m.child_ns), (1, 0, 0));
        assert_eq!((s.count, s.timed), (1, 1));
        assert_eq!(r.raw.last().unwrap().parent, 0);
    }

    #[test]
    fn agg_scales_timed_sums_to_all_spans() {
        let a = Agg {
            count: 26,
            timed: 2,
            total_ns: 1000,
            child_ns: 350,
            allocs: 9,
            child_allocs: 4,
            ..Agg::default()
        };
        assert_eq!(a.total_ns(), 13_000.0);
        assert_eq!(a.self_ns(), 650.0 * 13.0);
        assert_eq!(a.self_allocs(), 65.0);
        assert_eq!(Agg::default().self_ns(), 0.0);
    }

    #[test]
    fn traced_run_reproduces_the_untraced_report_and_rows_sum() {
        let w = MinimalCpu;
        let spec = w.spec(5);
        let d = 300 * MICROS;
        let t = run(&w, spec, d);
        let u = crate::measure::repeat(&w, spec, d);
        assert!(crate::measure::same_report(&t.report, &u.report));
        assert_eq!(t.events, u.events);
        let spans: u64 = Span::EVENTS.iter().map(|&s| t.rec.agg(s).count).sum();
        assert_eq!(spans, t.events, "every dispatched event is counted");
        // Rows: event self times + application calls; the scheduler
        // is the rest of the wall time.
        let selfs: f64 = Span::EVENTS.iter().map(|&s| t.rec.agg(s).self_ns()).sum();
        assert!((selfs + t.rec.app_ns() - t.rec.events_ns()).abs() < 1e-6);
        assert!(t.rec.app_ns() > 0.0);
        // CPU-only: the master never runs.
        assert_eq!(t.rec.agg(Span::MasterLoop).count, 0);
        assert_eq!(t.rec.agg(Span::Shade).count, 0);
    }

    #[test]
    fn gpu_workload_records_shade_and_master_spans() {
        // A small table keeps the test fast; the wrappers are the
        // thing under test, not the lookup.
        let w = Ipv4Gpu::with_routes("t", 38.0, 0, ps_bench::workloads::ipv4_routes(500, 1));
        let t = run(&w, w.spec(5), 400 * MICROS);
        let (m, s) = (t.rec.agg(Span::MasterLoop), t.rec.agg(Span::Shade));
        assert!(s.count > 0 && m.count >= s.count);
        assert_eq!(s.timed, s.count, "application calls are always timed");
        assert_eq!(t.rec.gpu_kernels, t.report.gpu_kernels);
        assert!(t.rec.gpu_h2d_bytes > 0 && t.rec.gpu_d2h_bytes > 0);
        assert_eq!(t.rec.agg(Span::SetupGpu).count, 2, "one per node");
        let mut out = Vec::new();
        t.rec.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), t.rec.raw.len());
        assert!(text
            .lines()
            .all(|l| l.starts_with("{\"id\": ") && l.ends_with('}')));
    }
}
