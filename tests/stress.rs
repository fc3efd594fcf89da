//! Overload and stress tests for the sharded runtime (ISSUE 6).
//!
//! The parity suite (`tests/shards.rs`) pins *what* a sharded run
//! computes; this file pins that the runtime survives hostile load:
//! pathological all-cross-traffic workloads must neither deadlock nor
//! grow the in-flight message set without bound, and injected ps-fault
//! degradation must compose with a sharding request (the fault ledger
//! invariant — every injected fault handled or dropped — holds at
//! every shard count).

use packetshader::core::apps::{ForwardPattern, MinimalApp};
use packetshader::core::{Router, RouterConfig};
use packetshader::fault::FaultSpec;
use packetshader::pktgen::TrafficSpec;
use packetshader::sim::Time as SimTime;
use packetshader::sim::{run_sharded_on, CrossQueue, Scheduler, ShardModel, MILLIS};

// ---------------------------------------------------------------------------
// 1. ps-sim level: the runtime under synthetic cross-traffic floods.
// ---------------------------------------------------------------------------

/// Every handled event broadcasts to *every* shard (itself included)
/// and reschedules itself: the densest possible cross-traffic matrix.
struct Storm {
    id: usize,
    n: usize,
    latency: SimTime,
    period: SimTime,
    handled: u64,
    delivered: u64,
}

impl ShardModel for Storm {
    type Event = ();
    type Cross = ();

    fn handle(&mut self, sched: &mut Scheduler<()>, _: (), cross: &mut CrossQueue<()>) {
        self.handled += 1;
        for to in 0..self.n {
            cross.send(self.id, to, sched.now() + self.latency, ());
        }
        sched.after(self.period, ());
    }

    fn deliver(&mut self, _: &mut Scheduler<()>, _: SimTime, _: ()) {
        // Count only; delivering without rescheduling keeps the event
        // population proportional to the generators, not the messages.
        self.delivered += 1;
    }
}

fn storm(n: usize, latency: SimTime, period: SimTime, until: SimTime) -> (Vec<Storm>, u64, usize) {
    let mut models: Vec<Storm> = (0..n)
        .map(|id| Storm {
            id,
            n,
            latency,
            period,
            handled: 0,
            delivered: 0,
        })
        .collect();
    let mut scheds: Vec<Scheduler<()>> = (0..n).map(|_| Scheduler::new()).collect();
    for s in &mut scheds {
        s.at(0, ());
    }
    let stats = run_sharded_on(&mut models, &mut scheds, until, latency, 2, |d| d);
    for (i, s) in scheds.iter().enumerate() {
        assert_eq!(s.now(), until, "shard {i} clock at until");
    }
    let delivered = models.iter().map(|m| m.delivered).sum();
    (models, delivered, stats.max_in_flight)
}

/// All-cross traffic completes (no deadlock: the barrier protocol has
/// no circular waits, every window strictly advances virtual time)
/// and delivers the exact expected message count.
#[test]
fn all_cross_storm_completes_and_delivers_everything() {
    let (models, delivered, _) = storm(4, 5, 5, 1000);
    let handled: u64 = models.iter().map(|m| m.handled).sum();
    // Each handled event broadcasts to all 4 shards; emissions in the
    // last `latency` of the run land past `until` and are discarded.
    assert_eq!(handled, 4 * 201, "4 generators, one event each 5ns");
    assert_eq!(delivered, handled * 4 - 4 * 4, "all but the final volley");
}

/// The in-flight high-water mark depends on the traffic *rate*, never
/// on how long the run lasts: quadrupling the runtime must not move
/// it. This is the unbounded-growth guard — messages are handed off
/// every window and post-`until` arrivals are dropped at the source,
/// so nothing accumulates.
#[test]
fn storm_in_flight_is_bounded_by_window_not_runtime() {
    let (_, _, short) = storm(4, 5, 5, 1000);
    let (_, _, long) = storm(4, 5, 5, 4000);
    assert!(short > 0, "the storm must actually queue messages");
    assert_eq!(
        short, long,
        "in-flight high-water mark must not grow with runtime"
    );
}

/// Messages aimed past the end of the run never enter the in-flight
/// set at all: a model flooding far-future arrivals costs zero
/// barrier-to-barrier memory (the old runtime accumulated these in
/// `pending` forever).
#[test]
fn far_future_flood_is_dropped_at_the_source() {
    struct FarFlood {
        id: usize,
    }
    impl ShardModel for FarFlood {
        type Event = ();
        type Cross = ();
        fn handle(&mut self, sched: &mut Scheduler<()>, _: (), cross: &mut CrossQueue<()>) {
            // Arrival far beyond `until`: deliverable never.
            for _ in 0..64 {
                cross.send(self.id, 1 - self.id, sched.now() + 1_000_000, ());
            }
            if sched.now() < 500 {
                sched.after(10, ());
            }
        }
        fn deliver(&mut self, _: &mut Scheduler<()>, _: SimTime, _: ()) {
            panic!("nothing may arrive");
        }
    }
    let mut models = vec![FarFlood { id: 0 }, FarFlood { id: 1 }];
    let mut scheds: Vec<Scheduler<()>> = (0..2).map(|_| Scheduler::new()).collect();
    scheds[0].at(0, ());
    scheds[1].at(0, ());
    let stats = run_sharded_on(&mut models, &mut scheds, 1000, 20, 1, |d| d);
    assert_eq!(stats.max_in_flight, 0, "far-future messages never queue");
}

// ---------------------------------------------------------------------------
// 2. Router level: overload and fault degradation compose with shards.
// ---------------------------------------------------------------------------

const DUR: u64 = MILLIS / 2;

/// Every packet crosses the QPI seam at 2.5x the deliverable rate:
/// the windowed runtime must survive sustained overload (drops, full
/// rings, backlogged IOHs) and still match the sequential run byte
/// for byte at every shard count.
#[test]
fn overloaded_cross_traffic_stays_identical_across_shard_counts() {
    let mut cfg = RouterConfig::paper_cpu();
    cfg.testbed.ioh = cfg.testbed.ioh.with_qpi_hop(300);
    let spec = TrafficSpec::ipv4_64b(60.0, 13);
    let run = |shards: usize| {
        let app = MinimalApp::new(ForwardPattern::NodeCrossing, 8);
        Router::run_with_shards(cfg, app, spec, DUR, shards)
    };
    let base = run(1);
    assert!(
        base.delivery_ratio() < 0.9,
        "the workload must actually overload the box (got {:.3})",
        base.delivery_ratio()
    );
    let fp = format!("{base:?}");
    for shards in [2usize, 4, 8] {
        assert_eq!(
            fp,
            format!("{:?}", run(shards)),
            "overloaded parity at shards={shards}"
        );
    }
}

/// PCIe stall injection composes with a sharding request: the run
/// collapses to sequential (fault RNG streams are global), the ledger
/// reconciles — every injected fault is handled or dropped, nothing
/// leaks — and the report is count-independent.
#[test]
fn pcie_stalls_compose_with_sharding() {
    let run = |shards: usize| {
        let mut cfg = RouterConfig::paper_gpu();
        cfg.faults = FaultSpec::scenario("pcie")
            .expect("known scenario")
            .with_seed(0x5EED);
        let app = MinimalApp::new(ForwardPattern::SameNode, 8);
        Router::run_with_shards(cfg, app, TrafficSpec::ipv4_64b(30.0, 9), DUR, shards)
    };
    let base = run(1);
    assert!(base.faults.injected() > 0, "stalls must actually fire");
    assert!(base.faults.reconciles(), "ledger invariant at shards=1");
    let fp = format!("{base:?}");
    for shards in [2usize, 4, 8] {
        let r = run(shards);
        assert!(r.faults.reconciles(), "ledger invariant at shards={shards}");
        assert_eq!(fp, format!("{r:?}"), "faulted parity at shards={shards}");
    }
}
