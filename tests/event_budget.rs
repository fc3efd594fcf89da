//! Event-budget regression test (ISSUE 13).
//!
//! The simulator's host cost is, to first order, events dispatched
//! per simulated packet. At the paper's headline operating point —
//! IPv4 64 B on the GPU at 38 Gbps — arrivals and RX/TX completions
//! are settled in runs (`ps_sim::Completions`), so a packet costs its
//! share of the per-batch worker and master wake-ups and of the runs
//! they interrupt: about 0.12 events, where one event per packet per
//! hop cost 3.06. That figure must not depend on how long the run is.
//! Before the master's wake-ups were folded (`ps_sim::FoldedWakes`) it
//! was 9.8 events per packet over 25 ms and growing with simulated
//! time, 6.7 of them `MasterLoop` wake-ups re-arming themselves.
//! Public API only: `Router::new` and the step count
//! `Simulation::run_until` returns.

use packetshader::core::apps::Ipv4App;
use packetshader::core::router::Ev;
use packetshader::core::{App, Router, RouterConfig};
use packetshader::pktgen::{Generator, TrafficSpec};
use packetshader::sim::time::Time;
use packetshader::sim::{Model, Scheduler, Simulation, MILLIS};
use ps_bench::workloads;

/// The router, counting its `MasterLoop` dispatches on the way in.
struct Counted<A: App> {
    router: Router<A>,
    master_loops: u64,
}

impl<A: App> Model for Counted<A> {
    type Event = Ev;

    fn handle(&mut self, sched: &mut Scheduler<Ev>, ev: Ev) {
        self.master_loops += u64::from(matches!(ev, Ev::MasterLoop { .. }));
        self.router.handle(sched, ev);
    }
}

/// Packets the open-loop generator emits in `[0, duration)`.
fn generated(spec: TrafficSpec, duration: Time) -> u64 {
    let mut g = Generator::new(spec);
    let mut n = 0;
    while g.next_time() < duration {
        g.skip_meta();
        n += 1;
    }
    n
}

/// (events per generated packet, `MasterLoop` events, shade batches).
fn knee(app: Ipv4App, duration: Time) -> (f64, u64, u64) {
    let spec = TrafficSpec::ipv4_64b(38.0, 5);
    let mut sim = Simulation::new(Counted {
        router: Router::new(RouterConfig::paper_gpu(), app, spec, duration),
        master_loops: 0,
    });
    sim.schedule(0, Ev::Gen);
    let events = sim.run_until(duration);
    let shades = sim.model.router.report(duration).shade_batches;
    (
        events as f64 / generated(spec, duration) as f64,
        sim.model.master_loops,
        shades,
    )
}

#[test]
fn ipv4_knee_event_budget_is_flat_in_simulated_time() {
    let routes = workloads::ipv4_routes_paper(1);
    // 4 and 16 ms, not 2 and 8: the start-up dispatches almost nothing
    // (interrupt moderation holds every worker's first wake-up for
    // 200 µs, and one run settles the traffic meanwhile) and the
    // pipeline reaches its steady batch sizes by about 1 ms. Every 1 ms
    // slice after that costs 0.118-0.126 events per packet, but the
    // quiet start alone puts whole runs of 2 and 8 ms at 0.083 and
    // 0.114. Over 4 and 16 ms they read 0.103 and 0.117.
    let (short, ..) = knee(Ipv4App::new(&routes), 4 * MILLIS);
    let (long, master_loops, shades) = knee(Ipv4App::new(&routes), 16 * MILLIS);
    assert!(
        short <= 0.3,
        "{short:.3} events per packet over 4 ms (budget 0.3)"
    );
    // Absolute, not relative: near 0.1 events per packet a 5 % band
    // is a few thousandths and says little.
    assert!(
        (long - short).abs() <= 0.02,
        "events per packet grow with simulated time: {short:.3} over 4 ms, {long:.3} over 16 ms"
    );
    assert!(shades > 500, "the run shades: {shades} batches");
    assert!(
        master_loops <= 8 * shades,
        "{master_loops} MasterLoop events for {shades} shade batches"
    );
}
