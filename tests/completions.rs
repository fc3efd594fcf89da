//! Differential property for completions settled in runs.
//!
//! `ps_sim::Completions` holds items whose completion time is known
//! when they start and gives the scheduler one event for all of them.
//! The reference here is what the router did before: one scheduler
//! event per item, scheduled when the item starts. Both drive the same
//! little machine through the real `Scheduler`:
//!
//! * *feeders* (the generator, the TX path) start items on two
//!   monotone FIFO lanes and on the unordered lane (times that go
//!   backwards: NUMA-blind RX, TX after a QPI crossing);
//! * settling an item (an RX completion) pushes it onto a counted ring,
//!   and may start a follow-up item or wake an *observer* (a worker's
//!   interrupt) — so runs push items and schedule events of their own;
//! * *observers* (the workers) pop the ring.
//!
//! The clock is 0–4 ns wide, so items, feeders and observers meet on
//! the same nanosecond all the time, and the run is cut into random
//! `run_until` slices. Every observation must come out identical —
//! what each settle, feeder step and observer saw and when — and so
//! must the state at each slice end: which items had settled, the
//! ring, the clock. The runs may only ever use fewer events.

use std::collections::VecDeque;

use packetshader::check::{check_with, ensure, ensure_eq, Config, Gen};
use packetshader::sim::time::Time;
use packetshader::sim::{Completions, Model, Scheduler, Simulation};

/// Lanes: two FIFO lanes, then the unordered one.
const LANES: usize = 2;
const UNORDERED: usize = LANES;

#[derive(Debug)]
enum Ev {
    /// Feeder `i` takes its next step.
    Feeder(usize),
    /// Observer `i` pops the ring.
    Observer(usize),
    /// The reference's event for item `id`.
    Item(u32),
    /// The run's event.
    Run,
}

/// What settling an item does besides landing in the ring.
#[derive(Debug, Clone, Copy)]
enum Then {
    Nothing,
    /// Start another item on `lane`, `after` ns from now.
    Start {
        lane: usize,
        after: Time,
    },
    /// Wake observer `i` `after` ns from now.
    Wake {
        observer: usize,
        after: Time,
    },
}

/// One feeder step: start `items` items on `lane`, `after` ns from
/// now (at the lane's last time, if later, on a FIFO lane).
#[derive(Debug, Clone, Copy)]
struct Step {
    lane: usize,
    items: u32,
    after: Time,
    gap: Time,
}

#[derive(Debug, Clone)]
struct Script {
    feeders: Vec<(Time, Vec<Step>)>,
    /// Observers: first instant, pops per visit, visits, gap.
    observers: Vec<(Time, usize, u32, Time)>,
    /// Per item id, cycled: what its settle does.
    then: Vec<Then>,
    /// Follow-ups stop once this many items have started.
    max_items: u32,
    ring_cap: usize,
    /// `run_until` deadlines, increasing.
    slices: Vec<Time>,
}

fn script(g: &mut Gen) -> Script {
    let observers = g.vec_of(1, 3, |g| {
        (
            g.int_in(0u64..4),
            g.int_in(1usize..4),
            g.int_in(1u32..12),
            g.int_in(1u64..4),
        )
    });
    let n_obs = observers.len();
    let mut at = 0;
    Script {
        feeders: g.vec_of(1, 4, |g| {
            let start = g.int_in(0u64..4);
            let steps = g.vec_of(1, 16, |g| Step {
                lane: g.int_in(0usize..=UNORDERED),
                items: g.int_in(0u32..4),
                after: g.int_in(0u64..5),
                gap: g.int_in(0u64..4),
            });
            (start, steps)
        }),
        observers,
        then: g.vec_of(1, 8, |g| match g.int_in(0u32..4) {
            0 => Then::Start {
                lane: g.int_in(0usize..=UNORDERED),
                after: g.int_in(0u64..5),
            },
            1 => Then::Wake {
                observer: g.int_in(0..n_obs),
                after: g.int_in(0u64..3),
            },
            _ => Then::Nothing,
        }),
        max_items: g.int_in(1u32..120),
        ring_cap: g.int_in(1usize..6),
        slices: g.vec_of(1, 12, |g| {
            at += g.int_in(0u64..7);
            at
        }),
    }
}

/// Everything either implementation can observe, in dispatch order.
#[derive(Debug, PartialEq, Clone)]
enum Seen {
    Settled {
        at: Time,
        id: u32,
        ring: usize,
    },
    Fed {
        at: Time,
        feeder: usize,
        started: u32,
    },
    Popped {
        at: Time,
        observer: usize,
        ids: Vec<u32>,
    },
    /// The state at a slice end.
    Slice {
        now: Time,
        settled: u32,
        ring: Vec<u32>,
    },
}

/// How items are held until they complete.
trait Pending: Sized {
    fn new() -> Self;
    fn start(m: &mut Machine<Self>, s: &mut Scheduler<Ev>, lane: usize, t: Time, id: u32);
    /// Handle `Ev::Item` / `Ev::Run`.
    fn on_event(m: &mut Machine<Self>, s: &mut Scheduler<Ev>, ev: Ev);
}

struct Machine<P> {
    script: Script,
    pending: P,
    feeder_step: Vec<usize>,
    observer_visits: Vec<u32>,
    /// Last time started on each FIFO lane.
    lane_last: [Time; LANES],
    started: u32,
    settled: u32,
    ring: VecDeque<u32>,
    tail_drops: u32,
    log: Vec<Seen>,
    /// Events handled, and items settled by a run of more than one.
    events: u64,
    batched: u64,
    /// Slice ends with an item pending at the deadline's instant or
    /// later (coverage of the horizon).
    cut: u32,
}

impl<P: Pending> Machine<P> {
    fn run(script: &Script) -> Machine<P> {
        let m = Machine {
            script: script.clone(),
            pending: P::new(),
            feeder_step: vec![0; script.feeders.len()],
            observer_visits: vec![0; script.observers.len()],
            lane_last: [0; LANES],
            started: 0,
            settled: 0,
            ring: VecDeque::new(),
            tail_drops: 0,
            log: Vec::new(),
            events: 0,
            batched: 0,
            cut: 0,
        };
        let mut sim = Simulation::new(m);
        for (i, (start, _)) in script.feeders.iter().enumerate() {
            sim.schedule(*start, Ev::Feeder(i));
        }
        for (i, (start, ..)) in script.observers.iter().enumerate() {
            sim.schedule(*start, Ev::Observer(i));
        }
        for &deadline in &script.slices {
            sim.run_until(deadline);
            let now = sim.now();
            let m = &mut sim.model;
            let slice = Seen::Slice {
                now,
                settled: m.settled,
                ring: m.ring.iter().copied().collect(),
            };
            m.cut += u32::from(m.started > m.settled);
            m.log.push(slice);
        }
        sim.run_until(Time::MAX / 2);
        sim.model
    }

    /// Start item `started` on `lane` at `now + after` (FIFO lanes
    /// never go backwards).
    fn start(&mut self, s: &mut Scheduler<Ev>, lane: usize, after: Time) {
        let mut t = s.now() + after;
        if lane < LANES {
            t = t.max(self.lane_last[lane]);
            self.lane_last[lane] = t;
        }
        let id = self.started;
        self.started += 1;
        P::start(self, s, lane, t, id);
    }

    /// An item completed: into the ring, then its follow-up.
    fn settle(&mut self, s: &mut Scheduler<Ev>, id: u32) {
        self.settled += 1;
        if self.ring.len() < self.script.ring_cap {
            self.ring.push_back(id);
        } else {
            self.tail_drops += 1;
        }
        self.log.push(Seen::Settled {
            at: s.now(),
            id,
            ring: self.ring.len(),
        });
        match self.script.then[id as usize % self.script.then.len()] {
            Then::Nothing => {}
            Then::Start { lane, after } => {
                if self.started < self.script.max_items {
                    self.start(s, lane, after);
                }
            }
            Then::Wake { observer, after } => s.at(s.now() + after, Ev::Observer(observer)),
        }
    }
}

impl<P: Pending> Model for Machine<P> {
    type Event = Ev;

    fn handle(&mut self, s: &mut Scheduler<Ev>, ev: Ev) {
        self.events += 1;
        let now = s.now();
        match ev {
            Ev::Feeder(i) => {
                let step = self.script.feeders[i].1[self.feeder_step[i]];
                self.feeder_step[i] += 1;
                for _ in 0..step.items {
                    self.start(s, step.lane, step.after);
                }
                self.log.push(Seen::Fed {
                    at: now,
                    feeder: i,
                    started: self.started,
                });
                if self.feeder_step[i] < self.script.feeders[i].1.len() {
                    s.at(now + step.gap, Ev::Feeder(i));
                }
            }
            Ev::Observer(i) => {
                let (_, pops, visits, gap) = self.script.observers[i];
                let take = pops.min(self.ring.len());
                let ids = self.ring.drain(..take).collect();
                self.log.push(Seen::Popped {
                    at: now,
                    observer: i,
                    ids,
                });
                self.observer_visits[i] += 1;
                if self.observer_visits[i] < visits {
                    s.at(now + gap, Ev::Observer(i));
                }
            }
            ev => P::on_event(self, s, ev),
        }
    }
}

/// The reference: one scheduler event per item.
struct PerItem;

impl Pending for PerItem {
    fn new() -> Self {
        PerItem
    }

    fn start(_: &mut Machine<Self>, s: &mut Scheduler<Ev>, _lane: usize, t: Time, id: u32) {
        s.at(t, Ev::Item(id));
    }

    fn on_event(m: &mut Machine<Self>, s: &mut Scheduler<Ev>, ev: Ev) {
        let Ev::Item(id) = ev else {
            unreachable!("the reference schedules only items")
        };
        m.settle(s, id);
    }
}

/// The runs, used the way `Router::on_due` uses them.
struct Runs(Completions<u32>);

impl Pending for Runs {
    fn new() -> Self {
        Runs(Completions::new(LANES))
    }

    fn start(m: &mut Machine<Self>, s: &mut Scheduler<Ev>, lane: usize, t: Time, id: u32) {
        if lane == UNORDERED {
            m.pending.0.push_unordered(s, t, id, |_| Ev::Run);
        } else {
            m.pending.0.push(s, lane, t, id, |_| Ev::Run);
        }
    }

    fn on_event(m: &mut Machine<Self>, s: &mut Scheduler<Ev>, ev: Ev) {
        assert!(matches!(ev, Ev::Run));
        assert!(m.pending.0.fired(s), "only the set schedules Ev::Run");
        let mut n = 0;
        while let Some(id) = m.pending.0.next(s, |_| Ev::Run) {
            m.settle(s, id);
            n += 1;
        }
        if n > 1 {
            m.batched += n;
        }
    }
}

#[test]
fn runs_equal_one_event_per_completion() {
    let name = "runs_equal_one_event_per_completion";
    let mut cfg = Config::from_env(name);
    cfg.cases = cfg.cases.max(512);
    // Coverage of the generator: cases where runs took several items,
    // where ties between an item and a foreign event were broken by
    // place, and where a slice ended with items still pending.
    let (mut batched, mut tied, mut cut) = (0u32, 0u32, 0u32);
    check_with(name, &cfg, |g| {
        let script = script(g);
        let want = Machine::<PerItem>::run(&script);
        let got = Machine::<Runs>::run(&script);
        for (i, (w, g)) in want.log.iter().zip(&got.log).enumerate() {
            ensure_eq!(g, w, "entry {} of {}", i, want.log.len());
        }
        ensure_eq!(got.log.len(), want.log.len());
        ensure_eq!(got.settled, want.started, "every item settles");
        ensure_eq!(got.tail_drops, want.tail_drops);
        ensure!(got.pending.0.is_empty());
        ensure!(
            got.events <= want.events,
            "{} > {}",
            got.events,
            want.events
        );
        batched += u32::from(got.batched > 0);
        tied += u32::from(ties_with_foreign_events(&want.log));
        cut += u32::from(want.cut > 0);
        Ok(())
    });
    let quarter = cfg.cases as u32 / 4;
    assert!(
        batched > quarter,
        "runs of several items in {batched} cases"
    );
    assert!(
        tied > quarter,
        "items tied with other events in {tied} cases"
    );
    assert!(cut > quarter, "a slice ended mid-stream in {cut} cases");
}

/// Did an item settle on the same nanosecond as a feeder or observer
/// step, with the step in between two settles of that nanosecond?
fn ties_with_foreign_events(log: &[Seen]) -> bool {
    log.windows(3).any(|w| match w {
        [Seen::Settled { at: a, .. }, Seen::Fed { at: b, .. } | Seen::Popped { at: b, .. }, Seen::Settled { at: c, .. }] => {
            a == b && b == c
        }
        _ => false,
    })
}

/// The saving on a stream: `n` items on one lane with nothing in
/// between cost the reference `n` events and a run one.
#[test]
fn a_stream_costs_one_event_per_run() {
    let n = 64;
    let script = Script {
        feeders: vec![(
            0,
            vec![Step {
                lane: 0,
                items: n,
                after: 1,
                gap: 1,
            }],
        )],
        observers: vec![(100, 1, 1, 1)],
        then: vec![Then::Nothing],
        max_items: n,
        ring_cap: 8,
        slices: vec![200],
    };
    let want = Machine::<PerItem>::run(&script);
    let got = Machine::<Runs>::run(&script);
    assert_eq!(got.log, want.log);
    // Feeder, observer, and the items: every one in the reference,
    // one run here.
    assert_eq!(want.events, 2 + u64::from(n));
    assert_eq!(got.events, 2 + 1);
}
