//! Differential property for the router's wake bookkeeping.
//!
//! `ps_sim::FoldedWakes` keeps a polling thread's pending wake-ups as
//! counts per instant with one scheduler event per instant. The
//! reference here is the bookkeeping the router had before: a dedupe
//! on the latest wake-up armed and one scheduler event per wake-up,
//! each of which clears the dedupe when it runs and re-arms itself
//! while the thread is busy. Both drive the same little machine —
//! feeder threads that queue work and ask for a wake-up, and a poller
//! shaped like one of the router's two thread kinds — through the
//! real `Scheduler`, on a clock so coarse that wake-ups, feeders and
//! ends of work land on the same nanosecond all the time:
//!
//! * master-shaped: a wake-up that finds the queue empty is spent,
//!   and a round of work gathers, is busy for a while and re-arms at
//!   the end of it while work is left;
//! * worker-shaped: every free wake-up runs the loop, and a round may
//!   take no time at all (a chunk whose packets were all dropped) and
//!   arms the poller's own wake-up for now or later, as the worker's
//!   post-shade and "sleep until output is ready" steps do.
//!
//! Everything either side can observe must come out identical: what
//! every feeder saw and whether its wake-up was armed, when the
//! poller worked and on how much, and how many wake-ups were pending
//! at each of those points. The folded side must also never dispatch
//! more scheduler events than the reference — fewer by at least one
//! per wake-up the poller arms for the instant it is replaying while
//! no other event waits on that instant.

use packetshader::check::{check_with, ensure, ensure_eq, Config, Gen};
use packetshader::sim::time::Time;
use packetshader::sim::{FoldedWakes, Model, Scheduler, Simulation};

#[derive(Debug)]
enum Ev {
    /// Feeder `i` takes its next step.
    Feeder(usize),
    /// The poller's wake-up.
    Wake,
}

/// One step of a feeder: queue `items`, ask for a wake-up `wake_after`
/// from now if anything was queued, come back `gap` later.
#[derive(Debug, Clone, Copy)]
struct Step {
    items: u32,
    wake_after: Time,
    gap: Time,
}

/// Which of the router's thread kinds the poller behaves like (see
/// the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    Master,
    Worker,
}

#[derive(Debug, Clone)]
struct Script {
    shape: Shape,
    /// Per feeder: its first instant and its steps.
    feeders: Vec<(Time, Vec<Step>)>,
    /// How long each round of work keeps the poller busy, cycled.
    work_ns: Vec<Time>,
    /// Worker-shaped: how far from now each round arms the poller's
    /// own wake-up, cycled with `work_ns`.
    rearm_ns: Vec<Time>,
    /// Most items one round of work takes.
    max_gather: u32,
}

fn script(g: &mut Gen, shape: Shape) -> Script {
    // Everything lands on a handful of nanoseconds, so wake-ups that
    // moved to the end of a round of work, wake-ups armed for that
    // nanosecond and feeders stepping on it meet all the time. Only a
    // worker's rounds may take no time.
    let shortest = match shape {
        Shape::Master => 1u64,
        Shape::Worker => 0u64,
    };
    Script {
        shape,
        feeders: g.vec_of(2, 5, |g| {
            let start = g.int_in(0u64..4);
            let steps = g.vec_of(1, 24, |g| Step {
                items: g.int_in(0u32..3),
                wake_after: g.int_in(0u64..4),
                gap: g.int_in(0u64..4),
            });
            (start, steps)
        }),
        work_ns: g.vec_of(1, 4, |g| g.int_in(shortest..5)),
        max_gather: g.int_in(1u32..6),
        rearm_ns: g.vec_of(1, 4, |g| g.int_in(0u64..4)),
    }
}

/// What the two implementations must agree on, in dispatch order.
#[derive(Debug, PartialEq, Clone, Copy)]
enum Seen {
    /// A feeder step: the poller state it found and the wake-ups
    /// pending once it had asked for its own.
    Fed {
        at: Time,
        feeder: usize,
        queued: u32,
        busy_until: Time,
        pending: u64,
    },
    /// One round of work and the wake-ups pending when it began.
    Worked {
        at: Time,
        gathered: u32,
        pending: u64,
    },
}

/// The wake bookkeeping under test.
trait Wakes: Default {
    fn arm(&mut self, sched: &mut Scheduler<Ev>, t: Time);
    fn pending(&self) -> u64;
    /// Handle one `Ev::Wake`; `work` does one round and re-arms.
    fn on_wake(machine: &mut Machine<Self>, sched: &mut Scheduler<Ev>);
}

struct Machine<W> {
    script: Script,
    /// Next step per feeder.
    cursor: Vec<usize>,
    wakes: W,
    busy_until: Time,
    queued: u32,
    /// Worker-shaped: rounds whose output is not out yet.
    owed: u32,
    rounds: usize,
    log: Vec<Seen>,
    /// Per feeder, the instant its next step is queued for.
    feeds_due: Vec<Option<Time>>,
    /// Scheduler events dispatched.
    dispatched: u64,
    /// Worker-shaped: wake-ups the poller armed for the instant being
    /// replayed while no feeder step was queued for that instant.
    free_arms: u64,
    /// `Ev::Wake` dispatches, and the distinct instants they fell on.
    wake_events: u64,
    wake_instants: Vec<Time>,
    /// Feeder steps dispatched since the last wake-up of this instant,
    /// and how often a wake-up of the same instant followed some.
    fed_since_wake: u32,
    ties: u32,
}

impl<W: Wakes> Machine<W> {
    fn run(script: &Script) -> Machine<W> {
        let machine = Machine {
            script: script.clone(),
            cursor: vec![0; script.feeders.len()],
            wakes: W::default(),
            busy_until: 0,
            queued: 0,
            owed: 0,
            rounds: 0,
            log: Vec::new(),
            feeds_due: script.feeders.iter().map(|&(t, _)| Some(t)).collect(),
            dispatched: 0,
            free_arms: 0,
            wake_events: 0,
            wake_instants: Vec::new(),
            fed_since_wake: 0,
            ties: 0,
        };
        let mut sim = Simulation::new(machine);
        for (i, (start, _)) in script.feeders.iter().enumerate() {
            sim.schedule(*start, Ev::Feeder(i));
        }
        sim.run_until(Time::MAX / 2);
        sim.model
    }

    /// One round of work: gather and get busy. A master re-arms at the
    /// end of it if work is left; a worker arms `rearm_ns` from now,
    /// after gathering or, with output owed, to collect it.
    fn work(&mut self, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        let gathered = self.queued.min(self.script.max_gather);
        self.log.push(Seen::Worked {
            at: now,
            gathered,
            pending: self.wakes.pending(),
        });
        let work_ns = self.script.work_ns[self.rounds % self.script.work_ns.len()];
        let rearm_ns = self.script.rearm_ns[self.rounds % self.script.rearm_ns.len()];
        self.rounds += 1;
        match self.script.shape {
            Shape::Master => {
                self.queued -= gathered;
                self.busy_until = now + work_ns;
                if self.queued > 0 {
                    self.wakes.arm(sched, self.busy_until);
                }
            }
            Shape::Worker => {
                if gathered > 0 {
                    self.queued -= gathered;
                    self.owed += 1;
                    self.busy_until = now + work_ns;
                } else if self.owed > 0 {
                    self.owed -= 1;
                } else {
                    return; // nothing to do: the interrupt is armed
                }
                if rearm_ns == 0 && !self.feeds_due.contains(&Some(now)) {
                    self.free_arms += 1;
                }
                self.wakes.arm(sched, now + rearm_ns);
            }
        }
    }
}

impl<W: Wakes> Model for Machine<W> {
    type Event = Ev;

    fn handle(&mut self, sched: &mut Scheduler<Ev>, ev: Ev) {
        let now = sched.now();
        self.dispatched += 1;
        match ev {
            Ev::Feeder(i) => {
                let step = self.script.feeders[i].1[self.cursor[i]];
                self.cursor[i] += 1;
                self.feeds_due[i] = None;
                let (queued, busy_until) = (self.queued, self.busy_until);
                self.queued += step.items;
                if step.items > 0 {
                    self.wakes.arm(sched, now + step.wake_after);
                }
                self.fed_since_wake += 1;
                self.log.push(Seen::Fed {
                    at: now,
                    feeder: i,
                    queued,
                    busy_until,
                    pending: self.wakes.pending(),
                });
                if self.cursor[i] < self.script.feeders[i].1.len() {
                    self.feeds_due[i] = Some(now + step.gap);
                    sched.at(now + step.gap, Ev::Feeder(i));
                }
            }
            Ev::Wake => {
                self.wake_events += 1;
                if self.wake_instants.last() != Some(&now) {
                    self.wake_instants.push(now);
                } else if self.fed_since_wake > 0 {
                    self.ties += 1;
                }
                self.fed_since_wake = 0;
                W::on_wake(self, sched);
            }
        }
    }
}

/// The reference: the router's bookkeeping before the fold, verbatim —
/// one scheduler event per wake-up.
#[derive(Default)]
struct PerWake {
    latest: Option<Time>,
    queued_events: u64,
}

impl Wakes for PerWake {
    fn arm(&mut self, sched: &mut Scheduler<Ev>, t: Time) {
        let t = t.max(sched.now());
        if let Some(pending) = self.latest {
            if pending <= t {
                return;
            }
        }
        self.latest = Some(t);
        self.queued_events += 1;
        sched.at(t, Ev::Wake);
    }

    fn pending(&self) -> u64 {
        self.queued_events
    }

    fn on_wake(m: &mut Machine<PerWake>, sched: &mut Scheduler<Ev>) {
        m.wakes.queued_events -= 1;
        m.wakes.latest = None;
        if m.busy_until > sched.now() {
            let t = m.busy_until;
            m.wakes.arm(sched, t);
            return;
        }
        if m.script.shape == Shape::Master && m.queued == 0 {
            return;
        }
        m.work(sched);
    }
}

/// The fold, used the way `Router::on_master_loop` and
/// `Router::on_worker_loop` use it.
#[derive(Default)]
struct Folded(FoldedWakes);

impl Wakes for Folded {
    fn arm(&mut self, sched: &mut Scheduler<Ev>, t: Time) {
        self.0.arm(sched, t, || Ev::Wake);
    }

    fn pending(&self) -> u64 {
        self.0.pending()
    }

    fn on_wake(m: &mut Machine<Folded>, sched: &mut Scheduler<Ev>) {
        let idle = m.script.shape == Shape::Master && m.queued == 0;
        while m.wakes.0.fire(sched, m.busy_until, idle, || Ev::Wake) {
            m.work(sched);
        }
    }
}

/// How many cases of a run of the property showed each situation the
/// generator is there to produce.
#[derive(Default)]
struct Coverage {
    /// The fold dispatched fewer events than the reference.
    piled: u32,
    /// The reference ran a feeder between two wake-ups of one instant.
    tied: u32,
    /// The poller armed its own wake-up for the instant it was
    /// replaying, with no feeder step queued for that instant.
    free_armed: u32,
}

/// Check the fold against the reference on `cases` scripts of
/// `shape` (at least 2048; cases are a few dozen events each, so the
/// rare orders — a feeder between two runs of one instant whose
/// wake-ups it can tell apart — come up many times).
fn differential(name: &str, shape: Shape) -> (u32, Coverage) {
    let mut cfg = Config::from_env(name);
    cfg.cases = cfg.cases.max(2048);
    let mut seen = Coverage::default();
    check_with(name, &cfg, |g| {
        let script = script(g, shape);
        let want = Machine::<PerWake>::run(&script);
        let got = Machine::<Folded>::run(&script);
        for (i, (w, g)) in want.log.iter().zip(&got.log).enumerate() {
            ensure_eq!(g, w, "entry {} of {}", i, want.log.len());
        }
        ensure_eq!(got.log.len(), want.log.len());
        ensure_eq!(got.wakes.pending(), want.wakes.pending(), "left pending");
        ensure_eq!(got.wakes.pending(), 0, "every wake-up ends spent");
        // The fold wakes on exactly the instants the reference does,
        // and never dispatches more events than it: a wake-up armed
        // for the instant being replayed, with nothing else queued for
        // it, joins the replay without an event of its own.
        ensure_eq!(&got.wake_instants, &want.wake_instants);
        ensure!(
            got.dispatched + got.free_arms <= want.dispatched,
            "{} events + {} free arms vs {} one per wake-up",
            got.dispatched,
            got.free_arms,
            want.dispatched
        );
        seen.piled += u32::from(got.wake_events < want.wake_events);
        seen.tied += u32::from(want.ties > 0);
        seen.free_armed += u32::from(got.free_arms > 0);
        Ok(())
    });
    (cfg.cases as u32, seen)
}

#[test]
fn folded_wakes_equal_one_event_per_wake() {
    let (cases, seen) = differential("folded_wakes_equal_one_event_per_wake", Shape::Master);
    let Coverage { piled, tied, .. } = seen;
    assert!(piled > cases / 2, "wake-ups piled up in {piled} cases");
    assert!(
        tied > cases / 8,
        "a feeder tied with wake-ups in {tied} cases"
    );
}

#[test]
fn folded_wakes_equal_one_event_per_wake_for_a_worker() {
    let (cases, seen) = differential(
        "folded_wakes_equal_one_event_per_wake_for_a_worker",
        Shape::Worker,
    );
    let Coverage {
        piled,
        tied,
        free_armed,
    } = seen;
    assert!(piled > cases / 2, "wake-ups piled up in {piled} cases");
    assert!(
        tied > cases / 8,
        "a feeder tied with wake-ups in {tied} cases"
    );
    assert!(
        free_armed > cases / 4,
        "the poller armed its own instant in {free_armed} cases"
    );
}

/// The fold's saving on a pile: `n` wake-ups that each find the poller
/// busy cost the reference one event per wake-up per round of work,
/// the fold one event per round.
#[test]
fn a_pile_of_wakes_costs_one_event_per_round() {
    let n = 50;
    let script = Script {
        // One feeder, `n` steps 2 ns apart, each queueing one item and
        // asking for a wake-up at once; the first wake-up starts a
        // 200 ns round of work that the other `n - 1` all run into.
        feeders: vec![(
            0,
            vec![
                Step {
                    items: 1,
                    wake_after: 0,
                    gap: 2,
                };
                n
            ],
        )],
        work_ns: vec![200],
        max_gather: 1,
        shape: Shape::Master,
        rearm_ns: vec![0],
    };
    let want = Machine::<PerWake>::run(&script);
    let got = Machine::<Folded>::run(&script);
    assert_eq!(got.log, want.log);
    let rounds = n as u64;
    assert!(want.wake_events > rounds * rounds / 2, "quadratic");
    assert!(got.wake_events <= 2 * rounds + 1, "linear");
}
