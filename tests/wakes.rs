//! Differential property for the master's wake bookkeeping (ISSUE 13).
//!
//! `ps_sim::FoldedWakes` keeps a polling thread's pending wake-ups as
//! counts per instant with one scheduler event per instant. The
//! reference here is the bookkeeping the router had before: a
//! `next_wake` dedupe and one scheduler event per wake-up, each of
//! which clears the dedupe when it runs and re-arms itself while the
//! thread is busy. Both drive the same little machine — feeder
//! threads that queue work and ask for a wake-up (the workers), a
//! poller that gathers what is queued and is then busy for a while
//! (the master) — through the real `Scheduler`, on a clock so coarse
//! that wake-ups, feeders and ends of work land on the same
//! nanosecond all the time. Everything either side can observe must
//! come out identical: what every feeder saw and whether its wake-up
//! was armed, when the poller worked and on how much, and how many
//! wake-ups were pending at each of those points.

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

#[derive(Debug, Clone)]
struct Script {
    /// Per feeder: its first instant and its steps.
    feeders: Vec<(Time, Vec<Step>)>,
    /// How long each round of work keeps the poller busy, cycled.
    work_ns: Vec<Time>,
    /// Most items one round of work takes.
    max_gather: u32,
}

fn script(g: &mut Gen) -> Script {
    // Everything lands on a handful of nanoseconds, so wake-ups that
    // moved to the end of a round of work, wake-ups armed for that
    // nanosecond and feeders stepping on it meet all the time.
    Script {
        feeders: g.vec_of(2, 5, |g| {
            let start = g.int_in(0u64..4);
            let steps = g.vec_of(1, 24, |g| Step {
                items: g.int_in(0u32..3),
                wake_after: g.int_in(0u64..4),
                gap: g.int_in(0u64..4),
            });
            (start, steps)
        }),
        work_ns: g.vec_of(1, 4, |g| g.int_in(1u64..5)),
        max_gather: g.int_in(1u32..6),
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
    rounds: usize,
    log: Vec<Seen>,
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
            rounds: 0,
            log: Vec::new(),
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

    /// One round of work: gather, get busy, re-arm if work is left.
    fn work(&mut self, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        let gathered = self.queued.min(self.script.max_gather);
        self.log.push(Seen::Worked {
            at: now,
            gathered,
            pending: self.wakes.pending(),
        });
        self.queued -= gathered;
        self.busy_until = now + self.script.work_ns[self.rounds % self.script.work_ns.len()];
        self.rounds += 1;
        if self.queued > 0 {
            self.wakes.arm(sched, self.busy_until);
        }
    }
}

impl<W: Wakes> Model for Machine<W> {
    type Event = Ev;

    fn handle(&mut self, sched: &mut Scheduler<Ev>, ev: Ev) {
        let now = sched.now();
        match ev {
            Ev::Feeder(i) => {
                let step = self.script.feeders[i].1[self.cursor[i]];
                self.cursor[i] += 1;
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
    next_wake: Option<Time>,
    queued_events: u64,
}

impl Wakes for PerWake {
    fn arm(&mut self, sched: &mut Scheduler<Ev>, t: Time) {
        let t = t.max(sched.now());
        if let Some(pending) = self.next_wake {
            if pending <= t {
                return;
            }
        }
        self.next_wake = Some(t);
        self.queued_events += 1;
        sched.at(t, Ev::Wake);
    }

    fn pending(&self) -> u64 {
        self.queued_events
    }

    fn on_wake(m: &mut Machine<PerWake>, sched: &mut Scheduler<Ev>) {
        m.wakes.queued_events -= 1;
        m.wakes.next_wake = None;
        if m.busy_until > sched.now() {
            let t = m.busy_until;
            m.wakes.arm(sched, t);
            return;
        }
        if m.queued == 0 {
            return;
        }
        m.work(sched);
    }
}

/// The fold, used the way `Router::on_master_loop` uses it.
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
        while m
            .wakes
            .0
            .fire(sched, m.busy_until, m.queued == 0, || Ev::Wake)
        {
            m.work(sched);
        }
    }
}

#[test]
fn folded_wakes_equal_one_event_per_wake() {
    // Cases are a few dozen events each; run enough of them that the
    // rare orders (a feeder between two runs of one instant whose
    // wake-ups it can tell apart) come up many times.
    let name = "folded_wakes_equal_one_event_per_wake";
    let mut cfg = Config::from_env(name);
    cfg.cases = cfg.cases.max(2048);
    // Coverage of the generator itself: cases where wake-ups piled up,
    // and cases where the reference ran a feeder between two wake-ups
    // of one instant.
    let (mut piled, mut tied) = (0u32, 0u32);
    check_with(name, &cfg, |g| {
        let script = script(g);
        let want = Machine::<PerWake>::run(&script);
        let got = Machine::<Folded>::run(&script);
        for (i, (w, g)) in want.log.iter().zip(&got.log).enumerate() {
            ensure_eq!(g, w, "entry {} of {}", i, want.log.len());
        }
        ensure_eq!(got.log.len(), want.log.len());
        ensure_eq!(got.wakes.pending(), want.wakes.pending(), "left pending");
        ensure_eq!(got.wakes.pending(), 0, "every wake-up ends spent");
        // The fold wakes on exactly the instants the reference does,
        // and never spends more events than it.
        ensure_eq!(&got.wake_instants, &want.wake_instants);
        ensure!(got.wake_events <= want.wake_events);
        piled += u32::from(got.wake_events < want.wake_events);
        tied += u32::from(want.ties > 0);
        Ok(())
    });
    assert!(
        piled > cfg.cases as u32 / 2,
        "wake-ups piled up in {piled} cases"
    );
    assert!(
        tied > cfg.cases as u32 / 8,
        "a feeder tied with wake-ups in {tied} cases"
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
    };
    let want = Machine::<PerWake>::run(&script);
    let got = Machine::<Folded>::run(&script);
    assert_eq!(got.log, want.log);
    let rounds = n as u64;
    assert!(want.wake_events > rounds * rounds / 2, "quadratic");
    assert!(got.wake_events <= 2 * rounds + 1, "linear");
}
