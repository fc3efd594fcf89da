//! Wake-ups of a polling thread, folded: one scheduler event per wake
//! instant instead of one per wake.
//!
//! The thread being modelled sleeps until woken, and each wake-up does
//! one of three things: the thread is still *busy* (blocked in
//! earlier work), so the wake-up moves to the instant the work ends;
//! or it is free and its queue is *empty*, so the wake-up is spent;
//! or it *works* once, which makes it busy again. Wake-ups are armed
//! by whoever feeds the queue and, as the first rule says, by each
//! other — so while the thread stays busy or fed they only ever pile
//! up at the end of the current work, and a model that keeps one
//! scheduler event per wake-up spends most of its dispatches moving
//! that pile from one instant to the next.
//!
//! [`FoldedWakes`] keeps the pile as counts. Wake-ups that would hold
//! consecutive places in the scheduler's same-instant order are one
//! *run* `(instant, place, copies)`; an instant's runs share one
//! scheduler event, at the first run's place. Replaying a run is the
//! per-wake-up handler applied `copies` times with nothing in
//! between — nothing *can* come between consecutive places — and
//! before going on to the instant's next run the replay checks that
//! no other event is queued ahead of that run's place; if one is, the
//! run gets its own event at its own place and the replay stops. The
//! dispatch order every other event sees is therefore exactly the
//! order one event per wake-up gives (`tests/wakes.rs` checks this
//! against that reference, ties included).

use crate::event::Scheduler;
use crate::time::Time;

/// Wake-ups armed back to back for one instant.
#[derive(Debug)]
struct Run {
    at: Time,
    /// Place of the first copy in the same-instant order.
    first: u64,
    /// Place of the most recently folded copy; the next copy folds in
    /// only if it takes the place right after.
    last: u64,
    copies: u64,
}

/// The pending wake-ups of one polling thread (see the module docs).
#[derive(Debug, Default)]
pub struct FoldedWakes {
    /// The instant armed most recently, unless a wake-up has run
    /// since: what [`FoldedWakes::arm`] dedupes against. Not the
    /// earliest pending wake-up — every wake-up that runs clears it
    /// (and a busy one sets it to where it moved), so an arm for an
    /// earlier instant replaces it and the later wake-up stays queued.
    latest: Option<Time>,
    /// Pending runs in arming order, which is place order.
    runs: Vec<Run>,
    /// Copies of the run being replayed that have not run yet.
    replaying: u64,
}

impl FoldedWakes {
    /// No wake-ups pending.
    pub fn new() -> FoldedWakes {
        FoldedWakes::default()
    }

    /// Wake-ups pending, over all instants.
    pub fn pending(&self) -> u64 {
        self.replaying + self.runs.iter().map(|r| r.copies).sum::<u64>()
    }

    /// Wake the thread at `t` (or now, if `t` has passed) unless the
    /// latest arming is for that instant or an earlier one. `ev` builds
    /// the thread's wake event; its handler must call
    /// [`FoldedWakes::fire`].
    pub fn arm<E>(&mut self, sched: &mut Scheduler<E>, t: Time, ev: impl Fn() -> E) {
        let t = t.max(sched.now());
        if self.latest.is_some_and(|pending| pending <= t) {
            return;
        }
        self.latest = Some(t);
        self.add(sched, t, 1, ev);
    }

    /// Queue `copies` wake-ups at `t`, at the next place in line.
    fn add<E>(&mut self, sched: &mut Scheduler<E>, t: Time, copies: u64, ev: impl Fn() -> E) {
        let seq = sched.reserve_seq();
        if let Some(r) = self.runs.last_mut() {
            if r.at == t && r.last + 1 == seq {
                r.last = seq;
                r.copies += copies;
                return;
            }
        }
        if !self.runs.iter().any(|r| r.at == t) {
            sched.at_reserved(t, seq, ev());
        }
        self.runs.push(Run {
            at: t,
            first: seq,
            last: seq,
            copies,
        });
    }

    /// Run the wake-ups due now, from the thread's wake-event handler:
    ///
    /// ```ignore
    /// while wakes.fire(sched, busy_until, queue.is_empty(), ev) {
    ///     /* work once; this must leave `busy_until` in the future */
    /// }
    /// ```
    ///
    /// `busy_until` and `idle` are the thread's state *at this call*.
    /// Returns `true` when the next wake-up finds the thread free with
    /// work queued: the caller does that work and calls again. Returns
    /// `false` when nothing more can run in this dispatch.
    pub fn fire<E>(
        &mut self,
        sched: &mut Scheduler<E>,
        busy_until: Time,
        idle: bool,
        ev: impl Fn() -> E,
    ) -> bool {
        let now = sched.now();
        loop {
            if self.replaying == 0 {
                let Some(i) = self.runs.iter().position(|r| r.at == now) else {
                    return false;
                };
                // The dispatched event held the first run's place, so
                // nothing precedes that one. A later run waits behind
                // any event queued ahead of its place.
                let key = (now, self.runs[i].first);
                if sched.peek_key().is_some_and(|head| head < key) {
                    sched.at_reserved(now, key.1, ev());
                    return false;
                }
                self.replaying = self.runs.remove(i).copies;
            }
            if busy_until > now {
                // Each remaining copy re-arms at `busy_until`.
                let copies = std::mem::take(&mut self.replaying);
                self.add(sched, busy_until, copies, &ev);
                self.latest = Some(busy_until);
            } else if idle {
                // Each remaining copy finds nothing to do.
                self.replaying = 0;
                self.latest = None;
            } else {
                self.replaying -= 1;
                self.latest = None;
                return true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A thread that works for 10 ns per wake-up with work queued.
    struct Poller {
        wakes: FoldedWakes,
        busy_until: Time,
        queue: u32,
        worked_at: Vec<Time>,
    }

    impl Poller {
        fn new() -> Poller {
            Poller {
                wakes: FoldedWakes::new(),
                busy_until: 0,
                queue: 0,
                worked_at: Vec::new(),
            }
        }

        fn feed(&mut self, sched: &mut Scheduler<()>, wake_at: Time) {
            self.queue += 1;
            self.wakes.arm(sched, wake_at, || ());
        }

        fn on_wake(&mut self, sched: &mut Scheduler<()>) {
            while self
                .wakes
                .fire(sched, self.busy_until, self.queue == 0, || ())
            {
                self.queue -= 1;
                self.worked_at.push(sched.now());
                self.busy_until = sched.now() + 10;
                if self.queue > 0 {
                    self.wakes.arm(sched, self.busy_until, || ());
                }
            }
        }

        /// Dispatch every queued event; returns how many there were.
        fn drain(&mut self, sched: &mut Scheduler<()>) -> u32 {
            let mut n = 0;
            while sched.pop_at_or_before(Time::MAX).is_some() {
                self.on_wake(sched);
                n += 1;
            }
            n
        }
    }

    #[test]
    fn an_arm_is_dropped_only_behind_the_latest_arming() {
        let mut s = Scheduler::new();
        let mut p = Poller::new();
        p.feed(&mut s, 50);
        p.feed(&mut s, 60); // behind 50: dropped
        assert_eq!((p.wakes.pending(), s.pending()), (1, 1));
        p.feed(&mut s, 40); // ahead of 50: armed, and 50 stays queued
        assert_eq!((p.wakes.pending(), s.pending()), (2, 2));
        p.feed(&mut s, 45); // behind 40 now, although 50 is still later
        assert_eq!((p.wakes.pending(), s.pending()), (2, 2));
    }

    #[test]
    fn busy_wakes_pile_up_as_copies_of_one_event() {
        let mut s = Scheduler::new();
        let mut p = Poller::new();
        p.busy_until = 100;
        // Each wake-up fires while the thread is busy and moves to 100;
        // firing clears the dedupe, so the next feed arms again.
        for t in [10, 20, 30] {
            p.feed(&mut s, t);
            assert_eq!(s.pop_at_or_before(Time::MAX).map(|(t, ())| t), Some(t));
            p.on_wake(&mut s);
        }
        assert_eq!((p.wakes.pending(), s.pending()), (3, 1));
        // At 100 the first copy works and the other two move on with
        // the wake-up that work arms; at 110 the same. The work at 120
        // empties the queue and arms nothing, so two copies move on
        // once more and are spent at 130.
        assert_eq!(p.drain(&mut s), 4);
        assert_eq!(p.worked_at, [100, 110, 120]);
        assert_eq!((p.wakes.pending(), s.pending()), (0, 0));
    }

    #[test]
    fn idle_copies_are_spent_together() {
        let mut s = Scheduler::new();
        let mut p = Poller::new();
        p.busy_until = 100;
        for t in [10, 20] {
            p.feed(&mut s, t);
            s.pop_at_or_before(Time::MAX);
            p.on_wake(&mut s);
        }
        p.queue = 0; // someone else took the work
        assert_eq!(p.drain(&mut s), 1);
        assert!(p.worked_at.is_empty());
        assert_eq!(p.wakes.pending(), 0);
        // Spent wake-ups clear the dedupe: the next feed arms.
        p.feed(&mut s, 150);
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn a_foreign_event_between_two_runs_keeps_its_place() {
        // Two wake-ups for instant 100 with a foreign event scheduled
        // for 100 between them: the replay must stop after the first
        // run, let the foreign event go, and resume at the second
        // run's own place — ahead of a foreign event scheduled later.
        #[derive(Debug, PartialEq)]
        enum Ev {
            Wake,
            Foreign(u8),
        }
        let mut s = Scheduler::new();
        let mut w = FoldedWakes::new();
        w.arm(&mut s, 100, || Ev::Wake);
        s.at(100, Ev::Foreign(1));
        w.latest = None; // as if a wake-up had run in between
        w.arm(&mut s, 100, || Ev::Wake);
        s.at(100, Ev::Foreign(2));
        assert_eq!((w.pending(), s.pending()), (2, 3));

        let mut order = Vec::new();
        while let Some((_, ev)) = s.pop_at_or_before(Time::MAX) {
            if ev == Ev::Wake {
                assert!(!w.fire(&mut s, 0, true, || Ev::Wake));
            }
            order.push(ev);
        }
        assert_eq!(
            order,
            [Ev::Wake, Ev::Foreign(1), Ev::Wake, Ev::Foreign(2)],
            "one event per run here, each at its own place"
        );
        assert_eq!(w.pending(), 0);
    }
}
