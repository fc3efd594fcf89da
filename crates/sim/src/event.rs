//! Deterministic event queue and simulation driver.
//!
//! Events are ordered by `(time, sequence)`: two events scheduled for
//! the same instant fire in scheduling order, which makes every run
//! bit-for-bit reproducible regardless of queue internals.
//!
//! Internally the queue is a **binary heap** plus a one-entry **next
//! slot** caching an event known to precede everything in the heap —
//! the common "schedule the immediate next arrival" pattern then never
//! touches the heap at all. Every pop takes the `(time, seq)` minimum
//! of the two, so the dispatch order is exactly the one a single heap
//! would give. Streams of items whose order is known in advance (DMA
//! and wire completions, generator arrivals) do not go through the
//! queue one by one: [`crate::Completions`] keeps them and holds one
//! event here for the earliest.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Time;
use crate::Model;

struct Entry<E> {
    time: Time,
    seq: u64,
    ev: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (Time, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// The event queue plus the virtual clock, handed to
/// [`Model::handle`] so handlers can schedule follow-up events.
pub struct Scheduler<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// When occupied, an event whose key precedes every heap entry.
    next: Option<Entry<E>>,
    seq: u64,
    now: Time,
    /// Key of the event being dispatched (the last one popped).
    current: (Time, u64),
    /// Deadline of the `run_until` call in progress: no event later
    /// than this may run in it, and neither may a
    /// [`crate::Completions`] item.
    horizon: Time,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// An empty scheduler at time zero.
    pub fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            next: None,
            seq: 0,
            now: 0,
            current: (0, 0),
            horizon: Time::MAX,
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of pending events (a [`crate::Completions`] set counts
    /// as the events it holds here, not as its items).
    pub fn pending(&self) -> usize {
        self.heap.len() + usize::from(self.next.is_some())
    }

    /// Schedule `ev` at absolute time `t`.
    ///
    /// # Panics
    /// Panics if `t` is in the past: a model scheduling backwards in
    /// time is always a bug and would silently corrupt causality.
    pub fn at(&mut self, t: Time, ev: E) {
        let seq = self.reserve_seq();
        self.at_reserved(t, seq, ev);
    }

    /// Take the next sequence number without scheduling anything: the
    /// place in the same-instant order an event scheduled *now* would
    /// get. [`crate::wake::FoldedWakes`] keeps it for wakes it folds
    /// into an already-scheduled event, so that the fold can be undone
    /// at exactly this place if a foreign event turns out to sit
    /// between them.
    pub(crate) fn reserve_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Schedule `ev` at `(t, seq)` for a `seq` from
    /// [`Scheduler::reserve_seq`] that no queued event holds.
    pub(crate) fn at_reserved(&mut self, t: Time, seq: u64, ev: E) {
        assert!(
            t >= self.now,
            "event scheduled in the past: t={} now={}",
            t,
            self.now
        );
        let e = Entry { time: t, seq, ev };
        // Keep the slot holding a key that precedes the whole heap:
        // a smaller event displaces the occupant into the heap; with
        // the slot empty, only an event preceding the heap root may
        // claim it.
        match &self.next {
            Some(n) if e.key() < n.key() => {
                let old = self.next.replace(e).expect("occupied");
                self.heap.push(Reverse(old));
            }
            Some(_) => self.heap.push(Reverse(e)),
            None => {
                if self.heap.peek().is_none_or(|Reverse(h)| e.key() < h.key()) {
                    self.next = Some(e);
                } else {
                    self.heap.push(Reverse(e));
                }
            }
        }
    }

    /// Schedule `ev` after a delay of `d` nanoseconds.
    pub fn after(&mut self, d: Time, ev: E) {
        self.at(self.now + d, ev);
    }

    /// Schedule `ev` to run at the current instant, after all events
    /// already queued for this instant.
    pub fn immediately(&mut self, ev: E) {
        self.at(self.now, ev);
    }

    /// Key of the earliest pending event.
    #[inline]
    pub(crate) fn peek_key(&self) -> Option<(Time, u64)> {
        match &self.next {
            Some(n) => Some(n.key()),
            None => self.heap.peek().map(|Reverse(h)| h.key()),
        }
    }

    /// Key of the event being dispatched.
    pub(crate) fn current_key(&self) -> (Time, u64) {
        self.current
    }

    /// Deadline of the `run_until` call in progress.
    #[inline]
    pub(crate) fn horizon(&self) -> Time {
        self.horizon
    }

    /// Drop the earliest pending event unseen: its owner is handling
    /// it inside the event being dispatched (see
    /// [`crate::Completions`]).
    pub(crate) fn discard_next(&mut self) {
        if self.next.take().is_none() {
            self.heap.pop();
        }
    }

    fn pop(&mut self) -> Option<(Time, E)> {
        self.pop_at_or_before(Time::MAX)
    }

    /// Advance the clock to `t` without dispatching anything (no-op if
    /// the clock is already past `t`): [`crate::Completions`] moves it
    /// to each item it settles.
    pub(crate) fn advance_clock(&mut self, t: Time) {
        if self.now < t {
            self.now = t;
        }
    }

    /// Pop the earliest event unless its time exceeds `deadline`,
    /// which becomes the horizon for the event popped.
    pub(crate) fn pop_at_or_before(&mut self, deadline: Time) -> Option<(Time, E)> {
        self.horizon = deadline;
        let k = self.peek_key()?;
        if k.0 > deadline {
            return None;
        }
        let e = match self.next.take() {
            Some(n) => n,
            None => self.heap.pop().expect("heap non-empty").0,
        };
        debug_assert!(e.time >= self.now);
        self.now = e.time;
        self.current = k;
        Some((e.time, e.ev))
    }
}

/// Drives a [`Model`] by repeatedly popping the earliest event and
/// dispatching it.
pub struct Simulation<M: Model> {
    /// The model under simulation; public so experiments can inspect
    /// state and statistics after (or during) a run.
    pub model: M,
    sched: Scheduler<M::Event>,
}

impl<M: Model> Simulation<M> {
    /// Wrap `model` with an empty event queue at time zero.
    pub fn new(model: M) -> Self {
        Simulation {
            model,
            sched: Scheduler::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.sched.now()
    }

    /// Schedule an initial (or external) event.
    pub fn schedule(&mut self, t: Time, ev: M::Event) {
        self.sched.at(t, ev);
    }

    /// The events still queued, in no particular order.
    pub fn pending_events(&self) -> impl Iterator<Item = &M::Event> {
        let heap = self.sched.heap.iter().map(|Reverse(e)| e);
        self.sched.next.iter().chain(heap).map(|e| &e.ev)
    }

    /// Dispatch a single event. Returns `false` when the queue is dry.
    pub fn step(&mut self) -> bool {
        match self.sched.pop() {
            Some((_, ev)) => {
                self.model.handle(&mut self.sched, ev);
                true
            }
            None => false,
        }
    }

    /// Run until the queue is empty or virtual time would exceed
    /// `deadline`. Events at exactly `deadline` still run. Returns the
    /// number of events dispatched.
    pub fn run_until(&mut self, deadline: Time) -> u64 {
        let mut steps = 0;
        while let Some((_, ev)) = self.sched.pop_at_or_before(deadline) {
            self.model.handle(&mut self.sched, ev);
            steps += 1;
        }
        // Advance the clock to the deadline so rate computations over
        // the window [0, deadline] are well defined even if the last
        // event fired earlier.
        if self.sched.now < deadline {
            self.sched.now = deadline;
        }
        steps
    }

    /// Run until the event queue is empty. Returns events dispatched.
    pub fn run_to_completion(&mut self) -> u64 {
        let mut steps = 0;
        while self.step() {
            steps += 1;
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        seen: Vec<(Time, u32)>,
        chain: bool,
    }

    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, sched: &mut Scheduler<u32>, ev: u32) {
            self.seen.push((sched.now(), ev));
            if self.chain && ev < 3 {
                sched.after(10, ev + 1);
            }
        }
    }

    fn recorder(chain: bool) -> Simulation<Recorder> {
        Simulation::new(Recorder {
            seen: vec![],
            chain,
        })
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = recorder(false);
        sim.schedule(30, 3);
        sim.schedule(10, 1);
        sim.schedule(20, 2);
        sim.run_to_completion();
        assert_eq!(sim.model.seen, vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn ties_fire_in_scheduling_order() {
        let mut sim = recorder(false);
        sim.schedule(5, 1);
        sim.schedule(5, 2);
        sim.schedule(5, 3);
        sim.run_to_completion();
        assert_eq!(sim.model.seen, vec![(5, 1), (5, 2), (5, 3)]);
    }

    #[test]
    fn handlers_can_chain_events() {
        let mut sim = recorder(true);
        sim.schedule(0, 0);
        sim.run_to_completion();
        assert_eq!(sim.model.seen, vec![(0, 0), (10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn run_until_respects_deadline_inclusive() {
        let mut sim = recorder(false);
        sim.schedule(10, 1);
        sim.schedule(20, 2);
        sim.schedule(21, 3);
        let n = sim.run_until(20);
        assert_eq!(n, 2);
        assert_eq!(sim.model.seen, vec![(10, 1), (20, 2)]);
        assert_eq!(sim.now(), 20);
        // Remaining event still fires afterwards.
        sim.run_to_completion();
        assert_eq!(sim.model.seen.last(), Some(&(21, 3)));
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        let mut sim = recorder(false);
        sim.schedule(10, 1);
        sim.run_until(1000);
        assert_eq!(sim.now(), 1000);
    }

    /// Event that starts a run of [`Lanes::c`].
    const RUN: u32 = u32::MAX;

    /// Items on [`crate::Completions`] lanes, settled in runs; every
    /// other event is recorded as it is.
    struct Lanes {
        c: crate::Completions<u32>,
        seen: Vec<(Time, u32)>,
    }

    impl Model for Lanes {
        type Event = u32;
        fn handle(&mut self, sched: &mut Scheduler<u32>, ev: u32) {
            if ev != RUN {
                self.seen.push((sched.now(), ev));
                return;
            }
            assert!(self.c.fired(sched));
            while let Some(v) = self.c.next(sched, |_| RUN) {
                self.seen.push((sched.now(), v));
            }
        }
    }

    fn lanes(n: usize) -> Simulation<Lanes> {
        Simulation::new(Lanes {
            c: crate::Completions::new(n),
            seen: vec![],
        })
    }

    #[test]
    fn fifo_lanes_interleave_with_heap_in_global_order() {
        let mut sim = lanes(2);
        let Simulation { model, sched } = &mut sim;
        // Lane 0: monotone stream; lane 1: another; the unordered
        // lane: 31 then 8; heap: odd times.
        model.c.push(sched, 0, 10, 1, |_| RUN);
        model.c.push(sched, 0, 30, 3, |_| RUN);
        model.c.push(sched, 1, 20, 2, |_| RUN);
        model.c.push_unordered(sched, 31, 4, |_| RUN);
        model.c.push_unordered(sched, 8, 0, |_| RUN);
        sim.schedule(15, 10);
        sim.schedule(25, 20);
        sim.schedule(5, 0);
        // Three heap events, and a run after each of them plus the one
        // the push of time 8 needed ahead of time 10.
        assert_eq!(sim.run_to_completion(), 3 + 3);
        assert_eq!(
            sim.model.seen,
            vec![
                (5, 0),
                (8, 0),
                (10, 1),
                (15, 10),
                (20, 2),
                (25, 20),
                (30, 3),
                (31, 4)
            ]
        );
    }

    #[test]
    fn fifo_lane_ties_fire_in_scheduling_order() {
        // Same instant across lanes, slot and heap: scheduling order
        // (= seq order) decides, exactly as a single heap would.
        let mut sim = lanes(2);
        sim.schedule(5, 1); // slot
        let Simulation { model, sched } = &mut sim;
        model.c.push(sched, 0, 5, 2, |_| RUN);
        sim.schedule(5, 3); // heap
        let Simulation { model, sched } = &mut sim;
        model.c.push_unordered(sched, 5, 4, |_| RUN);
        model.c.push(sched, 1, 5, 5, |_| RUN);
        sim.schedule(5, 6);
        let Simulation { model, sched } = &mut sim;
        model.c.push(sched, 0, 5, 7, |_| RUN);
        sim.run_to_completion();
        let order: Vec<u32> = sim.model.seen.iter().map(|&(_, v)| v).collect();
        assert_eq!(order, [1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    #[should_panic(expected = "not monotone")]
    fn fifo_lane_rejects_time_regression() {
        let mut sched: Scheduler<u32> = Scheduler::new();
        let mut c = crate::Completions::new(1);
        c.push(&mut sched, 0, 10, 1, |_| RUN);
        c.push(&mut sched, 0, 9, 2, |_| RUN);
    }

    #[test]
    fn next_slot_displacement_keeps_order() {
        // Exercise the slot: each new minimum displaces the previous
        // occupant back into the heap.
        let mut sim = recorder(false);
        for &(t, v) in &[(50u64, 5u32), (40, 4), (30, 3), (20, 2), (10, 1)] {
            sim.schedule(t, v);
        }
        sim.run_to_completion();
        assert_eq!(
            sim.model.seen,
            vec![(10, 1), (20, 2), (30, 3), (40, 4), (50, 5)]
        );
    }

    #[test]
    fn pending_counts_all_structures() {
        let mut sched: Scheduler<u32> = Scheduler::new();
        sched.at(10, 1); // slot
        sched.at(20, 2); // heap
        sched.at(15, 3); // heap
        assert_eq!(sched.pending(), 3);
        sched.pop();
        assert_eq!(sched.pending(), 2);
        sched.discard_next();
        assert_eq!(sched.pending(), 1);
        assert_eq!(sched.pop(), Some((20, 2)));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sched: Scheduler<u32> = Scheduler::new();
        sched.at(10, 1);
        sched.pop();
        sched.at(5, 2);
    }

    #[test]
    fn immediately_runs_after_current_instant_events() {
        struct M {
            order: Vec<u32>,
        }
        impl Model for M {
            type Event = u32;
            fn handle(&mut self, sched: &mut Scheduler<u32>, ev: u32) {
                if ev == 1 {
                    sched.immediately(9);
                }
                self.order.push(ev);
            }
        }
        let mut sim = Simulation::new(M { order: vec![] });
        sim.schedule(0, 1);
        sim.schedule(0, 2);
        sim.run_to_completion();
        assert_eq!(sim.model.order, vec![1, 2, 9]);
    }
}
