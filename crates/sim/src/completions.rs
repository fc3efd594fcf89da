//! Completions settled in runs: one scheduler event for a whole set of
//! pending items instead of one per item.
//!
//! A DMA engine or a wire hands its results over one by one, but the
//! order they come out in is known the moment each is started: a
//! bandwidth server finishes in the order it was fed. [`Completions`]
//! keeps such items as `(time, place, item)` triples, where the
//! *place* is the slot in the scheduler's same-instant order an event
//! scheduled at [`Completions::push`] would have taken — it is
//! reserved then, so it is the place. Items live in lanes: FIFO lanes
//! for streams whose times never go backwards, which keep themselves
//! sorted, and one unordered lane, a heap, for everything else.
//!
//! Of all that, the scheduler sees one event, at the earliest item's
//! key. Its handler calls [`Completions::fired`] and then takes items
//! with [`Completions::next`], each one moving the clock to its time,
//! in key order across every lane, for as long as the next item comes
//! before both every event still queued and the deadline of the
//! `run_until` call in progress (the scheduler's
//! *horizon*). Then it queues one event at the first item it did not
//! take, at that item's own place. Every other event therefore sees
//! exactly the order one event per item gives, ties included
//! (`tests/completions.rs` checks this against that reference), and a
//! run cut into slices takes the same items in each as the reference
//! dispatches there.
//!
//! Items pushed by another event may come before the queued one; such
//! a push queues an event of its own, and the set keeps the keys of all
//! of its events. When one of them turns out to be the next event while
//! items are being taken, it is taken out of the queue unseen and its
//! item handled in the same run.
//!
//! Lanes order small keys `(time, place, slot)`; the items themselves
//! sit in a pool of slots that never move, shared by every lane and
//! reused most recently freed first. An item is written once, into
//! memory the last item taken has just left, and read once; the pool
//! grows in chunks, once, to the most items ever pending at a time.
//! Against items stored in the lanes and a scan of the lanes' own
//! fronts, the pool saves allocated bytes and the packed fronts host
//! time on the router's workloads (measured in DESIGN.md §7).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::event::Scheduler;
use crate::time::Time;

/// A pending item's key and where its payload is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    time: Time,
    seq: u64,
    slot: u32,
}

impl Key {
    #[inline]
    fn key(&self) -> (Time, u64) {
        (self.time, self.seq)
    }
}

/// Bits of a packed front that name its lane.
const LANE_BITS: u32 = 8;

/// Item key and lane as one integer ordered by the key: the time, then
/// the place shifted past the lane number. Places are unique, so the
/// lane bits never decide an order, and the least packed front names
/// the earliest item's lane without a branch per lane.
#[inline]
fn packed((t, seq): (Time, u64), lane: usize) -> u128 {
    assert!(seq < 1 << (64 - LANE_BITS), "2^56 places reserved");
    (u128::from(t) << 64) | u128::from(seq << LANE_BITS) | lane as u128
}

/// The key and lane of a packed front.
#[inline]
fn unpacked(k: u128) -> ((Time, u64), usize) {
    let low = k as u64;
    (
        ((k >> 64) as Time, low >> LANE_BITS),
        (low & ((1 << LANE_BITS) - 1)) as usize,
    )
}

/// Front of an empty lane: after every item.
const EMPTY: u128 = u128::MAX;

/// Payload slots per chunk of the pool (a power of two).
const CHUNK: usize = 256;

/// Pending completions and the scheduler events that stand for them
/// (see the module docs).
pub struct Completions<T> {
    /// FIFO lanes, each sorted by construction.
    lanes: Vec<VecDeque<Key>>,
    /// Time of the last item pushed on each FIFO lane: the next may
    /// not be earlier.
    last: Vec<Time>,
    /// The unordered lane.
    unordered: BinaryHeap<Reverse<Key>>,
    /// Packed key of each lane's first item, or [`EMPTY`]: the FIFO
    /// lanes in order, then the unordered lane. Finding the earliest
    /// item is one scan of this short array.
    fronts: Vec<u128>,
    /// Payloads, in chunks that never move: slot `s` is
    /// `slots[s / CHUNK][s % CHUNK]`.
    slots: Vec<Vec<Option<T>>>,
    /// Free slots, the most recently freed last: a new item is written
    /// where the last one taken was just read.
    free: Vec<u32>,
    /// Keys of this set's events still in the scheduler, ascending.
    /// Each is the key of a pending item.
    armed: Vec<(Time, u64)>,
    /// Between [`Completions::fired`] and the end of the run: pushes
    /// queue nothing, the run's end queues what is needed.
    settling: bool,
}

impl<T> Completions<T> {
    /// An empty set with `lanes` FIFO lanes and room for one chunk of
    /// items.
    ///
    /// # Panics
    /// Panics if `lanes` is 255 or more.
    pub fn new(lanes: usize) -> Completions<T> {
        assert!(lanes < (1 << LANE_BITS) - 1, "{lanes} lanes");
        let mut set = Completions {
            lanes: (0..lanes).map(|_| VecDeque::new()).collect(),
            last: vec![0; lanes],
            unordered: BinaryHeap::new(),
            fronts: vec![EMPTY; lanes + 1],
            slots: Vec::new(),
            free: Vec::new(),
            armed: Vec::new(),
            settling: false,
        };
        set.grow();
        set
    }

    /// Items pending, over all lanes.
    pub fn len(&self) -> usize {
        self.unordered.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// True when no item is pending.
    pub fn is_empty(&self) -> bool {
        self.head() == EMPTY
    }

    /// Every pending item, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten().flatten()
    }

    /// Add a chunk of free slots.
    fn grow(&mut self) {
        let base = self.slots.len() * CHUNK;
        let top = u32::try_from(base + CHUNK).expect("fewer than 2^32 pending items");
        self.slots.push((0..CHUNK).map(|_| None).collect());
        self.free.extend((base as u32..top).rev());
    }

    /// Store `item` in a free slot.
    fn store(&mut self, item: T) -> u32 {
        if self.free.is_empty() {
            self.grow();
        }
        let slot = self.free.pop().expect("a chunk was just added");
        self.slots[slot as usize / CHUNK][slot as usize % CHUNK] = Some(item);
        slot
    }

    /// Take the item out of `slot` and free it.
    fn take(&mut self, slot: u32) -> T {
        self.free.push(slot);
        self.slots[slot as usize / CHUNK][slot as usize % CHUNK]
            .take()
            .expect("a pending item's slot is full")
    }

    /// The item in `slot`.
    fn get(&self, slot: u32) -> &T {
        self.slots[slot as usize / CHUNK][slot as usize % CHUNK]
            .as_ref()
            .expect("a pending item's slot is full")
    }

    /// Queue `item` to complete at `t` on FIFO lane `lane`. `ev`
    /// builds the scheduler event that stands for it if it needs one;
    /// that event's handler must call [`Completions::fired`].
    ///
    /// # Panics
    /// Panics if `t` is in the past, or precedes the last item pushed
    /// on this lane (the lane contract).
    pub fn push<E>(
        &mut self,
        sched: &mut Scheduler<E>,
        lane: usize,
        t: Time,
        item: T,
        ev: impl FnOnce(&T) -> E,
    ) {
        check_not_past(sched, t);
        let last = std::mem::replace(&mut self.last[lane], t);
        assert!(
            last <= t,
            "completion lane {lane} not monotone: {last} then {t}"
        );
        let seq = sched.reserve_seq();
        let e = self.event_for((t, seq), &item, ev);
        let slot = self.store(item);
        self.lanes[lane].push_back(Key { time: t, seq, slot });
        if self.fronts[lane] == EMPTY {
            self.fronts[lane] = packed((t, seq), lane);
        }
        self.queue(sched, (t, seq), e);
    }

    /// Queue `item` to complete at `t` on the unordered lane, for
    /// streams whose times can go backwards.
    ///
    /// # Panics
    /// Panics if `t` is in the past.
    pub fn push_unordered<E>(
        &mut self,
        sched: &mut Scheduler<E>,
        t: Time,
        item: T,
        ev: impl FnOnce(&T) -> E,
    ) {
        check_not_past(sched, t);
        let seq = sched.reserve_seq();
        let e = self.event_for((t, seq), &item, ev);
        let slot = self.store(item);
        self.unordered.push(Reverse(Key { time: t, seq, slot }));
        let u = self.lanes.len();
        self.fronts[u] = self.fronts[u].min(packed((t, seq), u));
        self.queue(sched, (t, seq), e);
    }

    /// The event an item pushed with `key` needs: one if it becomes
    /// the earliest item outside a run.
    fn event_for<E>(&self, key: (Time, u64), item: &T, ev: impl FnOnce(&T) -> E) -> Option<E> {
        (!self.settling && self.armed.first().is_none_or(|&a| key < a)).then(|| ev(item))
    }

    /// Put the event for `key` in the scheduler, if there is one.
    fn queue<E>(&mut self, sched: &mut Scheduler<E>, key: (Time, u64), ev: Option<E>) {
        if let Some(ev) = ev {
            sched.at_reserved(key.0, key.1, ev);
            self.armed.insert(0, key);
        }
    }

    /// Start a run, first thing in the handler of any event built by
    /// an `ev` passed to this set. Returns whether the event being
    /// dispatched is one of this set's; when it is not (an event of the
    /// same kind scheduled by someone else), the caller handles it
    /// before taking items.
    pub fn fired<E>(&mut self, sched: &Scheduler<E>) -> bool {
        debug_assert!(!self.settling, "a run is already in progress");
        self.settling = true;
        let ours = self.armed.first() == Some(&sched.current_key());
        if ours {
            self.armed.remove(0);
        }
        ours
    }

    /// The next item of the run, with the clock moved to its time; or
    /// `None` when the next item may not run yet (an event or the
    /// horizon comes first, or nothing is pending), which ends the run:
    /// an event named by `ev` is queued at the earliest pending item's
    /// own key unless one is there already.
    pub fn next<E>(&mut self, sched: &mut Scheduler<E>, ev: impl FnOnce(&T) -> E) -> Option<T> {
        assert!(self.settling, "Completions::next outside a run");
        let front = self.head();
        if front != EMPTY {
            let (key, lane) = unpacked(front);
            if key.0 <= sched.horizon() {
                let mut due = true;
                match sched.peek_key() {
                    Some(p) if p < key => due = false,
                    Some(p) if p == key => {
                        // This item's own event is next in line: it
                        // runs here, so the event goes unseen.
                        debug_assert_eq!(self.armed.first(), Some(&key));
                        sched.discard_next();
                        self.armed.remove(0);
                    }
                    _ => {}
                }
                if due {
                    sched.advance_clock(key.0);
                    return Some(self.pop(lane));
                }
            }
        }
        self.park(sched, ev);
        None
    }

    /// End the run: queue an event at the earliest pending item's own
    /// key unless one is there already.
    fn park<E>(&mut self, sched: &mut Scheduler<E>, ev: impl FnOnce(&T) -> E) {
        self.settling = false;
        let front = self.head();
        if front == EMPTY {
            return;
        }
        let (key, lane) = unpacked(front);
        if self.armed.first().is_none_or(|&a| key < a) {
            let first = match self.lanes.get(lane) {
                Some(q) => q.front(),
                None => self.unordered.peek().map(|Reverse(k)| k),
            };
            let e = ev(self.get(first.expect("a front key has an item").slot));
            self.queue(sched, key, Some(e));
        }
    }

    /// Take the first item of lane `lane` (the unordered lane is
    /// `lanes.len()`).
    fn pop(&mut self, lane: usize) -> T {
        let (first, front) = match self.lanes.get_mut(lane) {
            Some(q) => (q.pop_front(), q.front()),
            None => (
                self.unordered.pop().map(|Reverse(k)| k),
                self.unordered.peek().map(|Reverse(k)| k),
            ),
        };
        self.fronts[lane] = front.map_or(EMPTY, |k| packed(k.key(), lane));
        self.take(first.expect("a front key has an item").slot)
    }

    /// The earliest item's packed front ([`EMPTY`] when nothing is
    /// pending).
    #[inline]
    fn head(&self) -> u128 {
        self.fronts.iter().fold(EMPTY, |a, &b| a.min(b))
    }
}

fn check_not_past<E>(sched: &Scheduler<E>, t: Time) {
    assert!(
        t >= sched.now(),
        "completion scheduled in the past: t={} now={}",
        t,
        sched.now()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Done,
        Foreign(u32),
    }

    /// Dispatch everything up to `deadline`, taking items in runs;
    /// returns what ran, as `(time, item or foreign id)`, and the
    /// events dispatched.
    fn drain(
        s: &mut Scheduler<Ev>,
        c: &mut Completions<u32>,
        deadline: Time,
        seen: &mut Vec<(Time, u32)>,
    ) -> u32 {
        let mut events = 0;
        while let Some((t, ev)) = s.pop_at_or_before(deadline) {
            events += 1;
            match ev {
                Ev::Foreign(id) => seen.push((t, id)),
                Ev::Done => {
                    assert!(c.fired(s));
                    while let Some(item) = c.next(s, |_| Ev::Done) {
                        seen.push((s.now(), item));
                    }
                }
            }
        }
        events
    }

    #[test]
    fn a_run_stops_at_the_horizon_and_resumes_in_the_next_call() {
        let mut s = Scheduler::new();
        let mut c = Completions::new(1);
        for (t, v) in [(10, 1), (20, 2), (30, 3)] {
            c.push(&mut s, 0, t, v, |_| Ev::Done);
        }
        let mut seen = Vec::new();
        assert_eq!(drain(&mut s, &mut c, 20, &mut seen), 1);
        assert_eq!(seen, [(10, 1), (20, 2)], "inclusive, like run_until");
        assert_eq!((c.len(), s.pending()), (1, 1));
        assert_eq!(drain(&mut s, &mut c, 25, &mut seen), 0);
        assert_eq!(drain(&mut s, &mut c, 30, &mut seen), 1);
        assert_eq!(seen.last(), Some(&(30, 3)));
    }

    #[test]
    fn an_early_push_from_a_foreign_event_is_absorbed_into_the_run() {
        // A foreign event pushes an item ahead of the queued one. Two
        // events of the set are then queued; the run the earlier one
        // starts takes the later one's item too, and its event with it.
        struct M {
            c: Completions<u32>,
            seen: Vec<(Time, u32)>,
        }
        impl crate::Model for M {
            type Event = Ev;
            fn handle(&mut self, s: &mut Scheduler<Ev>, ev: Ev) {
                match ev {
                    Ev::Foreign(0) => self.c.push(s, 0, 20, 1, |_| Ev::Done),
                    Ev::Foreign(_) => self.c.push(s, 1, 12, 100, |_| Ev::Done),
                    Ev::Done => {
                        assert!(self.c.fired(s));
                        while let Some(v) = self.c.next(s, |_| Ev::Done) {
                            self.seen.push((s.now(), v));
                        }
                    }
                }
            }
        }
        let mut sim = crate::Simulation::new(M {
            c: Completions::new(2),
            seen: Vec::new(),
        });
        sim.schedule(0, Ev::Foreign(0));
        sim.schedule(5, Ev::Foreign(1));
        assert_eq!(sim.run_to_completion(), 3, "two foreign events and one run");
        assert_eq!(sim.model.seen, [(12, 100), (20, 1)]);
    }

    #[test]
    fn an_event_of_the_same_kind_from_elsewhere_is_not_taken_for_ours() {
        let mut s = Scheduler::new();
        let mut c = Completions::new(1);
        s.at(3, Ev::Done);
        c.push(&mut s, 0, 3, 7, |_| Ev::Done);
        let (t, _) = s.pop_at_or_before(Time::MAX).expect("queued");
        assert_eq!(t, 3);
        assert!(!c.fired(&s), "scheduled by hand, not by the set");
        assert_eq!(c.next(&mut s, |_| Ev::Done), Some(7));
        assert_eq!(c.next(&mut s, |_| Ev::Done), None);
        assert_eq!(s.pending(), 0, "the set's own event went unseen");
    }
}
