//! Conservative (lookahead-based) parallel execution of a sharded
//! model on plain OS threads.
//!
//! The data plane partitions into *shards* (one per NUMA domain in
//! `ps-core`), each owning a private [`Scheduler`] — its own heap and
//! next-slot — and a disjoint slice of model state. The caller holds
//! the queues as a plain `[Scheduler]` slice, one per shard. There is
//! no merged order across queues: a shard's events are ordered by its
//! own queue alone, and shards meet only at window barriers.
//! Shards interact only through **typed cross-shard messages** with a
//! minimum latency `L` (the lookahead: in PacketShader terms, the
//! cross-IOH/QPI hop). That bound is what makes parallel execution
//! safe *and* deterministic:
//!
//! * Virtual time is cut into windows. Every shard runs window `k` to
//!   completion before any shard starts window `k+1` (a
//!   [`std::sync::Barrier`]). Window deadlines are **adaptive**: the
//!   next deadline is `GVT + L - 1` (clipped to `until`), where GVT is
//!   the earliest pending event or in-flight message across all
//!   shards. Idle stretches of virtual time cost zero barriers, and a
//!   run with no cross traffic (`lookahead > until`) is a single
//!   barrier-free window.
//! * A message emitted at time `t >= GVT` arrives at `t + L >
//!   GVT + L - 1`, i.e. strictly after the window it was emitted in —
//!   no shard can ever receive a message for its past. The outbox
//!   ([`CrossQueue::send`]) asserts this contract.
//! * Messages are exchanged in **batches**: during a window each shard
//!   appends emissions to per-destination outbox vectors; at the
//!   barrier the leader moves each non-empty vector to its destination
//!   — one `Vec` swap per communicating shard pair per window, never a
//!   per-message channel round-trip. Each destination then sorts its
//!   batch by `(arrival, source, per-source emission index)` — a total
//!   order independent of how shards are hosted on threads — and
//!   delivers in that order before its next window starts.
//! * Shards are decoupled from threads: a pool of `T <= shards`
//!   threads claims shard-windows from a shared counter, so a thread
//!   that finishes its shard early **steals** the next unstarted
//!   shard's window instead of idling at the barrier. Each
//!   shard-window executes atomically against the shard's private
//!   state, so the result is independent of which thread hosts it.
//!
//! The observable evolution of every shard is therefore a pure
//! function of the initial state and the lookahead — independent of
//! thread count, steal pattern and shard count. With `T == 1` (the
//! default on a single-core host) the whole run executes inline on
//! the calling thread: no spawns, no barriers, no atomics.
//!
//! The workspace is hermetic: only `std::thread`, `std::sync`.

use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

use crate::event::Scheduler;
use crate::time::Time;

/// A model partitioned into shards that communicate exclusively via
/// typed messages with a minimum cross-shard latency.
///
/// Each shard is one value of the implementing type; `handle` runs
/// local events against the shard's private queue, and emissions to
/// other shards go through the [`CrossQueue`] outbox instead of being
/// scheduled directly. `deliver` is the receiving side, invoked at
/// window barriers in the deterministic global message order.
pub trait ShardModel {
    /// Local event type of each shard's queue.
    type Event;
    /// Cross-shard message payload.
    type Cross;

    /// Handle one local event at the shard's current virtual time.
    fn handle(
        &mut self,
        sched: &mut Scheduler<Self::Event>,
        ev: Self::Event,
        cross: &mut CrossQueue<Self::Cross>,
    );

    /// Accept a cross-shard message arriving at `at` (always strictly
    /// inside the shard's *next* window, never its past). Typically
    /// schedules a local event at `at`.
    fn deliver(&mut self, sched: &mut Scheduler<Self::Event>, at: Time, msg: Self::Cross);
}

/// An in-flight cross-shard message, keyed for the deterministic
/// merge: `(arrival, src, idx)` where `idx` is the per-source emission
/// counter. A source lives in exactly one shard under any hosting, so
/// the key — and therefore the delivery order — is independent of the
/// shard count.
struct CrossMsg<C> {
    arrival: Time,
    src: usize,
    idx: u64,
    to: usize,
    msg: C,
}

/// Per-shard outbox for cross-shard messages, handed to
/// [`ShardModel::handle`]. Enforces the lookahead contract and stamps
/// each message with its per-source emission index (monotone across
/// the whole run, so ties at equal arrival times order identically no
/// matter how emissions spread over windows).
pub struct CrossQueue<C> {
    window_end: Time,
    counters: Vec<u64>,
    msgs: Vec<CrossMsg<C>>,
}

impl<C> CrossQueue<C> {
    fn new() -> Self {
        CrossQueue {
            window_end: 0,
            counters: Vec::new(),
            msgs: Vec::new(),
        }
    }

    /// Emit a message from source `src` (a model-defined id, e.g. a
    /// NUMA node index) to destination `to`, arriving at absolute time
    /// `arrival`.
    ///
    /// # Panics
    /// Panics if `arrival` does not lie strictly beyond the current
    /// window: that would mean the model's cross-shard latency is
    /// smaller than the lookahead the run was started with, i.e. the
    /// parallel execution could miss causality.
    pub fn send(&mut self, src: usize, to: usize, arrival: Time, msg: C) {
        assert!(
            arrival > self.window_end,
            "cross-shard message violates the lookahead contract: \
             arrival {arrival} <= window end {}",
            self.window_end
        );
        if src >= self.counters.len() {
            self.counters.resize(src + 1, 0);
        }
        let idx = self.counters[src];
        self.counters[src] += 1;
        self.msgs.push(CrossMsg {
            arrival,
            src,
            idx,
            to,
            msg,
        });
    }
}

/// What a sharded run did, beyond its (deterministic) virtual-time
/// result: barrier count, steal count and the in-flight message
/// high-water mark. Purely observational — two runs of the same
/// inputs always produce the same model state, but may report
/// different `stolen` counts depending on thread timing.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardRunStats {
    /// Number of conservative windows executed (barriers + 1 with
    /// multiple threads; always ≥ 1).
    pub windows: u64,
    /// Shard-windows executed by a thread other than the shard's home
    /// thread (`shard % threads`) — i.e. how often work-stealing
    /// actually moved work. Always 0 when `threads == 1`.
    pub stolen: u64,
    /// Maximum number of cross-shard messages in flight (emitted but
    /// not yet delivered) observed at any barrier.
    pub max_in_flight: usize,
    /// OS threads the run actually used (after clamping to the shard
    /// count and the host's available parallelism).
    pub threads: usize,
}

/// The thread count [`run_sharded`] uses for `shards` shards:
/// `min(shards, available_parallelism)`, overridable with the
/// `PS_SHARD_THREADS` environment variable (which may exceed the
/// host's parallelism — useful for exercising the steal and barrier
/// paths on small machines).
pub fn default_shard_threads(shards: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    let cap = std::env::var("PS_SHARD_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(hw);
    cap.min(shards).max(1)
}

/// Everything one shard owns during a run. A shard-window executes
/// atomically against this state under its mutex, so which OS thread
/// hosts it is unobservable.
struct Slot<'a, M: ShardModel> {
    model: &'a mut M,
    sched: &'a mut Scheduler<M::Event>,
    cross: CrossQueue<M::Cross>,
    /// Per-destination outboxes filled while draining a window; moved
    /// wholesale to the destinations at the barrier.
    out: Vec<Vec<CrossMsg<M::Cross>>>,
    /// Batches received at barriers, merged lazily at window start.
    fresh: Vec<Vec<CrossMsg<M::Cross>>>,
    /// Merged undelivered messages, sorted by `(arrival, src, idx)`.
    pending: Vec<CrossMsg<M::Cross>>,
    /// Published after each window: earliest pending event or
    /// undelivered/outgoing message arrival — this shard's GVT input.
    local_min: Option<Time>,
}

impl<M: ShardModel> Slot<'_, M> {
    /// Run one conservative window to `deadline` (inclusive):
    /// merge + deliver due messages, drain local events, advance the
    /// clock, partition emissions into per-destination outboxes and
    /// publish the local GVT component.
    fn run_window<F: Fn(usize) -> usize>(&mut self, deadline: Time, until: Time, dest: &F) {
        if !self.fresh.is_empty() {
            for batch in self.fresh.drain(..) {
                self.pending.extend(batch);
            }
            // Keys are unique per (src, idx), so an unstable sort
            // yields the same deterministic delivery order a stable
            // one would.
            self.pending
                .sort_unstable_by_key(|m| (m.arrival, m.src, m.idx));
        }
        let due = self.pending.partition_point(|m| m.arrival <= deadline);
        for m in self.pending.drain(..due) {
            self.model.deliver(self.sched, m.arrival, m.msg);
        }
        self.cross.window_end = deadline;
        while let Some((_, ev)) = self.sched.pop_due(deadline) {
            self.model.handle(self.sched, ev, &mut self.cross);
        }
        self.sched.advance_clock(deadline);
        let mut lmin = self.sched.peek_time();
        for m in self.cross.msgs.drain(..) {
            if m.arrival > until {
                // Never deliverable — the same fate a past-`until`
                // event has in a sequential `run_until`. Dropping at
                // the source bounds the in-flight set.
                continue;
            }
            lmin = Some(lmin.map_or(m.arrival, |v| v.min(m.arrival)));
            self.out[dest(m.to)].push(m);
        }
        if let Some(first) = self.pending.first() {
            lmin = Some(lmin.map_or(first.arrival, |v| v.min(first.arrival)));
        }
        self.local_min = lmin;
    }

    /// Undelivered messages held by this shard (for the in-flight
    /// high-water mark).
    fn held(&self) -> usize {
        self.pending.len() + self.fresh.iter().map(Vec::len).sum::<usize>()
    }
}

/// Barrier work, executed by exactly one thread while all others wait:
/// move every non-empty outbox vector to its destination shard (the
/// "one `Vec` swap per shard pair" exchange), compute the global
/// virtual time floor, and track the in-flight high-water mark.
/// Returns `(gvt, in_flight)`.
fn exchange<M: ShardModel>(slots: &[Mutex<Slot<'_, M>>]) -> (Option<Time>, usize) {
    let n = slots.len();
    let mut gvt: Option<Time> = None;
    let mut moved: Vec<Vec<CrossMsg<M::Cross>>> = Vec::new();
    // Phase 1: take outboxes and fold the GVT inputs.
    for slot in slots {
        let mut s = slot.lock().expect("no shard panicked");
        if let Some(m) = s.local_min {
            gvt = Some(gvt.map_or(m, |v: Time| v.min(m)));
        }
        for d in 0..n {
            moved.push(std::mem::take(&mut s.out[d]));
        }
    }
    // Phase 2: hand each non-empty batch to its destination.
    let mut in_flight = 0;
    for (d, slot) in slots.iter().enumerate() {
        let mut dst = slot.lock().expect("no shard panicked");
        for src in 0..n {
            let batch = std::mem::take(&mut moved[src * n + d]);
            if !batch.is_empty() {
                dst.fresh.push(batch);
            }
        }
        in_flight += dst.held();
    }
    (gvt, in_flight)
}

/// The adaptive window rule: the next deadline is `GVT + L - 1`
/// (clipped to `until`); with nothing pending anywhere, jump straight
/// to `until`. Every pending item lies strictly beyond the previous
/// deadline, so the window sequence always makes progress — and GVT
/// is a *global* quantity (the same system state at any shard count),
/// which is what keeps the window sequence, and therefore the
/// delivery order, identical across shard counts.
fn next_deadline(gvt: Option<Time>, lookahead: Time, until: Time) -> Time {
    match gvt {
        Some(g) => g.saturating_add(lookahead - 1).min(until),
        None => until,
    }
}

/// Run every shard to `until` (inclusive) under conservative
/// synchronization with the given `lookahead`, on
/// [`default_shard_threads`] OS threads.
///
/// * `models[i]` runs against `scheds[i]`; seed initial events there
///   before calling.
/// * `lookahead` is the minimum cross-shard latency `L >= 1`. Windows
///   are sized adaptively (see [the module docs](self)); every
///   emission is guaranteed to land beyond its own window. Pass
///   `until + 1` (or more) when shards never communicate — the run
///   collapses to one barrier-free window.
/// * `dest_shard` maps a message's destination id to a shard index.
///
/// After the run every shard's clock stands exactly at `until`.
/// Messages that would arrive after `until` are discarded — the same
/// fate a past-`until` event has in a sequential `run_until`.
///
/// # Panics
/// Panics if there are no shards, if `models` and `scheds` disagree
/// on the shard count, if `lookahead == 0`, or if a shard worker
/// panics (the panic is propagated to the caller).
pub fn run_sharded<M, F>(
    models: &mut [M],
    scheds: &mut [Scheduler<M::Event>],
    until: Time,
    lookahead: Time,
    dest_shard: F,
) -> ShardRunStats
where
    M: ShardModel + Send,
    M::Event: Send,
    M::Cross: Send,
    F: Fn(usize) -> usize + Sync,
{
    let threads = default_shard_threads(models.len());
    run_sharded_on(models, scheds, until, lookahead, threads, dest_shard)
}

/// [`run_sharded`] with the thread count pinned explicitly. `threads`
/// is clamped to `[1, shards]`; `threads == 1` executes the whole run
/// inline on the calling thread (no spawns, no barriers) — the window
/// sequence and every virtual-time result are identical either way.
pub fn run_sharded_on<M, F>(
    models: &mut [M],
    scheds: &mut [Scheduler<M::Event>],
    until: Time,
    lookahead: Time,
    threads: usize,
    dest_shard: F,
) -> ShardRunStats
where
    M: ShardModel + Send,
    M::Event: Send,
    M::Cross: Send,
    F: Fn(usize) -> usize + Sync,
{
    let n = models.len();
    assert!(n >= 1, "a sharded run needs at least one shard");
    assert_eq!(n, scheds.len(), "one model per shard");
    assert!(lookahead >= 1, "lookahead must be at least one tick");
    let threads = threads.clamp(1, n);

    let slots: Vec<Mutex<Slot<'_, M>>> = models
        .iter_mut()
        .zip(scheds.iter_mut())
        .map(|(model, sched)| {
            Mutex::new(Slot {
                model,
                sched,
                cross: CrossQueue::new(),
                out: (0..n).map(|_| Vec::new()).collect(),
                fresh: Vec::new(),
                pending: Vec::new(),
                local_min: None,
            })
        })
        .collect();

    // The first deadline anchors at the earliest seeded event, the
    // same GVT rule every later window uses.
    let gvt0 = slots
        .iter()
        .filter_map(|s| s.lock().expect("unused yet").sched.peek_time())
        .min();
    let first = next_deadline(gvt0, lookahead, until);

    let mut stats = ShardRunStats {
        threads,
        ..ShardRunStats::default()
    };

    if threads == 1 {
        let mut deadline = first;
        loop {
            stats.windows += 1;
            for slot in &slots {
                slot.lock().expect("inline run cannot poison").run_window(
                    deadline,
                    until,
                    &dest_shard,
                );
            }
            let (gvt, in_flight) = exchange(&slots);
            stats.max_in_flight = stats.max_in_flight.max(in_flight);
            if deadline >= until {
                break;
            }
            deadline = next_deadline(gvt, lookahead, until);
        }
        return stats;
    }

    let barrier = Barrier::new(threads);
    let jobs = AtomicUsize::new(0);
    let deadline = AtomicU64::new(first);
    let done = AtomicBool::new(false);
    let poisoned = AtomicBool::new(false);
    let windows = AtomicU64::new(0);
    let stolen = AtomicU64::new(0);
    let high_water = AtomicUsize::new(0);
    let payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for t in 0..threads {
            let slots = &slots;
            let dest_shard = &dest_shard;
            let barrier = &barrier;
            let jobs = &jobs;
            let deadline = &deadline;
            let done = &done;
            let poisoned = &poisoned;
            let windows = &windows;
            let stolen = &stolen;
            let high_water = &high_water;
            let payload = &payload;
            scope.spawn(move || loop {
                let d = deadline.load(Ordering::Acquire);
                // Claim shard-windows until the pool is drained. A
                // thread whose "home" shards finished early claims —
                // steals — someone else's next unstarted shard.
                let run = std::panic::catch_unwind(AssertUnwindSafe(|| loop {
                    let i = jobs.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    if i % threads != t {
                        stolen.fetch_add(1, Ordering::Relaxed);
                    }
                    slots[i]
                        .lock()
                        .expect("claimed exactly once per window")
                        .run_window(d, until, dest_shard);
                }));
                if let Err(p) = run {
                    poisoned.store(true, Ordering::Release);
                    let mut slot = payload.lock().expect("payload lock");
                    if slot.is_none() {
                        *slot = Some(p);
                    }
                }
                if barrier.wait().is_leader() {
                    windows.fetch_add(1, Ordering::Relaxed);
                    if poisoned.load(Ordering::Acquire) || d >= until {
                        done.store(true, Ordering::Release);
                    } else {
                        let (gvt, in_flight) = exchange(slots);
                        high_water.fetch_max(in_flight, Ordering::Relaxed);
                        deadline.store(next_deadline(gvt, lookahead, until), Ordering::Release);
                        jobs.store(0, Ordering::Release);
                    }
                }
                barrier.wait();
                if done.load(Ordering::Acquire) {
                    break;
                }
            });
        }
    });

    if let Some(p) = payload.lock().expect("payload lock").take() {
        std::panic::resume_unwind(p);
    }
    stats.windows = windows.load(Ordering::Relaxed);
    stats.stolen = stolen.load(Ordering::Relaxed);
    stats.max_in_flight = high_water.load(Ordering::Relaxed);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    type Log = Vec<(Time, u64)>;

    fn queues<E>(n: usize) -> Vec<Scheduler<E>> {
        (0..n).map(|_| Scheduler::new()).collect()
    }

    /// Shard `id` logs every event and volleys `v+1` back to the other
    /// shard with `latency` ns of flight time.
    struct PingPong {
        id: usize,
        latency: Time,
        limit: u64,
        log: Log,
    }

    impl ShardModel for PingPong {
        type Event = u64;
        type Cross = u64;
        fn handle(&mut self, sched: &mut Scheduler<u64>, ev: u64, cross: &mut CrossQueue<u64>) {
            self.log.push((sched.now(), ev));
            if ev < self.limit {
                cross.send(self.id, 1 - self.id, sched.now() + self.latency, ev + 1);
            }
        }
        fn deliver(&mut self, sched: &mut Scheduler<u64>, at: Time, msg: u64) {
            sched.at(at, msg);
        }
    }

    fn volley_on(latency: Time, lookahead: Time, until: Time, threads: usize) -> (Log, Log) {
        let mut models = vec![
            PingPong {
                id: 0,
                latency,
                limit: 8,
                log: vec![],
            },
            PingPong {
                id: 1,
                latency,
                limit: 8,
                log: vec![],
            },
        ];
        let mut scheds = queues(2);
        scheds[0].at(0, 0);
        run_sharded_on(
            &mut models,
            &mut scheds,
            until,
            lookahead,
            threads,
            |node| node,
        );
        assert_eq!(scheds[0].now(), until);
        assert_eq!(scheds[1].now(), until);
        let mut it = models.into_iter();
        (it.next().unwrap().log, it.next().unwrap().log)
    }

    fn volley(latency: Time, lookahead: Time, until: Time) -> (Log, Log) {
        volley_on(latency, lookahead, until, default_shard_threads(2))
    }

    #[test]
    fn volleys_alternate_with_exact_latency() {
        let (a, b) = volley(10, 10, 1000);
        assert_eq!(a, vec![(0, 0), (20, 2), (40, 4), (60, 6), (80, 8)]);
        assert_eq!(b, vec![(10, 1), (30, 3), (50, 5), (70, 7)]);
    }

    #[test]
    fn smaller_lookahead_gives_identical_results() {
        // Any lookahead <= the true latency is safe and observably
        // equivalent; only the number of barriers changes.
        assert_eq!(volley(10, 10, 1000), volley(10, 1, 1000));
        assert_eq!(volley(10, 10, 1000), volley(10, 3, 1000));
    }

    #[test]
    fn thread_count_is_unobservable() {
        // Inline, one-per-shard, and oversubscribed (clamped) all
        // produce the identical virtual-time evolution.
        let inline = volley_on(10, 3, 1000, 1);
        assert_eq!(inline, volley_on(10, 3, 1000, 2));
        assert_eq!(inline, volley_on(10, 3, 1000, 7));
    }

    #[test]
    fn adaptive_windows_skip_idle_time() {
        // Volleys end by t=80 (limit 8, latency 10); with lookahead 1
        // a fixed-grid runtime would need ~1000 windows, the adaptive
        // rule anchors windows at events and then jumps to `until`.
        let mut models = vec![
            PingPong {
                id: 0,
                latency: 10,
                limit: 8,
                log: vec![],
            },
            PingPong {
                id: 1,
                latency: 10,
                limit: 8,
                log: vec![],
            },
        ];
        let mut scheds = queues(2);
        scheds[0].at(0, 0);
        let stats = run_sharded_on(&mut models, &mut scheds, 1000, 1, 1, |node| node);
        assert!(
            stats.windows <= 12,
            "expected ~one window per volley + final, got {}",
            stats.windows
        );
    }

    #[test]
    fn until_clips_the_run() {
        // The volley at t=40 is the last one at or before until=45;
        // the message for t=50 is in flight but never delivered.
        let (a, b) = volley(10, 10, 45);
        assert_eq!(a.last(), Some(&(40, 4)));
        assert_eq!(b.last(), Some(&(30, 3)));
    }

    #[test]
    #[should_panic(expected = "lookahead contract")]
    fn undershooting_the_latency_is_caught() {
        // The model's real latency (2) is smaller than the declared
        // lookahead (10): the emission lands inside its own window.
        volley(2, 10, 1000);
    }

    #[test]
    #[should_panic(expected = "lookahead contract")]
    fn undershooting_is_caught_across_threads_too() {
        // The panic must propagate out of a pooled worker without
        // deadlocking the barrier.
        volley_on(2, 10, 1000, 2);
    }

    #[test]
    fn single_shard_run_matches_sequential_dispatch() {
        // One shard, no messages: run_sharded must be a plain
        // run_until in disguise, windows and all.
        struct Chain(Vec<(Time, u32)>);
        impl ShardModel for Chain {
            type Event = u32;
            type Cross = ();
            fn handle(&mut self, sched: &mut Scheduler<u32>, ev: u32, _: &mut CrossQueue<()>) {
                self.0.push((sched.now(), ev));
                if ev < 5 {
                    sched.after(7, ev + 1);
                }
            }
            fn deliver(&mut self, _: &mut Scheduler<u32>, _: Time, _: ()) {
                unreachable!("no cross traffic")
            }
        }
        let mut models = vec![Chain(vec![])];
        let mut scheds = queues(1);
        scheds[0].at(0, 0);
        run_sharded(&mut models, &mut scheds, 100, 4, |_| 0);
        assert_eq!(
            models[0].0,
            vec![(0, 0), (7, 1), (14, 2), (21, 3), (28, 4), (35, 5)]
        );
        assert_eq!(scheds[0].now(), 100);
    }

    #[test]
    fn no_cross_traffic_is_one_barrier_free_window() {
        struct Quiet;
        impl ShardModel for Quiet {
            type Event = u32;
            type Cross = ();
            fn handle(&mut self, _: &mut Scheduler<u32>, _: u32, _: &mut CrossQueue<()>) {}
            fn deliver(&mut self, _: &mut Scheduler<u32>, _: Time, _: ()) {}
        }
        let mut models = vec![Quiet, Quiet];
        let mut scheds = queues(2);
        scheds[0].at(0, 1);
        scheds[1].at(3, 2);
        let stats = run_sharded_on(&mut models, &mut scheds, 1000, 1001, 1, |n| n);
        assert_eq!(stats.windows, 1, "lookahead > until means no barriers");
        assert_eq!(stats.max_in_flight, 0);
    }
}
