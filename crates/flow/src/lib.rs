//! # ps-flow — a deterministic cuckoo flow cache for stateful NFs
//!
//! PacketShader's four applications are stateless per packet; a
//! production dataplane carries *per-flow* state under churn (NAT
//! bindings, load-balancer stickiness). This crate provides the state
//! store they share: a set-associative cuckoo hash table keyed on the
//! RSS 5-tuple, sized for millions of entries, with
//!
//! * **two-choice cuckoo placement** — every key hashes to two
//!   4-way buckets; insertion relocates residents along a bounded,
//!   precomputed kick chain so no entry is ever left homeless;
//! * **8-byte slots over a dense entry arena** — a bucket slot is one
//!   word holding a hash tag and the index of a 32-byte arena entry
//!   (the key, its last-seen stamp and the value, but no hash: a kick
//!   recomputes it from the key, and moves the slot word, not the
//!   entry). The bucket array is allocated zeroed and the arena is
//!   reserved up front, so a table costs the pages its flows touch;
//! * **one probe per packet, loaded ahead** — [`FlowCache::probe`]
//!   walks a key's buckets once and hands back either the live entry,
//!   to read, write or remove in place, or a vacant handle that
//!   inserts without a second walk; [`FlowCache::prefetch_bucket`]
//!   and [`FlowCache::prefetch_entry`] let a batch start both loads a
//!   few packets early;
//! * **LRU eviction** — when both buckets are full and no chain
//!   frees a slot, the least-recently-seen candidate is evicted
//!   (deterministic tie-break by bucket, then slot);
//! * **idle expiry on the virtual clock** — every touch stamps the
//!   entry with the packet's arrival time; entries idle longer than
//!   the timeout are reclaimed lazily on access, and handed back to
//!   the caller like evicted ones. No wall-clock time is ever
//!   consulted.
//!
//! Everything is a pure function of the operation sequence: the same
//! inserts and lookups at the same virtual times produce the same
//! table, the same evictions and the same statistics — the property
//! that lets the sharded runtime replicate per-NUMA-node caches and
//! still merge byte-identical reports (DESIGN.md §10).

#![deny(missing_docs)]

use ps_rng::splitmix64;
use ps_sim::time::Time;

#[cfg(test)]
mod reference;

/// The RSS-style 5-tuple `(src addr, dst addr, src port, dst port,
/// protocol)` — the shape `ps_net::FlowKey::five_tuple` returns.
pub type FlowTuple = (u32, u32, u16, u16, u8);

/// Slots per bucket (set associativity). Four 8-byte slot words make
/// a 32-byte bucket, two to a 64-byte line.
pub(crate) const WAYS: usize = 4;

/// Bound on the cuckoo kick chain explored per insertion. Chains this
/// long are vanishingly rare below ~90% load; past the bound the
/// insert falls back to LRU eviction.
pub(crate) const MAX_KICKS: usize = 8;

/// Canonical byte serialization of a flow tuple — the exact bytes the
/// GPU hash kernel reads, so device and host hash identical input.
pub fn tuple_bytes(t: &FlowTuple) -> [u8; 13] {
    let mut b = [0u8; 13];
    b[0..4].copy_from_slice(&t.0.to_be_bytes());
    b[4..8].copy_from_slice(&t.1.to_be_bytes());
    b[8..10].copy_from_slice(&t.2.to_be_bytes());
    b[10..12].copy_from_slice(&t.3.to_be_bytes());
    b[12] = t.4;
    b
}

/// The 64-bit flow hash: two SplitMix64 finalization rounds over the
/// canonical tuple bytes. The low 32 bits index the first bucket, the
/// high 32 bits the second — one hash yields both choices, which is
/// what the GPU offload ships back per packet.
pub fn flow_hash(t: &FlowTuple) -> u64 {
    flow_hash_bytes(&tuple_bytes(t))
}

/// Hash a tuple already serialized as [`tuple_bytes`] — the function
/// the GPU kernel runs per thread (same rounds, same result).
pub fn flow_hash_bytes(b: &[u8; 13]) -> u64 {
    let lo = u64::from_le_bytes(b[0..8].try_into().expect("fixed"));
    let hi = u64::from_le_bytes([b[8], b[9], b[10], b[11], b[12], 0, 0, 0]);
    let mut s = lo ^ 0x9E37_79B9_7F4A_7C15;
    let first = splitmix64(&mut s);
    s = first ^ hi;
    splitmix64(&mut s)
}

/// Observable counters: the flow-cache gauges `trace_summary`
/// surfaces (occupancy is read off the cache itself).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FlowCacheStats {
    /// Lookups and probes.
    pub lookups: u64,
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing (or only an expired entry).
    pub misses: u64,
    /// New entries placed.
    pub inserts: u64,
    /// Inserts that refreshed an existing key.
    pub updates: u64,
    /// Entries evicted by LRU under capacity pressure.
    pub evictions: u64,
    /// Entries reclaimed past the idle timeout.
    pub expiries: u64,
    /// Total cuckoo relocations performed across all inserts.
    pub displacements: u64,
    /// Deepest kick chain any single insert needed.
    pub max_depth: u64,
}

impl FlowCacheStats {
    /// Fold another cache's counters into these (per-node caches
    /// reported as one): counts add, `max_depth` takes the maximum.
    pub fn merge(&mut self, other: &FlowCacheStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.misses += other.misses;
        self.inserts += other.inserts;
        self.updates += other.updates;
        self.evictions += other.evictions;
        self.expiries += other.expiries;
        self.displacements += other.displacements;
        self.max_depth = self.max_depth.max(other.max_depth);
    }
}

/// One resident flow in the arena: the key's five fields laid out
/// flat beside the last-seen stamp and the value. No copy of the
/// hash: the key determines it, and a kick recomputes it. 32 bytes
/// for any `V` of up to 8 bytes and alignment 4 (24 for `u16`).
#[derive(Clone, Copy)]
struct Entry<V> {
    src: u32,
    dst: u32,
    sport: u16,
    dport: u16,
    proto: u8,
    last_seen: Time,
    value: V,
}

impl<V> Entry<V> {
    fn new(key: FlowTuple, last_seen: Time, value: V) -> Entry<V> {
        let (src, dst, sport, dport, proto) = key;
        Entry {
            src,
            dst,
            sport,
            dport,
            proto,
            last_seen,
            value,
        }
    }

    fn key(&self) -> FlowTuple {
        (self.src, self.dst, self.sport, self.dport, self.proto)
    }
}

/// A slot word: `0` when empty; otherwise the key's [`tag`] in the
/// high 32 bits and its arena index plus one in the low 32.
type Slot = u64;

/// One bucket: [`WAYS`] slot words.
type Bucket = [Slot; WAYS];

/// The 32 hash bits a slot word keeps to filter keys before the arena
/// is read: both halves folded, so residents of one bucket (which
/// share the low or the high half's bucket bits) still differ.
fn tag(h: u64) -> u32 {
    (h >> 32) as u32 ^ h as u32
}

fn slot_word(tag: u32, entry: usize) -> Slot {
    (u64::from(tag) << 32) | (entry as u64 + 1)
}

fn word_tag(w: Slot) -> u32 {
    (w >> 32) as u32
}

/// The arena index of occupied slot word `w`.
fn word_entry(w: Slot) -> usize {
    (w as u32 - 1) as usize
}

/// Start loading the cache line that holds `p`.
#[inline(always)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint to the memory system. It never
    // faults, whatever the address, and reads nothing the program
    // can observe.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// What an insertion did (observability for callers that recycle
/// the state of entries it pushed out, e.g. the NAT port allocator).
pub struct Inserted<V> {
    /// The resident this insert pushed out of its slot, if any: the
    /// LRU victim, or an entry past the idle timeout it reclaimed.
    pub freed: Option<(FlowTuple, V)>,
    /// Cuckoo relocations this insert performed.
    pub displaced: u32,
}

/// The outcome of [`FlowCache::probe`]: the one table walk a packet
/// makes, whatever it then does with its flow.
pub enum Probe<'a, V> {
    /// The key is resident and live; its stamp is refreshed.
    Hit(Hit<'a, V>),
    /// The key is not resident (any more).
    Miss {
        /// The key's own entry, found past the idle timeout and
        /// reclaimed by this probe.
        expired: Option<V>,
        /// Where the key can be inserted.
        vacant: Vacant<'a, V>,
    },
}

/// A live resident found by [`FlowCache::probe`].
pub struct Hit<'a, V> {
    cache: &'a mut FlowCache<V>,
    idx: usize,
}

impl<'a, V: Copy> Hit<'a, V> {
    /// The resident's value.
    pub fn get_mut(&mut self) -> &mut V {
        &mut self.cache.entry_mut(self.idx).value
    }

    /// The resident's value, for as long as the cache is borrowed.
    pub fn into_mut(self) -> &'a mut V {
        &mut self.cache.entry_mut(self.idx).value
    }

    /// Remove the resident, returning its value: [`FlowCache::remove`]
    /// without a second walk.
    pub fn remove(self) -> V {
        self.cache.occupancy -= 1;
        self.cache.take(self.idx).value
    }
}

/// An absent key, ready to be placed by [`Vacant::insert`].
pub struct Vacant<'a, V> {
    cache: &'a mut FlowCache<V>,
    h: u64,
    key: FlowTuple,
    now: Time,
}

impl<V: Copy> Vacant<'_, V> {
    /// Insert the probed key at the probe's time: [`FlowCache::insert`]
    /// without its refresh scan (the probe just missed).
    pub fn insert(self, value: V) -> Inserted<V> {
        self.cache.place(self.h, self.key, self.now, value)
    }
}

/// The deterministic cuckoo flow cache. See the crate docs for the
/// placement, eviction and expiry rules.
pub struct FlowCache<V> {
    /// Slot words, allocated zeroed: construction writes nothing, and
    /// a page no key hashes to is never touched.
    buckets: Vec<Bucket>,
    /// Resident entries, reserved for every slot at construction so a
    /// run never reallocates; untouched capacity costs no memory.
    arena: Vec<Entry<V>>,
    /// Arena indices freed by removals and expiries, reused first.
    free: Vec<u32>,
    /// Bucket-index mask (`buckets - 1`, buckets a power of two).
    mask: usize,
    /// Idle timeout in virtual ns; `0` disables expiry.
    idle_ns: Time,
    occupancy: usize,
    stats: FlowCacheStats,
}

impl<V: Copy> FlowCache<V> {
    /// Bytes one resident entry takes in the arena.
    pub const ENTRY_BYTES: usize = std::mem::size_of::<Entry<V>>();

    /// A cache with room for at least `capacity` entries (rounded up
    /// to a power-of-two bucket count) whose entries expire after
    /// `idle_ns` of virtual-clock inactivity (`0` = never).
    pub fn new(capacity: usize, idle_ns: Time) -> FlowCache<V> {
        let buckets = (capacity.div_ceil(WAYS)).next_power_of_two().max(2);
        let slots = buckets * WAYS;
        assert!(
            slots <= u32::MAX as usize,
            "{slots} slots overflow a slot word"
        );
        FlowCache {
            buckets: vec![[0; WAYS]; buckets],
            arena: Vec::with_capacity(slots),
            free: Vec::with_capacity(slots),
            mask: buckets - 1,
            idle_ns,
            occupancy: 0,
            stats: FlowCacheStats::default(),
        }
    }

    /// Live entries currently resident.
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Total slots (entries the table can hold at 100% load).
    pub fn capacity(&self) -> usize {
        self.buckets.len() * WAYS
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> &FlowCacheStats {
        &self.stats
    }

    /// The configured idle timeout (virtual ns; `0` = never).
    pub fn idle_timeout(&self) -> Time {
        self.idle_ns
    }

    fn bucket1(&self, h: u64) -> usize {
        (h as usize) & self.mask
    }

    fn bucket2(&self, h: u64) -> usize {
        let b2 = ((h >> 32) as usize) & self.mask;
        let b1 = self.bucket1(h);
        if b2 == b1 {
            (b1 ^ 1) & self.mask
        } else {
            b2
        }
    }

    fn alt_bucket(&self, h: u64, b: usize) -> usize {
        let (b1, b2) = (self.bucket1(h), self.bucket2(h));
        if b == b1 {
            b2
        } else {
            b1
        }
    }

    /// Start loading both buckets of the key whose flow hash is `h`:
    /// the first of the two lookahead stages. Changes nothing.
    pub fn prefetch_bucket(&self, h: u64) {
        for b in [self.bucket1(h), self.bucket2(h)] {
            // A bucket is 32 B, so it may straddle two lines.
            let bucket = &self.buckets[b];
            prefetch(&bucket[0]);
            prefetch(&bucket[WAYS - 1]);
        }
    }

    /// Start loading the arena entry of every slot in `h`'s buckets
    /// whose tag matches `h`: the second lookahead stage, once
    /// [`FlowCache::prefetch_bucket`] has brought the buckets in.
    /// Changes nothing.
    pub fn prefetch_entry(&self, h: u64) {
        let t = tag(h);
        for b in [self.bucket1(h), self.bucket2(h)] {
            for &w in &self.buckets[b] {
                if w != 0 && word_tag(w) == t {
                    prefetch(self.arena.as_ptr().wrapping_add(word_entry(w)));
                }
            }
        }
    }

    fn expired(&self, e: &Entry<V>, now: Time) -> bool {
        self.idle_ns != 0 && now.saturating_sub(e.last_seen) > self.idle_ns
    }

    /// Slot `idx`'s word (bucket `idx / WAYS`, way `idx % WAYS`).
    fn word(&self, idx: usize) -> Slot {
        self.buckets[idx / WAYS][idx % WAYS]
    }

    fn word_mut(&mut self, idx: usize) -> &mut Slot {
        &mut self.buckets[idx / WAYS][idx % WAYS]
    }

    /// The entry occupied slot `idx` points at.
    fn entry(&self, idx: usize) -> &Entry<V> {
        &self.arena[word_entry(self.word(idx))]
    }

    fn entry_mut(&mut self, idx: usize) -> &mut Entry<V> {
        let e = word_entry(self.word(idx));
        &mut self.arena[e]
    }

    /// The resident at slot `idx`, if any.
    fn resident(&self, idx: usize) -> Option<&Entry<V>> {
        (self.word(idx) != 0).then(|| self.entry(idx))
    }

    /// Fill empty slot `idx` with `entry`, whose key hashes to `h`.
    fn put(&mut self, idx: usize, h: u64, entry: Entry<V>) {
        let e = match self.free.pop() {
            Some(e) => {
                self.arena[e as usize] = entry;
                e as usize
            }
            None => {
                self.arena.push(entry);
                self.arena.len() - 1
            }
        };
        *self.word_mut(idx) = slot_word(tag(h), e);
    }

    /// Empty occupied slot `idx`, returning its entry.
    fn take(&mut self, idx: usize) -> Entry<V> {
        let e = word_entry(std::mem::take(self.word_mut(idx)));
        self.free.push(e as u32);
        self.arena[e]
    }

    /// The slot holding `key` (whose hash is `h`), live or expired.
    fn find(&self, h: u64, key: &FlowTuple) -> Option<usize> {
        let t = tag(h);
        for b in [self.bucket1(h), self.bucket2(h)] {
            for (s, &w) in self.buckets[b].iter().enumerate() {
                if w != 0 && word_tag(w) == t && self.arena[word_entry(w)].key() == *key {
                    return Some(b * WAYS + s);
                }
            }
        }
        None
    }

    /// Look up `key` at virtual time `now`. A hit refreshes the
    /// entry's last-seen stamp; an entry past the idle timeout is
    /// reclaimed, its value dropped, and reported as a miss.
    pub fn lookup(&mut self, key: &FlowTuple, now: Time) -> Option<&mut V> {
        match self.probe(flow_hash(key), key, now) {
            Probe::Hit(hit) => Some(hit.into_mut()),
            Probe::Miss { .. } => None,
        }
    }

    /// Walk `key`'s two buckets once at virtual time `now`, `h` being
    /// `flow_hash(key)` (the GPU offload path: the kernel hashes, the
    /// host probes). Counted as a lookup. A live hit refreshes its
    /// stamp and can be read, written or removed in place; an entry
    /// past the idle timeout is reclaimed and handed back with the
    /// miss, whose [`Vacant::insert`] places the key without walking
    /// its buckets for it again.
    pub fn probe(&mut self, h: u64, key: &FlowTuple, now: Time) -> Probe<'_, V> {
        debug_assert_eq!(h, flow_hash(key), "probe hash is not the key's flow_hash");
        self.stats.lookups += 1;
        let expired = match self.find(h, key) {
            Some(idx) if !self.expired(self.entry(idx), now) => {
                self.stats.hits += 1;
                self.entry_mut(idx).last_seen = now;
                return Probe::Hit(Hit { cache: self, idx });
            }
            Some(idx) => self.take_expired(idx).map(|(_, v)| v),
            None => None,
        };
        self.stats.misses += 1;
        Probe::Miss {
            expired,
            vacant: Vacant {
                cache: self,
                h,
                key: *key,
                now,
            },
        }
    }

    /// Insert (or refresh) `key` at virtual time `now`. Returns what
    /// happened: any LRU-evicted entry and the kick-chain depth used.
    pub fn insert(&mut self, key: FlowTuple, now: Time, value: V) -> Inserted<V> {
        let h = flow_hash(&key);
        // Refresh an existing binding in place.
        if let Some(idx) = self.find(h, &key) {
            let e = self.entry_mut(idx);
            e.last_seen = now;
            e.value = value;
            self.stats.updates += 1;
            return Inserted {
                freed: None,
                displaced: 0,
            };
        }
        self.place(h, key, now, value)
    }

    /// Place `key`, known absent, into one of its buckets.
    fn place(&mut self, h: u64, key: FlowTuple, now: Time, value: V) -> Inserted<V> {
        let (b1, b2) = (self.bucket1(h), self.bucket2(h));
        let entry = Entry::new(key, now, value);
        // Direct placement into an empty (or expired) slot.
        for b in [b1, b2] {
            if let Some(s) = self.free_slot(b, now) {
                let freed = self.take_expired(b * WAYS + s);
                self.put(b * WAYS + s, h, entry);
                self.occupancy += 1;
                self.stats.inserts += 1;
                return Inserted {
                    freed,
                    displaced: 0,
                };
            }
        }
        // Cuckoo: walk a bounded kick chain from each home bucket
        // (victim slot rotates with depth, so the choice is a pure
        // function of the chain position), then apply it in reverse,
        // moving slot words — no entry is ever homeless mid-insert.
        for start in [b1, b2] {
            if let Some((path, free)) = self.find_chain(start, now) {
                let freed = self.take_expired(free);
                let depth = path.len() as u64;
                self.stats.displacements += depth;
                self.stats.max_depth = self.stats.max_depth.max(depth);
                let mut dst = free;
                for &src in path.iter().rev() {
                    let moved = std::mem::take(self.word_mut(src));
                    *self.word_mut(dst) = moved;
                    dst = src;
                }
                self.put(dst, h, entry);
                self.occupancy += 1;
                self.stats.inserts += 1;
                return Inserted {
                    freed,
                    displaced: depth as u32,
                };
            }
        }
        // Both buckets full, no chain frees a slot: evict the
        // least-recently-seen candidate (ties break by bucket then
        // slot order — deterministic), reusing its arena entry.
        let mut victim = b1 * WAYS;
        let mut oldest = Time::MAX;
        for b in [b1, b2] {
            for s in 0..WAYS {
                let idx = b * WAYS + s;
                if let Some(e) = self.resident(idx) {
                    if e.last_seen < oldest {
                        oldest = e.last_seen;
                        victim = idx;
                    }
                }
            }
        }
        let old = std::mem::replace(self.entry_mut(victim), entry);
        *self.word_mut(victim) = slot_word(tag(h), word_entry(self.word(victim)));
        self.stats.evictions += 1;
        self.stats.inserts += 1;
        Inserted {
            freed: Some((old.key(), old.value)),
            displaced: 0,
        }
    }

    /// First slot in bucket `b` that is empty or holds an entry past
    /// the idle timeout.
    fn free_slot(&self, b: usize, now: Time) -> Option<usize> {
        (0..WAYS).find(|&s| match self.resident(b * WAYS + s) {
            None => true,
            Some(e) => self.expired(e, now),
        })
    }

    /// Empty slot `idx`, which is empty or expired, handing back the
    /// expired resident.
    fn take_expired(&mut self, idx: usize) -> Option<(FlowTuple, V)> {
        if self.word(idx) == 0 {
            return None;
        }
        let e = self.take(idx);
        self.occupancy -= 1;
        self.stats.expiries += 1;
        Some((e.key(), e.value))
    }

    /// Search a kick chain from bucket `start`: follow victims (slot
    /// `depth % WAYS` at each level) through their alternate buckets,
    /// recomputed from their keys, until one has a free slot, up to
    /// [`MAX_KICKS`] levels. Returns the chain's slot indices and the
    /// terminal free slot index.
    fn find_chain(&self, start: usize, now: Time) -> Option<(Vec<usize>, usize)> {
        let mut path = Vec::new();
        let mut b = start;
        for depth in 0..MAX_KICKS {
            let idx = b * WAYS + depth % WAYS;
            let e = self.resident(idx)?;
            let alt = self.alt_bucket(flow_hash(&e.key()), b);
            path.push(idx);
            if let Some(free) = self.free_slot(alt, now) {
                return Some((path, alt * WAYS + free));
            }
            b = alt;
        }
        None
    }

    /// Remove `key` if resident, returning its value — connection
    /// teardown (a NAT binding released on FIN/RST). Counted as
    /// neither an eviction nor an expiry: the flow ended, it was not
    /// displaced.
    pub fn remove(&mut self, key: &FlowTuple) -> Option<V> {
        let idx = self.find(flow_hash(key), key)?;
        self.occupancy -= 1;
        Some(self.take(idx).value)
    }

    /// Drop every resident entry — the fault model's flow-state loss
    /// (a faulted shard's table is gone; flows must re-establish).
    /// Returns how many entries were lost. Statistics survive: the
    /// ledger of what happened is not part of the lost state. Only
    /// occupied slot words are written, so pages no key touched stay
    /// untouched.
    pub fn flush(&mut self) -> u64 {
        let mut n = 0;
        for w in self.buckets.iter_mut().flatten() {
            if *w != 0 {
                *w = 0;
                n += 1;
            }
        }
        self.arena.clear();
        self.free.clear();
        self.occupancy = 0;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps_check::{check, ensure_eq, Gen};
    use reference::RefCache;

    fn key(i: u32) -> FlowTuple {
        (i, !i, (i % 50_000) as u16, 80, 17)
    }

    #[test]
    fn insert_then_lookup_hits() {
        let mut c: FlowCache<u32> = FlowCache::new(1024, 0);
        for i in 0..500 {
            c.insert(key(i), 10, i);
        }
        assert_eq!(c.occupancy(), 500);
        for i in 0..500 {
            assert_eq!(c.lookup(&key(i), 20).copied(), Some(i));
        }
        assert_eq!(c.stats().hits, 500);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn idle_entries_expire_on_touch() {
        let mut c: FlowCache<u32> = FlowCache::new(64, 100);
        c.insert(key(1), 0, 1);
        c.insert(key(2), 0, 2);
        // Within the timeout: hit refreshes the stamp.
        assert!(c.lookup(&key(1), 90).is_some());
        // key(1) refreshed at 90 survives t=150; key(2) (idle since 0)
        // does not.
        assert!(c.lookup(&key(1), 150).is_some());
        let h = flow_hash(&key(2));
        assert!(matches!(
            c.probe(h, &key(2), 150),
            Probe::Miss {
                expired: Some(2),
                ..
            }
        ));
        assert_eq!(c.stats().expiries, 1);
        // A touch past the timeout reclaims the last one.
        assert!(c.lookup(&key(1), 1_000).is_none());
        assert_eq!(c.stats().expiries, 2);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn insert_hands_back_the_idle_entry_it_reclaims() {
        // Tiny table: 2 buckets * 4 ways = 8 slots, all idle by t=500.
        let mut c: FlowCache<u32> = FlowCache::new(8, 100);
        for i in 0..8 {
            c.insert(key(i), 0, i);
        }
        let r = c.insert(key(8), 500, 8);
        let (k, v) = r.freed.expect("an idle resident gives up its slot");
        assert_eq!(k, key(v));
        assert_eq!((c.stats().expiries, c.stats().evictions), (1, 0));
        assert_eq!(c.occupancy(), 8);
    }

    #[test]
    fn capacity_pressure_evicts_lru_not_random() {
        // Tiny table: 2 buckets * 4 ways = 8 slots.
        let mut c: FlowCache<u32> = FlowCache::new(8, 0);
        for i in 0..64 {
            c.insert(key(i), Time::from(i), i);
        }
        let s = *c.stats();
        assert_eq!(s.inserts, 64);
        assert!(s.evictions > 0, "a full table must evict");
        assert_eq!(c.occupancy() as u64 + s.evictions, 64);
        // Survivors must be more recent than every evicted stamp set:
        // the newest key always survives its own insert.
        assert!(c.lookup(&key(63), 64).is_some());
    }

    #[test]
    fn cuckoo_chains_raise_load_factor_past_direct_placement() {
        let mut c: FlowCache<u32> = FlowCache::new(4096, 0);
        let cap = c.capacity();
        let target = cap * 85 / 100;
        for i in 0..target as u32 {
            c.insert(key(i), 5, i);
        }
        let s = *c.stats();
        assert_eq!(
            c.occupancy() as u64 + s.evictions,
            target as u64,
            "every insert is resident or accounted as an eviction"
        );
        assert!(s.displacements > 0, "85% load must exercise the kick chain");
        assert!(s.max_depth >= 1 && s.max_depth <= MAX_KICKS as u64);
        // The overwhelming majority must still be resident at 85%.
        assert!(
            c.occupancy() >= target * 95 / 100,
            "occupancy {} of {target}",
            c.occupancy()
        );
    }

    #[test]
    fn flush_loses_state_but_not_the_ledger() {
        let mut c: FlowCache<u32> = FlowCache::new(256, 0);
        for i in 0..100 {
            c.insert(key(i), 1, i);
        }
        let inserts_before = c.stats().inserts;
        assert_eq!(c.flush(), 100);
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.stats().inserts, inserts_before);
        assert!(c.lookup(&key(5), 2).is_none());
        // Flows re-establish cleanly.
        c.insert(key(5), 3, 5);
        assert_eq!(c.lookup(&key(5), 3).copied(), Some(5));
    }

    #[test]
    fn hash_matches_byte_serialized_form() {
        for i in [0u32, 1, 0xFFFF_FFFF, 0x0A00_0001] {
            let t = key(i);
            assert_eq!(flow_hash(&t), flow_hash_bytes(&tuple_bytes(&t)));
        }
    }

    #[test]
    fn operations_are_deterministic() {
        let run = || {
            let mut c: FlowCache<u64> = FlowCache::new(512, 1_000);
            let mut log = Vec::new();
            for i in 0..2_000u64 {
                let k = key((i % 700) as u32);
                let t = i * 13;
                if i % 3 == 0 {
                    let r = c.insert(k, t, i);
                    log.push((r.freed.map(|(k, _)| k), r.displaced));
                } else {
                    log.push((c.lookup(&k, t).map(|_| k), 0));
                }
            }
            (log, *c.stats(), c.occupancy())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn slot_words_index_32_byte_entries_two_buckets_a_line() {
        assert_eq!(std::mem::size_of::<Slot>(), 8);
        assert_eq!(64 / std::mem::size_of::<Bucket>(), 2);
        assert_eq!(FlowCache::<u16>::ENTRY_BYTES, 24);
        assert_eq!(FlowCache::<u32>::ENTRY_BYTES, 32);
        assert_eq!(FlowCache::<u64>::ENTRY_BYTES, 32);
    }

    /// One step of a random program.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Insert(u32, u64),
        Lookup(u32),
        /// On a hit, remove the entry or add 1,000 to its value; on a
        /// miss, insert `insert` if set.
        Probe {
            k: u32,
            remove: bool,
            insert: Option<u64>,
        },
        Remove(u32),
        Flush,
    }

    type Placed = (Option<(FlowTuple, u64)>, u32);

    /// What one step returned.
    #[derive(Debug, PartialEq)]
    enum Out {
        Inserted(Placed),
        Found(Option<u64>),
        Hit(u64),
        Miss(Option<u64>, Option<Placed>),
        Flushed(u64),
    }

    fn placed(r: Inserted<u64>) -> Placed {
        (r.freed, r.displaced)
    }

    /// Pool key `i`: bits 0–3 of `i` pick the destination, the ports
    /// and the protocol, so keys one bit apart differ in one field.
    fn pool_key(i: u32) -> FlowTuple {
        let bit = |n: u32| (i >> n) & 1;
        (
            i >> 4,
            0x0A00_0001 ^ bit(0),
            1024 + bit(1) as u16,
            80 + bit(2) as u16,
            if bit(3) == 1 { 17 } else { 6 },
        )
    }

    fn step(c: &mut FlowCache<u64>, op: Op, now: Time) -> Out {
        match op {
            Op::Insert(k, v) => Out::Inserted(placed(c.insert(pool_key(k), now, v))),
            Op::Lookup(k) => Out::Found(c.lookup(&pool_key(k), now).copied()),
            Op::Probe { k, remove, insert } => {
                let (t, h) = (pool_key(k), flow_hash(&pool_key(k)));
                // The lookahead stages change nothing a step observes.
                c.prefetch_bucket(h);
                c.prefetch_entry(h);
                match c.probe(h, &t, now) {
                    Probe::Hit(hit) if remove => Out::Hit(hit.remove()),
                    Probe::Hit(hit) => {
                        let v = hit.into_mut();
                        *v += 1_000;
                        Out::Hit(*v)
                    }
                    Probe::Miss { expired, vacant } => {
                        Out::Miss(expired, insert.map(|v| placed(vacant.insert(v))))
                    }
                }
            }
            Op::Remove(k) => Out::Found(c.remove(&pool_key(k))),
            Op::Flush => Out::Flushed(c.flush()),
        }
    }

    /// [`step`] on the reference: a probe is the lookup-then-insert
    /// (or lookup-then-remove) pair the NAT made before `probe`.
    fn step_ref(c: &mut RefCache<u64>, op: Op, now: Time) -> Out {
        let hashed = |k| (pool_key(k), flow_hash(&pool_key(k)));
        match op {
            Op::Insert(k, v) => {
                let (t, h) = hashed(k);
                Out::Inserted(placed(c.insert_prehash(h, t, now, v)))
            }
            Op::Lookup(k) => {
                let (t, h) = hashed(k);
                Out::Found(c.lookup_prehash(h, &t, now).ok().copied())
            }
            Op::Probe { k, remove, insert } => {
                let (t, h) = hashed(k);
                match c.lookup_prehash(h, &t, now) {
                    Ok(v) if remove => {
                        let v = *v;
                        c.remove(&t);
                        Out::Hit(v)
                    }
                    Ok(v) => {
                        *v += 1_000;
                        Out::Hit(*v)
                    }
                    Err(expired) => Out::Miss(
                        expired,
                        insert.map(|v| placed(c.insert_prehash(h, t, now, v))),
                    ),
                }
            }
            Op::Remove(k) => Out::Found(c.remove(&pool_key(k))),
            Op::Flush => Out::Flushed(c.flush()),
        }
    }

    fn op(g: &mut Gen, pool: u32, v: u64) -> Op {
        let k = g.int_in(0..pool);
        match g.int_in(0u32..100) {
            0..=29 => Op::Insert(k, v),
            30..=49 => Op::Lookup(k),
            50..=84 => Op::Probe {
                k,
                remove: g.int_in(0u32..4) == 0,
                insert: (g.int_in(0u32..4) != 0).then_some(v),
            },
            85..=98 => Op::Remove(k),
            _ => Op::Flush,
        }
    }

    /// Random programs over tiny tables (kicks and LRU eviction are
    /// common), idle expiry on or off and keys from a small pool: the
    /// slot-word cache returns what the 40-byte one did, and keeps the
    /// same counters and occupancy, after every step.
    #[test]
    fn probe_agrees_with_reference() {
        check("probe_agrees_with_reference", |g: &mut Gen| {
            let capacity = g.int_in(8usize..=64);
            let idle = if g.int_in(0u32..2) == 0 {
                0
            } else {
                g.int_in(20u64..=300)
            };
            let pool = g.int_in(4u32..=160);
            let n = g.len_in(1, 600);
            let ops: Vec<Op> = (0..n).map(|i| op(g, pool, i as u64)).collect();
            let mut c: FlowCache<u64> = FlowCache::new(capacity, idle);
            let mut r: RefCache<u64> = RefCache::new(capacity, idle);
            let mut now: Time = 0;
            for (i, &op) in ops.iter().enumerate() {
                now += g.int_in(0u64..=40);
                let (got, want) = (step(&mut c, op, now), step_ref(&mut r, op, now));
                ensure_eq!(got, want, "step {i} {op:?} at {now}");
                ensure_eq!(c.stats(), r.stats(), "step {i} {op:?}");
                ensure_eq!(c.occupancy(), r.occupancy(), "step {i} {op:?}");
            }
            Ok(())
        });
    }
}
