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
//! * **LRU eviction** — when both buckets are full and no chain
//!   frees a slot, the least-recently-seen candidate is evicted
//!   (deterministic tie-break by bucket, then slot);
//! * **idle expiry on the virtual clock** — every touch stamps the
//!   entry with the packet's arrival time; entries idle longer than
//!   the timeout are reclaimed lazily on access. No wall-clock time
//!   is ever consulted.
//!
//! Everything is a pure function of the operation sequence: the same
//! inserts and lookups at the same virtual times produce the same
//! table, the same evictions and the same statistics — the property
//! that lets the sharded runtime replicate per-NUMA-node caches and
//! still merge byte-identical reports (DESIGN.md §10).

#![deny(missing_docs)]

use ps_rng::splitmix64;
use ps_sim::time::Time;

/// The RSS-style 5-tuple `(src addr, dst addr, src port, dst port,
/// protocol)` — the shape `ps_net::FlowKey::five_tuple` returns.
pub type FlowTuple = (u32, u32, u16, u16, u8);

/// Slots per bucket (set associativity). Four 5-tuple entries keep a
/// bucket within one or two cache lines, the layout hardware cuckoo
/// tables use.
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
    /// Lookup calls.
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

/// One resident flow.
struct Entry<V> {
    hash: u64,
    key: FlowTuple,
    last_seen: Time,
    value: V,
}

/// What an insertion did (observability for callers that recycle
/// evicted state, e.g. the NAT port allocator).
pub struct Inserted<V> {
    /// The entry LRU-evicted to make room, if any.
    pub evicted: Option<(FlowTuple, V)>,
    /// Cuckoo relocations this insert performed.
    pub displaced: u32,
}

/// The deterministic cuckoo flow cache. See the crate docs for the
/// placement, eviction and expiry rules.
pub struct FlowCache<V> {
    slots: Vec<Option<Entry<V>>>,
    /// Bucket-index mask (`buckets - 1`, buckets a power of two).
    mask: usize,
    /// Idle timeout in virtual ns; `0` disables expiry.
    idle_ns: Time,
    occupancy: usize,
    stats: FlowCacheStats,
}

impl<V> FlowCache<V> {
    /// A cache with room for at least `capacity` entries (rounded up
    /// to a power-of-two bucket count) whose entries expire after
    /// `idle_ns` of virtual-clock inactivity (`0` = never).
    pub fn new(capacity: usize, idle_ns: Time) -> FlowCache<V> {
        let buckets = (capacity.div_ceil(WAYS)).next_power_of_two().max(2);
        let mut slots = Vec::new();
        slots.resize_with(buckets * WAYS, || None);
        FlowCache {
            slots,
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
        self.slots.len()
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

    fn expired(&self, e: &Entry<V>, now: Time) -> bool {
        self.idle_ns != 0 && now.saturating_sub(e.last_seen) > self.idle_ns
    }

    /// Look up `key` at virtual time `now`. A hit refreshes the
    /// entry's last-seen stamp; an entry past the idle timeout is
    /// reclaimed and reported as a miss.
    pub fn lookup(&mut self, key: &FlowTuple, now: Time) -> Option<&mut V> {
        self.lookup_prehash(flow_hash(key), key, now)
    }

    /// [`Self::lookup`] with the hash already computed (the GPU
    /// offload path: the kernel hashes, the host probes).
    pub fn lookup_prehash(&mut self, h: u64, key: &FlowTuple, now: Time) -> Option<&mut V> {
        self.stats.lookups += 1;
        for b in [self.bucket1(h), self.bucket2(h)] {
            for s in 0..WAYS {
                let idx = b * WAYS + s;
                let hit = matches!(&self.slots[idx],
                    Some(e) if e.hash == h && e.key == *key);
                if hit {
                    if self.expired(self.slots[idx].as_ref().expect("hit"), now) {
                        self.slots[idx] = None;
                        self.occupancy -= 1;
                        self.stats.expiries += 1;
                        self.stats.misses += 1;
                        return None;
                    }
                    self.stats.hits += 1;
                    let e = self.slots[idx].as_mut().expect("hit");
                    e.last_seen = now;
                    return Some(&mut e.value);
                }
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Insert (or refresh) `key` at virtual time `now`. Returns what
    /// happened: any LRU-evicted entry and the kick-chain depth used.
    pub fn insert(&mut self, key: FlowTuple, now: Time, value: V) -> Inserted<V> {
        self.insert_prehash(flow_hash(&key), key, now, value)
    }

    /// [`Self::insert`] with the hash already computed.
    pub fn insert_prehash(&mut self, h: u64, key: FlowTuple, now: Time, value: V) -> Inserted<V> {
        let (b1, b2) = (self.bucket1(h), self.bucket2(h));
        // Refresh an existing binding in place.
        for b in [b1, b2] {
            for s in 0..WAYS {
                let idx = b * WAYS + s;
                if matches!(&self.slots[idx], Some(e) if e.hash == h && e.key == key) {
                    let e = self.slots[idx].as_mut().expect("hit");
                    e.last_seen = now;
                    e.value = value;
                    self.stats.updates += 1;
                    return Inserted {
                        evicted: None,
                        displaced: 0,
                    };
                }
            }
        }
        let entry = Entry {
            hash: h,
            key,
            last_seen: now,
            value,
        };
        // Direct placement into an empty (or expired) slot.
        for b in [b1, b2] {
            if let Some(s) = self.free_slot(b, now) {
                self.slots[b * WAYS + s] = Some(entry);
                self.occupancy += 1;
                self.stats.inserts += 1;
                return Inserted {
                    evicted: None,
                    displaced: 0,
                };
            }
        }
        // Cuckoo: walk a bounded kick chain from each home bucket
        // (victim slot rotates with depth, so the choice is a pure
        // function of the chain position), then apply it in reverse —
        // no entry is ever homeless mid-insert.
        for start in [b1, b2] {
            if let Some((path, free)) = self.find_chain(start, now) {
                let depth = path.len() as u64;
                self.stats.displacements += depth;
                self.stats.max_depth = self.stats.max_depth.max(depth);
                let mut dst = free;
                for &(b, s) in path.iter().rev() {
                    let moved = self.slots[b * WAYS + s].take().expect("chain resident");
                    self.slots[dst] = Some(moved);
                    dst = b * WAYS + s;
                }
                self.slots[dst] = Some(entry);
                self.occupancy += 1;
                self.stats.inserts += 1;
                return Inserted {
                    evicted: None,
                    displaced: depth as u32,
                };
            }
        }
        // Both buckets full, no chain frees a slot: evict the
        // least-recently-seen candidate (ties break by bucket then
        // slot order — deterministic).
        let mut victim = b1 * WAYS;
        let mut oldest = Time::MAX;
        for b in [b1, b2] {
            for s in 0..WAYS {
                let idx = b * WAYS + s;
                if let Some(e) = &self.slots[idx] {
                    if e.last_seen < oldest {
                        oldest = e.last_seen;
                        victim = idx;
                    }
                }
            }
        }
        let old = self.slots[victim].replace(entry).expect("bucket full");
        self.stats.evictions += 1;
        self.stats.inserts += 1;
        Inserted {
            evicted: Some((old.key, old.value)),
            displaced: 0,
        }
    }

    /// First free slot in bucket `b`, reclaiming an expired resident
    /// if that is what frees it.
    fn free_slot(&mut self, b: usize, now: Time) -> Option<usize> {
        for s in 0..WAYS {
            let idx = b * WAYS + s;
            match &self.slots[idx] {
                None => return Some(s),
                Some(e) if self.expired(e, now) => {
                    self.slots[idx] = None;
                    self.occupancy -= 1;
                    self.stats.expiries += 1;
                    return Some(s);
                }
                Some(_) => {}
            }
        }
        None
    }

    /// Search a kick chain from bucket `start`: follow victims (slot
    /// `depth % WAYS` at each level) through their alternate buckets
    /// until one has a free slot, up to [`MAX_KICKS`] levels. Returns
    /// the chain and the terminal free slot index.
    fn find_chain(&mut self, start: usize, now: Time) -> Option<(Vec<(usize, usize)>, usize)> {
        let mut path: Vec<(usize, usize)> = Vec::new();
        let mut b = start;
        for depth in 0..MAX_KICKS {
            let s = depth % WAYS;
            let e = self.slots[b * WAYS + s].as_ref()?;
            let alt = self.alt_bucket(e.hash, b);
            path.push((b, s));
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
        let h = flow_hash(key);
        for b in [self.bucket1(h), self.bucket2(h)] {
            for s in 0..WAYS {
                let idx = b * WAYS + s;
                if matches!(&self.slots[idx], Some(e) if e.hash == h && e.key == *key) {
                    self.occupancy -= 1;
                    return self.slots[idx].take().map(|e| e.value);
                }
            }
        }
        None
    }

    /// Drop every resident entry — the fault model's flow-state loss
    /// (a faulted shard's table is gone; flows must re-establish).
    /// Returns how many entries were lost. Statistics survive: the
    /// ledger of what happened is not part of the lost state.
    pub fn flush(&mut self) -> u64 {
        let mut n = 0;
        for slot in &mut self.slots {
            if slot.take().is_some() {
                n += 1;
            }
        }
        self.occupancy = 0;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(c.lookup(&key(2), 150).is_none());
        assert_eq!(c.stats().expiries, 1);
        // A touch past the timeout reclaims the last one.
        assert!(c.lookup(&key(1), 1_000).is_none());
        assert_eq!(c.stats().expiries, 2);
        assert_eq!(c.occupancy(), 0);
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
                    log.push((r.evicted.map(|(k, _)| k), r.displaced));
                } else {
                    log.push((c.lookup(&k, t).map(|_| k), 0));
                }
            }
            (log, *c.stats(), c.occupancy())
        };
        assert_eq!(run(), run());
    }
}
